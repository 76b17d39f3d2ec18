"""Quantitative experiments: drift orderings, locality, equivalence, reports."""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from latentedit.bench import (
    DEFAULT_EDIT_NOISE,
    DriftReport,
    EbmReport,
    LocalityReport,
    drift_experiment,
    ebm_equivalence_experiment,
    identity_edit,
    locality_experiment,
    write_report,
)
from latentedit.codec import CodecConfig
from latentedit.denoiser import EditInstruction, GMMPrior
from latentedit.editor import apply_edit, open_session
from latentedit.fixtures import load_fixture
from latentedit.grid import Mask, mean_stat, rmse
from latentedit.sampler import LangevinConfig, SamplerConfig
from latentedit.schedule import build_schedule

STRATEGIES = ("latent_iteration", "image_iteration", "concat_instructions", "blur_baseline")
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")

# sha256 of repr(rows) of a 3-step, T=20 drift experiment over all four
# strategies (seed 5), per method, recorded when each strategy's session ran
# on its own.  Box-Muller's log1p/sin/cos may differ in the last bits on
# another CPU or numpy build, so the digests hold on the platform that
# perfbench/reference.json was recorded on.
GOLDEN_DRIFT = {
    "ddpm_full": "01969c9d6952f2c381ecfcb31d2d33a47db58b98611721a0b069057f789856ca",
    "ddpm_literal": "f2e10aa6b906497eb28251f6661b976aec655ec8df5101685f8bcaccd74e7ff4",
    "euler_ancestral": "4a4768d558a46f1a37d90a926249b4b54f6e51b1f94c3cfecf5d1e3d115a21d6",
}

# sha256 of repr(rows) of both default bench-ebm priors at 300 chains, T=20
# and 30 Langevin steps (seed 5), recorded while each chain's Philox stream
# was computed by a uint64 emulation; same platform caveat as above.
GOLDEN_EBM = "36f9a7b85933ce534edb791b00c85ec243582d9c859446a74db373bbefba7e3e"


def recorded_platform() -> bool:
    """Whether this machine has the platform key of perfbench's reference digests."""
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="ascii") as fh:
        want = json.load(fh)["platform"]
    sys.path.insert(0, PERFBENCH)
    try:
        from run import platform_key
    finally:
        sys.path.remove(PERFBENCH)
    return platform_key() == want


@pytest.fixture(scope="module")
def fixture_image():
    return load_fixture()


@pytest.fixture(scope="module")
def sched():
    return build_schedule("linear", 200, 1e-4, 0.02)


@pytest.fixture(scope="module")
def drift_report(fixture_image, sched):
    return drift_experiment(
        fixture_image, STRATEGIES, 16,
        sched=sched, sampler_cfg=SamplerConfig(), codec_cfg=CodecConfig(),
        seed=5, edit_noise=DEFAULT_EDIT_NOISE,
    )


def column(report, strategy, col):
    idx = report.columns.index(col)
    return [row[idx] for row in report.rows if row[0] == strategy]


class TestDriftExperiment:
    def test_shape(self, drift_report):
        assert len(drift_report) == len(STRATEGIES) * 16
        steps = column(drift_report, "latent_iteration", "step")
        assert steps == list(range(1, 17))

    def test_first_step_identical_across_strategies(self, drift_report):
        firsts = {
            s: column(drift_report, s, "rmse_vs_origin")[0] for s in STRATEGIES
        }
        reference = firsts["latent_iteration"]
        assert all(v == reference for v in firsts.values())

    def test_image_iteration_rmse_non_decreasing(self, drift_report):
        img = column(drift_report, "image_iteration", "rmse_vs_origin")
        assert all(img[i + 1] >= img[i] - 1e-12 for i in range(15))

    def test_latent_at_or_below_image_from_step_two(self, drift_report):
        lat = column(drift_report, "latent_iteration", "rmse_vs_origin")
        img = column(drift_report, "image_iteration", "rmse_vs_origin")
        assert all(lat[e] <= img[e] for e in range(1, 16))

    def test_latent_final_below_image_step_four(self, drift_report):
        lat = column(drift_report, "latent_iteration", "rmse_vs_origin")
        img = column(drift_report, "image_iteration", "rmse_vs_origin")
        assert lat[15] <= img[3]

    def test_latent_drift_stays_bounded(self, drift_report):
        # the latent path never re-encodes, so its distance from the original
        # stays within a small factor of the first-pass codec error while the
        # image path more than doubles
        lat = column(drift_report, "latent_iteration", "rmse_vs_origin")
        img = column(drift_report, "image_iteration", "rmse_vs_origin")
        assert max(lat) <= 2.0 * lat[0]
        assert max(img) > 2.0 * img[0]

    def test_rmse_vs_prev_first_step_equals_vs_origin(self, drift_report):
        for strategy in STRATEGIES:
            origin = column(drift_report, strategy, "rmse_vs_origin")[0]
            prev = column(drift_report, strategy, "rmse_vs_prev")[0]
            assert origin == prev

    def test_deterministic_rerun(self, fixture_image, sched):
        again = drift_experiment(
            fixture_image, STRATEGIES, 16,
            sched=sched, sampler_cfg=SamplerConfig(), codec_cfg=CodecConfig(),
            seed=5, edit_noise=DEFAULT_EDIT_NOISE,
        )
        assert again.rows == [tuple(r) for r in _rows(fixture_image, sched)]

    @pytest.mark.parametrize("method", sorted(GOLDEN_DRIFT))
    def test_rows_match_digest_recorded_one_session_at_a_time(self, fixture_image, method):
        if not recorded_platform():
            pytest.skip("digests were recorded on another CPU or numpy build")
        rep = drift_experiment(
            fixture_image, STRATEGIES, 3, sched=build_schedule("linear", 20),
            sampler_cfg=SamplerConfig(method=method), codec_cfg=CodecConfig(), seed=5,
        )
        assert hashlib.sha256(repr(rep.rows).encode()).hexdigest() == GOLDEN_DRIFT[method]

    def test_rows_equal_sessions_run_one_at_a_time(self, fixture_image):
        kwargs = dict(sched=build_schedule("linear", 20), sampler_cfg=SamplerConfig(),
                      codec_cfg=CodecConfig())
        rows = []
        for strategy in STRATEGIES:
            session = open_session(fixture_image, [identity_edit(0.1)] * 3, **kwargs,
                                   strategy=strategy, seed=6)
            prev = fixture_image
            for step in (1, 2, 3):
                out = apply_edit(session)
                latent = session.prev_latent
                rows.append((strategy, step, rmse(out, fixture_image), rmse(out, prev),
                             mean_stat(latent), float(latent.data.std())))
                prev = out
        rep = drift_experiment(fixture_image, STRATEGIES, 3, **kwargs, seed=6, edit_noise=0.1)
        assert repr(rep.rows) == repr(rows)

    def test_step_count_validation(self, fixture_image, sched):
        with pytest.raises(ValueError, match="steps >= 2"):
            drift_experiment(fixture_image, STRATEGIES, 1, sched=sched,
                             sampler_cfg=SamplerConfig(), codec_cfg=CodecConfig(), seed=5)


def _rows(fixture_image, sched):
    return drift_experiment(
        fixture_image, STRATEGIES, 16,
        sched=sched, sampler_cfg=SamplerConfig(), codec_cfg=CodecConfig(),
        seed=5, edit_noise=DEFAULT_EDIT_NOISE,
    ).rows


@pytest.fixture(scope="module")
def report(fixture_image, sched):
    mask = np.zeros((18, 18))
    mask[4:12, 5:14] = 1.0
    return locality_experiment(
        fixture_image,
        EditInstruction(id="brighten", gain=1.0, bias=0.6, target_scale=0.08),
        Mask(mask),
        ("pin", "direction", "gate"),
        sched=sched, sampler_cfg=SamplerConfig(), codec_cfg=CodecConfig(), seed=3,
    )


class TestLocalityExperiment:
    def test_pin_outside_change_is_exactly_zero(self, report):
        rows = {r[0]: r for r in report.rows}
        assert rows["pin"][2] == 0.0
        assert rows["pin"][3] == 0.0

    def test_unmasked_control_ratio_near_one(self, report):
        rows = {r[0]: r for r in report.rows}
        assert 0.8 <= rows["unmasked"][3] <= 1.25

    def test_ratio_ordering(self, report):
        rows = {r[0]: r for r in report.rows}
        assert rows["pin"][3] < rows["direction"][3] < rows["unmasked"][3]

    def test_gate_leaves_noise_outside(self, report):
        # the literal masked equation never denoises the frozen region, so
        # the outside change dwarfs the inside edit
        rows = {r[0]: r for r in report.rows}
        assert rows["gate"][3] > 2.0

    def test_all_ones_mask_matches_unmasked_control(self, fixture_image, sched):
        report = locality_experiment(
            fixture_image,
            EditInstruction(id="brighten", gain=1.0, bias=0.6, target_scale=0.08),
            Mask.ones(18, 18),
            ("pin",),
            sched=sched, sampler_cfg=SamplerConfig(), codec_cfg=CodecConfig(), seed=3,
        )
        rows = {r[0]: r for r in report.rows}
        # all pixels are "inside": same edit path as the control, bit-exactly
        assert rows["pin"][1] == rows["unmasked"][1]


class TestEbmEquivalence:
    def test_single_gaussian_gaps(self, sched):
        prior = GMMPrior.scalar([1.0], [0.0], [1.0])
        report = ebm_equivalence_experiment(
            prior, sched, LangevinConfig(step_size=0.05, steps=1500), 4000,
            seed=7, label="origin_gaussian",
        )
        row = report.rows[0]
        assert abs(row[2]) < 0.05  # diffusion mean near 0
        assert abs(row[4]) < 0.05  # langevin mean near 0
        assert row[8] is True

    def test_rows_match_digest(self):
        if not recorded_platform():
            pytest.skip("digests were recorded on another CPU or numpy build")
        priors = (("single_gaussian", GMMPrior.scalar([1.0], [3.0], [1.0])),
                  ("bimodal", GMMPrior.scalar([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25])))
        rows = [row for label, prior in priors
                for row in ebm_equivalence_experiment(
                    prior, build_schedule("linear", 20), LangevinConfig(step_size=0.05, steps=30),
                    300, seed=5, label=label).rows]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == GOLDEN_EBM

    def test_zero_chains_rejected(self, sched):
        prior = GMMPrior.scalar([1.0], [0.0], [1.0])
        with pytest.raises(ValueError, match=">= 1"):
            ebm_equivalence_experiment(prior, sched, LangevinConfig(step_size=0.05, steps=1000), 0)

    def test_one_chain_fails_the_check_without_raising(self, sched):
        # one chain has zero variance, so the relative variance gap is 0/0
        prior = GMMPrior.scalar([1.0], [0.0], [1.0])
        row = ebm_equivalence_experiment(prior, sched, LangevinConfig(step_size=0.05, steps=1000),
                                         1).rows[0]
        assert row[3] == row[5] == 0.0 and np.isnan(row[7]) and row[8] is False

    def test_grid_prior_rejected(self, sched):
        from latentedit.grid import LatentGrid

        prior = GMMPrior(np.array([1.0]), (LatentGrid.constant(0.0, 2, 2, 1),),
                         np.array([1.0]))
        with pytest.raises(ValueError, match="scalar"):
            ebm_equivalence_experiment(prior, sched, LangevinConfig(step_size=0.05, steps=1000), 10)


def drift_rows(**series):
    """A DriftReport whose rmse_vs_origin column is ``series[strategy]``."""
    return DriftReport([(strategy, step, value, 0.0, 0.0, 1.0)
                        for strategy, values in series.items()
                        for step, value in enumerate(values, start=1)])


def verdicts(report):
    return {name: ok for name, ok, _ in report.claims()}


class TestDriftClaims:
    IMG = [0.5, 0.6, 0.7, 0.8, 0.9]
    LAT = [0.55, 0.4, 0.4, 0.4, 0.45]  # above image at step 1 only, which is not claimed

    def test_all_pass_in_order_with_details(self):
        claims = drift_rows(latent_iteration=self.LAT, image_iteration=self.IMG).claims()
        assert claims == [
            ("image-iteration-rmse-non-decreasing", True, "final 0.9000"),
            ("latent-below-image-from-step-2", True, "latent final 0.4500 vs image final 0.9000"),
            ("latent-final-below-image-step-4", True, "0.4500 <= 0.8000"),
        ]

    @pytest.mark.parametrize("img, ok", [([0.5, 0.5 - 1e-13, 0.6, 0.7], True),
                                         ([0.5, 0.5 - 1e-11, 0.6, 0.7], False),
                                         ([0.5, 0.7, 0.6, 0.8], False)],
                             ids=["within-slack", "beyond-slack", "drop"])
    def test_image_monotone(self, img, ok):
        assert verdicts(drift_rows(image_iteration=img))["image-iteration-rmse-non-decreasing"] is ok

    def test_latent_above_image_after_step_1_fails(self):
        lat = [0.4, 0.4, 0.71, 0.4, 0.4]
        got = verdicts(drift_rows(latent_iteration=lat, image_iteration=self.IMG))
        assert got["latent-below-image-from-step-2"] is False
        assert got["latent-final-below-image-step-4"] is True

    def test_latent_final_above_image_step_4_fails(self):
        img = [0.5, 0.6, 0.7, 0.8, 0.95]
        lat = [0.4, 0.4, 0.4, 0.4, 0.85]
        got = verdicts(drift_rows(latent_iteration=lat, image_iteration=img))
        assert got["latent-below-image-from-step-2"] is True
        assert got["latent-final-below-image-step-4"] is False

    def test_omissions(self):
        assert drift_rows(latent_iteration=self.LAT, blur_baseline=self.IMG).claims() == []
        assert list(verdicts(drift_rows(image_iteration=self.IMG))) == [
            "image-iteration-rmse-non-decreasing"]
        three = drift_rows(latent_iteration=self.LAT[:3], image_iteration=self.IMG[:3])
        assert list(verdicts(three)) == [
            "image-iteration-rmse-non-decreasing", "latent-below-image-from-step-2"]


class TestLocalityClaims:
    ROWS = {"pin": ("pin", 0.5, 0.0, 0.0), "direction": ("direction", 0.5, 0.05, 0.1),
            "gate": ("gate", 0.5, 1.5, 3.0), "unmasked": ("unmasked", 0.5, 0.5, 1.0)}

    def report(self, **changes):
        rows = {**self.ROWS, **changes}
        return LocalityReport([row for row in rows.values() if row is not None])

    def test_all_pass_in_order_with_details(self):
        assert self.report().claims() == [
            ("pin-outside-exactly-zero", True, "outside rms 0.0"),
            ("unmasked-ratio-near-one", True, "ratio 1.0000"),
            ("ratio-ordering-pin-direction-unmasked", True, "ratios 0.0000 < 0.1000 < 1.0000"),
        ]

    def test_pin_outside_change_fails(self):
        got = verdicts(self.report(pin=("pin", 0.5, 1e-300, 2e-300)))
        assert got["pin-outside-exactly-zero"] is False
        assert got["ratio-ordering-pin-direction-unmasked"] is True

    @pytest.mark.parametrize("ratio, ok", [(0.8, True), (1.25, True), (0.79, False), (1.3, False)])
    def test_unmasked_ratio_band(self, ratio, ok):
        got = verdicts(self.report(unmasked=("unmasked", 0.5, 0.5 * ratio, ratio)))
        assert got["unmasked-ratio-near-one"] is ok

    def test_ordering_fails_when_direction_leaks_more_than_control(self):
        got = verdicts(self.report(direction=("direction", 0.5, 0.6, 1.2)))
        assert got["ratio-ordering-pin-direction-unmasked"] is False

    def test_missing_ratio_counts_as_zero(self):
        claims = self.report(unmasked=("unmasked", 0.0, 0.5, None)).claims()
        assert [name for name, _, _ in claims] == [
            "pin-outside-exactly-zero", "ratio-ordering-pin-direction-unmasked"]
        assert claims[1][1:] == (False, "ratios 0.0000 < 0.1000 < 0.0000")

    def test_omissions(self):
        assert list(verdicts(self.report(pin=None))) == ["unmasked-ratio-near-one"]
        assert list(verdicts(self.report(direction=None))) == [
            "pin-outside-exactly-zero", "unmasked-ratio-near-one"]
        assert list(verdicts(self.report(unmasked=None))) == ["pin-outside-exactly-zero"]
        assert LocalityReport([]).claims() == []


class TestEbmClaims:
    def test_one_claim_per_prior_from_the_pass_column(self):
        rows = [("a", 10, 0.0, 1.0, 0.01, 1.02, 0.01, 0.02, True),
                ("b", 10, 0.0, 1.0, 0.3, 1.5, 0.3, 0.5, False)]
        assert EbmReport(rows).claims() == [
            ("moment-equivalence-a", True, "|dmean|=0.0100 |dvar|/var=0.0200"),
            ("moment-equivalence-b", False, "|dmean|=0.3000 |dvar|/var=0.5000"),
        ]


class TestWriteReport:
    def test_empty_report_is_header_only_csv(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        write_report(DriftReport([]), path, "csv")
        with open(path) as fh:
            content = fh.read()
        assert content == "strategy,step,rmse_vs_origin,rmse_vs_prev,latent_mean,latent_std\n"

    def test_csv_column_order_matches_schema(self, tmp_path):
        path = str(tmp_path / "loc.csv")
        write_report(LocalityReport([("pin", 0.5, 0.0, 0.0)]), path, "csv")
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == "mode,inside_rms,outside_rms,ratio"

    def test_json_roundtrip(self, tmp_path):
        path = str(tmp_path / "loc.json")
        write_report(LocalityReport([("pin", 0.5, 0.0, None)]), path, "json")
        with open(path) as fh:
            payload = json.load(fh)
        assert payload == [{"mode": "pin", "inside_rms": 0.5, "outside_rms": 0.0, "ratio": None}]

    def test_none_ratio_is_empty_csv_cell(self, tmp_path):
        path = str(tmp_path / "loc.csv")
        write_report(LocalityReport([("pin", 0.5, 0.0, None)]), path, "csv")
        with open(path) as fh:
            fh.readline()
            assert fh.readline().strip() == "pin,0.5,0.0,"

    def test_bool_formatting(self, tmp_path):
        path = str(tmp_path / "ebm.csv")
        row = ("p", 10, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, True)
        write_report(EbmReport([row]), path, "csv")
        with open(path) as fh:
            fh.readline()
            assert fh.readline().strip().endswith(",true")

    def test_row_width_validated(self):
        with pytest.raises(ValueError, match="does not match columns"):
            LocalityReport([("pin", 0.5)])

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_report(LocalityReport([]), str(tmp_path / "x"), "xml")


class TestIdentityEdit:
    def test_zero_noise_identity_is_pure(self):
        edit = identity_edit(0.0)
        assert edit.gain[0] == 1.0
        assert edit.bias == 0.0
        assert edit.target_scale == 0.0
