"""Edit-session orchestration: strategies, renormalization, determinism,
and sessions stepped in lockstep."""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentedit import editor as editor_mod
from latentedit.codec import CodecConfig, decode, encode
from latentedit.denoiser import EditInstruction, compose_edits, edit_denoiser, identity_edit
from latentedit.editor import (
    RENORM_MEAN_FLOOR,
    STRATEGIES,
    SessionExhausted,
    _apply_edits,
    apply_edit,
    open_session,
    renormalize_latent,
    run_all,
)
from latentedit.fixtures import load_fixture
from latentedit.grid import LatentGrid, Mask, RngStream, mean_stat, rmse
from latentedit.sampler import METHODS, SamplerConfig, sample
from latentedit.schedule import build_schedule

# a latent whose per-step noise is drawn on worker threads wherever a
# second CPU is usable (as in test_sampler.py)
POOLED_SHAPE = (128, 128, 2)


def identity(scale=0.0):
    return EditInstruction(id="identity", gain=1.0, bias=0.0, target_scale=scale)


@pytest.fixture
def fixture_image():
    return load_fixture()


@pytest.fixture
def session_kwargs(sched200, sampler_cfg, codec_cfg):
    return dict(sched=sched200, sampler_cfg=sampler_cfg, codec_cfg=codec_cfg)


class TestOpenSession:
    def test_fresh_session_state(self, fixture_image, session_kwargs):
        session = open_session(fixture_image, [identity()] * 4, **session_kwargs, seed=3)
        assert session.e == 0
        assert session.prev_latent is None
        assert session.outputs == []

    def test_empty_edit_list_yields_empty_outputs(self, fixture_image, session_kwargs):
        session = open_session(fixture_image, [], **session_kwargs, seed=3)
        assert run_all(session) == []

    def test_mask_count_must_match(self, fixture_image, session_kwargs):
        with pytest.raises(ValueError, match="1 masks for 2 edits"):
            open_session(fixture_image, [identity(), identity()], [Mask.ones(18, 18)],
                         **session_kwargs, seed=3)

    def test_mask_dims_must_match_latent(self, fixture_image, session_kwargs):
        with pytest.raises(ValueError, match="latent space is 18x18"):
            open_session(fixture_image, [identity()], [Mask.ones(36, 36)],
                         **session_kwargs, seed=3)

    @pytest.mark.parametrize("edit, message", [
        (EditInstruction(id="g", gain=[1.0, 1.1]), "edit 0 gain has 2 channels, latent has 1"),
        (EditInstruction(id="b", bias=LatentGrid.constant(0.1, 36, 36, 1)), "edit 0 bias grid"),
    ], ids=["gain-length", "bias-shape"])
    def test_edit_shape_must_match_latent(self, fixture_image, session_kwargs, edit, message):
        with pytest.raises(ValueError, match=message):
            open_session(fixture_image, [edit], **session_kwargs, seed=3)

    def test_unknown_strategy(self, fixture_image, session_kwargs):
        with pytest.raises(ValueError, match="strategy"):
            open_session(fixture_image, [identity()], **session_kwargs,
                         strategy="pixel_iteration", seed=3)


class TestApplyEdit:
    def test_identity_edit_recovers_encoded_latent(self, fixture_image, session_kwargs):
        # deterministic point target: the sampler inverts exactly, so the
        # output latent equals encode(I_0) to floating-point error
        session = open_session(fixture_image, [identity()], **session_kwargs, seed=3)
        apply_edit(session)
        err = rmse(session.prev_latent, encode(fixture_image, session.codec_cfg))
        assert err <= 1e-3  # stated tolerance; the recovery is exact to fp error
        assert err <= 1e-9

    def test_bias_edit_shifts_latent(self, fixture_image, session_kwargs):
        edit = EditInstruction(id="shift", gain=1.0, bias=0.5, target_scale=0.0)
        session = open_session(fixture_image, [edit], **session_kwargs, seed=3)
        apply_edit(session)
        target = encode(fixture_image, session.codec_cfg).data + 0.5
        np.testing.assert_allclose(session.prev_latent.data, target, atol=1e-9)

    def test_masked_pin_preserves_frozen_latent(self, fixture_image, session_kwargs):
        mask_data = np.zeros((18, 18))
        mask_data[4:10, 4:10] = 1.0
        edit = EditInstruction(id="bright", gain=1.0, bias=0.8, target_scale=0.05)
        session = open_session(fixture_image, [edit], [Mask(mask_data)],
                               **session_kwargs, seed=3)
        apply_edit(session)
        z_src = encode(fixture_image, session.codec_cfg)
        frozen = np.broadcast_to(mask_data[:, :, None] == 0.0, z_src.shape)
        assert np.array_equal(session.prev_latent.data[frozen], z_src.data[frozen])

    def test_direction_mode_reconstructs_at_the_edit_spread(self, fixture_image, sched50,
                                                            codec_cfg):
        # the reconstruction denoiser is the null edit at the edit's own target spread
        mask = Mask(np.pad(np.ones((6, 6)), 6))
        edit = EditInstruction(id="bright", gain=1.0, bias=0.8, target_scale=0.3)
        cfg = SamplerConfig(mask_mode="direction")
        session = open_session(fixture_image, [edit], [mask], sched=sched50, sampler_cfg=cfg,
                               codec_cfg=codec_cfg, seed=3)
        apply_edit(session)
        z_src = encode(fixture_image, codec_cfg)
        want = sample(edit_denoiser(edit, z_src, sched50), z_src.shape, sched50, cfg,
                      RngStream(3).spawn("edit", 0), mask, z_src=z_src,
                      recon_denoiser=edit_denoiser(identity_edit(0.3), z_src, sched50))
        assert np.array_equal(session.prev_latent.data, want.data)

    def test_exhausted_session_raises(self, fixture_image, session_kwargs):
        session = open_session(fixture_image, [identity()], **session_kwargs, seed=3)
        apply_edit(session)
        with pytest.raises(SessionExhausted):
            apply_edit(session)

    def test_returns_decoded_image_dims(self, fixture_image, session_kwargs):
        session = open_session(fixture_image, [identity()], **session_kwargs, seed=3)
        out = apply_edit(session)
        assert out.shape == fixture_image.shape


class TestRenormalize:
    def test_lattice_constant_unchanged(self, codec_cfg):
        z = LatentGrid.constant(2.125, 4, 4, 1)
        out, _ = renormalize_latent(z, decode(z, codec_cfg), codec_cfg)
        np.testing.assert_array_equal(out.data, z.data)

    def test_output_mean_matches_roundtrip_mean(self, codec_cfg, rng):
        z = LatentGrid(1.0 + 0.4 * rng.normal((6, 6, 1)))
        out, _ = renormalize_latent(z, decode(z, codec_cfg), codec_cfg)
        reference = mean_stat(encode(decode(z, codec_cfg), codec_cfg))
        np.testing.assert_allclose(mean_stat(out), reference, rtol=1e-12)

    def test_near_zero_mean_disables_scaling(self, codec_cfg):
        z = LatentGrid.constant(3e-9, 4, 4, 1)
        out, _ = renormalize_latent(z, decode(z, codec_cfg), codec_cfg)
        np.testing.assert_array_equal(out.data, z.data)

    def test_mean_small_against_spread_disables_scaling(self, codec_cfg):
        # Zero-centred latent plus 1e-6: above the absolute floor, but the
        # round-trip's mean error would turn r / d into a factor of ~1e3.
        g = RngStream(0).normal((18, 18, 1))
        z = LatentGrid(g - g.mean() + 1e-6)
        assert abs(mean_stat(z)) > RENORM_MEAN_FLOOR
        out, _ = renormalize_latent(z, decode(z, codec_cfg), codec_cfg)
        np.testing.assert_array_equal(out.data, z.data)


class TestStrategies:
    def test_encode_call_accounting(self, fixture_image, session_kwargs):
        n = 5
        latent = open_session(fixture_image, [identity(0.05)] * n, **session_kwargs,
                              strategy="latent_iteration", seed=4)
        run_all(latent)
        assert latent.encode_calls == 1
        assert latent.renorm_roundtrips == n - 1

        image = open_session(fixture_image, [identity(0.05)] * n, **session_kwargs,
                             strategy="image_iteration", seed=4)
        run_all(image)
        assert image.encode_calls == n
        assert image.renorm_roundtrips == 0

    def test_concat_single_edit_matches_latent_first_step(self, fixture_image, session_kwargs):
        edit = EditInstruction(id="warm", gain=1.05, bias=0.2, target_scale=0.1)
        a = open_session(fixture_image, [edit], **session_kwargs,
                         strategy="latent_iteration", seed=9)
        b = open_session(fixture_image, [edit], **session_kwargs,
                         strategy="concat_instructions", seed=9)
        out_a = apply_edit(a)
        out_b = apply_edit(b)
        assert np.array_equal(out_a.data, out_b.data)

    def test_concat_composes_on_original_latent(self, fixture_image, session_kwargs):
        edits = [
            EditInstruction(id="a", gain=1.1, bias=0.2, target_scale=0.0),
            EditInstruction(id="b", gain=0.9, bias=-0.1, target_scale=0.0),
        ]
        session = open_session(fixture_image, edits, **session_kwargs,
                               strategy="concat_instructions", seed=9)
        run_all(session)
        z0 = encode(fixture_image, session.codec_cfg)
        expected = 0.9 * (1.1 * z0.data + 0.2) - 0.1
        np.testing.assert_allclose(session.prev_latent.data, expected, atol=1e-9)

    def test_concat_prefixes_are_composed_once_at_open(self, sched50, monkeypatch):
        image = LatentGrid(RngStream(8).normal((8, 8, 3)))
        like = encode(image, CodecConfig())
        edits = [
            EditInstruction(id="a", gain=[1.1, 0.9, 1.0], bias=0.2, target_scale=0.05),
            EditInstruction(id="b", gain=1.05, bias=LatentGrid(RngStream(9).normal(like.shape)),
                            target_scale=0.1),
            EditInstruction(id="c", gain=[0.95, 1.0, 1.05], bias=-0.1, target_scale=0.02),
            EditInstruction(id="d", gain=0.9, bias=0.05, target_scale=0.0),
        ]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return compose_edits(*args, **kwargs)

        def bits(edit):
            return (edit.id, edit.gain.tobytes(), isinstance(edit.bias, LatentGrid),
                    np.asarray(edit._bias_values()).tobytes(),
                    np.float64(edit.target_scale).tobytes())

        monkeypatch.setattr(editor_mod, "compose_edits", counting)
        session = open_session(image, edits, sched=sched50, sampler_cfg=SamplerConfig(),
                               codec_cfg=CodecConfig(), strategy="concat_instructions", seed=3)
        assert len(calls) == len(edits) - 1
        assert session.prefixes[0] is edits[0]
        assert len(session.prefixes) == len(edits)
        for e, prefix in enumerate(session.prefixes):
            assert bits(prefix) == bits(compose_edits(edits[: e + 1], like=like))
        run_all(session)
        assert len(calls) == len(edits) - 1

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_each_edit_records_its_latent_mean_and_spread(self, fixture_image, sched50,
                                                          strategy):
        session = open_session(fixture_image, [identity(0.1)] * 3, sched=sched50,
                               sampler_cfg=SamplerConfig(), codec_cfg=CodecConfig(),
                               strategy=strategy, seed=4)
        for e in range(1, 4):
            apply_edit(session)
            latent = session.prev_latent
            want = (mean_stat(latent), float(latent.data.std()))
            assert len(session.latent_stats) == e
            assert np.array(session.latent_stats[-1]).tobytes() == np.array(want).tobytes()

    def test_all_strategies_coincide_on_first_identity_step(self, fixture_image, session_kwargs):
        outs = {}
        for strategy in STRATEGIES:
            session = open_session(fixture_image, [identity(0.05)] * 2, **session_kwargs,
                                   strategy=strategy, seed=11)
            outs[strategy] = apply_edit(session)
        reference = outs["latent_iteration"].data
        for strategy, out in outs.items():
            assert np.array_equal(out.data, reference), strategy

    def test_blur_baseline_differs_after_second_step(self, fixture_image, session_kwargs):
        runs = {}
        for strategy in ("image_iteration", "blur_baseline"):
            session = open_session(fixture_image, [identity(0.05)] * 2, **session_kwargs,
                                   strategy=strategy, seed=11)
            runs[strategy] = run_all(session)[-1]
        assert not np.array_equal(runs["image_iteration"].data, runs["blur_baseline"].data)


class TestDeterminism:
    def test_same_seed_bit_identical_outputs(self, fixture_image, session_kwargs):
        edits = [identity(0.1)] * 3
        outs = []
        for _ in range(2):
            session = open_session(fixture_image, edits, **session_kwargs, seed=21)
            outs.append(run_all(session))
        for a, b in zip(*outs):
            assert np.array_equal(a.data, b.data)

    def test_partial_then_resume_matches_full_run(self, fixture_image, session_kwargs):
        edits = [identity(0.1)] * 3
        full = open_session(fixture_image, edits, **session_kwargs, seed=22)
        run_all(full)
        partial = open_session(fixture_image, edits, **session_kwargs, seed=22)
        apply_edit(partial)
        run_all(partial)
        for a, b in zip(full.outputs, partial.outputs):
            assert np.array_equal(a.data, b.data)

    def test_reuse_init_is_deterministic_and_distinct(self, fixture_image, session_kwargs):
        edits = [identity(0.1)] * 2
        reuse_a = open_session(fixture_image, edits, **session_kwargs, seed=23, reuse_init=True)
        reuse_b = open_session(fixture_image, edits, **session_kwargs, seed=23, reuse_init=True)
        fresh = open_session(fixture_image, edits, **session_kwargs, seed=23)
        outs_a, outs_b, outs_f = run_all(reuse_a), run_all(reuse_b), run_all(fresh)
        assert np.array_equal(outs_a[-1].data, outs_b[-1].data)
        # the z_T actually differs between the literal-reuse and fresh modes
        assert outs_f[0].shape == outs_a[0].shape
        assert not np.array_equal(outs_a[0].data, outs_f[0].data)


def lockstep_sessions(k, strategies, shape, method, mask_mode, reuse_init, seed, T, steps):
    """k fresh sessions that may step in lockstep: one seed, schedule, sampler
    config and mask object, with their own strategy, image and edits."""
    h, w, c = shape
    rng = RngStream(seed).spawn("test")
    sched = build_schedule("linear", T, 1e-3, 0.2)
    cfg = SamplerConfig(method=method, mask_mode=mask_mode or "pin")
    mask = None
    if mask_mode is not None:
        mask = Mask((rng.uniform((h, w)) < 0.5).astype(float))
    sessions = []
    for i in range(k):
        image = LatentGrid(rng.normal((2 * h, 2 * w, c)))
        edits = [
            EditInstruction(
                id=f"e{j}", gain=list(0.8 + 0.4 * rng.uniform((c,))),
                bias=float(rng.uniform() - 0.5), target_scale=float(0.3 * rng.uniform()),
            )
            for j in range(steps)
        ]
        sessions.append(open_session(
            image, edits, None if mask is None else [mask] * steps, sched=sched,
            sampler_cfg=cfg, codec_cfg=CodecConfig(), strategy=strategies[i % len(strategies)],
            seed=seed, reuse_init=reuse_init,
        ))
    return sessions


def assert_same_state(a, b):
    assert a.e == b.e
    assert len(a.outputs) == len(b.outputs)
    for x, y in zip(a.outputs, b.outputs):
        assert np.array_equal(x.data, y.data)
    assert np.array_equal(a.prev_latent.data, b.prev_latent.data)
    assert a.f_history == b.f_history
    assert a.latent_stats == b.latent_stats
    assert (a.encode_calls, a.renorm_roundtrips) == (b.encode_calls, b.renorm_roundtrips)


class TestLockstep:
    @given(
        k=st.integers(1, 4),
        strategies=st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=4),
        shape=st.sampled_from([(1, 1, 1), (3, 3, 1), (3, 5, 2), (2, 3, 3), (4, 4, 1)]),
        method=st.sampled_from(METHODS),
        mask_mode=st.sampled_from([None, "gate", "pin", "direction"]),
        reuse_init=st.booleans(),
        seed=st.integers(0, 2**32),
        T=st.integers(1, 6),
        steps=st.integers(1, 3),
    )
    @example(k=4, strategies=list(STRATEGIES), shape=(3, 3, 1), method="ddpm_full",
             mask_mode="pin", reuse_init=False, seed=0, T=5, steps=3)
    @settings(max_examples=40, deadline=None)
    def test_lockstep_equals_sessions_run_one_at_a_time(
        self, k, strategies, shape, method, mask_mode, reuse_init, seed, T, steps
    ):
        args = (k, strategies, shape, method, mask_mode, reuse_init, seed, T, steps)
        alone = lockstep_sessions(*args)
        for session in alone:
            run_all(session)
        together = lockstep_sessions(*args)
        for _ in range(steps):
            outs = _apply_edits(together)
            assert all(out is s.outputs[-1] for out, s in zip(outs, together))
        for a, b in zip(together, alone):
            assert_same_state(a, b)

    @pytest.mark.parametrize("mask_mode", [None, "pin"])
    def test_pooled_lockstep_equals_one_at_a_time_and_leaves_no_thread(self, mask_mode):
        args = (2, ["latent_iteration", "image_iteration"], POOLED_SHAPE, "ddpm_full",
                mask_mode, False, 3, 3, 2)
        alone = lockstep_sessions(*args)
        for session in alone:
            run_all(session)
        before = threading.active_count()
        together = lockstep_sessions(*args)
        for _ in range(2):
            _apply_edits(together)
        assert threading.active_count() == before
        for a, b in zip(together, alone):
            assert_same_state(a, b)

    @pytest.mark.parametrize("field, change", [
        ("seed", lambda s: dataclasses.replace(s, seed=s.seed + 1)),
        ("e", lambda s: dataclasses.replace(s, e=1)),
        ("latent shape", lambda s: dataclasses.replace(
            s, original=LatentGrid(np.zeros((8, 6, 1))), masks=[None] * 2)),
        ("sched", lambda s: dataclasses.replace(s, sched=build_schedule("linear", 4, 1e-3, 0.2))),
        ("sampler_cfg", lambda s: dataclasses.replace(
            s, sampler_cfg=SamplerConfig(method="euler_ancestral"))),
        ("mask", lambda s: dataclasses.replace(s, masks=[Mask.ones(3, 3)] * 2)),
        ("reuse_init", lambda s: dataclasses.replace(s, reuse_init=True)),
    ])
    def test_precondition_mismatch_names_the_field(self, field, change):
        first, second = lockstep_sessions(2, ["latent_iteration"], (3, 3, 1), "ddpm_full",
                                          "pin", False, 1, 4, 2)
        with pytest.raises(ValueError, match=f"their {field} differs"):
            _apply_edits([first, change(second)])
        assert first.e == 0 and first.outputs == [] and first.encode_calls == 0

    def test_exhausted_member_raises(self):
        first, second = lockstep_sessions(2, ["latent_iteration"], (3, 3, 1), "ddpm_full",
                                          None, False, 1, 4, 1)
        apply_edit(second)
        with pytest.raises(SessionExhausted):
            _apply_edits([first, second])

    def test_no_sessions(self):
        assert _apply_edits([]) == []
