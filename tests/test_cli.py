"""CLI commands: config validation, outputs, exit codes, determinism."""

import hashlib
import json
import os
import re
import warnings

import numpy as np
import pytest

from latentedit import verify
from latentedit.cli import _FIELDS, _REQUIRED, ConfigError, load_config, main
from latentedit.fixtures import load_fixture
from latentedit.grid import read_grid, write_grid, write_mask, LatentGrid, Mask

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_schema():
    """README's "Config schema" block with its ``//`` comments stripped."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("### Config schema", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    return re.sub(r"//.*", "", block)


UNIT_PRIOR = {"weights": [1.0], "means": [0.0], "scales": [1.0]}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    write_grid(load_fixture(), str(tmp_path / "input.grid"))
    return tmp_path


def base_config(out_dir="out", edits=None, extra=None):
    cfg = {
        "seed": 11,
        "out_dir": out_dir,
        "schedule": {"kind": "linear", "T": 120, "beta_start": 1e-4, "beta_end": 0.02},
        "session": {
            "input": "input.grid",
            "strategy": "latent_iteration",
            "edits": edits or [
                {"id": "warm", "bias": 0.3, "scale": 0.05},
                {"id": "brighten", "gain": 1.05, "scale": 0.05},
                {"id": "cool", "bias": -0.2, "scale": 0.05},
                {"id": "flatten", "gain": 0.9, "scale": 0.05},
            ],
        },
    }
    if extra:
        cfg.update(extra)
    return cfg


# Each size field's upper bound in cli._FIELDS
SIZE_BOUNDS = {
    "training.hidden": 1024, "training.embed": 1024, "training.batch_size": 16384,
    "training.steps": 1000000, "bench.ebm.chains": 100000,
    "bench.ebm.langevin.steps": 1000000, "bench.drift.steps": 1000, "schedule.T": 1000,
}


def config_with(path, value):
    """``base_config`` with a training block and ``value`` at the dotted ``path``."""
    cfg = base_config(extra={"training": {"prior": UNIT_PRIOR}})
    *parents, leaf = path.split(".")
    node = cfg
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return cfg


class TestRunSession:
    def test_writes_grids_and_log(self, workspace):
        out = str(workspace / "out")
        config = write_config(workspace, base_config(out_dir=out))
        assert main(["run-session", config]) == 0
        files = sorted(os.listdir(out))
        assert files == [
            "edit_001.grid", "edit_002.grid", "edit_003.grid", "edit_004.grid",
            "session_log.json",
        ]
        with open(os.path.join(out, "session_log.json")) as fh:
            log = json.load(fh)
        assert log["strategy"] == "latent_iteration"
        assert log["num_edits"] == 4
        assert len(log["edits"]) == 4
        assert "duration_s" not in log["edits"][0]

    def test_timings_flag_adds_durations(self, workspace):
        out = str(workspace / "out_timed")
        config = write_config(workspace, base_config(out_dir=out))
        assert main(["run-session", config, "--timings"]) == 0
        with open(os.path.join(out, "session_log.json")) as fh:
            log = json.load(fh)
        assert "duration_s" in log["edits"][0]

    def test_missing_input_file_exits_2_naming_field(self, workspace, capsys):
        cfg = base_config()
        cfg["session"]["input"] = "nope.grid"
        config = write_config(workspace, cfg)
        assert main(["run-session", config]) == 2
        err = capsys.readouterr().err
        assert "config.session.input" in err
        assert "nope.grid" in err

    def test_unknown_key_rejected_with_path(self, workspace, capsys):
        cfg = base_config()
        cfg["session"]["editz"] = []
        config = write_config(workspace, cfg)
        assert main(["run-session", config]) == 2
        assert "config.session.editz" in capsys.readouterr().err

    def test_unknown_strategy_exits_2(self, workspace, capsys):
        cfg = base_config()
        cfg["session"]["strategy"] = "magic"
        config = write_config(workspace, cfg)
        assert main(["run-session", config]) == 2
        assert "config.session.strategy" in capsys.readouterr().err

    def test_byte_identical_reruns(self, workspace):
        out_a = str(workspace / "a")
        out_b = str(workspace / "b")
        config = write_config(workspace, base_config(out_dir="ignored"))
        assert main(["run-session", config, "--out", out_a]) == 0
        assert main(["run-session", config, "--out", out_b]) == 0
        for name in sorted(os.listdir(out_a)):
            with open(os.path.join(out_a, name), "rb") as fh:
                bytes_a = fh.read()
            with open(os.path.join(out_b, name), "rb") as fh:
                bytes_b = fh.read()
            assert bytes_a == bytes_b, name

    def test_seed_flag_changes_outputs(self, workspace):
        out_a = str(workspace / "s1")
        out_b = str(workspace / "s2")
        config = write_config(workspace, base_config())
        main(["run-session", config, "--out", out_a])
        main(["run-session", config, "--out", out_b, "--seed", "99"])
        a = read_grid(os.path.join(out_a, "edit_001.grid"))
        b = read_grid(os.path.join(out_b, "edit_001.grid"))
        assert not np.array_equal(a.data, b.data)

    def test_masked_edit_via_files(self, workspace):
        mask = np.zeros((18, 18))
        mask[2:9, 3:12] = 1.0
        write_mask(Mask(mask), str(workspace / "m.mask"))
        cfg = base_config(edits=[{"id": "local", "bias": 0.7, "scale": 0.05, "mask": "m.mask"}])
        config = write_config(workspace, cfg)
        out = str(workspace / "masked")
        assert main(["run-session", config, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "edit_001.grid"))

    def test_sampler_divergence_exits_1_with_one_line(self, workspace, capsys):
        cfg = {"seed": 0, "out_dir": "out", "schedule": {"T": 20},
               "session": {"input": "input.grid",
                           "edits": [{"id": "a", "gain": 1e306, "scale": 0.1}]}}
        config = write_config(workspace, cfg)
        assert main(["run-session", config, "--method", "ddpm_literal"]) == 1
        err = capsys.readouterr().err
        assert err == "run-session: sampled latent became non-finite within T=20 reverse steps\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, change, edit", [
        ("run-session", {"session": {"input": "input.grid",
                                     "edits": [{"id": "big", "gain": 1e308, "bias": 1e308}]}},
         "edit 1 (big)"),
        ("run-session", {"session": {"input": "input.grid",
                                     "edits": [{"id": "g1", "gain": 1.0},
                                               {"id": "g2", "gain": 1e308}]}},
         "edit 2 (g2)"),
        ("bench-locality", {"bench": {"locality": {"edit": {"id": "big", "gain": 1e308,
                                                            "bias": 1e308}}}},
         "edit 1 (big)"),
        # a finite output latent whose mean or spread is inf: the session log
        # held Infinity, and a next edit conditioned on a latent renormalized by 0
        ("run-session", {"session": {"input": "input.grid",
                                     "edits": [{"id": "big", "gain": 1e307, "scale": 0.1}]}},
         "edit 1 (big)"),
        ("run-session", {"session": {"input": "input.grid",
                                     "edits": [{"id": "big", "gain": 1e307, "scale": 0.1},
                                               {"id": "next", "gain": 1.0, "scale": 0.1}]}},
         "edit 1 (big)"),
        ("run-session", {"session": {"input": "input.grid",
                                     "edits": [{"id": "g1", "gain": 1e200},
                                               {"id": "g2", "gain": 1e200}]}},
         "edit 1 (g1)"),
        ("run-session", {"session": {"input": "input.grid", "strategy": "image_iteration",
                                     "edits": [{"id": "g1", "gain": 1e200},
                                               {"id": "g2", "gain": 1e200}]}},
         "edit 1 (g1)"),
        ("bench-locality", {"bench": {"locality": {"edit": {"id": "big", "gain": 1e306,
                                                            "scale": 0.1}}}},
         "edit 1 (big)"),
    ], ids=["target-overflows", "second-target-overflows", "locality-target-overflows",
            "latent-mean-overflows", "latent-mean-overflows-then-renormalized",
            "latent-spread-overflows", "image-iteration-latent-spread-overflows",
            "locality-latent-mean-overflows"])
    def test_edit_that_overflows_exits_1_with_one_line(self, workspace, capsys, command, change,
                                                       edit):
        config = write_config(workspace, {"seed": 0, "out_dir": "out", "schedule": {"T": 20},
                                          **change})
        assert main([command, config, "--out", str(workspace / "out")]) == 1
        err = capsys.readouterr().err
        assert err == (f"{command}: {edit} overflows: "
                       "its target mean, latent or image is not finite\n")

    @pytest.mark.parametrize("command, key, message", [
        ("run-session", "session", "config.session: missing (needed by run-session)"),
        ("bench-drift", "out_dir", "config.out_dir: missing (or pass --out)"),
    ], ids=["no-session", "no-out-dir"])
    def test_missing_block_exits_2_naming_it(self, workspace, capsys, command, key, message):
        cfg = base_config()
        del cfg[key]
        assert main([command, write_config(workspace, cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestBenchCommands:
    def test_drift_csv_and_exit_zero(self, workspace):
        out = str(workspace / "drift")
        cfg = base_config(extra={"bench": {"drift": {"steps": 8}}})
        config = write_config(workspace, cfg)
        assert main(["bench-drift", config, "--out", out]) == 0
        with open(os.path.join(out, "drift.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "strategy,step,rmse_vs_origin,rmse_vs_prev,latent_mean,latent_std"
        assert len(lines) == 1 + 4 * 8  # 4 strategies x 8 steps

    def test_drift_json_flag(self, workspace):
        out = str(workspace / "driftj")
        cfg = base_config(extra={"bench": {"drift": {"steps": 4,
                                                     "strategies": ["latent_iteration"]}}})
        config = write_config(workspace, cfg)
        assert main(["bench-drift", config, "--out", out, "--json"]) == 0
        with open(os.path.join(out, "drift.json")) as fh:
            rows = json.load(fh)
        assert len(rows) == 4
        assert rows[0]["strategy"] == "latent_iteration"

    def test_locality_exit_zero(self, workspace):
        out = str(workspace / "loc")
        config = write_config(workspace, base_config())
        assert main(["bench-locality", config, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "locality.csv"))

    def test_ebm_exit_zero_with_acceptance_defaults(self, workspace):
        out = str(workspace / "ebm")
        cfg = base_config(extra={
            "schedule": {"kind": "linear", "T": 200, "beta_start": 1e-4, "beta_end": 0.02},
            "bench": {"ebm": {"chains": 2000}},
        })
        config = write_config(workspace, cfg)
        assert main(["bench-ebm", config, "--out", out]) == 0
        with open(os.path.join(out, "ebm.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 3  # header + two priors

    def test_drift_with_fewer_than_four_steps(self, workspace, capsys):
        cfg = base_config(extra={"bench": {"drift": {
            "steps": 3, "strategies": ["latent_iteration", "image_iteration"]}}})
        config = write_config(workspace, cfg)
        assert main(["bench-drift", config, "--out", str(workspace / "d3")]) == 0
        assert "step-4" not in capsys.readouterr().out

    def test_failing_claim_exits_1(self, workspace, capsys):
        cfg = {"seed": 1, "schedule": {"T": 5}, "sampler": {"method": "ddpm_literal"},
               "bench": {"drift": {"steps": 2}}}
        config = write_config(workspace, cfg)
        assert main(["bench-drift", config, "--out", str(workspace / "dfail")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("PASS  image-iteration-rmse-non-decreasing: ")
        assert lines[2].startswith("FAIL  latent-below-image-from-step-2: ")
        assert len(lines) == 3  # two steps: no step-4 claim

    def test_ebm_far_off_prior_fails_without_warnings(self, workspace, capsys):
        # Moments of chains near 1e308 overflow; the verdict is FAIL, and no
        # numpy RuntimeWarning may reach the output.
        cfg = {"seed": 0, "schedule": {"T": 5}, "bench": {"ebm": {
            "chains": 10, "priors": [{"weights": [1.0], "means": [1e308], "scales": [1.0]}]}}}
        config = write_config(workspace, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["bench-ebm", config, "--out", str(workspace / "ebmfar")]) == 1
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith("FAIL  moment-equivalence-prior_0: ")
        assert captured.err == ""

    def test_ebm_one_chain_fails_without_a_traceback(self, workspace, capsys):
        # one chain has zero variance: the relative variance gap is NaN, a FAIL
        cfg = {"seed": 0, "schedule": {"T": 50}, "bench": {"ebm": {
            "chains": 1, "priors": [{"weights": [1.0], "means": [0.0], "scales": [1.0]}],
            "langevin": {"steps": 5}}}}
        config = write_config(workspace, cfg)
        assert main(["bench-ebm", config, "--out", str(workspace / "ebm1")]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith("FAIL  moment-equivalence-prior_0: ")
        assert "|dvar|/var=nan" in captured.out and "Traceback" not in captured.err

    def test_ebm_json_is_strict_when_moments_overflow(self, workspace):
        cfg = {"seed": 0, "schedule": {"T": 5}, "bench": {"ebm": {
            "chains": 10, "priors": [{"weights": [1.0], "means": [1e308], "scales": [1.0]}],
            "langevin": {"steps": 5}}}}
        out = workspace / "ebmjson"
        assert main(["bench-ebm", write_config(workspace, cfg), "--out", str(out), "--json"]) == 1
        def reject(constant):  # NaN, Infinity and -Infinity are not JSON
            raise ValueError(f"not strict JSON: {constant}")

        row, = json.loads((out / "ebm.json").read_text(), parse_constant=reject)
        assert None in row.values()  # a non-finite cell is null
        assert row["pass"] is False

    def test_ebm_priors_are_checked_before_any_chain_runs(self, workspace, capsys, monkeypatch):
        from latentedit import cli

        def experiment(*args, **kwargs):
            raise AssertionError("a chain ran before every prior was checked")

        monkeypatch.setattr(cli.bench_mod, "ebm_equivalence_experiment", experiment)
        cfg = base_config(extra={"bench": {"ebm": {"priors": [
            {"weights": [1.0], "means": [0.0], "scales": [1.0]},
            {"weights": [1.0], "means": [0.0], "scales": [0.0]},
        ]}}})
        config = write_config(workspace, cfg)
        assert main(["bench-ebm", config, "--out", str(workspace / "ebm0")]) == 2
        assert "config.bench.ebm.priors[1]: " in capsys.readouterr().err

    def test_unknown_bench_name_is_usage_error(self, workspace):
        config = write_config(workspace, base_config())
        with pytest.raises(SystemExit) as excinfo:
            main(["bench-noise", config])
        assert excinfo.value.code == 2

    def test_bench_reports_byte_identical(self, workspace):
        cfg = base_config(extra={"bench": {"drift": {"steps": 4}}})
        config = write_config(workspace, cfg)
        out_a, out_b = str(workspace / "da"), str(workspace / "db")
        main(["bench-drift", config, "--out", out_a])
        main(["bench-drift", config, "--out", out_b])
        with open(os.path.join(out_a, "drift.csv"), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out_b, "drift.csv"), "rb") as fh:
            b = fh.read()
        assert a == b


class TestTrainCommand:
    def base_training(self, steps=300, lr=0.01):
        return {
            "seed": 4,
            "out_dir": "train_out",
            "schedule": {"kind": "linear", "T": 50, "beta_start": 1e-3, "beta_end": 0.08},
            "training": {
                "prior": {"weights": [0.5, 0.5], "means": [-2.0, 2.0], "scales": [0.25, 0.25]},
                "hidden": 16,
                "learning_rate": lr,
                "batch_size": 32,
                "steps": steps,
                "optimizer": "adam",
            },
        }

    def test_writes_model_and_trace(self, workspace):
        out = str(workspace / "train")
        config = write_config(workspace, self.base_training())
        assert main(["train", config, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "model.params"))
        with open(os.path.join(out, "loss_trace.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 301
        losses = [float(l.split(",")[1]) for l in lines[1:]]
        assert np.mean(losses[-50:]) < np.mean(losses[:50])

    def test_zero_rate_flat_trace(self, workspace):
        out = str(workspace / "train0")
        config = write_config(workspace, self.base_training(steps=100, lr=0.0))
        assert main(["train", config, "--out", out]) == 0
        with open(os.path.join(out, "loss_trace.csv")) as fh:
            lines = fh.read().strip().splitlines()[1:]
        losses = np.array([float(l.split(",")[1]) for l in lines])
        assert abs(losses[:50].mean() - losses[50:].mean()) < 0.2

    def test_seed_repeat_identical_trace(self, workspace):
        config = write_config(workspace, self.base_training(steps=50))
        out_a, out_b = str(workspace / "ta"), str(workspace / "tb")
        main(["train", config, "--out", out_a])
        main(["train", config, "--out", out_b])
        with open(os.path.join(out_a, "loss_trace.csv"), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out_b, "loss_trace.csv"), "rb") as fh:
            b = fh.read()
        assert a == b

    def tiny_training(self):
        return {"seed": 3, "schedule": {"T": 10},
                "training": {"prior": {"weights": [0.5, 0.5], "means": [-1.0, 1.0],
                                       "scales": [0.5, 0.5]},
                             "hidden": 4, "embed": 3, "batch_size": 8, "steps": 6}}

    def test_tiny_trace_bytes_match_digest(self, workspace):
        from test_bench import recorded_platform

        if not recorded_platform():
            pytest.skip("digest was recorded on another CPU or numpy build")
        out = workspace / "tiny"
        assert main(["train", write_config(workspace, self.tiny_training()), "--out",
                     str(out)]) == 0
        # sha256 of loss_trace.csv as written before the trace was a report
        assert hashlib.sha256((out / "loss_trace.csv").read_bytes()).hexdigest() == (
            "0da95656606aff1d72e8b80c02082880f523dbc7a0caa3c09e6e0bac54bbd3dc")

    def test_embed_sets_the_time_embedding_width(self, workspace):
        out = workspace / "embed"
        assert main(["train", write_config(workspace, self.tiny_training()), "--out",
                     str(out)]) == 0
        assert "PARAM time_embed\nGRID 10 3 1\n" in (out / "model.params").read_text()

    def test_zero_scale_prior_is_accepted(self, workspace):
        cfg = self.base_training(steps=2)
        cfg["training"]["prior"]["scales"] = [0.0, 0.25]
        assert main(["train", write_config(workspace, cfg), "--out", str(workspace / "t0")]) == 0

    def test_divergence_exits_1_with_one_line(self, workspace, capsys):
        config = write_config(workspace, self.base_training(steps=20, lr=1e200))
        assert main(["train", config, "--out", str(workspace / "diverged")]) == 1
        err = capsys.readouterr().err
        assert err == "train: training loss became non-finite at step 2\n"
        assert "Traceback" not in err

    def test_model_file_loads_back(self, workspace):
        out = workspace / "trainload"
        config = write_config(workspace, self.base_training(steps=50))
        main(["train", config, "--out", str(out)])
        lines = (out / "model.params").read_text().splitlines()
        dims = {line.split()[1]: lines[i + 1].split()[1:]
                for i, line in enumerate(lines) if line.startswith("PARAM ")}
        assert dims["W2"][0] == "1"  # W2 is (d, hidden)
        assert dims["time_embed"][0] == "50"  # time_embed is (T, embed)


class TestVerifyCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_json_output_parses(self, capsys):
        assert main(["verify", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(entry["ok"] for entry in payload)
        assert {"name", "ok", "detail"} <= set(payload[0])

    def test_fault_injection_exits_one(self, monkeypatch, capsys):
        from latentedit import cli, verify

        results = verify.run_checks(fault="schedule-recurrence")
        by_name = {r.name: r for r in results}
        assert not by_name["schedule-recurrence"].ok
        # wire the corrupted results through the command to check the exit code
        monkeypatch.setattr(cli.verify_mod, "run_checks", lambda: results)
        assert cli.main(["verify"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("name, check", verify.CHECKS, ids=[name for name, _ in verify.CHECKS])
    def test_every_check_fails_when_faulted(self, name, check):
        ok, detail = check(True)
        assert not ok, f"{name} passed with its fault injected: {detail}"

    @pytest.mark.parametrize("corrupt, check", [
        (lambda md: None, "masked-combine-identity"),
        (lambda md: 1.0 - md, "masking-ones-identity"),
    ], ids=["mask-dropped", "mask-inverted"])
    def test_masking_checks_see_the_mask_sample_applies(self, monkeypatch, corrupt, check):
        from latentedit import sampler

        reverse = sampler._reverse

        def corrupted(denoiser, z, noise, sched, cfg, md=None, *args):
            return reverse(denoiser, z, noise, sched, cfg, md if md is None else corrupt(md), *args)

        monkeypatch.setattr(sampler, "_reverse", corrupted)
        assert check in {r.name for r in verify.run_checks() if not r.ok}

    def test_a_check_that_raises_is_reported_failed(self, monkeypatch):
        def crash(fault):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(verify, "CHECKS", (("crash", crash),))
        assert verify.run_checks() == [
            verify.CheckResult(name="crash", ok=False, detail="raised ZeroDivisionError: boom")]

    def test_invalid_fault_name_rejected(self):
        from latentedit.verify import run_checks

        with pytest.raises(ValueError, match="unknown fault"):
            run_checks(fault="nonsense")


class TestConfigValidation:
    def test_missing_config_file(self, capsys):
        assert main(["run-session", "/does/not/exist.json"]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["run-session", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_undecodable_config(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"seed": 1, "out_dir": "\xff"}')
        assert main(["run-session", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_seed(self, tmp_path, capsys):
        config = write_config(tmp_path, {"session": {}})
        assert main(["run-session", config]) == 2
        assert "config.seed" in capsys.readouterr().err

    def test_bad_schedule_kind(self, workspace, capsys):
        cfg = base_config()
        cfg["schedule"]["kind"] = "exp"
        config = write_config(workspace, cfg)
        assert main(["run-session", config]) == 2
        assert "config.schedule" in capsys.readouterr().err

    def test_bias_and_bias_file_conflict(self, workspace, capsys):
        cfg = base_config(edits=[{"id": "x", "bias": 0.1, "bias_file": "b.grid"}])
        config = write_config(workspace, cfg)
        assert main(["run-session", config]) == 2
        assert "either bias or bias_file" in capsys.readouterr().err

    @pytest.mark.parametrize("command, change, pattern", [
        ("run-session", {"session": {"input": "nan.grid"}},
         r"config\.session\.input: .*nan\.grid: line 3: .*non-finite"),
        ("run-session", {"session": {"edits": [{"id": "x", "bias_file": "small.grid"}]}},
         r"config\.session: edit 0 bias grid"),
        ("run-session", {"session": {"edits": [{"id": "x", "gain": [1.0, 0.9]}]}},
         r"config\.session: edit 0 gain has 2 channels"),
        ("bench-drift", {"bench": {"drift": {"steps": 1}}}, r"config\.bench\.drift\.steps: "),
        ("bench-ebm", {"bench": {"ebm": {"chains": 0}}}, r"config\.bench\.ebm\.chains: "),
        ("bench-drift", {"bench": {"drift": {"strategies": "latent_iteration"}}},
         r"config\.bench\.drift\.strategies: expected a list"),
        ("bench-ebm", {"bench": {"ebm": {"priors": {"weights": [1.0], "means": [0.0],
                                                    "scales": [1.0]}}}},
         r"config\.bench\.ebm\.priors: expected a list"),
        ("bench-drift", {"bench": {"drift": {"strategies": []}}},
         r"config\.bench\.drift\.strategies: expected a nonempty list"),
        ("bench-locality", {"bench": {"fixture": "small.grid"}},
         r"config\.bench\.fixture: .*not divisible"),
        ("bench-locality", {"bench": {"locality": {"mask": "small.mask"}}},
         r"config\.bench\.locality: mask 0 is 2x2"),
        ("bench-locality", {"bench": {"locality": {"edit": {"id": "e", "mask": "small.mask"}}}},
         r"config\.bench\.locality\.edit\.mask: .*config\.bench\.locality\.mask"),
        ("run-session", {"codec": {"clamp": float("nan")}}, r"config\.codec\.clamp: expected a"),
        ("run-session", {"codec": {"clamp": 10**400}}, r"config\.codec\.clamp: expected a"),
        ("run-session", {"out_dir": "small.grid"}, r"config\.out_dir: "),
        ("bench-drift", {"bench": {"drift": {"edit_noise": -1.0}}},
         r"config\.bench\.drift\.edit_noise: must be >= 0"),
        ("bench-ebm", {"bench": {"ebm": {"priors": [
            {"weights": [1.0], "means": [0.0], "scales": [1.0]},
            {"weights": [0.5, 0.5], "means": [-1.0, 1.0], "scales": [0.0, 0.5]}]}}},
         r"config\.bench\.ebm\.priors\[1\]: .*strictly positive"),
        ("run-session", {"codec": {"clamp": 1e308}}, r"config\.codec: .*finite cell"),
        ("run-session", {"session": {"edits": [{"id": "x", "scale": 1e308}]}},
         r"^config error: config\.session\.edits\[0\]\.scale: .*finite square"),
        ("bench-drift", {"bench": {"drift": {"steps": 2, "edit_noise": 1e308}}},
         r"^config error: config\.bench\.drift\.edit_noise: .*finite square"),
        ("bench-locality", {"bench": {"locality": {"edit": {"id": "e", "scale": 1e308}}}},
         r"^config error: config\.bench\.locality\.edit\.scale: .*finite square"),
        ("run-session", {"session": {"input": "input.grid", "strategy": "concat_instructions",
                                     "edits": [{"id": "a", "scale": 1e154},
                                               {"id": "b", "scale": 1e154}]}},
         r"^config error: config\.session: .*finite square, got inf\n$"),
        ("bench-drift", {"bench": {"drift": {"strategies": ["concat_instructions"], "steps": 3,
                                             "edit_noise": 1e154}}},
         r"^config error: config\.bench\.drift: .*finite square, got inf\n$"),
        ("run-session", {"session": {"input": "huge.grid"}},
         r"^config error: config\.session\.input: .*huge\.grid: line 1: "
         r"expected 1000000000000000 values, got 0\n$"),
        ("run-session", {"session": {"input": "input.grid", "strategy": "concat_instructions",
                                     "edits": [{"id": "a", "gain": 1e200},
                                               {"id": "b", "gain": 1e200}]}},
         r"^config error: config\.session: the concat_instructions chain does not compose: "
         r"gain must be "),
        ("train", {"training": {"prior": {"weights": [1.0], "means": [0.0], "scales": [1.0]},
                                "hidden": -1}},
         r"^config error: config\.training\.hidden: must be >= 1, got -1\n$"),
        ("train", {"training": {"prior": {"weights": [1.0], "means": [0.0], "scales": [1.0]},
                                "hidden": 0}},
         r"^config error: config\.training\.hidden: must be >= 1, got 0\n$"),
        ("train", {"training": {"prior": {"weights": [1.0], "means": [0.0], "scales": [1.0]},
                                "embed": -2}},
         r"^config error: config\.training\.embed: must be >= 1, got -2\n$"),
        ("train", {"codec": {"levels": 1}, "training": {"prior": UNIT_PRIOR, "steps": 2}},
         r"config\.codec: quantization levels must be >= 2"),
        ("run-session", {"training": {"prior": UNIT_PRIOR, "batch_size": 0}},
         r"config\.training: batch size must be >= 1"),
        ("run-session", {"training": {"prior": UNIT_PRIOR, "optimizer": "rmsprop"}},
         r"config\.training: optimizer must be 'sgd' or 'adam'"),
        ("bench-drift", {"bench": {"ebm": {"priors": [{**UNIT_PRIOR, "weights": [0.7]}]}}},
         r"config\.bench\.ebm\.priors\[0\]: weights must sum to 1 within 1e-12, got 0\.7$"),
        ("train", {"bench": {"ebm": {"langevin": {"steps": 0}}},
                   "training": {"prior": UNIT_PRIOR, "steps": 2}},
         r"config\.bench\.ebm\.langevin: steps must be >= 1"),
        ("run-session", {"bench": {"ebm": {"priors": [{**UNIT_PRIOR, "scales": [0.0]}]}}},
         r"config\.bench\.ebm\.priors\[0\]: energy requires strictly positive"),
        ("bench-drift", {"schedule": {"T": 20}, "bench": {"drift": {
            "steps": 3, "strategies": ["image_iteration", "image_iteration"]}}},
         r"^config error: config\.bench\.drift\.strategies: "
         r"lists 'image_iteration' more than once\n$"),
        ("bench-locality", {"schedule": {"T": 20}, "bench": {"locality": {"modes": []}}},
         r"^config error: config\.bench\.locality\.modes: expected a nonempty list\n$"),
        ("bench-locality", {"schedule": {"T": 20},
                            "bench": {"locality": {"modes": ["pin", "pin"]}}},
         r"^config error: config\.bench\.locality\.modes: lists 'pin' more than once\n$"),
        ("bench-drift", {"bench": {"drift": {"steps": 10**30}}},
         r"^config error: config\.bench\.drift\.steps: expected an integer\n$"),
        ("bench-ebm", {"bench": {"ebm": {"chains": 10**30}}},
         r"^config error: config\.bench\.ebm\.chains: expected an integer\n$"),
        ("train", {"training": {"prior": UNIT_PRIOR, "hidden": 10**30}},
         r"^config error: config\.training\.hidden: expected an integer\n$"),
        ("train", {"bench": {"ebm": {"langevin": {"steps": 10**30}}},
                   "training": {"prior": UNIT_PRIOR, "steps": 2}},
         r"^config error: config\.bench\.ebm\.langevin\.steps: expected an integer\n$"),
        ("run-session", {"schedule": {"T": 10**30}},
         r"^config error: config\.schedule\.T: expected an integer\n$"),
        ("run-session", {"seed": 2**63}, r"^config error: config\.seed: expected an integer\n$"),
        ("run-session", {"session": {"edits": [{"id": "a", "gain": []}]}},
         r"^config error: config\.session\.edits\[0\]: "
         r"gain must be a finite scalar or per-channel vector\n$"),
        ("bench-locality", {"bench": {"locality": {"edit": {"id": "e", "gain": []}}}},
         r"^config error: config\.bench\.locality\.edit: "
         r"gain must be a finite scalar or per-channel vector\n$"),
        ("train", {"training": {"prior": UNIT_PRIOR, "hidden": 2**62}},
         r"^config error: config\.training\.hidden: must be <= 1024, got 4611686018427387904\n$"),
        ("bench-ebm", {"bench": {"ebm": {"chains": 2**62}}},
         r"^config error: config\.bench\.ebm\.chains: must be <= 100000, "
         r"got 4611686018427387904\n$"),
        ("run-session", {"schedule": {"T": 50, "beta_start": 1e-17}},
         r"^config error: config\.schedule: .*beta_start=1e-17\n$"),
        ("run-session", {"schedule": {"T": 10**12}},
         r"^config error: config\.schedule\.T: must be <= 1000, got 1000000000000\n$"),
        ("bench-ebm", {"schedule": {"T": 200_000}, "bench": {"ebm": {"chains": 100_000}}},
         r"^config error: config\.schedule\.T: must be <= 1000, got 200000\n$"),
        # prior 0 has the default label prior_0; a repeated label names two claims alike
        ("bench-ebm", {"bench": {"ebm": {"priors": [UNIT_PRIOR,
                                                    {**UNIT_PRIOR, "label": "prior_0"}]}}},
         r"^config error: config\.bench\.ebm\.priors\[1\]\.label: "
         r"an earlier prior is already labelled 'prior_0'\n$"),
        # a scale whose square overflows, or is 0.0 though the scale is positive
        ("bench-ebm", {"bench": {"ebm": {"priors": [{**UNIT_PRIOR, "scales": [1e200]}]}}},
         r"^config error: config\.bench\.ebm\.priors\[0\]: "
         r"scales must be finite and nonnegative with a finite square\n$"),
        ("train", {"training": {"prior": {**UNIT_PRIOR, "scales": [1e200]}, "steps": 2}},
         r"^config error: config\.training\.prior: "
         r"scales must be finite and nonnegative with a finite square\n$"),
        ("bench-ebm", {"bench": {"ebm": {"priors": [{**UNIT_PRIOR, "scales": [1e-200]}]}}},
         r"^config error: config\.bench\.ebm\.priors\[0\]: "
         r"energy requires strictly positive component scales with a positive square\n$"),
    ], ids=["nan-grid", "bias-file-shape", "gain-length", "drift-steps", "ebm-chains",
            "strategies-not-list", "priors-not-list", "strategies-empty", "odd-fixture",
            "locality-mask-shape", "locality-edit-mask",
            "nan-number", "huge-integer", "out-dir-is-a-file",
            "negative-edit-noise", "ebm-zero-scale", "clamp-overflows-cell",
            "edit-scale-square-overflows", "edit-noise-square-overflows",
            "locality-scale-square-overflows", "concat-scale-overflows",
            "drift-concat-scale-overflows", "oversized-grid-header", "concat-gain-overflows",
            "negative-hidden", "zero-hidden", "negative-embed", "train-codec-levels",
            "session-training-batch-size", "session-training-optimizer", "drift-ebm-weights",
            "train-langevin-steps", "session-ebm-zero-scale", "drift-strategies-repeated",
            "locality-modes-empty", "locality-modes-repeated", "drift-steps-beyond-int64",
            "ebm-chains-beyond-int64", "hidden-beyond-int64", "langevin-steps-beyond-int64",
            "schedule-T-beyond-int64", "seed-beyond-int64", "empty-gain", "locality-empty-gain",
            "hidden-over-bound", "ebm-chains-over-bound", "schedule-first-alpha-is-one",
            "schedule-T-over-bound", "ebm-T-and-chains-over-bound", "ebm-label-repeated",
            "ebm-scale-square-overflows", "train-prior-scale-square-overflows",
            "ebm-scale-square-is-zero"])
    def test_bad_input_exits_2_naming_field(self, workspace, capsys, command, change, pattern):
        (workspace / "nan.grid").write_text("GRID 1 2 1\n0.5\nnan\n")
        (workspace / "huge.grid").write_text("GRID 100000 100000 100000\n")
        write_grid(LatentGrid(np.zeros((3, 3, 1))), str(workspace / "small.grid"))
        write_mask(Mask.ones(2, 2), str(workspace / "small.mask"))
        cfg = base_config()
        for key, value in change.items():
            cfg[key] = {**cfg[key], **value} if key in cfg and isinstance(value, dict) else value
        config = write_config(workspace, cfg)
        assert main([command, config, "--out", str(workspace / cfg["out_dir"])]) == 2
        assert re.search(pattern, capsys.readouterr().err)

    def test_T_flag_goes_through_the_bound(self, workspace, capsys):
        config = write_config(workspace, base_config())
        assert main(["bench-ebm", config, "--out", str(workspace / "out"), "--T", "1001"]) == 2
        assert capsys.readouterr().err == ("config error: config.schedule.T: "
                                           "must be <= 1000, got 1001\n")

    @pytest.mark.parametrize("key", ["beta_start", "beta_end"])
    def test_cosine_schedule_rejects_the_linear_fields(self, workspace, capsys, key):
        cfg = base_config(extra={"schedule": {"kind": "cosine", "T": 50, key: 0.01}})
        assert main(["run-session", write_config(workspace, cfg)]) == 2
        assert capsys.readouterr().err == (f"config error: config.schedule.{key}: a cosine "
                                           "schedule does not read it; give it only with kind "
                                           "linear\n")
        del cfg["schedule"][key]
        load_config(write_config(workspace, cfg))

    @pytest.mark.parametrize("change", [{"seed": -(2**63)}, {"seed": 2**63 - 1},
                                        {"codec": {"clamp": 10**30}}],
                             ids=["seed-int64-min", "seed-int64-max", "float-field-beyond-int64"])
    def test_integers_at_the_bounds_are_accepted(self, workspace, change):
        load_config(write_config(workspace, base_config(extra=change)))

    # Oversized values are only loaded, never run: each would allocate or loop at that size
    @pytest.mark.parametrize("path, bound", SIZE_BOUNDS.items(), ids=list(SIZE_BOUNDS))
    def test_size_fields_have_upper_bounds(self, workspace, path, bound):
        load_config(write_config(workspace, config_with(path, bound)))
        for value in (bound + 1, 2**62):
            with pytest.raises(ConfigError, match=rf"^config\.{re.escape(path)}: "
                                                  rf"must be <= {bound}, got {value}$"):
                load_config(write_config(workspace, config_with(path, value)))

    def test_flags_before_the_command_are_usage_errors(self, workspace):
        config = write_config(workspace, base_config())
        with pytest.raises(SystemExit) as excinfo:
            main(["--seed", "99", "run-session", config])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [["train", "c.json", "--json"], ["verify", "--T", "5"],
                                      ["bench-ebm", "c.json", "--mask-mode", "gate"]],
                             ids=["train-json", "verify-T", "ebm-mask-mode"])
    def test_commands_reject_flags_they_do_not_read(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    @pytest.fixture
    def locality_edit_mask(self, workspace):
        write_mask(Mask.ones(18, 18), str(workspace / "edit.mask"))
        return base_config(extra={
            "bench": {"locality": {"edit": {"id": "e", "bias": 0.5, "mask": "edit.mask"}}},
            "training": {"prior": {"weights": [1.0], "means": [0.0], "scales": [1.0]},
                         "hidden": 4, "steps": 2},
        })

    def test_locality_edit_mask_is_rejected_by_load_config(self, workspace, locality_edit_mask):
        config = write_config(workspace, locality_edit_mask)
        with pytest.raises(ConfigError, match=r"^config\.bench\.locality\.edit\.mask: "):
            load_config(config)

    def test_locality_edit_mask_is_rejected_by_every_command(self, workspace, capsys,
                                                             locality_edit_mask):
        out = str(workspace / "out")
        assert main(["train", write_config(workspace, locality_edit_mask), "--out", out]) == 2
        assert "config.bench.locality.edit.mask: " in capsys.readouterr().err
        del locality_edit_mask["bench"]["locality"]["edit"]["mask"]
        assert main(["train", write_config(workspace, locality_edit_mask), "--out", out]) == 0

    def test_override_is_checked_like_the_field(self, workspace, capsys):
        config = write_config(workspace, base_config())
        assert main(["run-session", config, "--T", "0"]) == 2
        assert "config.schedule: T must be a positive integer" in capsys.readouterr().err

    def test_readme_schema_is_accepted(self, tmp_path):
        doc = readme_schema()
        for name in re.findall(r'"([\w.]+\.(?:grid|mask))"', doc):
            if name.endswith(".mask"):
                write_mask(Mask.ones(18, 18), str(tmp_path / name))
            else:
                write_grid(load_fixture(), str(tmp_path / name))
        path = write_config(tmp_path, json.loads(doc))
        assert load_config(path) == json.loads(doc)

        def fields(node, prefix):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield prefix + key
                    yield from fields(value, prefix + key + ".")
            elif isinstance(node, list):
                for value in node:
                    yield from fields(value, prefix[:-1] + "[].")

        documented = set(fields(json.loads(doc), ""))
        assert {f for f in _FIELDS if f and not f.endswith("[]")} <= documented

    def test_readme_schema_lists_the_table(self):
        # every _FIELDS path and every default the table gives, as README shows
        # them; an alias field's children are checked through its target
        aliases = {path: kind for path, (kind, _, _) in _FIELDS.items() if isinstance(kind, str)}
        documented = {}

        def walk(node, path):
            for alias, target in aliases.items():
                if path.startswith(alias + "."):
                    path = target + path[len(alias):]
            documented.setdefault(path, node)
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, f"{path}.{key}".lstrip("."))
            elif isinstance(node, list):
                for value in node:
                    walk(value, path + "[]")

        walk(json.loads(readme_schema()), "")
        # a field that takes a number or a list is documented by either form
        documented.update({f"{path}[]": None for path, (kind, _, _) in _FIELDS.items()
                           if kind == (float, list) and path in documented})
        assert set(documented) == set(_FIELDS)
        defaults = {path: default for path, (_, default, _) in _FIELDS.items()
                    if default is not None and default is not _REQUIRED and default != {}}
        for path, default in defaults.items():
            assert documented[path] == default, path
