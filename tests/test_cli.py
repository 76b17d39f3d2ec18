"""CLI commands: config validation, outputs, exit codes, determinism."""

import json
import os
import re
import warnings

import numpy as np
import pytest

from latentedit import verify
from latentedit.cli import _FIELDS, ConfigError, load_config, main
from latentedit.fixtures import load_fixture
from latentedit.grid import read_grid, write_grid, write_mask, LatentGrid, Mask

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


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
        from latentedit.training import load_model

        out = str(workspace / "trainload")
        config = write_config(workspace, self.base_training(steps=50))
        main(["train", config, "--out", out])
        model = load_model(os.path.join(out, "model.params"))
        assert model.d == 1
        assert model.T == 50


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
    ], ids=["nan-grid", "bias-file-shape", "gain-length", "drift-steps", "ebm-chains",
            "strategies-not-list", "priors-not-list", "strategies-empty", "odd-fixture",
            "locality-mask-shape", "locality-edit-mask",
            "nan-number", "huge-integer", "out-dir-is-a-file",
            "negative-edit-noise", "ebm-zero-scale", "clamp-overflows-cell",
            "edit-scale-square-overflows", "edit-noise-square-overflows",
            "locality-scale-square-overflows", "concat-scale-overflows",
            "drift-concat-scale-overflows"])
    def test_bad_input_exits_2_naming_field(self, workspace, capsys, command, change, pattern):
        (workspace / "nan.grid").write_text("GRID 1 2 1\n0.5\nnan\n")
        write_grid(LatentGrid(np.zeros((3, 3, 1))), str(workspace / "small.grid"))
        write_mask(Mask.ones(2, 2), str(workspace / "small.mask"))
        cfg = base_config()
        for key, value in change.items():
            cfg[key] = {**cfg[key], **value} if key in cfg and isinstance(value, dict) else value
        config = write_config(workspace, cfg)
        assert main([command, config, "--out", str(workspace / cfg["out_dir"])]) == 2
        assert re.search(pattern, capsys.readouterr().err)

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
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("### Config schema", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
        doc = re.sub(r"//.*", "", block)
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
