"""The four workloads, driven only through latentedit's public functions.

Each workload repeats a fixed cycle of calls made from the seed.  A call
returns the program's outputs; ``check`` turns them into a digest and a list
of problems.  Every function is looked up on its module at call time, so the
tracer's patches see every call.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from latentedit import bench, cli, codec, denoiser, editor, fixtures, grid, sampler, schedule, training

from inputs import SESSION_EDITS, session_inputs

LANGEVIN_STEP = 0.05
LEARNING_RATE = 0.004
BATCH = 128
HIDDEN = 64
EMBED = 8


def _finite(*arrays) -> bool:
    return all(np.isfinite(np.asarray(a, dtype=np.float64)).all() for a in arrays)


def _rows_ok(rows) -> bool:
    return _finite([v for row in rows for v in row if isinstance(v, float)])


def _default_priors():
    """The two priors ``latentedit bench-ebm`` uses when none are configured."""
    return (
        ("single_gaussian", denoiser.GMMPrior.scalar([1.0], [3.0], [1.0])),
        ("bimodal", denoiser.GMMPrior.scalar([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25])),
    )


class Workload:
    """Defaults: a one-call cycle, no inputs beyond the seed and no per-call
    preparation."""

    cycle = 1

    def __init__(self, seed: int, size: dict, workdir: str):
        self.seed, self.size, self.workdir = seed, size, workdir

    @staticmethod
    def make_inputs(seed: int, size: dict, workdir: str) -> None:
        pass

    def prepare(self, pos: int) -> None:
        pass


class Session(Workload):
    """``run-session`` on a seeded 2n x 2n x 3 image: each call is one round,
    an unmasked edit then a pin-masked edit, each followed by ``write_grid``."""

    name = "session"
    unit = "edits"
    cycle = SESSION_EDITS // 2
    op_boundary = "grid.write_grid"

    def __init__(self, seed: int, size: dict, workdir: str):
        super().__init__(seed, size, workdir)
        self.config_path = os.path.join(workdir, "config.json")
        self._files_checked = False

    @staticmethod
    def make_inputs(seed: int, size: dict, workdir: str) -> None:
        session_inputs(seed, size, workdir)

    def setup(self) -> None:
        cfg = cli.load_config(self.config_path)
        self.sched = schedule.build_schedule(cfg["schedule"]["kind"], cfg["schedule"]["T"])
        self.sampler_cfg = sampler.SamplerConfig(**cfg["sampler"])
        self.codec_cfg = codec.CodecConfig()
        block = cfg["session"]
        self.strategy = block["strategy"]
        self.image = grid.read_grid(os.path.join(self.workdir, block["input"]))
        mask_files = {e["mask"] for e in block["edits"] if "mask" in e}
        masks = {f: grid.read_mask(os.path.join(self.workdir, f)) for f in mask_files}
        self.edits = [
            denoiser.EditInstruction(id=e["id"], gain=e["gain"], bias=e["bias"], target_scale=e["scale"])
            for e in block["edits"]
        ]
        self.masks = [masks.get(e.get("mask")) for e in block["edits"]]
        self.session = None

    def units_per_call(self) -> int:
        return 2

    def prepare(self, pos: int) -> None:
        if pos == 0:
            self.session = editor.open_session(
                self.image, self.edits, self.masks, sched=self.sched,
                sampler_cfg=self.sampler_cfg, codec_cfg=self.codec_cfg,
                strategy=self.strategy, seed=self.seed,
            )

    def call(self, pos: int):
        results = []
        for k in (2 * pos, 2 * pos + 1):
            before = self.session.prev_latent
            out = editor.apply_edit(self.session)
            path = os.path.join(self.workdir, f"edit_{k + 1:03d}.grid")
            grid.write_grid(out, path)
            results.append((k, before, out, self.session.prev_latent, self.session.f_history[-1], path))
        return results

    def check(self, pos: int, results):
        h = hashlib.sha256()
        problems = []
        for k, before, out, latent, f, path in results:
            h.update(out.data.tobytes())
            if not _finite(out.data, latent.data):
                problems.append(f"edit {k + 1}: non-finite output")
            mask = self.masks[k]
            if mask is not None:
                # Pin mode: outside the mask the output latent equals the
                # conditioning latent (the renormalized previous latent) exactly.
                source = before.data * f
                outside = np.broadcast_to(mask.data[:, :, None] == 0.0, latent.shape)
                if not np.array_equal(latent.data[outside], source[outside]):
                    problems.append(f"edit {k + 1}: pin-masked edit changed the latent outside its mask")
            if not self._files_checked:
                with open(path, "r", encoding="ascii") as fh:
                    header = fh.readline().split()
                    values = np.array(fh.read().split(), dtype=np.float64)
                if header != ["GRID", *map(str, out.shape)] or not np.array_equal(values, out.data.reshape(-1)):
                    problems.append(f"edit {k + 1}: written grid file does not read back exactly")
        if pos == self.cycle - 1:
            self._files_checked = True
        return h.digest(), problems

    def closed_forms(self, calls: int, T: int):
        edits, masked = 2 * calls, calls
        return {
            "sampler.reverse_step": T * edits,
            "sampler.masked_reverse_step": T * masked,
            "grid.normal": edits + T * (edits + masked),
            "grid.spawn": 2 * edits,
        }

    def facts(self) -> dict:
        n = self.size["image"]
        latent = (n // 2) * (n // 2) * 3
        return {
            "image": f"{n}x{n}x3", "latent": f"{n // 2}x{n // 2}x3", "T": self.size["T"],
            "edits_per_session": SESSION_EDITS, "pattern": "unmasked, pin-masked, alternating",
            "computed_latent_array_bytes": latent * 8,
            "computed_noise_draw_bytes": 2 * ((latent + 1) // 2) * 8,
            "computed_image_array_bytes": n * n * 3 * 8,
        }


class Drift(Workload):
    """``bench.drift_experiment`` on the shipped 36x36 fixture; each call
    (4 strategies x ``steps`` edits) is one operation."""

    name = "drift"
    unit = "edits"
    op_boundary = "editor.apply_edit"

    def setup(self) -> None:
        self.sched = schedule.build_schedule("linear", self.size["T"])
        self.sampler_cfg = sampler.SamplerConfig()
        self.codec_cfg = codec.CodecConfig()
        self.fixture = fixtures.load_fixture()

    def units_per_call(self) -> int:
        return len(editor.STRATEGIES) * self.size["steps"]

    def call(self, pos: int):
        return bench.drift_experiment(
            self.fixture, editor.STRATEGIES, self.size["steps"], sched=self.sched,
            sampler_cfg=self.sampler_cfg, codec_cfg=self.codec_cfg, seed=self.seed,
        )

    def check(self, pos: int, report):
        problems = []
        if len(report.rows) != self.units_per_call():
            problems.append(f"drift report has {len(report.rows)} rows, expected {self.units_per_call()}")
        if not _rows_ok(report.rows):
            problems.append("drift report has non-finite values")
        return hashlib.sha256(repr(report.rows).encode()).digest(), problems

    def closed_forms(self, calls: int, T: int):
        edits = calls * self.units_per_call()
        return {
            "sampler.reverse_step": T * edits,
            "sampler.masked_reverse_step": 0,
            "grid.normal": edits + T * edits,
            "grid.spawn": 2 * edits,
        }

    def facts(self) -> dict:
        latent = 18 * 18 * 1
        return {
            "fixture": "36x36x1 (shipped)", "latent": "18x18x1", "T": self.size["T"],
            "strategies": list(editor.STRATEGIES), "steps_per_strategy": self.size["steps"],
            "computed_latent_array_bytes": latent * 8,
            "computed_noise_draw_bytes": 2 * ((latent + 1) // 2) * 8,
        }


class Ebm(Workload):
    """``bench.ebm_equivalence_experiment`` for both default priors; each call
    (both priors) is one operation."""

    name = "ebm"
    unit = "chain steps"
    op_boundary = "bench.ebm_equivalence_experiment"

    def setup(self) -> None:
        self.sched = schedule.build_schedule("linear", self.size["T"])
        self.langevin = sampler.LangevinConfig(step_size=LANGEVIN_STEP, steps=self.size["langevin"])
        self.sampler_cfg = sampler.SamplerConfig()
        self.priors = _default_priors()

    def units_per_call(self) -> int:
        return self.size["chains"] * (self.size["T"] + self.size["langevin"]) * len(self.priors)

    def call(self, pos: int):
        rows = []
        for label, prior in self.priors:
            report = bench.ebm_equivalence_experiment(
                prior, self.sched, self.langevin, self.size["chains"],
                sampler_cfg=self.sampler_cfg, seed=self.seed, label=label,
            )
            rows.extend(report.rows)
        return rows

    def check(self, pos: int, rows):
        problems = []
        if not _rows_ok(rows):
            problems.append("ebm report has non-finite values")
        if self.size["chains"] >= 10000:
            # At 10k chains the moment gaps sit far inside the tolerances.
            problems += [f"moment equivalence failed for {row[0]}" for row in rows if not row[8]]
        return hashlib.sha256(repr(rows).encode()).digest(), problems

    def closed_forms(self, calls: int, T: int):
        runs = calls * len(self.priors)
        return {
            "grid.spawn": runs * (self.size["chains"] + 3),
            "denoiser.gmm_chain_eps": runs * T,
            "denoiser.grad_chain": runs * self.size["langevin"],
        }

    def facts(self) -> dict:
        return {
            "chains": self.size["chains"], "T": self.size["T"], "langevin_steps": self.size["langevin"],
            "priors": [label for label, _ in self.priors], "start": "prior-matched",
        }


class Train(Workload):
    """``training.train`` with Adam on the bimodal prior; each call is one
    training run of ``steps`` optimiser steps."""

    name = "train"
    unit = "optimiser steps"
    op_boundary = "training.loss_and_grad"

    def setup(self) -> None:
        self.sched = schedule.build_schedule("linear", self.size["T"])
        self.prior = _default_priors()[1][1]
        self.model = training.TinyDenoiser.init(
            d=self.prior.dim, T=self.size["T"], hidden=HIDDEN, embed_dim=EMBED, seed=self.seed
        )
        self.cfg = training.TrainConfig(
            learning_rate=LEARNING_RATE, batch_size=BATCH, steps=self.size["steps"],
            seed=self.seed, optimizer="adam",
        )

    def units_per_call(self) -> int:
        return self.size["steps"]

    def call(self, pos: int):
        return training.train(self.model, self.prior, self.sched, self.cfg)

    def check(self, pos: int, result):
        model, trace = result
        params = [model.W1, model.b1, model.W2, model.b2]
        h = hashlib.sha256()
        for arr in (*params, trace):
            h.update(np.ascontiguousarray(arr).tobytes())
        problems = []
        if not _finite(*params, trace):
            problems.append("training produced non-finite parameters or losses")
        tenth = max(1, len(trace) // 10)
        if self.size["steps"] >= 500 and not trace[-tenth:].mean() < trace[:tenth].mean():
            problems.append("training loss did not decrease")
        return h.digest(), problems

    def closed_forms(self, calls: int, T: int):
        return {"training.loss_and_grad": calls * self.size["steps"], "training.train": calls}

    def facts(self) -> dict:
        return {
            "prior": "bimodal", "batch": BATCH, "hidden": HIDDEN, "embed": EMBED,
            "steps_per_run": self.size["steps"], "optimizer": "adam", "T": self.size["T"],
        }


WORKLOADS = {cls.name: cls for cls in (Session, Drift, Ebm, Train)}
