"""Span tracing around latentedit's public functions, from outside the program.

Each layer is a name plus the places where callers look the function up: a
module attribute for functions called through their module (``sampler.sample``
as seen by ``editor``), a class attribute for methods (``RngStream.normal``).
Patching where the caller looks a name up is what makes the counts exact:
``grid.masked_combine`` is wrapped at ``sampler.masked_combine``, because the
sampler imported the name into its own namespace.

Spans are kept in compact in-memory arrays (name, start, end, parent span,
operation id) and aggregated, or written out, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

from latentedit import bench, cli, codec, denoiser, editor, fixtures, grid, sampler, schedule, training

# (layer name, patch sites).  Each site is (owner, attribute).
LAYERS = (
    ("grid.normal", ((grid.RngStream, "normal"),)),
    ("grid.uniform", ((grid.RngStream, "uniform"),)),
    ("grid.spawn", ((grid.RngStream, "spawn"),)),
    ("grid.latentgrid", ((grid.LatentGrid, "__post_init__"),)),
    ("grid.masked_combine", ((sampler, "masked_combine"),)),
    ("grid.write_grid", ((grid, "write_grid"),)),
    ("grid.read_grid", ((grid, "read_grid"), (fixtures, "read_grid"))),
    ("cli.load_config", ((cli, "load_config"),)),
    ("schedule.query", ((schedule.NoiseSchedule, "query"),)),
    ("denoiser.edit_conditional_eps", ((denoiser, "edit_conditional_eps"),)),
    ("denoiser.target_mean", ((denoiser.EditInstruction, "target_mean"),)),
    ("denoiser.gmm_chain_eps", ((denoiser, "gmm_chain_eps"),)),
    ("denoiser.grad_chain", ((denoiser.GMMEnergy, "grad_chain"),)),
    ("denoiser.sample_flat", ((denoiser.GMMPrior, "sample_flat"),)),
    ("sampler.sample", ((sampler, "sample"),)),
    ("sampler.reverse_step", ((sampler, "reverse_step"),)),
    ("sampler.masked_reverse_step", ((sampler, "masked_reverse_step"),)),
    ("sampler.noise_to", ((sampler, "noise_to"),)),
    ("sampler.sample_chains", ((sampler, "sample_chains"),)),
    ("sampler.langevin_chains", ((sampler, "langevin_chains"),)),
    ("codec.encode", ((codec, "encode"),)),
    ("codec.decode", ((codec, "decode"),)),
    ("codec.blur_grid", ((codec, "blur_grid"),)),
    ("editor.apply_edit", ((editor, "apply_edit"),)),
    ("training.loss_and_grad", ((training, "loss_and_grad"),)),
    ("training.train", ((training, "train"),)),
    ("bench.drift_experiment", ((bench, "drift_experiment"),)),
    ("bench.ebm_equivalence_experiment", ((bench, "ebm_equivalence_experiment"),)),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)

# Layers that call other wrapped layers; only these report self time.
HAS_CHILDREN = frozenset({
    "grid.normal", "grid.masked_combine", "grid.read_grid",
    "denoiser.edit_conditional_eps", "denoiser.target_mean", "denoiser.sample_flat",
    "sampler.sample", "sampler.reverse_step", "sampler.masked_reverse_step",
    "sampler.noise_to", "sampler.sample_chains", "sampler.langevin_chains",
    "codec.encode", "codec.decode", "codec.blur_grid", "editor.apply_edit",
    "training.train", "bench.drift_experiment", "bench.ebm_equivalence_experiment",
})

# Counters read from outside the span arrays.
EXTRA_METRICS = (
    ("grid.normal.values", "count"),
    ("editor.encode_calls", "count"),
    ("editor.renorm_roundtrips", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    specs = []
    for name in LAYER_NAMES:
        specs.append((f"{name}.calls", "count"))
        specs.append((f"{name}.s", "s"))
        if name in HAS_CHILDREN:
            specs.append((f"{name}.self_s", "s"))
    specs.extend(EXTRA_METRICS)
    return specs


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)`` for the block."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Records one span per call of every layer in ``LAYERS``.

    ``op_boundary`` names the layer whose return ends an operation (one
    edit, one experiment, one training step); spans recorded before
    ``begin_ops`` belong to operation 0, the set-up.
    """

    def __init__(self, op_boundary: str):
        self._ids = {name: i for i, name in enumerate(LAYER_NAMES)}
        self._boundary = self._ids[op_boundary]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = 0
        self.normal_values = 0
        self.encode_calls = 0
        self.renorm_roundtrips = 0

    def begin_ops(self) -> None:
        self.op_id = max(self.op_id, 1)

    def _wrap(self, name: str, fn):
        nid = self._ids[name]
        stack = self._stack
        spans_name, spans_parent, spans_op = self.name, self.parent, self.op
        spans_start, spans_end = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans_name)
            spans_name.append(nid)
            spans_parent.append(stack[-1] if stack else -1)
            spans_op.append(self.op_id)
            spans_start.append(0.0)
            spans_end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans_start[idx] = t0
                spans_end[idx] = t1
                if nid == self._boundary and self.op_id > 0:
                    self.op_id += 1

        return traced

    def _wrap_normal(self, fn):
        traced = self._wrap("grid.normal", fn)

        @functools.wraps(fn)
        def counting(stream, *args, **kwargs):
            shape = args[0] if args else kwargs.get("shape", ())
            self.normal_values += int(np.prod(shape)) if shape != () else 1
            return traced(stream, *args, **kwargs)

        return counting

    def _wrap_apply_edit(self, fn):
        traced = self._wrap("editor.apply_edit", fn)

        @functools.wraps(fn)
        def counting(session):
            enc, rt = session.encode_calls, session.renorm_roundtrips
            try:
                return traced(session)
            finally:
                self.encode_calls += session.encode_calls - enc
                self.renorm_roundtrips += session.renorm_roundtrips - rt

        return counting

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer for the duration of the block."""
        special = {"grid.normal": self._wrap_normal, "editor.apply_edit": self._wrap_apply_edit}
        with contextlib.ExitStack() as stack:
            for name, sites in LAYERS:
                make = special.get(name) or functools.partial(self._wrap, name)
                for owner, attr in sites:
                    stack.enter_context(patched(owner, attr, make))
            yield self

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        child spans; one thread runs the program, so children of one span
        never overlap each other.
        """
        a = self.arrays()
        n_layers = len(LAYER_NAMES)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        calls = np.bincount(a["name"], minlength=n_layers)
        incl = np.bincount(a["name"], weights=dur, minlength=n_layers)
        excl = np.bincount(a["name"], weights=self_t, minlength=n_layers)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(excl[i])}
            for i, name in enumerate(LAYER_NAMES)
        }

    def op_calls(self, name: str) -> int:
        """Calls of one layer made inside operations (set-up excluded)."""
        a = self.arrays()
        return int(np.count_nonzero((a["name"] == self._ids[name]) & (a["op"] > 0)))

    def save(self, path: str) -> None:
        np.savez_compressed(path, layers=np.array(LAYER_NAMES), **self.arrays())
