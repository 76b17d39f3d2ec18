"""Command-line entry point: reproducible runs from strict JSON configs.

Each subcommand accepts only the flags it reads (``_COMMANDS``); --seed, --out,
--T, --method and --mask-mode override the config field they name (``_FLAGS``).
Exit codes: 0 success, 1 check or experiment failure, 2 configuration error.
The whole config is checked against ``_FIELDS`` whatever the command, and
error messages name the offending field path.  Outputs are byte-identical
across reruns; per-edit wall-clock timings are only logged with --timings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import bench as bench_mod
from . import editor as editor_mod
from . import training as training_mod
from . import verify as verify_mod
from .codec import CodecConfig
from .denoiser import EditInstruction, GMMEnergy, GMMPrior
from .fixtures import fixture_path
from .grid import LatentGrid, Mask, mean_stat, read_grid, read_mask, write_grid
from .sampler import MASK_MODES, METHODS, DivergenceError, LangevinConfig, SamplerConfig
from .schedule import build_schedule


class ConfigError(ValueError):
    """Configuration problem; message names the offending field path."""


_REQUIRED = object()


def _one_of(choices, noun: str | None = None):
    def check(value, base_dir):
        if value not in choices:
            return f"unknown {noun} {value!r}" if noun else f"must be one of {choices}"
    return check


def _at_least(low: int):
    return lambda value, base_dir: None if value >= low else f"must be >= {low}, got {value}"


def _edit_scale(value, base_dir):
    """``EditInstruction``'s own check of a target spread, run at load time."""
    try:
        EditInstruction(id="scale", target_scale=value)
    except ValueError as exc:
        return str(exc)


def _nonempty(value, base_dir):
    return None if value else "expected a nonempty list"


def _file(value, base_dir):
    if value is not None and not os.path.isfile(os.path.join(base_dir, value)):
        return f"file not found: {value}"


def _one_bias(value, base_dir):
    if "bias" in value and "bias_file" in value:
        return "give either bias or bias_file, not both"


def _no_edit_mask(value, base_dir):
    if "mask" in value:
        return ("mask", "the locality bench does not read an edit mask; "
                        "give it as config.bench.locality.mask")


_PRIOR_SINGLE = {"label": "single_gaussian", "weights": [1.0], "means": [3.0], "scales": [1.0]}
_PRIOR_BIMODAL = {"label": "bimodal", "weights": [0.5, 0.5], "means": [-2.0, 2.0],
                  "scales": [0.25, 0.25]}

# Every config field: path -> (type, default, check).  "x[]" is an item of the
# list x; a type given as a path means "same fields and check as that path",
# and the field's own check runs after that path's.  A default of None leaves
# the field out when absent, so the library's default applies.  A check
# returns None, an error message, or (key, message) for an error at that key.
_FIELDS = {
    "": (dict, _REQUIRED, None),
    "seed": (int, _REQUIRED, None),
    "out_dir": (str, None, None),
    "schedule": (dict, {}, None),
    "schedule.kind": (str, "linear", None),
    "schedule.T": (int, 200, None),
    "schedule.beta_start": (float, None, None),
    "schedule.beta_end": (float, None, None),
    "sampler": (dict, {}, None),
    "sampler.method": (str, None, _one_of(METHODS)),
    "sampler.mask_mode": (str, None, _one_of(MASK_MODES)),
    "sampler.add_final_noise": (bool, None, None),
    "codec": (dict, {}, None),
    "codec.downsample": (int, None, None),
    "codec.levels": (int, None, None),
    "codec.clamp": (float, None, None),
    "codec.unsharp": (float, None, None),
    "session": (dict, None, None),
    "session.input": (str, _REQUIRED, _file),
    "session.strategy": (str, None, _one_of(editor_mod.STRATEGIES)),
    "session.reuse_init": (bool, None, None),
    "session.edits": (list, _REQUIRED, _nonempty),
    "session.edits[]": (dict, _REQUIRED, _one_bias),
    "session.edits[].id": (str, _REQUIRED, None),
    "session.edits[].gain": ((float, list), None, None),
    "session.edits[].gain[]": (float, _REQUIRED, None),
    "session.edits[].bias": (float, None, None),
    "session.edits[].bias_file": (str, None, _file),
    "session.edits[].scale": (float, None, _edit_scale),
    "session.edits[].mask": (str, None, _file),
    "bench": (dict, {}, None),
    "bench.fixture": (str, "shipped", lambda v, base_dir: v != "shipped" and _file(v, base_dir)),
    "bench.drift": (dict, {}, None),
    "bench.drift.steps": (int, 16, _at_least(2)),
    "bench.drift.edit_noise": (float, None, lambda v, d: _at_least(0)(v, d) or _edit_scale(v, d)),
    "bench.drift.strategies": (list, list(editor_mod.STRATEGIES), _nonempty),
    "bench.drift.strategies[]": (str, _REQUIRED, _one_of(editor_mod.STRATEGIES, "strategy")),
    "bench.locality": (dict, {}, None),
    "bench.locality.edit": ("session.edits[]", {"id": "brighten", "bias": 0.6, "scale": 0.08},
                            _no_edit_mask),
    "bench.locality.mask": ((str, type(None)), None, _file),
    "bench.locality.modes": (list, list(MASK_MODES), None),
    "bench.locality.modes[]": (str, _REQUIRED, _one_of(MASK_MODES, "mode")),
    "bench.ebm": (dict, {}, None),
    "bench.ebm.chains": (int, 10000, _at_least(1)),
    "bench.ebm.priors": (list, [_PRIOR_SINGLE, _PRIOR_BIMODAL], _nonempty),
    "bench.ebm.priors[]": (dict, _REQUIRED, None),
    "bench.ebm.priors[].label": (str, None, None),
    "bench.ebm.priors[].weights": (list, _REQUIRED, None),
    "bench.ebm.priors[].weights[]": (float, _REQUIRED, None),
    "bench.ebm.priors[].means": (list, _REQUIRED, None),
    "bench.ebm.priors[].means[]": (float, _REQUIRED, None),
    "bench.ebm.priors[].scales": (list, _REQUIRED, None),
    "bench.ebm.priors[].scales[]": (float, _REQUIRED, None),
    "bench.ebm.langevin": (dict, {}, None),
    "bench.ebm.langevin.step_size": (float, 0.05, None),
    "bench.ebm.langevin.noise_scale": ((float, list), None, None),
    "bench.ebm.langevin.noise_scale[]": (float, _REQUIRED, None),
    "bench.ebm.langevin.steps": (int, 2000, None),
    "training": (dict, None, None),
    "training.prior": ("bench.ebm.priors[]", _REQUIRED, None),
    "training.hidden": (int, None, None),
    "training.embed": (int, None, None),
    "training.learning_rate": (float, 0.004, None),
    "training.batch_size": (int, 128, None),
    "training.steps": (int, 20000, None),
    "training.optimizer": (str, "adam", None),
}

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean",
               dict: "an object", list: "a list", type(None): "null"}


def _is(value, kind) -> bool:
    if kind is float:  # rejects NaN, Infinity and integers too big for a float
        return (_is(value, int) or isinstance(value, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _walk(value, field: str, where: str, base_dir: str, overrides: dict):
    """Check ``value`` against ``_FIELDS[field]``; return a copy with numbers as
    floats, ``overrides`` (field path -> value) applied and absent fields set
    to their table defaults."""
    kind, _, check = _FIELDS[field]
    checks = [check]
    if isinstance(kind, str):
        field = kind
        kind, _, shared = _FIELDS[field]
        checks.insert(0, shared)
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not any(_is(value, k) for k in kinds):
        raise ConfigError(f"{where}: expected {_TYPE_NAMES[kinds[0]]}")
    for check in filter(None, checks):
        problem = check(value, base_dir)
        if isinstance(problem, tuple):
            raise ConfigError(f"{where}.{problem[0]}: {problem[1]}")
        if problem:
            raise ConfigError(f"{where}: {problem}")
    if isinstance(value, list):
        return [_walk(v, f"{field}[]", f"{where}[{i}]", base_dir, overrides)
                for i, v in enumerate(value)]
    if isinstance(value, dict):
        children = {path.rpartition(".")[2]: path for path in _FIELDS
                    if path and path.rpartition(".")[0] == field and not path.endswith("[]")}
        for key in value:
            if key not in children:
                raise ConfigError(f"{where}.{key}: unknown key (allowed: {sorted(children)})")
        out = {}
        for key, child in children.items():
            given = overrides.get(child, value.get(key, _FIELDS[child][1]))
            if given is _REQUIRED:
                raise ConfigError(f"{where}.{key}: missing required key")
            if key in value or given is not None:
                out[key] = _walk(given, child, f"{where}.{key}", base_dir, overrides)
        return out
    return float(value) if float in kinds else value


def _read(path: str, overrides: dict) -> tuple[dict, dict]:
    """The JSON document as parsed, and its checked copy (see ``_walk``)."""
    if not os.path.isfile(path):
        raise ConfigError(f"config: file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # also undecodable bytes
        raise ConfigError(f"config: invalid JSON: {exc}") from None
    return doc, _walk(doc, "", "config", os.path.dirname(os.path.abspath(path)), overrides)


def load_config(path: str) -> dict:
    """Read a run config and check all of it; returns the document unchanged."""
    return _read(path, {})[0]


def _at(where: str, build, *args, **kwargs):
    """Build a library object or read a file; a ValueError or OSError it
    raises is a config error at ``where``."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _pick(block: dict, *keys: str) -> dict:
    return {k: block[k] for k in keys if k in block}


def _needed(cfg: dict, key: str, why: str):
    if key not in cfg:
        raise ConfigError(f"config.{key}: missing ({why})")
    return cfg[key]


def _out_dir(cfg: dict) -> str:
    out = _needed(cfg, "out_dir", "or pass --out")
    _at("config.out_dir", os.makedirs, out, exist_ok=True)
    return out


def _schedule(cfg: dict):
    return _at("config.schedule", build_schedule, **cfg["schedule"])


def _core(cfg: dict) -> dict:
    """The schedule, sampler and codec that the editing commands share."""
    return {
        "sched": _schedule(cfg),
        "sampler_cfg": SamplerConfig(**cfg["sampler"]),  # every field is checked by _FIELDS
        "codec_cfg": _at("config.codec", CodecConfig, **cfg["codec"]),
    }


def _edit(block: dict, where: str, base_dir: str) -> tuple[EditInstruction, Mask | None]:
    kwargs = _pick(block, "gain", "bias")
    if "scale" in block:
        kwargs["target_scale"] = block["scale"]
    if "bias_file" in block:
        kwargs["bias"] = _at(f"{where}.bias_file", read_grid,
                             os.path.join(base_dir, block["bias_file"]))
    mask = (_at(f"{where}.mask", read_mask, os.path.join(base_dir, block["mask"]))
            if "mask" in block else None)
    return _at(where, EditInstruction, id=block["id"], **kwargs), mask


def _prior(block: dict, where: str) -> GMMPrior:
    return _at(where, GMMPrior.scalar, block["weights"], block["means"], block["scales"])


def _bench_fixture(cfg: dict, base_dir: str, core: dict) -> LatentGrid:
    name = cfg["bench"]["fixture"]
    path = fixture_path() if name == "shipped" else os.path.join(base_dir, name)
    fixture = _at("config.bench.fixture", read_grid, path)
    # open_session checks the image against the codec's block size
    _at("config.bench.fixture", editor_mod.open_session, fixture, [], **core)
    return fixture


def _publish(report, out: str, name: str, args) -> int:
    """Write a bench report and print one PASS/FAIL line per claim; 1 if any fails."""
    fmt = "json" if args.json else "csv"
    path = os.path.join(out, f"{name}.{fmt}")
    bench_mod.write_report(report, path, fmt)
    print(f"wrote {path}")
    claims = report.claims()
    for claim, ok, detail in claims:
        print(f"{'PASS' if ok else 'FAIL'}  {claim}: {detail}")
    return 0 if all(ok for _, ok, _ in claims) else 1


def cmd_run_session(cfg: dict, args, base_dir: str) -> int:
    block = _needed(cfg, "session", "needed by run-session")
    image = _at("config.session.input", read_grid, os.path.join(base_dir, block["input"]))
    edits, masks = zip(*(_edit(e, f"config.session.edits[{i}]", base_dir)
                         for i, e in enumerate(block["edits"])))
    session = _at(
        "config.session", editor_mod.open_session, image, edits,
        masks if any(m is not None for m in masks) else None, **_core(cfg),
        seed=cfg["seed"], **_pick(block, "strategy", "reuse_init"),
    )
    out = _out_dir(cfg)

    log_edits = []
    for i in range(len(edits)):
        start = time.perf_counter()
        output = editor_mod.apply_edit(session)
        elapsed = time.perf_counter() - start
        name = f"edit_{i + 1:03d}.grid"
        write_grid(output, os.path.join(out, name))
        entry = {
            "index": i + 1,
            "edit_id": edits[i].id,
            "output_file": name,
            "renorm_factor": session.f_history[i],
            "latent_mean": mean_stat(session.prev_latent),
            "latent_std": float(session.prev_latent.data.std()),
        }
        if args.timings:
            entry["duration_s"] = elapsed
        log_edits.append(entry)
    with open(os.path.join(out, "session_log.json"), "w", encoding="ascii", newline="\n") as fh:
        json.dump({"strategy": session.strategy, "seed": cfg["seed"], "num_edits": len(edits),
                   "edits": log_edits}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(edits)} edited grids and session_log.json to {out}")
    return 0


def cmd_bench_drift(cfg: dict, args, base_dir: str) -> int:
    drift = cfg["bench"]["drift"]
    core = _core(cfg)
    fixture = _bench_fixture(cfg, base_dir, core)
    # open_session composes a concat_instructions chain, so one that overflows fails here
    edits = [bench_mod.identity_edit(drift.get("edit_noise", bench_mod.DEFAULT_EDIT_NOISE))]
    for strategy in drift["strategies"]:
        _at("config.bench.drift", editor_mod.open_session, fixture, edits * drift["steps"],
            strategy=strategy, **core)
    out = _out_dir(cfg)
    report = bench_mod.drift_experiment(
        fixture, drift["strategies"], drift["steps"], **core, seed=cfg["seed"],
        **_pick(drift, "edit_noise"),
    )
    return _publish(report, out, "drift", args)


def cmd_bench_locality(cfg: dict, args, base_dir: str) -> int:
    loc = cfg["bench"]["locality"]
    core = _core(cfg)
    fixture = _bench_fixture(cfg, base_dir, core)
    edit, _ = _edit(loc["edit"], "config.bench.locality.edit", base_dir)
    if loc.get("mask") is not None:
        mask = _at("config.bench.locality.mask", read_mask, os.path.join(base_dir, loc["mask"]))
    else:
        lat_h = fixture.h // core["codec_cfg"].downsample
        lat_w = fixture.w // core["codec_cfg"].downsample
        block_mask = np.zeros((lat_h, lat_w))
        block_mask[lat_h // 4 : 3 * lat_h // 4, lat_w // 4 : 3 * lat_w // 4] = 1.0
        mask = Mask(block_mask)
    _at("config.bench.locality", editor_mod.open_session, fixture, [edit], [mask], **core)
    out = _out_dir(cfg)
    report = bench_mod.locality_experiment(fixture, edit, mask, loc["modes"], **core,
                                           seed=cfg["seed"])
    return _publish(report, out, "locality", args)


def cmd_bench_ebm(cfg: dict, args, base_dir: str) -> int:
    ebm = cfg["bench"]["ebm"]
    sched, sampler_cfg = _schedule(cfg), SamplerConfig(**cfg["sampler"])
    lang_cfg = _at("config.bench.ebm.langevin", LangevinConfig, **ebm["langevin"])
    priors = [(p.get("label", f"prior_{i}"), _prior(p, f"config.bench.ebm.priors[{i}]"))
              for i, p in enumerate(ebm["priors"])]
    for i, (_, prior) in enumerate(priors):  # Langevin needs GMMEnergy's positive scales
        _at(f"config.bench.ebm.priors[{i}]", GMMEnergy, prior)
    out = _out_dir(cfg)
    report = bench_mod.EbmReport([bench_mod.ebm_equivalence_experiment(
        prior, sched, lang_cfg, ebm["chains"], sampler_cfg=sampler_cfg, seed=cfg["seed"],
        label=label).rows[0] for label, prior in priors])
    return _publish(report, out, "ebm", args)


def cmd_train(cfg: dict, args, base_dir: str) -> int:
    block = _needed(cfg, "training", "needed by train")
    sched = _schedule(cfg)
    prior = _prior(block["prior"], "config.training.prior")
    train_cfg = _at(
        "config.training", training_mod.TrainConfig, seed=cfg["seed"],
        **_pick(block, "learning_rate", "batch_size", "steps", "optimizer"),
    )
    sizes = _pick(block, "hidden")
    if "embed" in block:
        sizes["embed_dim"] = block["embed"]
    model = _at("config.training", training_mod.TinyDenoiser.init,
                d=prior.dim, T=sched.T, seed=cfg["seed"], **sizes)
    out = _out_dir(cfg)

    trained, trace = training_mod.train(model, prior, sched, train_cfg)
    model_path = os.path.join(out, "model.params")
    training_mod.save_model(trained, model_path)
    trace_path = os.path.join(out, "loss_trace.csv")
    with open(trace_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("step,loss\n")
        for i, value in enumerate(trace, start=1):
            fh.write(f"{i},{float(value)!r}\n")
    final = float(trace[-1]) if len(trace) else float("nan")
    print(f"wrote {model_path} and {trace_path} (final loss {final:.6f})")
    return 0


def cmd_verify(args) -> int:
    results = verify_mod.run_checks()
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in results], indent=2, sort_keys=True))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            print(f"{'PASS' if r.ok else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    return 0 if all(r.ok for r in results) else 1


# flag -> (config field it overrides, or None; argparse options)
_FLAGS = {
    "--seed": ("seed", {"type": int}),
    "--out": ("out_dir", {}),
    "--T": ("schedule.T", {"type": int}),
    "--method": ("sampler.method", {"choices": METHODS}),
    "--mask-mode": ("sampler.mask_mode", {"choices": MASK_MODES}),
    "--json": (None, {"action": "store_true", "help": "machine-readable report"}),
    "--timings": (None, {"action": "store_true", "help": "log per-edit wall-clock timings"}),
}

_EDITING = ("--seed", "--out", "--T", "--method")
_COMMANDS = {
    "run-session": (cmd_run_session, (*_EDITING, "--mask-mode", "--timings")),
    "bench-drift": (cmd_bench_drift, (*_EDITING, "--json")),
    "bench-locality": (cmd_bench_locality, (*_EDITING, "--json")),
    "bench-ebm": (cmd_bench_ebm, (*_EDITING, "--json")),
    "train": (cmd_train, ("--seed", "--out", "--T")),
    "verify": (cmd_verify, ("--json",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentedit", description="Iterative multi-granular latent editing engine")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        if name != "verify":
            p.add_argument("config", help="path to the JSON run config")
        for flag in flags:
            field, options = _FLAGS[flag]
            if field is not None:
                options = {"dest": field, "help": f"override config.{field}", **options}
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command][0]
    if args.command == "verify":
        return command(args)
    overrides = {field: getattr(args, field) for field, _ in _FLAGS.values()
                 if field and getattr(args, field, None) is not None}
    try:
        _, cfg = _read(args.config, overrides)
        return command(cfg, args, os.path.dirname(os.path.abspath(args.config)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
