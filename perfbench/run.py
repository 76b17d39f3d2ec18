#!/usr/bin/env python3
"""latentedit benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload session --seed 0 --seconds 25 --trace 0

Run from the root of a latentedit checkout; the program is imported from
``./src``.  Inputs are made from ``--seed``.  Calls repeat a fixed cycle
until ``--seconds`` have passed and the cycle is complete; every call's
outputs are checked and digested.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  A full report, and with ``--trace 1`` the recorded spans, go
to ``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

WORKLOAD_NAMES = ("session", "drift", "ebm", "train")
SIZES = {
    "full": {
        "session": {"image": 256, "T": 200},
        "drift": {"T": 200, "steps": 16},
        "ebm": {"T": 200, "chains": 10000, "langevin": 500},
        "train": {"T": 200, "steps": 500},
    },
    # Tiny sizes for the benchmark's self-test; a run finishes in seconds.
    "smoke": {
        "session": {"image": 16, "T": 8},
        "drift": {"T": 8, "steps": 2},
        "ebm": {"T": 8, "chains": 64, "langevin": 20},
        "train": {"T": 8, "steps": 20},
    },
}
# Set-up is timed in this many fresh interpreters, spread over the run so
# that their median sees the machine as the operations do.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# A run stops starting new calls this long after its measuring window, so
# it ends within the 180 s a run may take even on a slow machine.
OVERRUN_LIMIT_S = 100
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
# The calibration loop's typical time on the 2-vCPU Xeon (2.1 GHz) the
# benchmark was tuned on.  Scaled latencies are in seconds on a machine that
# runs the loop in this time.
CAL_REF_S = 0.011


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full",
                   help="'smoke' runs tiny inputs, for the benchmark's self-test")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def use_checkout_source(root: str) -> str | None:
    """Put ``root/src`` first on the import path; return an error message if
    latentedit is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "latentedit", "__init__.py")):
        return f"perfbench: no latentedit source at {src}; run from the root of a checkout"
    sys.path.insert(0, src)
    import latentedit

    if os.path.dirname(os.path.dirname(os.path.abspath(latentedit.__file__))) != src:
        return f"perfbench: latentedit was imported from {latentedit.__file__}, not {src}"
    return None


def report_setup_time(args, workdir: str, t0: float) -> int:
    """Print the time from ``t0``, taken before latentedit was imported, to
    the end of workload set-up."""
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, SIZES[args.size][args.workload], workdir)
    wl.setup()
    print(repr(time.perf_counter() - t0))
    return 0


def setup_probe(args, root: str, calibrate) -> tuple[float, float]:
    """Set-up time of one fresh interpreter, in seconds, and the mean of the
    calibration passes made right before and after it."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    cal = calibrate()
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    cal = (cal + calibrate()) / 2
    return float(done.stdout.strip().splitlines()[-1]), cal


def make_calibrator():
    """A fixed piece of numpy work that shares no code with latentedit; the
    returned function times one pass of it.

    On a shared host the machine's speed changes by up to 2x within seconds.
    Timed right before and after each operation, the loop gives the speed
    the operation ran at.  The first half is small-array and interpreter
    work, as in ``drift`` and ``train``; the second is Philox draws and
    arithmetic on 98k values, as in ``session`` and ``ebm``.
    """
    import numpy as np

    small, big = np.linspace(0.0, 1.0, 324), np.linspace(0.0, 1.0, 98304)
    # Every pass writes into these buffers, so it allocates no arrays and its
    # time does not depend on the state the program left the allocator in.
    small_out, big_out, big_tmp, draws = (np.empty_like(small), np.empty_like(big),
                                          np.empty_like(big), np.empty(49152))
    gen = np.random.Generator(np.random.Philox(0))

    def calibrate() -> float:
        t0 = time.perf_counter()
        acc, seen = 0.0, {}
        for i in range(800):
            np.multiply(small, -(i & 7), out=small_out)
            np.exp(small_out, out=small_out)
            np.multiply(small_out, 0.5, out=small_out)
            np.add(small_out, small, out=small_out)
            acc += float(small_out.sum())
            seen[i & 63] = acc
        for _ in range(4):
            gen.standard_normal(out=draws)
            np.sqrt(big, out=big_tmp)
            np.multiply(big_tmp, 0.1, out=big_tmp)
            np.multiply(big, 0.9, out=big_out)
            np.add(big_out, big_tmp, out=big_out)
            np.add(big_out[:49152], draws, out=big_out[:49152])
        return time.perf_counter() - t0

    return calibrate


def measure(wl, seconds: float, calibrate, expected: dict | None = None, between=None) -> dict:
    """Closed loop: call, wait, check, repeat whole cycles until ``seconds``.
    Each call is one operation.

    ``expected`` maps cycle positions to digests from an earlier phase; a
    call whose digest differs from the first one seen at its position fails.
    ``between(elapsed)`` runs after each call; its own time does not count
    toward ``seconds``.  Each operation is bracketed by two timed passes of
    ``calibrate``, whose mean is kept with its latency.
    """
    expected = dict(expected or {})
    out = {"attempted": 0, "failed": 0, "units": 0, "problems": [],
           "op_lat": [], "op_cal": [], "op_at": []}
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        pos = i % wl.cycle
        raised = False
        try:
            wl.prepare(pos)
            cal = calibrate()
            t0 = time.perf_counter()
            result = wl.call(pos)
            dt = time.perf_counter() - t0
            cal = (cal + calibrate()) / 2
            digest, problems = wl.check(pos, result)
            if expected.setdefault(pos, digest) != digest:
                problems.append("outputs differ from an earlier call with the same inputs")
        except Exception as exc:  # an operation that raises is a failed operation
            raised = True
            problems = [f"{type(exc).__name__}: {exc}"]
        out["attempted"] += 1
        if problems:
            out["failed"] += 1
            out["problems"].extend(f"call {i} (cycle position {pos}): {p}" for p in problems)
        else:
            out["units"] += wl.units_per_call()
            out["op_lat"].append(dt)
            out["op_cal"].append(cal)
            out["op_at"].append(t0 - start - paused)
        i += 1
        if raised:  # the session state is unknown: start a fresh cycle
            i = -(-i // wl.cycle) * wl.cycle
        if between is not None:
            t1 = time.perf_counter()
            between(t1 - start - paused)
            paused += time.perf_counter() - t1
        elapsed = time.perf_counter() - start - paused
        if (i % wl.cycle == 0 and elapsed >= seconds) or elapsed >= seconds + OVERRUN_LIMIT_S:
            break
    out.update(digests=expected, cycle=wl.cycle)
    return out


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it,
    and that percentile.  Below 21 samples that percentile would lie under
    the median, so the maximum is reported instead."""
    lat = sorted(samples)
    if len(lat) <= 20:
        return lat[-1], 100.0
    k = len(lat) - 11
    return lat[k], 100.0 * (k + 1) / len(lat)


def cycle_digest(phase: dict) -> str | None:
    digests = phase["digests"]
    if len(digests) != phase["cycle"]:
        return None
    return hashlib.sha256(b"".join(digests[p] for p in range(phase["cycle"]))).hexdigest()


def platform_key() -> str:
    """Identifies where reference digests are valid: numpy's transcendental
    kernels (log, sin, cos in Box-Muller) are chosen by CPU features, so the
    last bits of a draw may differ on another CPU or numpy build."""
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as feats
    except ImportError:
        return "unknown"
    blob = json.dumps([np.__version__, platform.machine(), sorted(k for k, v in feats.items() if v)])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def reference_check(size: str, workload: str, seed: int, digest: str | None) -> tuple[bool, str]:
    """Compare with the recorded digest; returns (ok, description)."""
    try:
        with open(REFERENCE_PATH, encoding="ascii") as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        return True, "no reference file"
    want = ref.get("digests", {}).get(size, {}).get(workload, {}).get(str(seed))
    if want is None:
        return True, f"no reference recorded for seed {seed}"
    if ref.get("platform") != platform_key():
        return True, "reference recorded on another platform; not compared"
    if digest != want:
        return False, f"differs from the reference {want[:16]}..."
    return True, "matches the reference"


def blas_threads() -> str:
    """OpenBLAS thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    env = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS") if k in os.environ}
    return f"unknown (env {env})"


def cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        sizes[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return sizes


def machine_facts() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "caches": cache_sizes(),
        "platform_key": platform_key(),
    }


def scaled(times: list[float], cal: list[float]) -> list[float]:
    """Times at the reference machine speed: each is multiplied by
    ``CAL_REF_S`` over the calibration time measured around it."""
    return [t * CAL_REF_S / c for t, c in zip(times, cal)]


def end_to_end_metrics(phase: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The untraced metrics, all timings scaled.  The notes hold the tail
    latency, which is reported but not a metric (see ``perfbench/README.md``),
    the unscaled figures and how they were taken."""
    setup_s, setup_cal = [t for t, _ in setup], [c for _, c in setup]
    metrics = {"setup_s": (statistics.median(scaled(setup_s, setup_cal)), "s")}
    notes = {"setup_samples_s": setup_s, "setup_calibration_s": setup_cal}
    lat, cal = phase["op_lat"], phase["op_cal"]
    if lat:
        norm = scaled(lat, cal)
        metrics["op_p50_norm_s"] = (statistics.median(norm), "s")
        metrics["work_norm_per_s"] = (phase["units"] / sum(norm), "1/s")
        tail, pct = tail_latency(norm)
        raw_tail, _ = tail_latency(lat)
        notes["op_tail"] = {"norm_s": tail, "unscaled_s": raw_tail, "percentile": pct,
                            "operations": len(lat)}
        notes["unscaled"] = {"setup_s": statistics.median(setup_s), "op_p50_s": statistics.median(lat),
                             "work_per_s": phase["units"] / sum(lat)}
        notes["calibration_s"] = {"median": statistics.median(cal), "min": min(cal), "max": max(cal)}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, notes


def per_layer_metrics(tracer, untraced: dict, traced: dict) -> dict:
    from tracer import HAS_CHILDREN, per_layer_metric_specs

    values = {}
    for name, totals in tracer.layer_totals().items():
        values[f"{name}.calls"] = totals["calls"]
        values[f"{name}.s"] = totals["s"]
        if name in HAS_CHILDREN:
            values[f"{name}.self_s"] = totals["self_s"]
    values["grid.normal.values"] = tracer.normal_values
    values["editor.encode_calls"] = tracer.encode_calls
    values["editor.renorm_roundtrips"] = tracer.renorm_roundtrips
    if untraced["units"] and traced["units"]:
        per_unit = [sum(scaled(p["op_lat"], p["op_cal"])) / p["units"] for p in (untraced, traced)]
        values["trace.overhead_ratio"] = per_unit[1] / per_unit[0]
    return {name: (values[name], unit) for name, unit in per_layer_metric_specs() if name in values}


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy's BLAS runs on one thread, as the closed-loop client does.  On a
    # 2-vCPU shared host a second BLAS thread made the speed of small matrix
    # products flip between two states every few seconds, whenever the other
    # vCPU was taken.  Set before numpy is loaded; set-up probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    t0 = time.perf_counter()
    root = os.getcwd()
    error = use_checkout_source(root)
    if error:
        print(error, file=sys.stderr)
        return 2
    size = SIZES[args.size][args.workload]
    outdir = os.path.join(root, ".perfbench")
    workdir = os.path.join(outdir, f"{args.workload}-{args.size}-{args.seed}")
    if args.probe_setup:
        return report_setup_time(args, workdir, t0)

    import workloads
    from tracer import Tracer

    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(workdir, exist_ok=True)
    cls.make_inputs(args.seed, size, workdir)
    wl = cls(args.seed, size, workdir)
    wl.setup()

    report = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "unit": wl.unit,
              "inputs": wl.facts(), "machine": machine_facts()}
    calibrate = make_calibrator()
    if args.trace == 0:
        setup = []

        def probe_when_due(elapsed: float) -> None:
            if len(setup) < SETUP_PROBES and elapsed >= len(setup) * args.seconds / SETUP_PROBES:
                setup.append(setup_probe(args, root, calibrate))

        phase = measure(wl, args.seconds, calibrate, between=probe_when_due)
        while len(setup) < SETUP_PROBES:
            setup.append(setup_probe(args, root, calibrate))
        metrics, notes = end_to_end_metrics(phase, setup)
        report["notes"] = notes
        phases = [phase]
    else:
        untraced = measure(wl, args.seconds / 2, calibrate)
        tracer = Tracer(wl.op_boundary)
        with tracer.installed():
            wl.setup()
            tracer.begin_ops()
            traced = measure(wl, args.seconds / 2, calibrate, expected=untraced["digests"])
        metrics = per_layer_metrics(tracer, untraced, traced)
        checks = {}
        for layer, want in wl.closed_forms(traced["attempted"], size["T"]).items():
            checks[f"{layer}.calls"] = {"expected": want, "traced": tracer.op_calls(layer)}
        report["call_count_check"] = {
            "ok": all(c["expected"] == c["traced"] for c in checks.values()), "counts": checks}
        trace_path = os.path.join(workdir, "trace.npz")
        tracer.save(trace_path)
        report["trace_file"] = os.path.relpath(trace_path, root)
        phases = [untraced, traced]

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    problems = [msg for p in phases for msg in p["problems"]]
    digest = cycle_digest(phases[0])
    ref_ok, ref_note = reference_check(args.size, args.workload, args.seed, digest)
    if not ref_ok:
        failed = attempted
        problems.append(f"output digest {ref_note}")
    report.update(digest=digest, reference=ref_note, attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, problems=problems[:20],
                  work_units=[p["units"] for p in phases],
                  op_latencies_s=[p["op_lat"] for p in phases],
                  op_starts_s=[p["op_at"] for p in phases],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    os.makedirs(outdir, exist_ok=True)
    report_path = os.path.join(outdir, f"report-{args.workload}-{args.size}-{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)

    print_report(report, report_path, root)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": report["metrics"]}
    print(json.dumps(result))
    return 0


def print_report(report: dict, report_path: str, root: str) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} size={report['size']} "
          f"trace={report['trace']} seconds={report['seconds']:g}")
    print("  inputs: " + ", ".join(f"{k}={v}" for k, v in report["inputs"].items()))
    m = report["machine"]
    print(f"  machine: nproc={m['nproc']} usable={m['cpus_usable']} python={m['python']} "
          f"numpy={m['numpy']} blas_threads={m['blas_threads']} caches={m['caches']}")
    print(f"  {report['unit']}={report['work_units']} "
          f"attempted={report['attempted']} failed={report['failed']} fail_ratio={report['fail_ratio']:g}")
    notes = report.get("notes", {})
    for name, entry in report["metrics"].items():
        extra = ""
        if name == "setup_s":
            extra = f"  (median of {len(notes['setup_samples_s'])} fresh interpreters)"
        elif name == "work_norm_per_s":
            extra = f"  ({report['unit']} per second)"
        if report["trace"] == 0 or entry["value"]:
            print(f"  {name:<44} {entry['value']:.6g} {entry['unit']}{extra}")
    if "unscaled" in notes:
        t, u, c = notes["op_tail"], notes["unscaled"], notes["calibration_s"]
        print(f"  tail (not a metric): {t['norm_s']:.6g} s scaled, {t['unscaled_s']:.6g} s unscaled "
              f"(p{t['percentile']:.1f} of {t['operations']} operations)")
        print(f"  unscaled: setup_s {u['setup_s']:.6g} s, op_p50_s {u['op_p50_s']:.6g} s, "
              f"work_per_s {u['work_per_s']:.6g} 1/s")
        print(f"  calibration loop: median {c['median']:.4g} s, min {c['min']:.4g} s, "
              f"max {c['max']:.4g} s, reference {CAL_REF_S:g} s")
    if "call_count_check" in report:
        cc = report["call_count_check"]
        print(f"  call-count self-check: {'pass' if cc['ok'] else 'FAIL'}")
        for layer, c in cc["counts"].items():
            print(f"    {layer:<40} expected {c['expected']} traced {c['traced']}")
    print(f"  digest {report['digest']} ({report['reference']})")
    for msg in report["problems"]:
        print(f"  problem: {msg}")
    print(f"  report: {os.path.relpath(report_path, root)}")


if __name__ == "__main__":
    sys.exit(main())
