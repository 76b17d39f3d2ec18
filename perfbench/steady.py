#!/usr/bin/env python3
"""Steadiness report: run each workload once per seed and summarise.

    python3 perfbench/steady.py --workloads session drift --seeds 0-9 --seconds 25

Each run is ``perfbench/run.py`` in its own process, one after another.  Per
workload and metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median; and the longest run's wall time.
With ``--record-reference`` the output digests of the runs are written to
``perfbench/reference.json`` as the reference for later runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=["session", "drift", "ebm", "train"])
    p.add_argument("--seeds", default="0-9", help="'0-9' or '1,5,7'")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--size", default="full")
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--out", default=os.path.join(".perfbench", "steady.json"))
    args = p.parse_args(argv)

    summary = {}
    digests = {}
    for workload in args.workloads:
        runs, walls = [], []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0", "--size", args.size]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - t0)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(result)
            report_path = os.path.join(
                ".perfbench", f"report-{workload}-{args.size}-{seed}-trace0.json")
            with open(report_path, encoding="ascii") as fh:
                digests.setdefault(workload, {})[str(seed)] = json.load(fh)["digest"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} wall={walls[-1]:.1f}s",
                  flush=True)
        names = runs[0]["metrics"].keys()
        stats = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in names}
        summary[workload] = {"metrics": stats, "all_correct": all(r["correct"] for r in runs),
                             "max_wall_s": max(walls), "mean_wall_s": statistics.mean(walls)}
        print(f"== {workload}: all correct={summary[workload]['all_correct']} "
              f"wall max={max(walls):.1f}s mean={statistics.mean(walls):.1f}s")
        for name, s in stats.items():
            print(f"   {name:<44} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}")

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=1)
    if args.record_reference:
        sys.path.insert(0, HERE)
        sys.path.insert(0, os.path.join(os.getcwd(), "src"))
        from run import REFERENCE_PATH, platform_key

        try:
            with open(REFERENCE_PATH, encoding="ascii") as fh:
                ref = json.load(fh)
        except FileNotFoundError:
            ref = {"platform": platform_key(), "digests": {}}
        if ref["platform"] != platform_key():
            print("reference.json was recorded on another platform; not updated", file=sys.stderr)
            return 1
        for workload, by_seed in digests.items():
            ref["digests"].setdefault(args.size, {}).setdefault(workload, {}).update(by_seed)
        with open(REFERENCE_PATH, "w", encoding="ascii") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
