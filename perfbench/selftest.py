#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size; takes well under a minute.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it runs an untraced and
a traced smoke run and checks: the last output line has exactly the keys and
metrics that BENCHMARK.json promises; no operation failed; the traced call
counts equal their closed forms; tracing left the output digest unchanged;
the digest matches the recorded reference.  Finally it runs the benchmark
in a directory holding only BENCHMARK.json and perfbench/, where it must
exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run(workload: str, trace: int, cwd: str = ".") -> tuple[subprocess.CompletedProcess, dict | None]:
    cmd = RUN + ["--workload", workload, "--seed", "0", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "smoke"]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return done, result


def main() -> int:
    with open("BENCHMARK.json", encoding="ascii") as fh:
        bench = json.load(fh)
    expected_metrics = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in bench["workloads"]):
        digests = {}
        for trace in (0, 1):
            done, result = run(workload, trace)
            label = f"{workload} trace={trace}"
            expect(done.returncode == 0 and result is not None, f"{label}: exits 0 with a JSON last line")
            if result is None:
                print(done.stdout[-2000:], done.stderr[-2000:])
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: every operation correct")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == expected_metrics[trace], f"{label}: metrics and units match BENCHMARK.json")
            with open(os.path.join(".perfbench", f"report-{workload}-smoke-0-trace{trace}.json"),
                      encoding="ascii") as fh:
                report = json.load(fh)
            digests[trace] = report["digest"]
            expect(report["reference"] == "matches the reference", f"{label}: {report['reference']}")
            if trace == 1:
                expect(report["call_count_check"]["ok"], f"{label}: call counts equal their closed forms")
        expect(len(set(digests.values())) == 1, f"{workload}: traced and untraced digests are equal")

    bare = os.path.join(".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, result = run("drift", 0, cwd=bare)
    expect(done.returncode != 0 and result is None, "without the program: non-zero exit, no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
