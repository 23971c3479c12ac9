#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it makes two traced runs
of one seed and checks that both pass their correctness checks, that the
named layers cover at least 90% of the profiled thread time (100 minus
`other_share`), and that the exact work counts repeat. It also checks that the benchmark refuses to run, without
printing a result, when only BENCHMARK.json and perfbench/ are present.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = ["python3", "perfbench/run.py"]
SEED = 7
SECONDS = 6
MIN_COVERAGE = 90.0

# Counts a later change may cite as evidence: they must not depend on timing.
EXACT_COUNTS = ("dsp.fft_calls", "core.bridge_calls", "nn.gemm_calls", "nn.lstm_step_calls",
                "geo.strips_finalized", "train.ckpt_writes")


def traced(workload):
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", str(SEED), "--seconds",
                                 str(SECONDS), "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload}: run failed\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{workload}: correctness checks failed\n{proc.stdout[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_refuses_without_sources():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench")
        proc = subprocess.run(RUN + ["--workload", "train", "--seed", "1", "--seconds", "1",
                                     "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            raise AssertionError("benchmark produced a result without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    check_refuses_without_sources()
    print("refuses to run without sources: ok")
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for workload in workloads:
        first = traced(workload)
        second = traced(workload)
        for name in EXACT_COUNTS:
            if first[name] != second[name]:
                raise AssertionError(f"{workload}: {name} differs between traced runs: "
                                     f"{first[name]} vs {second[name]}")
        coverage = [100.0 - run["other_share"] for run in (first, second)]
        if min(coverage) < MIN_COVERAGE:
            raise AssertionError(f"{workload}: named layers cover {min(coverage):.1f}% "
                                 f"< {MIN_COVERAGE:.0f}%")
        counts = ", ".join(f"{n}={first[n]:.0f}" for n in EXACT_COUNTS)
        print(f"{workload}: counts repeat ({counts}); named layers cover "
              f"{coverage[0]:.1f}% / {coverage[1]:.1f}%")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"selftest: FAILED: {e}", file=sys.stderr)
        sys.exit(1)
