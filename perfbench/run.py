#!/usr/bin/env python3
"""Repository benchmark: builds the workload program from source, runs one
workload and prints its metrics.

    python3 perfbench/run.py --workload train|serve|megacity --seed N \
        --seconds S --trace 0|1

Run it from the repository root. With --trace 0 the last stdout line holds
the end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the
per-layer table, read from the profile and metrics JSON snapshots the
workload program writes around its traced pass. Everything the run writes
lands in .bench_build/ under the root; the run's own files are removed at
exit.
Workload shapes, thread counts and the per-layer predictions live in
perfbench/spec.json.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
WORKLOADS_BIN = BUILD_DIR / "perfbench_workloads"
RESULTS_LOG = BUILD_ROOT / "results.jsonl"
# Compiler and program temporaries stay inside the checkout too.
TMP_DIR = BUILD_ROOT / "tmp"
RUN_TIMEOUT_S = 160


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if set(spec["workloads"]) != {w["name"] for w in bench["workloads"]}:
        fail("spec.json and BENCHMARK.json name different workloads", 2)
    if set(spec["end_to_end"]) != {m["name"] for m in bench["end_to_end"]}:
        fail("spec.json and BENCHMARK.json name different end-to-end metrics", 2)
    if set(spec["layers"]) != {m["name"] for m in bench["per_layer"]}:
        fail("spec.json and BENCHMARK.json name different per-layer metrics", 2)
    return bench, spec


def child_env():
    """Environment for the build and the workload program: no inherited
    SPECTRA_* knobs, temporaries inside the checkout."""
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPECTRA_")}
    env["TMPDIR"] = str(TMP_DIR)
    return env


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no SpectraGAN sources under {ROOT}; run from a full checkout", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    # The default target is only perfbench_workloads (the repository's own
    # targets are EXCLUDE_FROM_ALL) and re-runs configure when a CMake file
    # changed.
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, env=child_env(), stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (full log in .bench_build/perfbench/build.log)", 3)


def quantile(values, q):
    """Linear-interpolation quantile (numpy's default)."""
    xs = sorted(values)
    if not xs:
        return float("nan")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the files the workload program is built from. A checkout
    need not be a git repository, so this identifies the code under test."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt", HERE / "workloads.cpp"]
    files += [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_workloads(args, spec, run_dir):
    env = child_env()
    env["SPECTRA_THREADS"] = str(spec["workloads"][args.workload]["spectra_threads"])
    env["SPECTRA_RUNMETA"] = str(run_dir / "runmeta.json")
    env["SPECTRA_LOG"] = "warn"
    out = run_dir / "raw.json"
    cmd = [str(WORKLOADS_BIN), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--run-dir", str(run_dir), "--out", str(out)]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=env, cwd=run_dir, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload program exceeded {RUN_TIMEOUT_S} s", 4)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"workload program exited with {proc.returncode}", 4)
    return json.loads(out.read_text())


# --- per-layer table from the profile / metrics snapshots -------------------

def flatten_profile(tree):
    flat = {}

    def walk(node, path):
        key = path + (node["name"],)
        entry = flat.setdefault(key, {"calls": 0, "incl": 0.0, "excl": 0.0, "flops": 0.0})
        entry["calls"] += node["calls"]
        entry["incl"] += node["incl_seconds"]
        entry["excl"] += node["excl_seconds"]
        entry["flops"] += node["flops"]
        for child in node["children"]:
            walk(child, key)

    for top in tree["tree"]:
        walk(top, ())
    return flat


class Profile:
    """Profile delta over the traced pass, queried by scope name."""

    def __init__(self, begin, end):
        b, e = flatten_profile(begin), flatten_profile(end)
        self.nodes = {}
        for key, v in e.items():
            base = b.get(key, {"calls": 0, "incl": 0.0, "excl": 0.0, "flops": 0.0})
            self.nodes[key] = {f: v[f] - base[f] for f in v}

    def total(self, name, field, under=None):
        return sum(v[field] for k, v in self.nodes.items()
                   if k[-1] == name and (under is None or under in k[:-1]))


class Metrics:
    """Metrics-registry delta over the traced pass."""

    def __init__(self, begin, end):
        self.begin, self.end = begin, end

    def counter(self, name):
        return self.end["counters"].get(name, 0) - self.begin["counters"].get(name, 0)

    def peak(self, name):
        return self.end["max_gauges"].get(name, 0.0)

    def hist(self, name, field):
        e = self.end["histograms"].get(name, {})
        b = self.begin["histograms"].get(name, {})
        if field in ("count", "sum"):
            return e.get(field, 0) - b.get(field, 0)
        return e.get(field, 0.0)


# Scopes whose exclusive time a per-layer share names; the profiled
# thread time outside them and outside checkpoint writes (the Adam set-up
# and request glue) is `other`.
NAMED_EXCLUSIVE = ("train/sample", "dsp/fft", "core/irfft_bridge", "core/irfft_bridge_backward",
                   "core/generate_city_streamed", "nn/gemm", "nn/lstm_step", "nn/conv2d_forward",
                   "nn/conv2d_backward", "train/backward", "geo/strip_finalize",
                   "train/g_forward", "train/d_step", "train/g_step")


def layer_table(raw, run_dir):
    def load(name):
        return json.loads((run_dir / name).read_text())

    prof = Profile(load("profile_begin.json"), load("profile_end.json"))
    met = Metrics(load("metrics_begin.json"), load("metrics_end.json"))
    extra = raw["layer"]
    # Shares are of the profiled thread-seconds of the pass: the timed wall
    # for one-thread train, about wall x workers for serve, and the busy
    # time of the caller and pool threads for megacity.
    thread_s = sum(v["excl"] for v in prof.nodes.values())

    def share(seconds):
        return 100.0 * seconds / thread_s

    fft_excl = prof.total("dsp/fft", "excl")
    fft_incl = prof.total("dsp/fft", "incl")
    gemm_incl = prof.total("nn/gemm", "incl")
    gemm_flops = prof.total("nn/gemm", "flops")
    gemm_profiled_calls = prof.total("nn/gemm", "calls")
    bridge_fwd = prof.total("core/irfft_bridge", "incl")
    conv = prof.total("nn/conv2d_forward", "incl") + prof.total("nn/conv2d_backward", "incl")
    lstm_step = prof.total("nn/lstm_step", "excl")
    step_self = sum(prof.total(n, "excl") for n in ("train/g_forward", "train/d_step",
                                                       "train/g_step"))
    ckpt_write = met.hist("checkpoint.write_seconds", "sum")
    named = sum(prof.total(n, "excl") for n in NAMED_EXCLUSIVE) + ckpt_write
    gemm_excl = prof.total("nn/gemm", "excl")
    fft_calls = met.counter("fft.calls")
    latencies = raw["latency_s"]
    req_count = met.hist("serve.req_seconds", "count")
    serve_service_p50 = met.hist("serve.req_seconds", "p50") if req_count else 0.0

    return {
        "data.synth_s": extra["data.synth_s"],
        "data.sample_self_share": share(prof.total("train/sample", "excl")),
        "core.spectrum_target_share": share(prof.total("dsp/fft", "incl", under="train/sample")),
        "core.bridge_fwd_s": bridge_fwd,
        "core.bridge_fwd_share": share(bridge_fwd),
        "core.bridge_calls": met.counter("fourier_bridge.calls"),
        "core.bridge_bwd_share": share(prof.total("core/irfft_bridge_backward", "incl")),
        "core.generate_self_share": share(prof.total("core/generate_city_streamed", "excl")),
        "dsp.fft_calls": fft_calls,
        "dsp.fft_self_s": fft_excl,
        "dsp.fft_share": share(fft_excl),
        "dsp.fft_gflops": prof.total("dsp/fft", "flops") / fft_incl * 1e-9 if fft_incl else 0.0,
        "dsp.bluestein_ratio": met.counter("fft.bluestein_calls") / fft_calls if fft_calls else 0.0,
        "nn.gemm_calls": met.counter("gemm.calls"),
        "nn.gemm_self_s": gemm_excl,
        "nn.gemm_share": share(gemm_excl),
        "nn.gemm_gflops": gemm_flops / gemm_incl * 1e-9 if gemm_incl else 0.0,
        "nn.gemm_flops_per_call": gemm_flops / gemm_profiled_calls if gemm_profiled_calls else 0.0,
        "nn.lstm_step_calls": prof.total("nn/lstm_step", "calls"),
        "nn.lstm_step_self_s": lstm_step,
        "nn.lstm_step_share": share(lstm_step),
        "nn.conv_s": conv,
        "nn.conv_share": share(conv),
        "nn.autograd_self_share": share(prof.total("train/backward", "excl")),
        "nn.workspace_grows": met.counter("gemm.workspace_grows"),
        "pool.parallel_chunks": met.counter("pool.parallel_chunks"),
        "pool.inline_runs": met.counter("pool.parallel_inline_runs"),
        "pool.queue_depth_peak": met.peak("pool.queue_depth_peak"),
        "geo.strip_finalize_share": share(prof.total("geo/strip_finalize", "incl")),
        "geo.strips_finalized": met.counter("geo.strips_finalized"),
        "geo.sink_write_share": share(extra.get("geo.sink_write_s", 0.0)),
        "geo.bytes_spilled": extra.get("geo.bytes_spilled", 0.0),
        "geo.strip_resident_bytes_peak": met.peak("geo.strip_resident_bytes_peak"),
        "serve.service_share":
            100.0 * serve_service_p50 / quantile(latencies, 0.5) if req_count else 0.0,
        "serve.queue_wait_share":
            100.0 * (sum(latencies) - met.hist("serve.req_seconds", "sum")) / sum(latencies)
            if req_count else 0.0,
        "serve.inflight_peak": met.peak("serve.inflight_peak"),
        "serve.queue_depth_peak": met.peak("serve.queue_depth_peak"),
        "serve.frame_bytes": extra.get("serve.frame_bytes", 0.0),
        "serve.weights_load_share":
            100.0 * extra.get("serve.weights_load_s", 0.0) / statistics.median(raw["setup_s"]),
        "train.step_self_share": share(step_self),
        "train.ckpt_write_share": share(ckpt_write),
        "train.ckpt_writes": met.counter("checkpoint.writes"),
        "obs.overhead_ratio":
            (raw["untraced_work"] / raw["untraced_wall_s"]) / (raw["work"] / raw["wall_s"]),
        "other_share": 100.0 - share(named),
    }


def end_to_end(raw):
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "throughput_per_s": raw["work"] / raw["wall_s"],
        "latency_p50_s": quantile(raw["latency_s"], 0.5),
        "latency_p90_s": quantile(raw["latency_s"], 0.9),
        "first_output_p50_s": quantile(raw["first_output_s"], 0.5),
        "peak_rss_mb": raw["peak_rss_bytes"] / (1024.0 * 1024.0),
    }


def host_identity(args, raw):
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "simd_level": raw["simd_level"],
        "spectra_threads": raw["threads"],
        "git_sha": raw["git_sha"],
        "source_digest": source_digest(),
        "workload": args.workload,
        "clients": raw["clients"],
    }


def comparability(host):
    """Flag results whose CPU model or SIMD level differ from the first
    result recorded in this checkout: their timings do not compare."""
    first = None
    if RESULTS_LOG.is_file():
        for line in RESULTS_LOG.read_text().splitlines():
            if line.strip():
                first = json.loads(line)["host"]
                break
    if first is None:
        return True
    return all(first[k] == host[k] for k in ("cpu_model", "simd_level", "nproc"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench, spec = load_spec()
    if args.workload not in spec["workloads"]:
        fail(f"unknown workload {args.workload!r}", 2)
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    build()

    run_dir = BUILD_ROOT / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        raw = run_workloads(args, spec, run_dir)
        if args.trace:
            values = layer_table(raw, run_dir)
            wanted = bench["per_layer"]
        else:
            values = end_to_end(raw)
            wanted = bench["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    host = host_identity(args, raw)
    host["comparable"] = comparability(host)
    expected_threads = spec["workloads"][args.workload]["spectra_threads"]
    problems = list(raw["errors"])
    if raw["threads"] != expected_threads:
        problems.append(f"ran with {raw['threads']} threads, expected {expected_threads}")
    metrics = {}
    for m in wanted:
        v = values[m["name"]]
        if not math.isfinite(v):
            problems.append(f"{m['name']} is not finite")
            v = 0.0  # keep the result line valid JSON; the run is marked incorrect
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    correct = failed == 0 and attempted >= 1 and not problems

    print(f"host: {json.dumps(host)}")
    if not host["comparable"]:
        print("host: NOT COMPARABLE with the first result in .bench_build/results.jsonl "
              "(different CPU model, nproc or SIMD level)")
    print(f"workload {args.workload} seed {args.seed}: attempted {attempted}, failed {failed}, "
          f"error_rate {failed / max(attempted, 1):.4f}")
    if raw["digests"]:
        print(f"spilled-city digests: {' '.join(raw['digests'])}")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    with open(RESULTS_LOG, "a") as log:
        log.write(json.dumps({"host": host, "seed": args.seed, "trace": args.trace,
                              "correct": correct, "metrics": metrics}) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
