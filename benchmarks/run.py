"""Benchmark of sqnn's gradient-descent and least-squares paths.

    python3 benchmarks/run.py --workload wdbc-lls-cv --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py            # every workload, one after another

A run measures one workload for about `--seconds` seconds. It starts
one fresh worker process per round (benchmarks/worker.py); each round
sets the workload up, times its fixed work once and checks the outputs.
Rounds continue while another one is expected to end within the run
length, so every run attempts whole rounds.

With `--trace 0` the run reports the end-to-end metrics, each the median
over its rounds; set-up is sampled in at least MIN_SETUPS processes.
With `--trace 1` the run alternates untraced and traced rounds, reports
the per-layer metrics of the traced rounds (medians) and the tracing
overhead, the traced minus the untraced median wall time.

Every run prints an environment record and each metric with its unit,
writes its result to .bench_out/results/, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# sinc-gd-full runs one 20-30 s recipe per round and is left out of
# BENCHMARK.json: its run-to-run spread on a shared 2-core machine exceeds
# any bound the benchmark may set (see README.md, Steadiness).
WORKLOADS = ("sinc-gd-full", "ccpp-gd-reduced-cv", "wdbc-lls-cv", "mnist-pair-lls")
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "rows_per_s": "1/s",
         "peak_rss_mb": "MiB"}
# Set-up time is the median of at least this many fresh processes per run.
MIN_SETUPS = 5
# Whole-run limit: a worker still running this long after the run began is
# stopped, and the run fails.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """A worker failed to start, crashed or overran the run limit."""


def environment() -> dict:
    """Interpreter, library and BLAS versions, threads and the commit."""
    import numpy
    import scipy

    record = {"python": platform.python_version(), "numpy": numpy.__version__,
              "scipy": scipy.__version__, "nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)),
              "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        record["blas"] = "unknown"
    record["blas_threads"] = _blas_threads()
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        record["commit"] = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        record["commit"] = "unknown"
    return record


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _workdir(workload: str, seed: int) -> Path:
    return OUT / "work" / f"{workload}-{seed}-{os.getpid()}"


def run_worker(workload: str, seed: int, trace: bool, deadline: float,
               setup_only: bool = False, spans: Path | None = None) -> dict:
    """Start one worker, wait for it, and return its JSON report."""
    workdir = _workdir(workload, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--workdir", str(workdir),
           "--lstsq-cache", str(workdir.with_suffix(".lstsq.json"))]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: worker overran the {RUN_LIMIT_S:.0f} s run limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload}: worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload}: worker printed no report")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run whole rounds for about `seconds` and aggregate them."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spans = OUT / "traces" / f"{workload}-seed{seed}.npz"
    if trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
    plain, traced = [], []
    while True:
        plain.append(run_worker(workload, seed, False, deadline))
        if trace:
            traced.append(run_worker(workload, seed, True, deadline, spans=spans))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds:
            break
    _workdir(workload, seed).with_suffix(".lstsq.json").unlink(missing_ok=True)
    rounds = plain + traced
    setups = [r["setup_s"] for r in rounds]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, seed, False, deadline, setup_only=True)["setup_s"])

    failures = [f for r in rounds for f in r["failures"]]
    summary = {"correct": not failures,
               "attempted": sum(r["attempted"] for r in rounds),
               "failed": sum(r["failed"] for r in rounds),
               "rounds": len(plain), "failures": failures[:20],
               "round_wall_s": [r["wall_s"] for r in rounds], "setup_samples_s": setups}
    if trace:
        layers = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        summary["metrics"] = layers
    else:
        summary["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "rows_per_s": statistics.median(r["rows"] / r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    return summary


def unit_of(name: str) -> str:
    """End-to-end units by name; per-layer units by the quantity suffix."""
    if name in UNITS:
        return UNITS[name]
    quantity = name.rsplit(".", 1)[-1]
    return {"s": "s", "self_s": "s", "overhead_s": "s", "us_per_call": "us",
            "ms_per_call": "ms"}.get(quantity, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sqnn" / "__init__.py").is_file():
        print(f"benchmark: no sqnn source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            summary = measure(workload, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 1
        print(f"workload {workload}: seed {args.seed}, {summary['rounds']} round(s), "
              f"{summary['attempted']} operation(s) attempted, {summary['failed']} failed")
        for failure in summary["failures"]:
            print(f"  FAILED {failure}")
        for name, value in summary["metrics"].items():
            print(f"  {name} = {value:.6g} {unit_of(name)}")
        results[workload] = summary
        OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
        OUT.joinpath("results", f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"environment": env, **summary}, indent=1))
    for workload, summary in results.items():
        print(json.dumps({
            "correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in summary["metrics"].items()}}))
    return 0 if all(s["correct"] for s in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
