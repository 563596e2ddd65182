#!/usr/bin/env python3
"""vlafp benchmark: one seeded workload per run, one process, one thread.

    python3 bench/run.py --workload {train,dtr,cbr,catalog} --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics with no wrappers installed:
set-up and the build phase are each repeated and reported as medians,
then the closed loop runs for S seconds (stopping on a round boundary).

--trace 1 reports the per-layer metrics: after one set-up it runs build +
loop untraced for S/2 seconds (n operations), then installs the span
wrappers and replays build + the same n operations traced. The ratio of
the two timings is the tracing overhead.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}. Any failed check or operation makes the exit code 1; a
checkout that cannot run the benchmark (no sources, checkpoint digest
mismatch) exits 2 without a result line.
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
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import common

SEGMENTS = 3  # set-up + build + loop, repeated; setup_s is the median of these
BUILD_SHARE = 0.1  # rebuild between rounds while builds took less than this share of op time
RESULTS = common.BENCH_DIR / "results"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "build_s": "s",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
}
# Names the report gives work_per_s and op_ms_* on each workload:
# (throughput name, unit), latency prefix.
NAMED = {
    "train": (("train_items_per_s", "items/s"), "step_ms"),
    "dtr": (("queries_per_s", "queries/s"), "query_ms"),
    "cbr": (("scan_audio_s_per_s", "audio-s/s"), "scan_ms"),
    "catalog": (("search_qps", "queries/s"), "search_ms"),
}


class Loop:
    """Closed loop, one client: operation i+1 starts after operation i returned."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.latencies: dict[int, float] = {}  # operation index -> seconds
        self.work: dict[int, float] = {}  # operation index -> work done
        self.attempted = 0
        self.failed = 0

    def run_op(self, i: int) -> None:
        self.attempted += 1
        try:
            if self.tracer is None:
                t0 = time.perf_counter()
                result = self.wl.op(i)
                dt = time.perf_counter() - t0
            else:
                self.tracer.op_id = i
                with self.tracer.span("bench.op") as start:
                    result = self.wl.op(i)
                dt = time.perf_counter() - start
            self.work[i] = self.wl.verify(i, result)
            self.latencies[i] = dt
        except Exception:
            self.failed += 1
            print(f"operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)

    def for_seconds(self, seconds: float, between_rounds=None) -> int:
        """Run whole rounds of operations until `seconds` have passed; returns how many ran.

        Operation indices continue from the previous call. `between_rounds`
        is called before every round but the first.
        """
        start = time.perf_counter()
        first = self.attempted
        while self.attempted == first or self.attempted % self.wl.round or time.perf_counter() - start < seconds:
            if between_rounds is not None and self.attempted != first and self.attempted % self.wl.round == 0:
                between_rounds()
            self.run_op(self.attempted)
        return self.attempted - first

    def busy_s(self) -> float:
        return sum(self.latencies.values())

    def round_rates(self) -> list[float]:
        """Work per second of each complete round (a balanced mix of operations)."""
        r = self.wl.round
        rates = []
        for start in range(0, self.attempted - r + 1, r):
            ops = range(start, start + r)
            if all(i in self.latencies for i in ops):
                rates.append(sum(self.work[i] for i in ops) / sum(self.latencies[i] for i in ops))
        return rates


class Counter:
    """Attempted/failed tally for the one-shot phases (builds, final checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, what: str):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.failed += 1
            print(f"{what} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None, None
        return out, time.perf_counter() - t0


def tail_percentile(latencies: list[float]) -> tuple[int, float] | None:
    """The highest of p95/p90/p75 that has at least ten samples above it."""
    n = len(latencies)
    for q in (95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]
    return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes
    import glob

    import numpy as np

    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def environment(args, checkpoint_sha256: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_rev = None
    if (common.ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(common.ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        git_rev = done.stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted((common.SRC / "vlafp").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "load": "closed loop, 1 client, 1 process, 1 thread",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {v: os.environ.get(v) for v in common.THREAD_VARS},
        "blas_threads": blas_threads(),
        "threads_pinned_before_numpy": common.PINNED_BEFORE_NUMPY,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_rev": git_rev,
        "src_sha256": src.hexdigest(),
        "checkpoint_sha256": checkpoint_sha256,
    }


@dataclass
class Outcome:
    metrics: dict[str, float] | None  # None when nothing could be measured
    report: dict[str, tuple[float, str]]  # named metrics printed before the result line
    attempted: int
    failed: int
    samples: dict[str, list[float]] = field(default_factory=dict)  # raw timings, kept in the results file


def measure(args, workdir: Path) -> Outcome:
    """--trace 0: the end-to-end metrics.

    The run is SEGMENTS rounds of set-up, build and loop, and builds are
    repeated between loop rounds while they take less than BUILD_SHARE of
    the operation time, so every metric samples the whole run rather than
    one stretch of it: on a shared machine the speed drifts over seconds.
    """
    import workloads

    phases = Counter()
    setup_s, build_s = [], []
    wl, loop = None, None

    def build() -> bool:
        _, dt = phases.attempt(wl.build, "build")
        if dt is not None:
            build_s.append(dt)
        return dt is not None

    def rebuild_if_due() -> None:
        if sum(build_s) < BUILD_SHARE * loop.busy_s():
            build()

    for _ in range(SEGMENTS):
        tally = wl.tally if wl is not None else None
        wl = None  # free the previous segment's inputs before making the next
        if loop is not None:
            loop.wl = None
        wl = workloads.make(args.workload, args.size, workdir, tally)
        t0 = time.perf_counter()
        wl.setup(args.seed)
        setup_s.append(time.perf_counter() - t0)
        if not build():
            return Outcome(None, {}, phases.attempted, phases.failed)
        if loop is None:
            loop = Loop(wl)
        loop.wl = wl
        loop.for_seconds(args.seconds / SEGMENTS, rebuild_if_due)

    named, _ = phases.attempt(lambda: wl.finish(build_s), "final checks")
    attempted = phases.attempted + loop.attempted
    failed = phases.failed + loop.failed
    if not loop.latencies:
        return Outcome(None, named or {}, attempted, failed)

    rates = loop.round_rates()
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "build_s": statistics.median(build_s),
        "work_per_s": statistics.median(rates),
        "op_ms_p50": 1e3 * statistics.median(loop.latencies.values()),
    }
    (rate_name, rate_unit), lat = NAMED[args.workload]
    report = {
        "setup_s": (metrics["setup_s"], "s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        rate_name: (metrics["work_per_s"], rate_unit),
        f"{lat}_p50": (metrics["op_ms_p50"], "ms"),
    }
    tail = tail_percentile(list(loop.latencies.values()))
    if tail is not None:
        report[f"{lat}_p{tail[0]}"] = (1e3 * tail[1], "ms")
    report[f"{lat}_samples"] = (len(loop.latencies), "count")
    report["build_repeats"] = (len(build_s), "count")
    report.update(named or {})
    samples = {"setup_s": setup_s, "build_s": build_s, "round_rates": rates, "op_s": list(loop.latencies.values())}
    return Outcome(metrics, report, attempted, failed, samples)


def trace(args, workdir: Path) -> Outcome:
    """--trace 1: per-layer metrics from a traced replay."""
    import tracing
    import workloads

    phases = Counter()
    wl = workloads.make(args.workload, args.size, workdir)
    wl.setup(args.seed)
    _, build_plain = phases.attempt(wl.build, "build")
    if build_plain is None:
        return Outcome(None, {}, phases.attempted, phases.failed)
    plain = Loop(wl)
    n_ops = plain.for_seconds(args.seconds / 2)

    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        with tracer.span("bench.build"):
            _, build_traced = phases.attempt(wl.build, "traced build")
        traced = Loop(wl, tracer)
        if build_traced is not None:
            for i in range(n_ops):
                traced.run_op(i)
    finally:
        handle.remove()
    named, _ = phases.attempt(lambda: wl.finish([build_traced or build_plain]), "final checks")
    tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl")

    attempted = phases.attempted + plain.attempted + traced.attempted
    failed = phases.failed + plain.failed + traced.failed
    if build_traced is None or not traced.latencies or not plain.latencies:
        return Outcome(None, named or {}, attempted, failed)
    metrics = {name: value for name, (value, _) in tracing.layer_values(tracer).items()}
    metrics["trace.ops"] = n_ops
    metrics["trace.overhead_pct"] = 100.0 * (traced.busy_s() / plain.busy_s() - 1.0)
    metrics["trace.build_overhead_pct"] = 100.0 * (build_traced / build_plain - 1.0)
    report = {
        "untraced_loop_s": (plain.busy_s(), "s"),
        "traced_loop_s": (traced.busy_s(), "s"),
        "tracing_overhead_pct": (metrics["trace.overhead_pct"], "%"),
    }
    return Outcome(metrics, report, attempted, failed)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("train", "dtr", "cbr", "catalog"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.use_checkout_sources()
        _, digest = common.verified_checkpoint()
    except common.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import tracing

    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        run = trace if args.trace else measure
        out = run(args, Path(tmp))
    leftover = tracing.leftover_wrappers()
    out.attempted += 1
    if leftover:
        out.failed += 1
        print(f"error: tracing wrappers left installed on {leftover}", file=sys.stderr)

    units = tracing.per_layer_units() if args.trace else END_TO_END
    if out.metrics is None:  # nothing was measured: count that as a failure
        out.failed = max(out.failed, 1)
    correct = out.failed == 0
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": float(out.metrics[name]), "unit": unit} for name, unit in units.items()}
        if out.metrics is not None
        else {},
    }
    env = environment(args, digest)
    print(f"vlafp benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in out.report.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "report": out.report, "result": result, "samples": out.samples}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
