#!/usr/bin/env python3
"""Alternating pairs of benchmark runs on two checkouts, with the pair rule applied.

    python scripts/bench_pairs.py BASE CHANGE --workload cbr --pairs 10 --seed 1000

Pair i runs `python bench/run.py --workload W --seed SEED+i --seconds T --trace 0`
once in each checkout; BASE goes first on even pairs and CHANGE on odd ones.
For every end-to-end metric it prints each side's median and quartiles, the
pairs CHANGE won (ties count for neither side), and whether the gain rule
holds: CHANGE wins at least 9 of 10 pairs and the medians differ by more
than BASE's interquartile range. Metric directions and the default run
length come from BASE's BENCHMARK.json.

Exits 1 if any run is not `correct` or has failed operations, and 2 if a
checkout cannot run the benchmark at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run; its result line (the last line of stdout) with the exit code added."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd + ["--trace", "0"], cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"error: {checkout}: bench/run.py exited {proc.returncode} with no result line", file=sys.stderr)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(2) from None
    result["returncode"] = proc.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(name: str, better: str, pairs: list[tuple[float, float]]) -> str:
    base, change = [p[0] for p in pairs], [p[1] for p in pairs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) < 0 for b, c in pairs)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    holds = wins >= 0.9 * len(pairs) and sign * (cmed - bmed) > bq3 - bq1
    delta = 100.0 * (cmed / bmed - 1.0) if bmed else float("nan")
    return (
        f"{name:<13} base {bmed:10.4g} [{bq1:.4g}, {bq3:.4g}]  change {cmed:10.4g} [{cq1:.4g}, {cq3:.4g}]"
        f"  {delta:+6.1f}%  change won {wins}/{len(pairs)} (lost {losses}), {better} is better,"
        f" gain rule {'holds' if holds else 'not met'}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    checkouts = dict(zip(SIDES, (args.base, args.change)))
    values: dict[str, list[tuple[float, float]]] = {name: [] for name in better}
    bad_runs = 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {side: run_bench(checkouts[side], args.workload, seed, seconds) for side in order}
        for side in order:
            r = results[side]
            ok = r["correct"] and r["failed"] == 0 and r["returncode"] == 0
            bad_runs += not ok
            shown = "  ".join(f"{n}={r['metrics'][n]['value']:.4g}" for n in better if n in r["metrics"])
            print(f"pair {i} seed {seed} {side:<6} {'ok' if ok else 'FAILED'} "
                  f"({r['failed']}/{r['attempted']} failed)  {shown}", flush=True)
        for name in better:
            if all(name in results[side]["metrics"] for side in SIDES):
                values[name].append(tuple(results[side]["metrics"][name]["value"] for side in SIDES))

    last = args.seed + args.pairs - 1
    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed}..{last}, {seconds:g} s runs")
    for name, pairs in values.items():
        if pairs:
            print(summarize(name, better[name], pairs))
    if bad_runs:
        print(f"error: {bad_runs} run(s) not correct or with failed operations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
