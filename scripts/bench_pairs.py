#!/usr/bin/env python3
"""Alternating pairs of benchmark runs on two checkouts, with the pair rule applied.

    python scripts/bench_pairs.py BASE CHANGE --workload cbr --pairs 10 --seed 1000
    python scripts/bench_pairs.py BASE CHANGE --workload train dtr cbr catalog --pairs 10 \
        --seed 1000 --json BENCH_label.json

For each workload W, pair i runs `python bench/run.py --workload W --seed SEED+i
--seconds T --trace 0` once in each checkout; BASE goes first on even pairs and
CHANGE on odd ones. For every end-to-end metric it prints each side's median
and quartiles, the pairs CHANGE won (ties count for neither side), and whether
the gain rule holds: CHANGE wins at least 9 of 10 pairs and the medians differ
by more than BASE's interquartile range. Metric directions and the default run
length come from BASE's BENCHMARK.json.

--json writes the same summary, per workload and metric, with the environment
record of each workload's first BASE run (its git revision, source digest,
library versions and BLAS threads).

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
    """One untraced run; its result line (the last line of stdout) with the exit code and environment added."""
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
    result["environment"] = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(better: str, pairs: list[tuple[float, float]]) -> dict:
    """Each side's quartiles, CHANGE's wins and losses, and the gain rule's verdict."""
    sign = 1.0 if better == "higher" else -1.0
    (bq1, bmed, bq3), (cq1, cmed, cq3) = (quartiles([p[side] for p in pairs]) for side in (0, 1))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    return {
        "better": better,
        "base": {"q1": bq1, "median": bmed, "q3": bq3},
        "change": {"q1": cq1, "median": cmed, "q3": cq3},
        "pairs": len(pairs),
        "change_won": wins,
        "change_lost": sum(sign * (c - b) < 0 for b, c in pairs),
        "gain_rule_holds": wins >= 0.9 * len(pairs) and sign * (cmed - bmed) > bq3 - bq1,
    }


def summary_line(name: str, s: dict) -> str:
    base, change = s["base"], s["change"]
    delta = 100.0 * (change["median"] / base["median"] - 1.0) if base["median"] else float("nan")
    return (
        f"{name:<13} base {base['median']:10.4g} [{base['q1']:.4g}, {base['q3']:.4g}]"
        f"  change {change['median']:10.4g} [{change['q1']:.4g}, {change['q3']:.4g}]"
        f"  {delta:+6.1f}%  change won {s['change_won']}/{s['pairs']} (lost {s['change_lost']}),"
        f" {s['better']} is better, gain rule {'holds' if s['gain_rule_holds'] else 'not met'}"
    )


def run_pairs(checkouts: dict, workload: str, args, seconds: float, better: dict) -> dict:
    """Alternating pairs on one workload: its bad-run count, each metric's summary and BASE's environment."""
    values: dict[str, list[tuple[float, float]]] = {name: [] for name in better}
    bad_runs = 0
    environment = None
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {side: run_bench(checkouts[side], workload, seed, seconds) for side in order}
        environment = environment or results["base"]["environment"]
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
    print(f"\n{workload}: {args.pairs} pairs, seeds {args.seed}..{last}, {seconds:g} s runs")
    metrics = {name: summarize(better[name], pairs) for name, pairs in values.items() if pairs}
    for name, summary in metrics.items():
        print(summary_line(name, summary), flush=True)
    return {"seeds": [args.seed, last], "bad_runs": bad_runs, "metrics": metrics, "base_environment": environment}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--json", type=Path, help="write the summary of every workload to this file")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    checkouts = dict(zip(SIDES, (args.base, args.change)))
    workloads = {workload: run_pairs(checkouts, workload, args, seconds, better) for workload in args.workload}
    bad_runs = sum(w["bad_runs"] for w in workloads.values())
    if args.json:
        report = {"pairs": args.pairs, "seconds": seconds, "workloads": workloads}
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    if bad_runs:
        print(f"error: {bad_runs} run(s) not correct or with failed operations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
