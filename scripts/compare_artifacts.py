#!/usr/bin/env python3
"""Run the same CLI commands on two checkouts and compare every artifact byte for byte.

    python scripts/compare_artifacts.py BASE CHANGE

Each checkout runs, with its own src/ and a copy of its own bench/desk.vlfp,
in a fresh temporary directory (nothing is written into either checkout):

- `synth`: an 8-audio corpus, seed 5, 6 s each;
- `segment` and `fingerprint` of the corpus under all five segmentation
  methods, so each segmenter's manifest is compared as well as its mels;
- `index query --k 10` of each method's fingerprints against the `fixed` index;
- `index query --k 1` and `--k 10` of each method's fingerprints against an
  index of 8362 entries: the `fixed` fingerprints (0.1 s hop) of a second
  corpus, 14 audios of 60 s (seed 6), merged by `index build` with the
  `fixed` index. It is large enough for the search's grouped pre-selection,
  which indexes under `vlafp.index.GROUPED_MIN_ROWS` entries never take;
- `eval dtr`, and `eval dtr --aug none` (undistorted queries);
- `eval cbr` under all five methods (a time-stretched broadcast), and
  `eval cbr --aug ir` under `main` (an IR-only chain);
- a 1-epoch `train` under `fixed`, `main` and `nosilence` (BG+IR positives);
- a 1-epoch `train --aug ts,bg,ir` under `fixed` and `nosilence`, so that
  time-stretched positives and their kept rows are compared too;
- a 1-epoch `train --aug bg` under `fixed` (a BG-only chain);
- `init` of a random checkpoint, then `inspect` of the copied desk
  checkpoint, of that `init` checkpoint and of the `fixed` index, so the
  checkpoint writer and reader and inspect's magic check are compared too.

The one-stage and no-stage chains check that a BG or IR stage runs exactly
when `--aug` asks for it, and draws what it drew before.

Every file the commands write and each command's stdout (with the
temporary directory's path replaced) are compared byte for byte, run
manifests included: every path on a command line is relative to the
temporary directory, so the command line each manifest records names
neither checkout. BLAS runs on one thread.

Exits 0 when every artifact is identical, 1 on any difference, and 2 when a
command fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

METHODS = ("main", "nosilence", "pelt", "waveform", "fixed")
TRAIN_METHODS = ("fixed", "main", "nosilence")
TS_TRAIN_METHODS = ("fixed", "nosilence")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
CKPT = "desk.vlfp"  # the checkout's bench/desk.vlfp, copied into the work directory


def commands() -> list[tuple[str, list[str]]]:
    """(step name, vlafp arguments) in run order; paths are relative to the work directory."""
    steps = [("synth", ["synth", "--n", "8", "--dur", "6", "--seed", "5", "--out", "corpus"])]
    for m in METHODS:
        steps.append((f"segment-{m}", ["segment", "--audio", "corpus", "--method", m, "--out", f"segments-{m}.txt"]))
    for m in METHODS:
        steps.append((f"fingerprint-{m}", ["fingerprint", "--audio", "corpus", "--ckpt", CKPT, "--method", m,
                                           "--out", f"fp-{m}.vlix"]))
    for m in METHODS:
        steps.append((f"query-{m}", ["index", "query", "--idx", "fp-fixed.vlix", "--fingerprints", f"fp-{m}.vlix",
                                     "--k", "10"]))
    steps.append(("synth-big", ["synth", "--n", "14", "--dur", "60", "--seed", "6", "--out", "corpus-big"]))
    steps.append(("fingerprint-big", ["fingerprint", "--audio", "corpus-big", "--ckpt", CKPT, "--method", "fixed",
                                      "--hop", "0.1", "--out", "fp-big.vlix"]))
    steps.append(("index-build-big", ["index", "build", "--fingerprints", "fp-big.vlix", "fp-fixed.vlix",
                                      "--out", "big.vlix"]))
    for k in ("1", "10"):
        for m in METHODS:
            steps.append((f"query-big-k{k}-{m}", ["index", "query", "--idx", "big.vlix", "--fingerprints",
                                                  f"fp-{m}.vlix", "--k", k]))
    steps.append(("eval-dtr", ["eval", "dtr", "--audio", "corpus", "--ckpt", CKPT, "--durations", "1,3,6",
                               "--out", "dtr.csv"]))
    steps.append(("eval-dtr-no-aug", ["eval", "dtr", "--audio", "corpus", "--ckpt", CKPT, "--durations", "1,3,6",
                                      "--aug", "none", "--out", "dtr-no-aug.csv"]))
    for m in METHODS:
        steps.append((f"eval-cbr-{m}", ["eval", "cbr", "--audio", "corpus", "--ckpt", CKPT, "--method", m,
                                        "--others", "7", "--out", f"cbr-{m}.csv"]))
    steps.append(("eval-cbr-ir", ["eval", "cbr", "--audio", "corpus", "--ckpt", CKPT, "--method", "main",
                                  "--others", "7", "--aug", "ir", "--out", "cbr-ir.csv"]))
    for m in TRAIN_METHODS:
        steps.append((f"train-{m}", ["train", "--corpus", "corpus", "--method", m, "--epochs", "1",
                                     "--lr", "1e-3", "--out", f"model-{m}.vlfp"]))
    for m in TS_TRAIN_METHODS:
        steps.append((f"train-ts-{m}", ["train", "--corpus", "corpus", "--method", m, "--epochs", "1",
                                        "--lr", "1e-3", "--aug", "ts,bg,ir", "--out", f"model-ts-{m}.vlfp"]))
    steps.append(("train-bg", ["train", "--corpus", "corpus", "--method", "fixed", "--epochs", "1",
                               "--lr", "1e-3", "--aug", "bg", "--out", "model-bg.vlfp"]))
    steps.append(("init", ["init", "--seed", "3", "--out", "init.vlfp"]))
    for path in (CKPT, "init.vlfp", "fp-fixed.vlix"):
        steps.append((f"inspect-{path}", ["inspect", path]))
    return steps


def run_side(checkout: Path, work: Path) -> None:
    """Run every step of `commands` with checkout's sources; stdout goes to <work>/stdout/<step>.txt."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    (work / "stdout").mkdir()
    shutil.copyfile(checkout / "bench" / CKPT, work / CKPT)
    for step, argv in commands():
        proc = subprocess.run([sys.executable, "-m", "vlafp.cli", *argv], cwd=work, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"error: {checkout}: step {step} exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            raise SystemExit(2)
        (work / "stdout" / f"{step}.txt").write_text(proc.stdout.replace(str(work), "<work>"))
        print(f"  {checkout.name or checkout}: {step} done", flush=True)


def compare(base: Path, change: Path) -> list[str]:
    """Every difference between two work directories, one line each."""
    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    base_files, change_files = files(base), files(change)
    problems = [f"only in BASE: {p}" for p in sorted(base_files - change_files)]
    problems += [f"only in CHANGE: {p}" for p in sorted(change_files - base_files)]
    for rel in sorted(base_files & change_files):
        same = (base / rel).read_bytes() == (change / rel).read_bytes()
        print(f"{'identical' if same else 'DIFFERS  '}  {rel}")
        if not same:
            problems.append(f"differs: {rel}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    args = ap.parse_args()
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        if not (checkout / "src" / "vlafp").is_dir() or not (checkout / "bench" / "desk.vlfp").is_file():
            print(f"error: {checkout}: not a vlafp checkout with bench/desk.vlfp", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="vlafp-compare-") as tmp:
        for side, checkout in checkouts.items():
            print(f"{side}: {checkout}", flush=True)
            (Path(tmp) / side).mkdir()
            run_side(checkout, Path(tmp) / side)
        problems = compare(Path(tmp) / "base", Path(tmp) / "change")
    if problems:
        print(f"{len(problems)} difference(s):", *problems, sep="\n  ")
        return 1
    print("every artifact is identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
