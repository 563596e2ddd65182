#!/usr/bin/env python3
"""Regenerate the frozen desk checkpoint used by the dtr and cbr workloads.

The recipe is the one of the desk-scale acceptance test
(tests/test_acceptance.py::test_08_desk_scale_learning_signal):
50 x 10 s synthetic corpus (seed 7), fixed 1 s / 0.5 s windows, BG+IR
augmentation (noise pool seed 11, IR pool seed 12), the desk
ModelConfig(), 16 epochs, lr 1e-3, seed 0, single-threaded BLAS.

    python3 bench/make_checkpoint.py            # write bench/desk.vlfp + .sha256
    python3 bench/make_checkpoint.py --check    # regenerate, compare to the committed digest

Takes about three minutes on one core.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import common

common.use_checkout_sources()

from vlafp.augment import AugmentConfig, make_ir_pool, make_noise_pool  # noqa: E402
from vlafp.dsp import MelConfig  # noqa: E402
from vlafp.model import ModelConfig, save_checkpoint  # noqa: E402
from vlafp.pipeline import training_sources  # noqa: E402
from vlafp.synth import SynthSpec, generate  # noqa: E402
from vlafp.training import TrainConfig, train  # noqa: E402


def train_desk_model(out: Path) -> list[float]:
    corpus = generate(SynthSpec(n_audios=50, seed=7))
    mel_cfg = MelConfig(n_mels=64)
    aug = AugmentConfig(
        enable_ts=False,
        bg_pool=make_noise_pool(24, 3.0, common.FS, 11),
        ir_pool=make_ir_pool(12, 0.25, common.FS, 12),
    )
    sources = training_sources(corpus, None, mel_cfg)
    model_cfg = ModelConfig()
    params, history = train(
        sources, model_cfg, TrainConfig(epochs=16, lr=1e-3, seed=0), aug, mel_cfg,
        log=lambda e, l: print(f"epoch {e}: mean loss {l:.4f}", flush=True),
    )
    save_checkpoint(out, params, model_cfg)
    return history


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--check", action="store_true", help="regenerate into a temp file and compare digests")
    args = ap.parse_args()
    if not args.check:
        train_desk_model(common.CHECKPOINT)
        digest = common.sha256_file(common.CHECKPOINT)
        common.CHECKPOINT_DIGEST.write_text(f"{digest}  {common.CHECKPOINT.name}\n")
        print(f"wrote {common.CHECKPOINT.name} sha256 {digest}")
        return 0
    want = common.committed_digest()
    with tempfile.TemporaryDirectory(dir=common.BENCH_DIR) as tmp:
        out = Path(tmp) / "desk.vlfp"
        train_desk_model(out)
        got = common.sha256_file(out)
    print(f"regenerated sha256 {got}\ncommitted   sha256 {want}")
    if got != want:
        print("error: regenerated checkpoint does not match the committed digest", file=sys.stderr)
        return 1
    print("checkpoint matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
