#!/usr/bin/env python3
"""End-to-end desk-scale run: synthesize a corpus, train, evaluate DTR and CBR.

Writes all artifacts under --workdir and prints the headline numbers.
Finishes in a few minutes on one CPU core.

The model is trained with the desk recipe: noise and IR pools seeded 11 and
12, training seeded 0. At the default sizes and with one BLAS thread,
model.vlfp is bench/desk.vlfp byte for byte. --seed seeds the corpus, the
queries and the broadcast.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from vlafp.augment import AugmentConfig, make_ir_pool, make_noise_pool
from vlafp.dsp import MelConfig
from vlafp.evaluation import cbr_evaluate, dtr_evaluate, make_dtr_queries, simulate_broadcast
from vlafp.model import ModelConfig, init_parameters, save_checkpoint
from vlafp.pipeline import build_index, fingerprint_segments, make_embedder, training_sources
from vlafp.segmentation import FIXED_WINDOWS, SegmenterConfig, segment
from vlafp.synth import SynthSpec, generate
from vlafp.training import TrainConfig, train


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="desk_run")
    ap.add_argument("--n-audios", type=int, default=50)
    ap.add_argument("--epochs", type=int, default=16)
    ap.add_argument("--lr", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    fs = 8000
    t0 = time.time()

    corpus = generate(SynthSpec(n_audios=args.n_audios, seed=args.seed))
    mel_cfg = MelConfig(n_mels=64)
    model_cfg = ModelConfig()
    bg = make_noise_pool(24, 3.0, fs, 11)
    ir = make_ir_pool(12, 0.25, fs, 12)
    aug = AugmentConfig(enable_ts=False, bg_pool=bg, ir_pool=ir)

    print(f"[{time.time()-t0:6.1f}s] training on fixed 1 s segments ...")
    sources = training_sources(corpus, FIXED_WINDOWS, mel_cfg)
    tc = TrainConfig(epochs=args.epochs, lr=args.lr, seed=0)
    params, history = train(
        sources, model_cfg, tc, aug, mel_cfg,
        log=lambda e, l: print(f"  epoch {e}: mean loss {l:.2f}", flush=True),
    )
    save_checkpoint(work / "model.vlfp", params, model_cfg)

    print(f"[{time.time()-t0:6.1f}s] DTR evaluation ...")
    index = build_index(corpus, FIXED_WINDOWS, mel_cfg, params, model_cfg)
    index.save(work / "dtr_db.vlix")
    embed = make_embedder(params, model_cfg, mel_cfg)
    rng = np.random.default_rng(args.seed + 99)
    queries = make_dtr_queries(corpus, [1.0, 2.0, 3.0], aug, rng, queries_per_target=1)
    report = dtr_evaluate(index, queries, embed)
    for dur, rate in sorted(report.hit_rates.items()):
        print(f"  DTR hit rate @ {dur:g}s: {rate:.3f}")

    baseline = init_parameters(model_cfg, seed=args.seed + 1000)
    rng = np.random.default_rng(args.seed + 99)
    base_idx = build_index(corpus, FIXED_WINDOWS, mel_cfg, baseline, model_cfg)
    base_embed = make_embedder(baseline, model_cfg, mel_cfg)
    base_qs = make_dtr_queries(corpus, [1.0], aug, rng, queries_per_target=1)
    base = dtr_evaluate(base_idx, base_qs, base_embed)
    print(f"  random-init baseline @ 1s: {base.hit_rates[1.0]:.3f}")

    print(f"[{time.time()-t0:6.1f}s] CBR evaluation (variable-length segmentation) ...")
    seg_cfg = SegmenterConfig(theta=1.0)
    rng = np.random.default_rng(args.seed + 5)
    cbr_aug = AugmentConfig(bg_pool=bg, ir_pool=ir)
    commercial = corpus[0][1]
    others = [w for _, w in corpus[1:]]
    sim = simulate_broadcast(commercial, others, cbr_aug, rng, n_others=min(19, len(others)))
    commercial_index = build_index([(0, commercial)], seg_cfg, mel_cfg, params, model_cfg)
    segs = segment(sim.stream, seg_cfg, audio_id=-1)
    entries = fingerprint_segments(sim.stream, segs, mel_cfg, params, model_cfg)
    cbr = cbr_evaluate(commercial_index, [(s, e.vector) for s, e in zip(segs, entries)], sim.span)
    print(
        f"  CBR best F1 {cbr.best.f1:.3f} at threshold {cbr.best.threshold:.3f} "
        f"(P={cbr.best.precision:.3f}, R={cbr.best.recall:.3f})"
    )
    print(f"[{time.time()-t0:6.1f}s] artifacts in {work}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
