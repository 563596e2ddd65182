"""Command-line surface: synth, segment, train, fingerprint, index, eval, inspect."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .audio import DEFAULT_SAMPLE_RATE, Waveform, load_audio, write_wav
from .augment import AugmentConfig, make_ir_pool, make_noise_pool
from .dsp import MelConfig
from .evaluation import check_query_durations, cbr_evaluate, dtr_evaluate, make_dtr_queries, simulate_broadcast
from .index import FingerprintIndex
from .model import ModelConfig, Parameters, init_parameters, load_checkpoint, save_checkpoint
from .pipeline import build_index, fingerprint_segments, make_embedder, training_sources
from .segmentation import FIXED_WINDOWS, METHODS, SegmenterConfig, default_theta, segment, write_manifest
from .synth import SynthSpec, generate
from .training import TrainConfig, train


def _float_pair(value: str) -> tuple[float, float]:
    lo, hi = value.split(":")
    return float(lo), float(hi)


def _aug_set(value: str) -> tuple[str, ...]:
    # Sorted: a set's order follows the string-hash seed, so the parsed value
    # (and anything that prints it) would differ between otherwise equal runs.
    if value.lower() in ("none", ""):
        return ()
    stages = {s.strip().lower() for s in value.split(",") if s.strip()}
    unknown = stages - {"ts", "bg", "ir"}
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown augmentation stages: {sorted(unknown)}")
    return tuple(sorted(stages))


def load_corpus(audio_dir: str, sample_rate: int) -> tuple[list[tuple[int, Waveform]], list[str]]:
    root = Path(audio_dir)
    if root.is_file():
        files = [root]
    else:
        if not root.exists():
            raise FileNotFoundError(f"no such audio path: {audio_dir}")
        files = sorted(p for p in root.iterdir() if p.suffix.lower() in (".wav", ".f32", ".raw"))
    if not files:
        raise FileNotFoundError(f"no audio files under {audio_dir}")
    corpus = [(i, load_audio(p, sample_rate)) for i, p in enumerate(files)]
    return corpus, [str(p) for p in files]


def make_aug_config(args) -> AugmentConfig:
    """The --aug chain: a BG or IR pool, from its directory or else synthetic, only for a requested stage."""

    def pool(stage, directory, make, n, duration_s, seed):
        if stage not in args.aug:
            return ()
        if directory:
            return tuple(w for _, w in load_corpus(directory, args.sample_rate)[0])
        return make(n, duration_s, args.sample_rate, seed)

    return config_from_args(
        AugmentConfig,
        args,
        enable_ts="ts" in args.aug,
        bg_pool=pool("bg", args.bg_dir, make_noise_pool, 24, 3.0, args.seed + 101),
        ir_pool=pool("ir", args.ir_dir, make_ir_pool, 12, 0.25, args.seed + 202),
    )


def config_from_args(cls, args, **given):
    """A config built from the flags whose dest names one of its fields, then from `given`."""
    parsed = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**{**parsed, **given})


def seg_config_from_args(args) -> SegmenterConfig:
    theta = args.theta if args.theta is not None else default_theta(args.method)
    return config_from_args(SegmenterConfig, args, theta=theta)


def load_model(path: str) -> tuple[Parameters, ModelConfig, MelConfig]:
    """A checkpoint's parameters and config, and the mel config of its f_bins bands."""
    params, model_cfg = load_checkpoint(path)
    return params, model_cfg, MelConfig(n_mels=model_cfg.f_bins)


# Thread-count variables the BLAS and OpenMP pools read when numpy loads.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def write_run_manifest(out_path: str | Path, args) -> None:
    """<out>.manifest.json: the argv that made it, its digest, and the environment (not digested).

    `vlafp` run on that argv, from the same directory and at the same
    version, writes the same artifact again byte for byte.
    """
    payload = {
        "tool": "vlafp",
        "version": __version__,
        "argv": args.argv,
        "config_digest": hashlib.sha256(json.dumps(args.argv).encode()).hexdigest(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},  # None when unset
        },
    }
    Path(str(out_path) + ".manifest.json").write_text(json.dumps(payload, indent=2) + "\n")


# -- subcommands ------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = config_from_args(SynthSpec, args, duration_range=(args.dur, args.dur))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for aid, w in generate(spec):
        write_wav(out / f"audio_{aid:04d}.wav", w)
    write_run_manifest(out / "corpus", args)
    print(f"wrote {spec.n_audios} audios to {out}")
    return 0


def cmd_segment(args) -> int:
    corpus, files = load_corpus(args.audio, args.sample_rate)
    cfg = seg_config_from_args(args)
    per_audio = [segment(w, cfg, aid) for aid, w in corpus]
    segments = [s for segs in per_audio for s in segs]
    write_manifest(args.out, segments, cfg)
    write_run_manifest(args.out, args)
    print(f"{len(segments)} segments from {len(corpus)} audios -> {args.out}")
    for path, segs in zip(files, per_audio):
        print(f"  {path}: {len(segs)}")
    return 0


def cmd_train(args) -> int:
    train_cfg = config_from_args(TrainConfig, args)
    corpus, _ = load_corpus(args.corpus, args.sample_rate)
    model_cfg = config_from_args(ModelConfig, args)
    mel_cfg = MelConfig(n_mels=model_cfg.f_bins)
    seg_cfg = seg_config_from_args(args)
    sources = training_sources(corpus, seg_cfg, mel_cfg)
    aug_cfg = make_aug_config(args)
    params, history = train(
        sources,
        model_cfg,
        train_cfg,
        aug_cfg,
        mel_cfg,
        log=lambda e, l: print(f"epoch {e}: mean loss {l:.4f}", flush=True),
    )
    save_checkpoint(args.out, params, model_cfg)
    hist_path = Path(args.out).with_suffix(".loss.csv")
    with open(hist_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, loss in enumerate(history):
            writer.writerow([epoch, f"{loss:.6f}"])
    write_run_manifest(args.out, args)
    print(f"checkpoint -> {args.out}; loss history -> {hist_path}")
    return 0


def cmd_fingerprint(args) -> int:
    corpus, _ = load_corpus(args.audio, args.sample_rate)
    params, model_cfg, mel_cfg = load_model(args.ckpt)
    seg_cfg = seg_config_from_args(args)
    index = build_index(corpus, seg_cfg, mel_cfg, params, model_cfg)
    index.save(args.out)
    write_run_manifest(args.out, args)
    print(f"{len(index)} fingerprints -> {args.out}")
    return 0


def cmd_index_build(args) -> int:
    parts = [FingerprintIndex.load(path) for path in args.fingerprints]
    for path, part in zip(args.fingerprints, parts):
        if part.dim != parts[0].dim:
            raise ValueError(f"{path}: dim {part.dim} != {parts[0].dim} of {args.fingerprints[0]}")
    merged = FingerprintIndex.from_records(np.concatenate([part.records for part in parts]))
    merged.save(args.out)
    write_run_manifest(args.out, args)
    print(f"index with {len(merged)} entries -> {args.out}")
    return 0


def cmd_index_query(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    index = FingerprintIndex.load(args.idx)
    queries = FingerprintIndex.load(args.fingerprints)
    if queries.dim != index.dim:
        raise ValueError(f"{args.fingerprints}: dim {queries.dim} != {index.dim} of {args.idx}")
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["query_ord", "rank", "audio_id", "segment_ord", "start_time", "duration", "score"]
    )
    for qi, query in enumerate(queries.records["vector"]):
        for rank, (hit, score) in enumerate(index.search_top_k(query, args.k)):
            writer.writerow(
                [qi, rank, hit.audio_id, hit.segment_ord, f"{hit.start_time:.3f}",
                 f"{hit.duration:.3f}", f"{score:.6f}"]
            )
    return 0


def cmd_eval_cbr(args) -> int:
    corpus, _ = load_corpus(args.audio, args.sample_rate)
    params, model_cfg, mel_cfg = load_model(args.ckpt)
    seg_cfg = seg_config_from_args(args)
    rng = np.random.default_rng(args.seed)
    aug_cfg = make_aug_config(args)

    if not 0 <= args.commercial_id < len(corpus):
        raise ValueError(f"--commercial-id {args.commercial_id} is not a corpus id 0..{len(corpus) - 1}")
    commercial = corpus[args.commercial_id][1]
    others = [w for aid, w in corpus if aid != args.commercial_id]
    sim = simulate_broadcast(commercial, others, aug_cfg, rng, n_others=args.others)

    commercial_index = build_index([(args.commercial_id, commercial)], seg_cfg, mel_cfg, params, model_cfg)
    broadcast_segs = segment(sim.stream, seg_cfg, -1)
    entries = fingerprint_segments(sim.stream, broadcast_segs, mel_cfg, params, model_cfg)
    scored_segments = [(seg, e.vector) for seg, e in zip(broadcast_segs, entries)]
    report = cbr_evaluate(commercial_index, scored_segments, sim.span)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "tp", "fp", "fn", "precision", "recall", "f1", "best"])
        for row in report.rows:
            writer.writerow(
                [f"{row.threshold:.6f}", row.tp, row.fp, row.fn,
                 f"{row.precision:.6f}", f"{row.recall:.6f}", f"{row.f1:.6f}",
                 int(row == report.best)]
            )
    dump_path = Path(args.out).with_suffix(".scores.csv")
    with open(dump_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start_time", "duration", "score", "label"])
        for start, dur, score, label in report.scored:
            writer.writerow([f"{start:.4f}", f"{dur:.4f}", f"{score:.6f}", int(label)])
    write_run_manifest(args.out, args)
    print(
        f"CBR best F1 {report.best.f1:.4f} at threshold {report.best.threshold:.4f} "
        f"(P={report.best.precision:.4f}, R={report.best.recall:.4f}) -> {args.out}"
    )
    return 0


def cmd_eval_dtr(args) -> int:
    corpus, _ = load_corpus(args.audio, args.sample_rate)
    params, model_cfg, mel_cfg = load_model(args.ckpt)
    rng = np.random.default_rng(args.seed)
    aug_cfg = make_aug_config(args)

    n_targets = args.targets if args.targets is not None else min(500, len(corpus))
    if n_targets < 1 or args.queries_per_target < 1:
        raise ValueError(
            f"eval dtr needs at least one query: got {n_targets} targets"
            f" and {args.queries_per_target} queries per target"
        )
    if n_targets > len(corpus):
        raise ValueError(f"--targets {n_targets} exceeds the corpus of {len(corpus)} audios")
    if args.dummies is not None and args.dummies < 0:
        raise ValueError(f"--dummies must be >= 0, got {args.dummies}")
    if args.dummies is not None and n_targets + args.dummies > len(corpus):
        raise ValueError(
            f"--dummies {args.dummies} exceeds the {len(corpus) - n_targets} audios"
            f" left after {n_targets} targets"
        )
    durations = [float(d) for d in args.durations.split(",")]
    check_query_durations(durations, args.sample_rate)
    targets = corpus[:n_targets]
    database = corpus if args.dummies is None else corpus[: n_targets + args.dummies]
    windows = replace(FIXED_WINDOWS, window_s=args.window_s, hop_s=args.hop_s)
    index = build_index(database, windows, mel_cfg, params, model_cfg)
    queries = make_dtr_queries(targets, durations, aug_cfg, rng, args.queries_per_target)
    embed = make_embedder(params, model_cfg, mel_cfg)
    report = dtr_evaluate(index, queries, embed, windows)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["duration_s", "hit_rate"])
        for dur in durations:
            writer.writerow([dur, f"{report.hit_rates[dur]:.6f}"])
    dump_path = Path(args.out).with_suffix(".results.csv")
    with open(dump_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target_id", "duration_s", "retrieved_id", "hit", "n_lookups"])
        for r in report.results:
            writer.writerow([r.target_id, r.duration_s, r.retrieved_id, int(r.hit), r.n_lookups])
    write_run_manifest(args.out, args)
    for dur in durations:
        print(f"DTR hit rate @ {dur:g}s: {report.hit_rates[dur]:.4f}")
    print(f"reports -> {args.out}, {dump_path}")
    return 0


def cmd_init(args) -> int:
    model_cfg = config_from_args(ModelConfig, args)
    params = init_parameters(model_cfg, seed=args.seed)
    save_checkpoint(args.out, params, model_cfg)
    write_run_manifest(args.out, args)
    print(f"random-init checkpoint -> {args.out}")
    return 0


def cmd_inspect(args) -> int:
    path = Path(args.path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open("rb") as fh:
        magic = fh.read(4)
    if magic == b"VLIX":
        index = FingerprintIndex.load(path)
        print(f"fingerprint index: dim={index.dim} entries={len(index)} bytes={path.stat().st_size}")
        print(f"distinct audio ids: {len(np.unique(index.records['audio_id']))}")
    elif magic == b"VLFP":
        params, cfg = load_checkpoint(path)
        n_values = sum(v.size for v in params.values())
        print(f"model checkpoint: {cfg}")
        print(f"tensors={len(params)} parameters={n_values}")
    else:
        try:
            text = path.read_text()
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not a .vlix index, a .vlfp checkpoint or a text artifact") from None
        if path.suffix == ".json":
            print(text.rstrip())
        else:
            lines = text.splitlines()
            print(f"text artifact: {len(lines)} lines")
            for line in lines[:5]:
                print(f"  {line}")
    return 0


# -- parser wiring: a flag that sets a config field is its dest, and takes its default from there --


def _add_common(p, seed=0, rate=True):
    if seed is not None:  # only on the commands that draw randomness
        p.add_argument("--seed", type=int, default=seed, help="master random seed")
    if rate:
        p.add_argument("--rate", dest="sample_rate", type=int, default=DEFAULT_SAMPLE_RATE,
                       help="expected sample rate")


def _add_windows(p):
    p.add_argument("--window", dest="window_s", type=float, default=SegmenterConfig.window_s,
                   help="fixed window seconds")
    p.add_argument("--hop", dest="hop_s", type=float, default=SegmenterConfig.hop_s, help="fixed hop seconds")


def _add_segmentation(p):
    p.add_argument("--method", choices=METHODS, default=SegmenterConfig.method)
    p.add_argument("--theta", type=float, default=None, help='z-score threshold; "inf" allowed')
    p.add_argument("--tmin", dest="t_min", type=float, default=SegmenterConfig.t_min)
    p.add_argument("--tmax", dest="t_max", type=float, default=SegmenterConfig.t_max)
    _add_windows(p)
    p.add_argument("--pelt-penalty", type=float, default=SegmenterConfig.pelt_penalty)


def _add_model(p):
    p.add_argument("--mel-bands", dest="f_bins", type=int, default=ModelConfig.f_bins)
    p.add_argument("--dim", dest="d", type=int, default=ModelConfig.d)
    p.add_argument("--blocks", dest="n_blocks", type=int, default=ModelConfig.n_blocks)
    p.add_argument("--heads", dest="n_heads", type=int, default=ModelConfig.n_heads)
    p.add_argument("--dhead", dest="d_head", type=int, default=ModelConfig.d_head)
    p.add_argument("--alpha", dest="ffn_alpha", type=float, default=ModelConfig.ffn_alpha)


def _add_aug(p, default="bg,ir"):
    p.add_argument("--aug", type=_aug_set, default=_aug_set(default), help="stages: ts,bg,ir or none")
    p.add_argument("--snr", dest="snr_range_db", type=_float_pair, default=AugmentConfig.snr_range_db,
                   help="SNR range dB lo:hi")
    p.add_argument("--ts", dest="ts_range", type=_float_pair, default=AugmentConfig.ts_range,
                   help="time-stretch range lo:hi")
    p.add_argument("--bg-dir", default=None, help="directory of noise WAVs (default: synthetic)")
    p.add_argument("--ir-dir", default=None, help="directory of IR WAVs (default: synthetic)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vlafp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vlafp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus of WAV files")
    p.add_argument("--n", dest="n_audios", type=int, default=SynthSpec.n_audios)
    p.add_argument("--dur", type=float, default=SynthSpec.duration_range[0])
    p.add_argument("--recipe", default=SynthSpec.recipe, choices=["mixture", "tone_noise", "tone_silence"])
    p.add_argument("--out", required=True)
    _add_common(p, seed=SynthSpec.seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("segment", help="segment audio files into a manifest")
    p.add_argument("--audio", required=True)
    p.add_argument("--out", required=True)
    _add_segmentation(p)
    _add_common(p, seed=None)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("train", help="contrastive training; writes a checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--tau", type=float, default=TrainConfig.tau)
    p.add_argument("--npos", dest="n_pos", type=int, default=TrainConfig.n_pos)
    p.add_argument("--batch", dest="batch_items", type=int, default=TrainConfig.batch_items)
    p.add_argument("--out", required=True)
    _add_segmentation(p)
    _add_model(p)
    _add_aug(p)
    _add_common(p, seed=TrainConfig.seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fingerprint", help="fingerprint audio into a .vlix file")
    p.add_argument("--audio", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    _add_segmentation(p)
    _add_common(p, seed=None)
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("index", help="index operations")
    isub = p.add_subparsers(dest="index_command", required=True)
    pb = isub.add_parser("build", help="merge fingerprint files into an index")
    pb.add_argument("--fingerprints", nargs="+", required=True)
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=cmd_index_build)
    pq = isub.add_parser("query", help="query an index with stored fingerprints")
    pq.add_argument("--idx", required=True)
    pq.add_argument("--fingerprints", required=True)
    pq.add_argument("--k", type=int, default=1)
    pq.set_defaults(func=cmd_index_query)

    p = sub.add_parser("eval", help="retrieval evaluations")
    esub = p.add_subparsers(dest="eval_command", required=True)
    pc = esub.add_parser("cbr", help="commercial-broadcast retrieval")
    pc.add_argument("--audio", required=True)
    pc.add_argument("--ckpt", required=True)
    pc.add_argument("--commercial-id", type=int, default=0)
    pc.add_argument("--others", type=int, default=19)
    pc.add_argument("--out", required=True)
    _add_segmentation(pc)
    _add_aug(pc, default="ts,bg,ir")
    _add_common(pc)
    pc.set_defaults(func=cmd_eval_cbr)
    pd = esub.add_parser("dtr", help="dummy-target retrieval")
    pd.add_argument("--audio", required=True)
    pd.add_argument("--ckpt", required=True)
    pd.add_argument("--durations", default="1,2,3,5,6,10")
    pd.add_argument("--targets", type=int, default=None)
    pd.add_argument("--dummies", type=int, default=None)
    pd.add_argument("--queries-per-target", type=int, default=1)
    pd.add_argument("--out", required=True)
    _add_windows(pd)
    _add_aug(pd, default="bg,ir")
    _add_common(pd)
    pd.set_defaults(func=cmd_eval_dtr)

    p = sub.add_parser("init", help="write a randomly initialized checkpoint")
    p.add_argument("--out", required=True)
    _add_model(p)
    _add_common(p, rate=False)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("inspect", help="describe an artifact file")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv, argparse.Namespace(argv=argv))
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
