"""The four benchmark workloads, driven through the public vlafp API.

Each workload has three parts:

- ``setup(seed)`` makes every input (corpus, pools, distorted queries,
  simulated broadcasts, catalogue vectors, the frozen checkpoint) and is
  timed as set-up, never as work;
- ``build()`` is the one-shot phase that produces what the loop serves
  (the index, the commercial indexes, the training sources);
- ``op(i)`` is operation ``i`` of the closed loop (one client, next
  request only after the previous one returned). Operation ``i`` always
  uses the same inputs, so a traced replay of ops ``0..n-1`` repeats the
  untraced work exactly. ``round`` ops form a balanced mix, and the loop
  only stops on a round boundary. Only ``op`` is timed;
  ``verify(i, result)`` checks its result afterwards and returns the work
  done.

Correctness checks raise CheckFailed; the runner counts the operation as
failed. ``finish()`` runs the end-of-run checks and returns the workload's
named metrics.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from vlafp import evaluation, index, model, pipeline, segmentation, training
from vlafp.augment import AugmentConfig, make_ir_pool, make_noise_pool
from vlafp.dsp import MelConfig
from vlafp.synth import SynthSpec, generate

import common

FP_NORM_TOL = 1e-6  # float64 fingerprints out of the model
STORED_NORM_TOL = 1e-5  # the same vectors after the index's float32 cast
# The corpus and distortion pools the frozen checkpoint was trained on.
# The run seed picks everything else: queries, broadcasts, vectors, order.
DESK_CORPUS_SEED = 7
DESK_BG_SEED = 11
DESK_IR_SEED = 12
CBR_METHODS = ("main", "nosilence", "pelt", "waveform")
DTR_DURATIONS = (1.0, 3.0, 6.0)


class CheckFailed(AssertionError):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_unit_vectors(vectors, tol: float, what: str) -> None:
    v = np.asarray(vectors, dtype=np.float64)
    check(bool(np.all(np.isfinite(v))), f"{what}: non-finite fingerprint")
    norms = np.linalg.norm(v.reshape(-1, v.shape[-1]), axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    check(worst <= tol, f"{what}: fingerprint norm off by {worst:.3g} (tol {tol})")


@dataclass(frozen=True)
class Size:
    n_audios: int
    audio_s: float
    queries_per_target: int  # per DTR duration
    n_others: int  # other audios around the commercial in a broadcast
    ts_factors: tuple[float, ...]  # one broadcast per time-stretch factor
    catalog_n: int
    catalog_queries: int
    min_hit_rate: float  # DTR quality floor of the trained checkpoint
    min_best_f1: float  # CBR quality floor


SIZES = {
    "full": Size(50, 10.0, 2, 19, (0.85, 1.02, 1.19), 100_000, 512, 0.85, 0.25),
    # Smoke-test size: every code path, a few seconds per workload, no quality floors.
    "tiny": Size(6, 7.0, 1, 3, (1.19,), 3_000, 16, 0.0, 0.0),
}


def desk_pools(ts: bool) -> AugmentConfig:
    """The BG+IR pools the frozen checkpoint was trained with (time-stretch optional)."""
    return AugmentConfig(
        enable_ts=ts,
        bg_pool=make_noise_pool(24, 3.0, common.FS, DESK_BG_SEED),
        ir_pool=make_ir_pool(12, 0.25, common.FS, DESK_IR_SEED),
    )


def desk_corpus(size: Size):
    return generate(
        SynthSpec(n_audios=size.n_audios, duration_range=(size.audio_s, size.audio_s), seed=DESK_CORPUS_SEED)
    )


def load_frozen():
    path, _ = common.verified_checkpoint()
    return model.load_checkpoint(path)


class Workload:
    name = ""
    round = 1

    def __init__(self, size: Size, workdir: Path, tally: dict[str, list] | None = None):
        self.size = size
        self.workdir = workdir
        self.mel_cfg = MelConfig(n_mels=64)
        # Per-operation results for finish(); passed on when a run re-does set-up.
        self.tally = tally if tally is not None else defaultdict(list)

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        """Run operation i (timed); returns what verify() needs."""
        raise NotImplementedError

    def verify(self, i: int, result) -> float:
        """Check operation i's result (untimed); returns the work it did (items, queries, audio seconds, searches)."""
        raise NotImplementedError

    def finish(self, build_s: list[float]) -> dict[str, tuple[float, str]]:
        return {}


class Train(Workload):
    """training.train() on the desk corpus, one 60-item step per call.

    Call i trains its own seeded initialisation on the next 15 anchor groups
    of a seeded permutation of the fixed 1 s windows, each with 3 BG+IR
    positives. Starting every call from a fresh init keeps the work of a
    step the same however long the run lasts.
    """

    name = "train"

    def setup(self, seed):
        self.seed = seed
        self.corpus = desk_corpus(self.size)
        self.aug = desk_pools(ts=False)
        self.model_cfg = model.ModelConfig()
        self.train_cfg = training.TrainConfig(epochs=1, lr=1e-3)

    def build(self):
        self.sources = pipeline.training_sources(self.corpus, None, self.mel_cfg)
        order = np.random.default_rng(self.seed).permutation(len(self.sources))
        groups = self.train_cfg.groups_per_batch
        self.chunks = [order[c * groups : (c + 1) * groups] for c in range(len(order) // groups)]

    def op(self, i):
        chunk = [self.sources[int(j)] for j in self.chunks[i % len(self.chunks)]]
        cfg = replace(self.train_cfg, seed=self.seed * 100_003 + i)
        _, history = training.train(chunk, self.model_cfg, cfg, self.aug, self.mel_cfg)
        return history

    def verify(self, i, history):
        check(len(history) == 1 and math.isfinite(history[0]), f"non-finite training loss {history}")
        self.tally["loss"].append(history[0])
        return float(self.train_cfg.groups_per_batch * (1 + self.train_cfg.n_pos))

    def finish(self, build_s):
        check(len(self.sources) == self.size.n_audios * (2 * int(self.size.audio_s) - 1), "training source count")
        return {"train_loss_mean": (float(np.mean(self.tally["loss"])), "nats")}


class Dtr(Workload):
    """Ingest the corpus (fixed windows), then answer distorted DTR queries one at a time."""

    name = "dtr"
    round = len(DTR_DURATIONS)

    def setup(self, seed):
        query_rng, order_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
        self.corpus = desk_corpus(self.size)
        self.params, self.model_cfg = load_frozen()
        aug = desk_pools(ts=False)
        self.queries = []
        for dur in DTR_DURATIONS:
            qs = evaluation.make_dtr_queries(
                self.corpus, [dur], aug, query_rng, queries_per_target=self.size.queries_per_target
            )
            self.queries.append([qs[int(j)] for j in order_rng.permutation(len(qs))])

    def _embed(self, w):
        v = self.embed(w)
        self.embedded.append(v)
        return v

    def build(self):
        self.index = None  # a rebuild never holds two indexes at once
        self.index = pipeline.build_index(self.corpus, None, self.mel_cfg, self.params, self.model_cfg)
        self.embed = pipeline.make_embedder(self.params, self.model_cfg, self.mel_cfg)

    def op(self, i):
        per_dur = self.queries[i % self.round]
        q = per_dur[(i // self.round) % len(per_dur)]
        self.embedded = []
        return q, evaluation.dtr_evaluate(self.index, [q], self._embed)

    def verify(self, i, result):
        q, report = result
        (res,) = report.results
        want = 2 * round(q.duration_s) - 1
        check(res.n_lookups == want, f"{q.duration_s:g} s query made {res.n_lookups} lookups, want {want}")
        check(len(self.embedded) == want, f"{q.duration_s:g} s query embedded {len(self.embedded)} windows, want {want}")
        check_unit_vectors(np.stack(self.embedded), FP_NORM_TOL, "query window")
        self.tally["hits"].append((q.duration_s, res.hit))
        return 1.0

    def finish(self, build_s):
        n = len(self.index)
        check(n == self.size.n_audios * (2 * int(self.size.audio_s) - 1), f"index holds {n} entries")
        check_unit_vectors(np.stack([self.index.entry(i).vector for i in range(n)]), STORED_NORM_TOL, "index")
        hit_rate = float(np.mean([hit for _, hit in self.tally["hits"]]))
        check(hit_rate >= self.size.min_hit_rate, f"DTR hit rate {hit_rate:.3f} < {self.size.min_hit_rate}")
        corpus_s = sum(w.duration for _, w in self.corpus)
        named = {
            "ingest_audio_s_per_s": (corpus_s / float(np.median(build_s)), "audio-s/s"),
            "dtr_hit_rate": (hit_rate, "ratio"),
        }
        for dur in DTR_DURATIONS:
            named[f"dtr_hit_rate_{dur:g}s"] = (float(np.mean([h for d, h in self.tally["hits"] if d == dur])), "ratio")
        return named


class Cbr(Workload):
    """Scan pre-simulated TS+BG+IR broadcasts for one commercial with every segmenter.

    The commercial is corpus audio 0 and the broadcasts use a fixed ladder
    of time-stretch factors across the 0.8-1.2 range, so every seed scans
    the same amount of audio; the seed draws the other audios, their order,
    the noise, SNR and impulse response.
    """

    name = "cbr"
    round = len(CBR_METHODS)

    def setup(self, seed):
        sim_rng = np.random.default_rng(seed)
        corpus = desk_corpus(self.size)
        self.params, self.model_cfg = load_frozen()
        aug = desk_pools(ts=True)
        self.commercial = corpus[0]
        others = [w for _, w in corpus[1:]]
        self.broadcasts = [
            evaluation.simulate_broadcast(
                self.commercial[1], others, replace(aug, ts_range=(f, f)), sim_rng, n_others=self.size.n_others
            )
            for f in self.size.ts_factors
        ]
        self.seg_cfgs = {
            m: segmentation.SegmenterConfig(method=m, theta=segmentation.default_theta(m)) for m in CBR_METHODS
        }

    def build(self):
        self.indexes = None
        self.indexes = {
            m: pipeline.build_index([self.commercial], cfg, self.mel_cfg, self.params, self.model_cfg)
            for m, cfg in self.seg_cfgs.items()
        }

    def op(self, i):
        sim = self.broadcasts[(i // self.round) % len(self.broadcasts)]
        method = CBR_METHODS[i % self.round]
        segs = segmentation.segment(sim.stream, self.seg_cfgs[method], audio_id=-1)
        entries = pipeline.fingerprint_segments(sim.stream, segs, self.mel_cfg, self.params, self.model_cfg)
        report = evaluation.cbr_evaluate(self.indexes[method], [(s, e.vector) for s, e in zip(segs, entries)], sim.span)
        return sim, segs, entries, report

    def verify(self, i, result):
        sim, segs, entries, report = result
        method = CBR_METHODS[i % self.round]
        check(len(entries) == len(segs), f"{method}: {len(entries)} fingerprints for {len(segs)} segments")
        check_unit_vectors(np.stack([e.vector for e in entries]), STORED_NORM_TOL, f"{method} broadcast")
        check(len(report.scored) == len(segs), f"{method}: {len(report.scored)} scored of {len(segs)} segments")
        self.tally["best_f1"].append(report.best.f1)
        return sim.stream.duration

    def finish(self, build_s):
        for m, idx in self.indexes.items():
            check(len(idx) > 0, f"empty commercial index for {m}")
            check_unit_vectors(np.stack([idx.entry(i).vector for i in range(len(idx))]), STORED_NORM_TOL, m)
        f1 = float(np.mean(self.tally["best_f1"]))
        check(f1 >= self.size.min_best_f1, f"CBR mean best F1 {f1:.3f} < {self.size.min_best_f1}")
        return {"cbr_best_f1": (f1, "ratio")}


def oracle_top_k(vectors, keys, q, k):
    """Independent top-k: float32 scan, then sort candidates by (-score, audio_id, segment_ord).

    Candidates are every entry scoring at least the k-th best score, so
    ties at the cut are all sorted by key.
    """
    scores = vectors @ q
    k = min(k, len(scores))
    kth = np.partition(scores, len(scores) - k)[len(scores) - k]
    cand = np.flatnonzero(scores >= kth)
    ranked = sorted(cand.tolist(), key=lambda i: (-scores[i], keys[i][0], keys[i][1]))[:k]
    return [(keys[i], float(scores[i])) for i in ranked]


class Catalog(Workload):
    """Index at catalogue scale: insert N unit vectors, save, load, then top-1/top-10 searches."""

    name = "catalog"
    round = 2  # one top-1 and one top-10 search
    dim = 32

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        n = self.size.catalog_n
        v = rng.standard_normal((n, self.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v = v.astype(np.float32)
        # 1% exact duplicates, so top-k cuts through score ties.
        dup_src = rng.choice(n, size=n // 100, replace=False)
        dup_dst = rng.permutation(np.setdiff1d(np.arange(n), dup_src))[: n // 100]
        v[dup_dst] = v[dup_src]
        # Unique (audio_id, segment_ord) keys in an order unrelated to insertion.
        perm = rng.permutation(n)
        self.keys = [(int(p) // 20, int(p) % 20) for p in perm]
        self.vectors = v
        self.entries = [
            index.IndexEntry(v[i], self.keys[i][0], self.keys[i][1], 0.5 * self.keys[i][1], 1.0) for i in range(n)
        ]
        # A quarter of the queries are exact copies of duplicated vectors (tied top-2).
        nq = self.size.catalog_queries
        src = rng.choice(n, size=nq, replace=False)
        src[: nq // 4] = dup_src[: nq // 4]
        noisy = v[src].astype(np.float64) + 0.05 / math.sqrt(self.dim) * rng.standard_normal((nq, self.dim))
        noisy[: nq // 4] = v[src[: nq // 4]]
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        self.queries = noisy.astype(np.float32)
        self.query_src = src
        self.path = self.workdir / "catalog.vlix"

    def build(self):
        self.index = None
        t0 = time.perf_counter()
        built = index.FingerprintIndex.build(self.entries)
        built.save(self.path)
        t1 = time.perf_counter()
        self.index = index.FingerprintIndex.load(self.path)
        t2 = time.perf_counter()
        self.tally["build_parts"].append((t1 - t0, t2 - t1))

    def op(self, i):
        qi = (i // self.round) % len(self.queries)
        k = 1 if i % self.round == 0 else 10
        return self.index.search_top_k(self.queries[qi], k)

    def verify(self, i, hits):
        qi = (i // self.round) % len(self.queries)
        k = 1 if i % self.round == 0 else 10
        q = self.queries[qi]
        check(len(hits) == min(k, len(self.vectors)), f"search returned {len(hits)} hits for k={k}")
        if k == 1:
            src = self.query_src[qi]
            self.tally["top1"].append(bool(np.array_equal(hits[0][0].vector, self.vectors[src])))
        if qi % 4 == 0:
            got = [((h.audio_id, h.segment_ord), s) for h, s in hits]
            check(got == oracle_top_k(self.vectors, self.keys, q, k), f"query {qi} k={k} differs from the oracle")
        return 1.0

    def finish(self, build_s):
        n = len(self.vectors)
        size = self.path.stat().st_size
        check(size == index.expected_file_size(n, self.dim), f"saved {size} bytes, expected_file_size says otherwise")
        check(len(self.index) == n, f"loaded {len(self.index)} of {n} entries")
        again = self.workdir / "catalog-roundtrip.vlix"
        self.index.save(again)
        check(again.read_bytes() == self.path.read_bytes(), "load/save round trip is not byte-identical")
        recall = float(np.mean(self.tally["top1"]))
        check(recall >= 0.99, f"top-1 recall of perturbed queries {recall:.3f} < 0.99")
        builds, loads = zip(*self.tally["build_parts"])
        return {
            "index_build_s": (float(np.median(builds)), "s"),
            "index_load_s": (float(np.median(loads)), "s"),
            "catalog_top1_recall": (recall, "ratio"),
        }


WORKLOADS = {cls.name: cls for cls in (Train, Dtr, Cbr, Catalog)}


def make(name: str, size: str, workdir: Path, tally: dict[str, list] | None = None) -> Workload:
    return WORKLOADS[name](SIZES[size], workdir, tally)

