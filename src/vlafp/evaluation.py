"""Retrieval evaluation harnesses: broadcast identification (threshold-swept
precision/recall/F1) and database retrieval (majority-vote top-1 hit rate)."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .audio import Waveform
from .augment import AugmentConfig, ChainDraws, augment_chain_with_draws
from .dsp import DEFAULT_HOP
from .index import FingerprintIndex
from .segmentation import FIXED_WINDOWS, Segment, SegmenterConfig, Source, segment
from .segmentation import segment_fixed  # noqa: F401  bench/tracing.py patches evaluation.segment_fixed

# DTR query excerpts start at multiples of this many seconds, the fixed windows' hop.
QUERY_ALIGN_S = 0.5


@dataclass(frozen=True)
class BroadcastSim:
    stream: Waveform
    span: tuple[float, float]  # ground-truth commercial span, post-distortion seconds
    audio_order: tuple[int, ...]  # -1 marks the commercial's slot
    draws: ChainDraws


def simulate_broadcast(
    commercial: Waveform,
    others: list[Waveform],
    aug_cfg: AugmentConfig,
    rng: np.random.Generator,
    n_others: int,
) -> BroadcastSim:
    """Shuffle the commercial among n_others audios, distort the whole stream.

    The ground-truth span is tracked through time-stretching (boundaries
    scale by 1/factor); noise mixing and IR convolution leave it in place.
    """
    if n_others < 0:
        raise ValueError(f"n_others must be >= 0, got {n_others}")
    if len(others) < n_others:
        raise ValueError(f"need at least {n_others} other audios, got {len(others)}")
    picked = list(rng.choice(len(others), size=n_others, replace=False))
    slots: list[tuple[int, Waveform]] = [(-1, commercial)] + [(i, others[i]) for i in picked]
    order = rng.permutation(len(slots))
    arranged = [slots[int(i)] for i in order]

    t0 = 0.0
    for aid, w in arranged:
        if aid == -1:
            break
        t0 += w.duration
    span = (t0, t0 + commercial.duration)

    stream = Waveform(
        np.concatenate([w.samples for _, w in arranged]), commercial.sample_rate
    )
    distorted, draws = augment_chain_with_draws(stream, aug_cfg, rng)
    if draws.ts_factor is not None:
        span = (span[0] / draws.ts_factor, span[1] / draws.ts_factor)
    return BroadcastSim(distorted, span, tuple(aid for aid, _ in arranged), draws)


@dataclass(frozen=True)
class ThresholdRow:
    threshold: float
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class CbrReport:
    rows: tuple[ThresholdRow, ...]
    best: ThresholdRow
    scored: tuple[tuple[float, float, float, bool], ...]  # (start, dur, score, label)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def sweep_thresholds(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[tuple[ThresholdRow, ...], ThresholdRow]:
    """Exhaustive sweep over observed scores (plus +inf); F1 is piecewise
    constant between them, so this finds the global F1 maximum.

    A segment is predicted positive when its score >= threshold. F1 ties
    resolve toward the higher threshold.
    """
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("no ground-truth positives: recall undefined")
    rows = []
    for th in [np.inf] + sorted(set(float(s) for s in scores), reverse=True):
        pred = scores >= th
        tp = int(np.sum(pred & labels))
        fp = int(np.sum(pred & ~labels))
        fn = int(np.sum(~pred & labels))
        rows.append(ThresholdRow(th, tp, fp, fn, *_prf(tp, fp, fn)))
    best = max(rows, key=lambda r: (r.f1, r.threshold))
    return tuple(rows), best


def overlap_fraction(seg_start: float, seg_dur: float, span: tuple[float, float]) -> float:
    lo = max(seg_start, span[0])
    hi = min(seg_start + seg_dur, span[1])
    return max(0.0, hi - lo) / seg_dur if seg_dur > 0 else 0.0


def cbr_evaluate(
    commercial_index: FingerprintIndex,
    broadcast_segments: list[tuple[Segment, np.ndarray]],
    ground_truth_span: tuple[float, float],
) -> CbrReport:
    """Query each broadcast segment for its best commercial match, sweep the
    score threshold, and report metrics at the F1-maximizing threshold.

    A segment is ground-truth positive when more than half its duration
    overlaps the commercial span.
    """
    if len(commercial_index) == 0 or not broadcast_segments:
        raise ValueError("need a non-empty index and query set")
    scores = []
    labels = []
    scored = []
    for seg, z in broadcast_segments:
        hits = commercial_index.search_top_k(z, 1)
        score = hits[0][1] if hits else -np.inf
        label = overlap_fraction(seg.start_time, seg.duration, ground_truth_span) > 0.5
        scores.append(score)
        labels.append(label)
        scored.append((seg.start_time, seg.duration, float(score), bool(label)))
    rows, best = sweep_thresholds(np.array(scores), np.array(labels))
    return CbrReport(rows, best, tuple(scored))


@dataclass(frozen=True)
class DtrQuery:
    target_id: int
    duration_s: float
    waveform: Waveform  # distorted excerpt of the target


@dataclass(frozen=True)
class DtrQueryResult:
    target_id: int
    duration_s: float
    retrieved_id: int
    hit: bool
    n_lookups: int


@dataclass(frozen=True)
class DtrReport:
    hit_rates: dict[float, float]  # duration -> top-1 hit rate
    results: tuple[DtrQueryResult, ...]


def majority_vote(matches: list[tuple[int, float]]) -> int:
    """Audio id contributing the most matches; ties go to the higher summed
    score, then to the lower id."""
    counts: dict[int, int] = {}
    score_sums: dict[int, float] = {}
    for aid, score in matches:
        counts[aid] = counts.get(aid, 0) + 1
        score_sums[aid] = score_sums.get(aid, 0.0) + score
    return min(counts, key=lambda a: (-counts[a], -score_sums[a], a))


def dtr_evaluate(
    database_index: FingerprintIndex,
    queries: list[DtrQuery],
    embed: Callable[[Source], np.ndarray],
    seg_cfg: SegmenterConfig = FIXED_WINDOWS,
) -> DtrReport:
    """Cut each query as its index was cut (seg_cfg), take each segment's
    top-1 match, and retrieve the majority audio. FIXED_WINDOWS gives 2k-1
    one-second windows for a k-second query."""
    results = []
    for q in queries:
        segments = segment(q.waveform, seg_cfg)
        matches = []
        for seg in segments:
            hits = database_index.search_top_k(embed(seg.span(q.waveform)), 1)
            if hits:
                matches.append((hits[0][0].audio_id, hits[0][1]))
        retrieved = majority_vote(matches) if matches else -1
        results.append(
            DtrQueryResult(
                q.target_id, q.duration_s, retrieved, retrieved == q.target_id, len(segments)
            )
        )
    durations = sorted({r.duration_s for r in results})
    hit_rates = {
        dur: float(np.mean([r.hit for r in results if r.duration_s == dur]))
        for dur in durations
    }
    return DtrReport(hit_rates, tuple(results))


def check_query_durations(durations_s: list[float], sample_rate: int) -> None:
    """Raise unless every query duration is a positive number of seconds holding at least one hop."""
    for dur in durations_s:
        if not (math.isfinite(dur) and dur > 0):
            raise ValueError(f"query duration must be a positive number of seconds, got {dur}")
        if int(dur * sample_rate) < DEFAULT_HOP:
            raise ValueError(
                f"query duration {dur} s: input of {int(dur * sample_rate)} samples"
                f" is shorter than one hop ({DEFAULT_HOP} samples)"
            )


def make_dtr_queries(
    targets: list[tuple[int, Waveform]],
    durations_s: list[float],
    aug_cfg: AugmentConfig,
    rng: np.random.Generator,
    queries_per_target: int,
) -> list[DtrQuery]:
    """Distorted excerpts, each at least one hop long, of target audios at multiples of QUERY_ALIGN_S."""
    for rate in {w.sample_rate for _, w in targets}:
        check_query_durations(durations_s, rate)
    queries = []
    for dur in durations_s:
        for aid, w in targets:
            for _ in range(queries_per_target):
                take = dur
                if dur > w.duration:
                    warnings.warn(
                        f"query duration {dur}s exceeds audio {aid} ({w.duration:.2f}s); cropping"
                    )
                    take = w.duration
                n = int(take * w.sample_rate)
                if n < DEFAULT_HOP:  # cropped: check_query_durations passed dur itself
                    raise ValueError(f"audio {aid} of {n} samples is shorter than one hop ({DEFAULT_HOP} samples)")
                max_slot = max(0, int((len(w) - n) / (QUERY_ALIGN_S * w.sample_rate)))
                slot = int(rng.integers(0, max_slot + 1))
                start = int(slot * QUERY_ALIGN_S * w.sample_rate)
                chunk = w.slice_samples(start, n)
                distorted, _ = augment_chain_with_draws(chunk, aug_cfg, rng)
                queries.append(DtrQuery(aid, dur, distorted))
    return queries
