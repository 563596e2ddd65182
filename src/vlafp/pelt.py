"""PELT: exact penalized change-point detection with an L2 cost."""

from __future__ import annotations

import numpy as np

# Pruning slack guards against float rounding breaking the exact-min guarantee.
PRUNE_SLACK = 1e-9


def l2_segment_cost(series: np.ndarray, a: int, b: int) -> float:
    """Sum of squared deviations from the mean on series[a:b]."""
    seg = series[a:b]
    return float(np.sum((seg - seg.mean()) ** 2))


def segmentation_cost(series: np.ndarray, breakpoints: list[int], penalty: float) -> float:
    """Total penalized cost of a segmentation given as end indices (last = len)."""
    x = np.asarray(series, dtype=np.float64)
    total = 0.0
    prev = 0
    for b in breakpoints:
        total += l2_segment_cost(x, prev, b) + penalty
        prev = b
    return total


def default_penalty(series: np.ndarray) -> float:
    """BIC-style default: 2 * ln(n) * var(series).

    A constant series (silent audio, say) has no change point, and any
    positive penalty keeps it whole; it gets 1, as does a single point.
    """
    x = np.asarray(series, dtype=np.float64)
    n = x.shape[0]
    if n < 2 or np.ptp(x) == 0.0:
        return 1.0
    return float(2.0 * np.log(n) * np.var(x))


def pelt_changepoints(
    series: np.ndarray, penalty: float, min_size: int = 1, jump: int = 1
) -> list[int]:
    """Optimal segmentation of a 1-D series under SSE cost + per-segment penalty.

    Returns segment end indices in increasing order, final entry = len(series).
    Admissible boundaries lie on the jump grid (the final index always
    qualifies); every segment spans at least min_size points. Candidate
    pruning never discards the optimum for this cost class.

    Each end t is one vectorized pass over the surviving candidates, kept
    as a sorted int array: the admissible ones (at least min_size before t)
    are scored together in the same arithmetic order as a scalar loop, the
    first minimum wins ties, and a candidate whose cost without the penalty
    exceeds the optimum by more than PRUNE_SLACK is dropped for good.
    """
    if penalty <= 0:
        raise ValueError(f"penalty must be positive, got {penalty}")
    if min_size < 1 or jump < 1:
        raise ValueError("min_size and jump must be >= 1")
    x = np.asarray(series, dtype=np.float64)
    n = x.shape[0]
    if n < 2 * min_size:
        return [n]

    s1 = np.concatenate([[0.0], np.cumsum(x)])
    s2 = np.concatenate([[0.0], np.cumsum(x * x)])

    ends = sorted({t for t in range(jump, n + 1, jump)} | {n})
    best_cost = np.empty(n + 1)
    best_cost[0] = -penalty
    prev_bp = np.full(n + 1, -1)
    prev_bp[0] = 0
    # The surviving candidates, in increasing order, are cand[:m].
    cand = np.zeros(n + 1, dtype=np.intp)
    m = 1
    for t in ends:
        n_adm = int(cand[:m].searchsorted(t - min_size, side="right"))
        if n_adm == 0:
            continue
        s = cand[:n_adm]
        seg_sum = s1[t] - s1[s]
        costs = best_cost[s] + ((s2[t] - s2[s]) - seg_sum * seg_sum / (t - s)) + penalty
        k = costs.argmin()
        best_cost[t] = costs[k]
        prev_bp[t] = s[k]
        kept = s[costs - penalty <= costs[k] + PRUNE_SLACK]
        # Pruned candidates leave; the not-yet-admissible tail and t follow the kept ones.
        cand[kept.size : kept.size + m - n_adm] = cand[n_adm:m]
        cand[: kept.size] = kept
        m = kept.size + m - n_adm
        cand[m] = t
        m += 1

    if prev_bp[n] < 0:
        return [n]
    bps = [n]
    while bps[-1] != 0:
        bps.append(int(prev_bp[bps[-1]]))
    return list(reversed(bps))[1:]
