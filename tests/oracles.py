"""Independent reference implementations shared by the test modules."""

import numpy as np

from vlafp.autodiff import Tensor, concat
from vlafp.dsp import DEFAULT_HOP, DEFAULT_WINDOW, mel_spectrogram
from vlafp.model import ModelConfig, block_frames, cross_attention_block, l2_normalize


def dp_oracle(series, penalty, min_size=1, jump=1):
    """Unpruned O(n^2) dynamic program over the admissible boundary set."""
    x = np.asarray(series, dtype=np.float64)
    n = len(x)
    if n < 2 * min_size:
        return [n]
    ends = sorted({t for t in range(jump, n + 1, jump)} | {n})
    best = {0: -penalty}
    prev = {}
    for t in ends:
        options = []
        for s in [0] + [e for e in ends if e < t]:
            if s in best and t - s >= min_size:
                seg = x[s:t]
                options.append((best[s] + np.sum((seg - seg.mean()) ** 2) + penalty, s))
        if options:
            best[t], prev[t] = min(options, key=lambda o: o[0])
    bps = [n]
    while bps[-1] != 0:
        bps.append(prev[bps[-1]])
    return list(reversed(bps))[1:]


def pelt_list_reference(series, penalty, min_size=1, jump=1, prune_slack=1e-9):
    """PELT with Python lists and dicts, one scalar cost per candidate.

    The same recursion, pruning and first-minimum tie rule as
    vlafp.pelt.pelt_changepoints, written one candidate at a time.
    """
    x = np.asarray(series, dtype=np.float64)
    n = x.shape[0]
    if n < 2 * min_size:
        return [n]
    s1 = np.concatenate([[0.0], np.cumsum(x)])
    s2 = np.concatenate([[0.0], np.cumsum(x * x)])

    def cost(a, b):
        m = b - a
        seg_sum = s1[b] - s1[a]
        return (s2[b] - s2[a]) - seg_sum * seg_sum / m

    ends = sorted({t for t in range(jump, n + 1, jump)} | {n})
    best_cost = {0: -penalty}
    prev_bp = {0: 0}
    candidates = [0]
    for t in ends:
        admissible = [s for s in candidates if t - s >= min_size]
        if not admissible:
            continue
        costs = [best_cost[s] + cost(s, t) + penalty for s in admissible]
        k = int(np.argmin(costs))
        best_cost[t] = costs[k]
        prev_bp[t] = admissible[k]
        kept = [s for s, c in zip(admissible, costs) if c - penalty <= best_cost[t] + prune_slack]
        not_yet = [s for s in candidates if t - s < min_size]
        candidates = kept + not_yet + [t]
    if n not in best_cost:
        return [n]
    bps = [n]
    while bps[-1] != 0:
        bps.append(prev_bp[bps[-1]])
    return list(reversed(bps))[1:]


def frame_rms_db_loop(samples, frame_len):
    """frame_rms_db one frame at a time: RMS of each chunk in dB re the peak."""
    x = np.asarray(samples, dtype=np.float64)
    n = max(1, int(np.ceil(x.shape[0] / frame_len)))
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    out = np.full(n, -np.inf)
    if peak == 0.0:
        return out
    for i in range(n):
        chunk = x[i * frame_len : (i + 1) * frame_len]
        rms = np.sqrt(np.mean(chunk**2)) if chunk.size else 0.0
        if rms > 0.0:
            out[i] = 20.0 * np.log10(rms / peak)
    return out


def stft_gather(samples, window_size, hop):
    """STFT frames gathered through an explicit (frames, window) index matrix."""
    x = np.asarray(samples, dtype=np.float64)
    if x.shape[0] < window_size:
        x = np.concatenate([x, np.zeros(window_size - x.shape[0])])
    n = (x.shape[0] - window_size) // hop + 1
    idx = np.arange(window_size)[None, :] + hop * np.arange(n)[:, None]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window_size) / window_size)
    return np.fft.rfft(x[idx] * window[None, :], axis=1)


def naive_convolve(x, h):
    """Direct O(n*m) linear convolution truncated to len(x)."""
    out = np.zeros(len(x))
    for i in range(len(out)):
        lo = max(0, i - len(h) + 1)
        for j in range(lo, i + 1):
            out[i] += x[j] * h[i - j]
    return out


def exhaustive_best_f1(scores, labels):
    """Enumerate every candidate threshold; recompute P/R/F1 from scratch."""
    best = (-1.0, None, None, None)
    for th in sorted(set(scores)) + [np.inf]:
        tp = sum(1 for s, l in zip(scores, labels) if s >= th and l)
        fp = sum(1 for s, l in zip(scores, labels) if s >= th and not l)
        fn = sum(1 for s, l in zip(scores, labels) if s < th and l)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        if f1 > best[0]:
            best = (f1, th, p, r)
    return best


def init_segment_embeddings(h1: Tensor, tp: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Mean-pool block-1 frame embeddings, project once per head: (H, d)."""
    if h1.shape[-2] == 0:
        raise ValueError("cannot pool zero frames")
    pooled = h1.mean(axis=-2, keepdims=True)  # (1, d)
    rows = [pooled @ tp[f"seg_init.ws.{h}"] for h in range(cfg.n_heads)]
    return concat(rows, axis=0)


def fingerprint_forward(mel: Tensor, tp: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Map one (T, F) mel segment to a unit-L2 fingerprint Tensor of size d.

    The single-segment forward, one (T, F) matrix at a time, kept as the
    reference for the grouped packed forward.
    """
    h = mel @ tp["w0"] + tp["b0"]
    s = None
    for block in range(cfg.n_blocks):
        h = block_frames(h, tp, block, cfg)
        if block == 0:
            s = init_segment_embeddings(h, tp, cfg)
        s = cross_attention_block(s, h, tp, block, cfg)
    return l2_normalize(s.mean(axis=0))


def segment_waveform_span(w, seg):
    """Samples backing a segment (frame-grid spans include the analysis tail).

    The earlier training path, kept as a reference: a frame-grid span runs
    from the first frame's start to the last frame's end on the one STFT grid.
    """
    if seg.frame_indices is not None:
        first, last = seg.frame_indices[0], seg.frame_indices[-1]
        start = first * DEFAULT_HOP
        n = (last - first) * DEFAULT_HOP + DEFAULT_WINDOW
        return w.slice_samples(start, n, pad=True)
    return w.slice_samples(seg.start_sample, seg.n_samples, pad=True)


def span_mel(w, seg, mel_cfg):
    """The mel of a segment's re-sliced span, clamped against the span's own maximum.

    Equals the segment's mel for contiguous segments and fixed windows.
    """
    return mel_spectrogram(segment_waveform_span(w, seg), mel_cfg).data
