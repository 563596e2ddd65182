"""Independent reference implementations shared by the test modules."""

import math
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve, lfilter
from scipy.special import expit

from vlafp.audio import Waveform
from vlafp.autodiff import Tensor, concat
from vlafp.dsp import (
    DEFAULT_HOP,
    DEFAULT_WINDOW,
    EPS,
    HANN,
    WAVEFORM_ENTROPY_BINS,
    MelConfig,
    MelSpectrogram,
    mel_from_frames,
    stft,
)
from vlafp.model import (
    MAX_ATTENTION_CELLS,
    ModelConfig,
    PackedBatch,
    Parameters,
    _fuse_heads,
    _rows,
    _split_heads,
)
from vlafp.segmentation import MIN_STD


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


# The z-score scan with a statistics object per segment: the reference for
# segmentation._zscore_partition, which keeps the same count, mean and M2 in
# three local numbers and updates them in the same order.
class EntropyStats:
    """Running mean/std of window entropy, Welford-updated (population std)."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    @classmethod
    def from_values(cls, values) -> "EntropyStats":
        stats = cls()
        for v in values:
            stats.push(float(v))
        return stats

    def push(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    @property
    def std(self) -> float:
        return math.sqrt(self._m2 / self.count) if self.count else 0.0

    def zscore(self, x: float) -> float:
        """Two-sided z-score |x - mean| / std; 0 when the window is constant."""
        sigma = self.std
        if sigma < MIN_STD:
            return 0.0
        return abs(x - self.mean) / sigma


def _zscore_partition(
    values: np.ndarray,
    min_frames: int,
    max_frames: int,
    theta: float,
    skip: np.ndarray | None = None,
) -> list[list[int]]:
    """Greedy fill-then-extend loop shared by main/nosilence/waveform.

    Fill absorbs frames unconditionally (skipping flagged ones) until the
    minimum is reached; extension absorbs while the frame's z-score stays
    at or below theta. A rejected frame starts the next segment.
    """
    n = len(values)
    out: list[list[int]] = []
    i = 0
    while i < n:
        members: list[int] = []
        while len(members) < min_frames and i < n:
            if skip is not None and skip[i]:
                i += 1
                continue
            members.append(i)
            i += 1
        if not members:
            break
        stats = EntropyStats.from_values(values[members])
        while len(members) < max_frames and i < n:
            z = stats.zscore(float(values[i]))
            if z <= theta:
                members.append(i)
                stats.push(float(values[i]))
                i += 1
            else:
                break
        out.append(members)
    return out


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


def spectral_entropy(frame: np.ndarray) -> float:
    """Shannon entropy (nats) of one frame's normalized power distribution.

    Degenerate frames (total power below EPS) score 0, matching the
    pure-tone limit. Invariant to uniform scaling of the frame.
    """
    frame = np.asarray(frame)
    if frame.size == 0:
        raise ValueError("empty frame")
    p = np.abs(frame) ** 2
    total = p.sum()
    if total < EPS:
        return 0.0
    p = p / total
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def mel_spectrogram(w: Waveform, cfg: MelConfig = MelConfig()) -> MelSpectrogram:
    """Log-mel spectrogram (T x F), dB, clamped to the top MEL_DYNAMIC_RANGE_DB."""
    if len(w) < DEFAULT_HOP:
        raise ValueError(f"waveform shorter than one hop ({DEFAULT_HOP} samples)")
    return mel_from_frames(stft(w), cfg)


def waveform_entropy(chunk: np.ndarray) -> float:
    """Shannon entropy (nats) of a chunk's absolute-amplitude histogram.

    Equal-width bins span the chunk's own |x| range; constant-|x| chunks
    (including silence) score 0.
    """
    a = np.abs(np.asarray(chunk, dtype=np.float64))
    if a.size == 0:
        raise ValueError("empty chunk")
    lo, hi = a.min(), a.max()
    if hi - lo < EPS:
        return 0.0
    counts, _ = np.histogram(a, bins=WAVEFORM_ENTROPY_BINS, range=(lo, hi))
    p = counts[counts > 0] / a.size
    return float(-(p * np.log(p)).sum())


def naive_convolve(x, h):
    """Direct O(n*m) linear convolution truncated to len(x)."""
    out = np.zeros(len(x))
    for i in range(len(out)):
        lo = max(0, i - len(h) + 1)
        for j in range(lo, i + 1):
            out[i] += x[j] * h[i - j]
    return out


def convolve_ir(w: Waveform, ir: Waveform) -> Waveform:
    """Whole-input FFT convolution truncated to len(w), peak-matched to the input.

    The reference for augment.convolve_ir, which overlap-adds blocks of
    augment.CONVOLVE_BLOCK samples and equals this byte for byte on an
    input of at most one block.
    """
    if len(ir) == 0:
        raise ValueError("empty impulse response")
    out = fftconvolve(w.samples, ir.samples)[: len(w)]
    peak_in = w.peak
    peak_out = float(np.max(np.abs(out))) if out.size else 0.0
    if peak_out > 0.0 and peak_in > 0.0:
        out = out * (peak_in / peak_out)
    return Waveform(out, w.sample_rate)


# The whole-stream phase vocoder: the reference for augment.time_stretch,
# which reads the same frames a block at a time and overlap-adds each at once.
def _istft_overlap_add(frames: np.ndarray, length: int) -> np.ndarray:
    n_frames = frames.shape[0]
    total = (n_frames - 1) * DEFAULT_HOP + DEFAULT_WINDOW
    acc = np.zeros(total)
    norm = np.zeros(total)
    for i in range(n_frames):
        chunk = np.fft.irfft(frames[i], n=DEFAULT_WINDOW)
        acc[i * DEFAULT_HOP : i * DEFAULT_HOP + DEFAULT_WINDOW] += chunk * HANN
        norm[i * DEFAULT_HOP : i * DEFAULT_HOP + DEFAULT_WINDOW] += HANN**2
    out = acc / np.maximum(norm, 1e-8)
    if out.shape[0] >= length:
        return out[:length]
    return np.concatenate([out, np.zeros(length - out.shape[0])])


def time_stretch(w: Waveform, factor: float) -> Waveform:
    """Phase-vocoder time stretch on the one STFT grid: factor > 1 speeds up, < 1 slows down.

    Pitch is preserved; output length is round(len(w) / factor). An input
    shorter than one hop (DEFAULT_HOP samples) has one frame, so no output
    frame is made and it returns round(len(w) / factor) zeros, where
    augment.time_stretch raises.
    """
    if factor <= 0:
        raise ValueError(f"stretch factor must be positive, got {factor}")
    x = w.samples
    if x.shape[0] == 0:
        raise ValueError("empty input")
    target = max(1, round(x.shape[0] / factor))
    if factor == 1.0:
        return Waveform(x.copy(), w.sample_rate)

    spec = stft(Waveform(np.concatenate([x, np.zeros(DEFAULT_WINDOW)]), w.sample_rate)).frames
    steps = np.arange(0.0, spec.shape[0] - 1, factor)
    omega = 2.0 * np.pi * DEFAULT_HOP * np.arange(spec.shape[1]) / DEFAULT_WINDOW
    phase = np.angle(spec[0])
    out = np.empty((steps.shape[0], spec.shape[1]), dtype=np.complex128)
    for k, step in enumerate(steps):
        i = int(step)
        frac = step - i
        mag = (1.0 - frac) * np.abs(spec[i]) + frac * np.abs(spec[i + 1])
        out[k] = mag * np.exp(1j * phase)
        dphi = np.angle(spec[i + 1]) - np.angle(spec[i]) - omega
        dphi -= 2.0 * np.pi * np.round(dphi / (2.0 * np.pi))
        phase = phase + omega + dphi
    return Waveform(_istft_overlap_add(out, target), w.sample_rate)


def make_noise_pool(n: int, duration_s: float, sample_rate: int, seed: int) -> tuple[Waveform, ...]:
    """The colored-noise pool with scipy.signal.lfilter, one row at a time: the
    reference for augment.make_noise_pool, whose augment.one_pole runs the rows'
    chunks side by side and equals lfilter byte for byte."""
    rng = np.random.default_rng(seed)
    pool = []
    length = int(duration_s * sample_rate)
    for _ in range(n):
        white = rng.standard_normal(length)
        alpha = float(rng.uniform(0.0, 0.95))
        shaped = lfilter([1.0 - alpha], [1.0, -alpha], white)
        shaped /= max(np.max(np.abs(shaped)), 1e-12)
        pool.append(Waveform(0.5 * shaped, sample_rate))
    return tuple(pool)


def read_manifest(path: str | Path) -> list[tuple[int, float, float, str, float]]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            aid, start, dur, method, theta = line.split(",")
            records.append((int(aid), float(start), float(dur), method, float(theta)))
    return records


def max_pairwise_correlation(corpus: list[tuple[int, Waveform]]) -> float:
    """Largest |zero-lag Pearson correlation| over all audio pairs (common prefix)."""
    n = min(len(w.samples) for _, w in corpus)
    mat = np.stack([w.samples[:n] for _, w in corpus])
    corr = np.corrcoef(mat)
    off = corr[~np.eye(len(corpus), dtype=bool)]
    return float(np.max(np.abs(off))) if off.size else 0.0


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


# -- the model on the Tensor graph -----------------------------------------
#
# The layers and the contrastive loss as Tensor operations, each op a graph
# node with its own backward: the reference for vlafp.model's numpy forward
# (equal bytes), its hand-written backward (equal gradients within rounding)
# and vlafp.training.supcon_loss (equal value and gradient bytes).


def as_tensors(params: Parameters, requires_grad: bool = False) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=requires_grad) for k, v in params.items()}


def supcon_loss(
    fingerprints: Tensor, positive_sets: dict[int, list[int]], tau: float
) -> Tensor:
    """Multi-positive contrastive loss over a batch of unit fingerprints.

    For each anchor a: -(1/|P(a)|) sum over positives of
    log( exp(z_a . z_p / tau) / sum over b != a of exp(z_a . z_b / tau) ).
    Returns the scalar sum over anchors; gradients flow to all fingerprints.
    """
    n = fingerprints.shape[0]
    if not positive_sets:
        raise ValueError("no anchors given")
    pos_mask = np.zeros((n, n))
    anchor_mask = np.zeros(n)
    counts = np.ones(n)
    for a, pos in positive_sets.items():
        if len(pos) == 0:
            raise ValueError(f"anchor {a} has an empty positive set")
        if a in pos:
            raise ValueError(f"anchor {a} lists itself as a positive")
        anchor_mask[a] = 1.0
        counts[a] = float(len(pos))
        for p in pos:
            pos_mask[a, p] = 1.0

    sims = (fingerprints @ fingerprints.T) * (1.0 / tau)
    shift = Tensor(sims.data.max(axis=-1, keepdims=True))
    expd = (sims - shift).exp() * Tensor(1.0 - np.eye(n))
    log_denom = expd.sum(axis=-1).log() + shift.reshape(n)
    pos_mean = (sims * Tensor(pos_mask)).sum(axis=-1) * Tensor(1.0 / counts)
    return ((log_denom - pos_mean) * Tensor(anchor_mask)).sum()


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)

    def backward(g):
        if x.requires_grad:
            x._accum(g * 0.5 / out)

    return Tensor._result(out, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    out = expit(x.data)

    def backward(g):
        if x.requires_grad:
            x._accum(g * out * (1.0 - out))

    return Tensor._result(out, (x,), backward)


def silu(x: Tensor) -> Tensor:
    return x * sigmoid(x)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Shift-stable softmax over the last axis, fused forward and backward."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    y = np.exp(shifted)
    y /= y.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            dot = (g * y).sum(axis=-1, keepdims=True)
            x._accum(y * (g - dot))

    return Tensor._result(y, (x,), backward)


def rms_norm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """x / sqrt(mean(x^2) + eps) over the last axis, scaled by gain."""
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x / sqrt(ms + eps) * gain


def multi_head_attention(
    q_in: Tensor,
    kv_in: Tensor,
    tp: dict[str, Tensor],
    prefix: str,
    n_heads: int,
    d_head: int,
) -> Tensor:
    """softmax(QK^T / sqrt(d_head)) V per head, heads concatenated, then W_O.

    q_in and kv_in may be 2-D (rows x dim) or batched 3-D. The per-head
    projections run as one matmul each, then split into a head axis.
    """
    scale = 1.0 / math.sqrt(d_head)
    wq = concat([tp[f"{prefix}.wq.{h}"] for h in range(n_heads)], axis=1)
    wk = concat([tp[f"{prefix}.wk.{h}"] for h in range(n_heads)], axis=1)
    wv = concat([tp[f"{prefix}.wv.{h}"] for h in range(n_heads)], axis=1)

    def split_heads(x: Tensor) -> Tensor:
        # (..., rows, H*dh) -> (..., H, rows, dh)
        return x.reshape(*x.shape[:-1], n_heads, d_head).swapaxes(-3, -2)

    q = split_heads(q_in @ wq)
    k = split_heads(kv_in @ wk)
    v = split_heads(kv_in @ wv)
    logits = (q @ k.swapaxes(-1, -2)) * scale
    att = softmax_lastdim(logits) @ v
    merged = att.swapaxes(-3, -2)
    merged = merged.reshape(*merged.shape[:-2], n_heads * d_head)
    return merged @ tp[f"{prefix}.wo"]


def ffn(x: Tensor, w1: Tensor, w2: Tensor, w3: Tensor) -> Tensor:
    """Gated feedforward: (SiLU(x W1) * (x W3)) W2."""
    return (silu(x @ w1) * (x @ w3)) @ w2


def block_frames(
    h_prev: Tensor,
    tp: dict[str, Tensor],
    block: int,
    cfg: ModelConfig,
) -> Tensor:
    """Pre-norm residual frame update: self-attention then gated FFN."""
    normed = rms_norm(h_prev, tp[f"block{block}.attn_norm.gain"], cfg.eps)
    h = h_prev + multi_head_attention(
        normed, normed, tp, f"block{block}.attn", cfg.n_heads, cfg.d_head
    )
    h_t = h + ffn(
        rms_norm(h, tp[f"block{block}.ffn_norm.gain"], cfg.eps),
        tp[f"block{block}.ffn.w1"],
        tp[f"block{block}.ffn.w2"],
        tp[f"block{block}.ffn.w3"],
    )
    return h_t


def seg_init(h1: Tensor, tp: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Mean-pool each segment of an (n, L, d) stack, project once per head: (n, H, d).

    The mean is a matmul with a 1/L pooling row, not a sum and a divide:
    retraining bench/desk.vlfp reproduces it bit for bit only with this
    rounding (`bench/make_checkpoint.py --check`).
    """
    n, length, _ = h1.shape
    pooled = Tensor(np.full((n, 1, length), 1.0 / length)) @ h1  # (n, 1, d)
    return concat([pooled @ tp[f"seg_init.ws.{h}"] for h in range(cfg.n_heads)], axis=1)


def cross_attention_block(
    s_prev: Tensor,
    frames: Tensor,
    tp: dict[str, Tensor],
    block: int,
    cfg: ModelConfig,
) -> Tensor:
    """Segment embeddings attend to frames; a single residual addition."""
    q = rms_norm(s_prev, tp[f"block{block}.cross_qnorm.gain"], cfg.eps)
    kv = rms_norm(frames, tp[f"block{block}.cross_kvnorm.gain"], cfg.eps)
    return s_prev + multi_head_attention(q, kv, tp, f"block{block}.cross", cfg.n_heads, cfg.d_head)


def l2_normalize(x: Tensor) -> Tensor:
    norm = (x * x).sum() + 1e-24
    return x / sqrt(norm)


def forward_stack(x: np.ndarray, tp: dict[str, Tensor], cfg: ModelConfig) -> list[Tensor]:
    """Forward n equal-length segments stacked as (n, L, F); one unit vector each."""
    h = Tensor(x) @ tp["w0"] + tp["b0"]
    s = None
    for block in range(cfg.n_blocks):
        h = block_frames(h, tp, block, cfg)
        if block == 0:
            s = seg_init(h, tp, cfg)
        s = cross_attention_block(s, h, tp, block, cfg)
    s = s.mean(axis=1)
    return [l2_normalize(s[i]) for i in range(x.shape[0])]


def batch_forward(
    batch: PackedBatch, tp: dict[str, Tensor], cfg: ModelConfig
) -> list[Tensor]:
    """Forward every segment of a packed batch; fingerprint Tensors in batch order.

    Segments of equal length run together as one (n, L, F) stack, so no
    attention crosses a segment boundary and nothing needs a mask. A stack
    whose self-attention would exceed MAX_ATTENTION_CELLS runs in chunks.
    """
    groups: dict[int, list[int]] = {}  # length -> segment indices
    for i, mel in enumerate(batch.mels):
        groups.setdefault(mel.shape[0], []).append(i)
    out: list[Tensor] = [None] * batch.n_segments
    for length, members in groups.items():
        per_chunk = max(1, MAX_ATTENTION_CELLS // (length * length))
        for start in range(0, len(members), per_chunk):
            chunk = members[start : start + per_chunk]
            x = np.stack([batch.mels[i] for i in chunk])
            for i, z in zip(chunk, forward_stack(x, tp, cfg)):
                out[i] = z
    return out


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


# -- the store-everything training tape ------------------------------------
#
# vlafp.model's forward and backward as they were when every layer kept each
# array its backward reads (q, k, v and the merged heads of an attention,
# SiLU and the gated hidden of an FFN) and the backward popped from copies of
# the tapes, so it could run more than once. Kept verbatim as the byte
# reference for the tape that keeps only what cannot be rebuilt; only the
# entry point is renamed, from fingerprint_batch_forward.


def _rms_norm(x: np.ndarray, gain: np.ndarray, eps: float, tape: list | None) -> np.ndarray:
    """x / sqrt(mean(x^2) + eps) over the last axis, scaled by gain."""
    r = np.sqrt((x * x).sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1]) + eps)
    xhat = x / r
    if tape is not None:
        tape.append((xhat, r))
    return xhat * gain


def _rms_norm_backward(dy, w, name, tape, grads):
    xhat, r = tape.pop()
    grads[name] += _rows(dy * xhat).sum(axis=0)
    dxhat = dy * w[name]
    return (dxhat - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / r


def _attention(q_in, kv_in, w: Parameters, prefix: str, cfg: ModelConfig, tape: list | None) -> np.ndarray:
    """softmax(QK^T / sqrt(d_head)) V per head, heads merged, then W_O.

    q_in is (n, Rq, d) and kv_in (n, Rk, d); each head is a (n, H, rows,
    d_head) view of one fused projection.
    """
    n_heads, d_head = cfg.n_heads, cfg.d_head

    def split(x):  # (n, rows, H*dh) -> (n, H, rows, dh)
        return x.reshape(*x.shape[:-1], n_heads, d_head).swapaxes(-3, -2)

    q = split(q_in @ w[f"{prefix}.wq"])
    k = split(kv_in @ w[f"{prefix}.wk"])
    v = split(kv_in @ w[f"{prefix}.wv"])
    logits = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_head))
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    att = (p @ v).swapaxes(-3, -2)
    merged = att.reshape(*att.shape[:-2], n_heads * d_head)
    if tape is not None:
        tape.append((q_in, kv_in, q, k, v, p, merged))
    return merged @ w[f"{prefix}.wo"]


def _attention_backward(dout, w, prefix, cfg, tape, grads):
    """Gradients of the query and the key/value inputs of _attention."""
    q_in, kv_in, q, k, v, p, merged = tape.pop()
    n_heads, d_head = cfg.n_heads, cfg.d_head

    def merge(x):  # (n, H, rows, dh) -> (n, rows, H*dh)
        x = x.swapaxes(-3, -2)
        return x.reshape(*x.shape[:-2], n_heads * d_head)

    grads[f"{prefix}.wo"] += _rows(merged).T @ _rows(dout)
    datt = dout @ w[f"{prefix}.wo"].T
    datt = datt.reshape(*datt.shape[:-1], n_heads, d_head).swapaxes(-3, -2)
    dp = datt @ v.swapaxes(-1, -2)
    dv = merge(p.swapaxes(-1, -2) @ datt)
    dlogits = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * (1.0 / math.sqrt(d_head))
    dq = merge(dlogits @ k)
    dk = merge(dlogits.swapaxes(-1, -2) @ q)
    grads[f"{prefix}.wq"] += _rows(q_in).T @ _rows(dq)
    grads[f"{prefix}.wk"] += _rows(kv_in).T @ _rows(dk)
    grads[f"{prefix}.wv"] += _rows(kv_in).T @ _rows(dv)
    dq_in = dq @ w[f"{prefix}.wq"].T
    dkv_in = dk @ w[f"{prefix}.wk"].T + dv @ w[f"{prefix}.wv"].T
    return dq_in, dkv_in


def _ffn(x: np.ndarray, w: Parameters, prefix: str, tape: list | None) -> np.ndarray:
    """Gated feedforward: (SiLU(x W1) * (x W3)) W2."""
    u = x @ w[f"{prefix}.w1"]
    gate = expit(u)
    silu = u * gate
    lin = x @ w[f"{prefix}.w3"]
    hidden = silu * lin
    if tape is not None:
        tape.append((x, u, gate, silu, lin, hidden))
    return hidden @ w[f"{prefix}.w2"]


def _ffn_backward(dout, w, prefix, tape, grads):
    x, u, gate, silu, lin, hidden = tape.pop()
    grads[f"{prefix}.w2"] += _rows(hidden).T @ _rows(dout)
    dhidden = dout @ w[f"{prefix}.w2"].T
    du = dhidden * lin * gate * (1.0 + u * (1.0 - gate))
    dlin = dhidden * silu
    grads[f"{prefix}.w1"] += _rows(x).T @ _rows(du)
    grads[f"{prefix}.w3"] += _rows(x).T @ _rows(dlin)
    return du @ w[f"{prefix}.w1"].T + dlin @ w[f"{prefix}.w3"].T


def _block_frames(h_prev: np.ndarray, w: Parameters, block: int, cfg: ModelConfig, tape: list | None):
    """Pre-norm residual frame update: self-attention then gated FFN."""
    p = f"block{block}"
    normed = _rms_norm(h_prev, w[f"{p}.attn_norm.gain"], cfg.eps, tape)
    h = h_prev + _attention(normed, normed, w, f"{p}.attn", cfg, tape)
    return h + _ffn(_rms_norm(h, w[f"{p}.ffn_norm.gain"], cfg.eps, tape), w, f"{p}.ffn", tape)


def _block_frames_backward(dh_out, w, block, cfg, tape, grads):
    p = f"block{block}"
    dnormed = _ffn_backward(dh_out, w, f"{p}.ffn", tape, grads)
    dh = dh_out + _rms_norm_backward(dnormed, w, f"{p}.ffn_norm.gain", tape, grads)
    dq_in, dkv_in = _attention_backward(dh, w, f"{p}.attn", cfg, tape, grads)
    return dh + _rms_norm_backward(dq_in + dkv_in, w, f"{p}.attn_norm.gain", tape, grads)


def _seg_init(h1: np.ndarray, w: Parameters, cfg: ModelConfig, tape: list | None) -> np.ndarray:
    """Mean-pool each segment of an (n, L, d) stack, project once per head: (n, H, d).

    The mean is a matmul with a 1/L pooling row, not a sum and a divide:
    retraining bench/desk.vlfp reproduces it bit for bit only with this
    rounding (`bench/make_checkpoint.py --check`).
    """
    n, length, _ = h1.shape
    pooled = np.full((n, 1, length), 1.0 / length) @ h1  # (n, 1, d)
    if tape is not None:
        tape.append((pooled, length))
    return np.concatenate([pooled @ w[f"seg_init.ws.{h}"] for h in range(cfg.n_heads)], axis=1)


def _seg_init_backward(ds, w, cfg, tape, grads):
    pooled, length = tape.pop()
    dpooled = 0.0
    for h in range(cfg.n_heads):
        grads[f"seg_init.ws.{h}"] += pooled[:, 0].T @ ds[:, h]
        dpooled = dpooled + ds[:, h : h + 1] @ w[f"seg_init.ws.{h}"].T
    return np.broadcast_to(dpooled * (1.0 / length), (ds.shape[0], length, ds.shape[2]))


def _cross_block(s_prev, frames, w: Parameters, block: int, cfg: ModelConfig, tape: list | None):
    """Segment embeddings attend to frames; a single residual addition."""
    p = f"block{block}"
    q = _rms_norm(s_prev, w[f"{p}.cross_qnorm.gain"], cfg.eps, tape)
    kv = _rms_norm(frames, w[f"{p}.cross_kvnorm.gain"], cfg.eps, tape)
    return s_prev + _attention(q, kv, w, f"{p}.cross", cfg, tape)


def _cross_block_backward(ds_out, w, block, cfg, tape, grads):
    """Gradients of the segment embeddings and of the frames."""
    p = f"block{block}"
    dq, dkv = _attention_backward(ds_out, w, f"{p}.cross", cfg, tape, grads)
    dframes = _rms_norm_backward(dkv, w, f"{p}.cross_kvnorm.gain", tape, grads)
    return ds_out + _rms_norm_backward(dq, w, f"{p}.cross_qnorm.gain", tape, grads), dframes


def _forward_stack(x: np.ndarray, w: Parameters, cfg: ModelConfig, tape: list | None = None) -> np.ndarray:
    """Forward n equal-length segments stacked as (n, L, F): (n, d) unit fingerprints.

    w holds head-fused weights (_fuse_heads). Given a tape, the forward
    pushes onto it what _backward_stack pops.
    """
    if tape is not None:
        tape.append(x)
    h = x @ w["w0"] + w["b0"]
    for block in range(cfg.n_blocks):
        h = _block_frames(h, w, block, cfg, tape)
        if block == 0:
            s = _seg_init(h, w, cfg, tape)
        s = _cross_block(s, h, w, block, cfg, tape)
    mean = s.sum(axis=1) * (1.0 / s.shape[1])
    norm = np.sqrt((mean * mean).sum(axis=-1, keepdims=True) + 1e-24)
    z = mean / norm
    if tape is not None:
        tape.append((z, norm))
    return z


def _backward_stack(dz: np.ndarray, w: Parameters, cfg: ModelConfig, tape: list, grads: Parameters) -> None:
    """Add one stack's weight gradients into grads, given dz = d(objective)/d(fingerprints)."""
    z, norm = tape.pop()
    dmean = (dz - z * (dz * z).sum(axis=-1, keepdims=True)) / norm
    ds = np.broadcast_to((dmean * (1.0 / cfg.n_heads))[:, None], (dz.shape[0], cfg.n_heads, cfg.d))
    dh = 0.0
    for block in reversed(range(cfg.n_blocks)):
        ds, dframes = _cross_block_backward(ds, w, block, cfg, tape, grads)
        dh = dh + dframes
        if block == 0:
            dh = dh + _seg_init_backward(ds, w, cfg, tape, grads)
        dh = _block_frames_backward(dh, w, block, cfg, tape, grads)
    x = tape.pop()
    grads["w0"] += _rows(x).T @ _rows(dh)
    grads["b0"] += _rows(dh).sum(axis=0)


def _stacks(batch: PackedBatch):
    """(segment indices, (n, L, F) stack) for each group of equal-length mels.

    A group whose self-attention would exceed MAX_ATTENTION_CELLS comes in
    chunks, so no attention crosses a segment boundary and nothing needs a
    mask.
    """
    groups: dict[int, list[int]] = {}  # length -> segment indices
    for i, mel in enumerate(batch.mels):
        groups.setdefault(mel.shape[0], []).append(i)
    for length, members in groups.items():
        per_chunk = max(1, MAX_ATTENTION_CELLS // (length * length))
        for start in range(0, len(members), per_chunk):
            chunk = members[start : start + per_chunk]
            yield chunk, np.stack([batch.mels[i] for i in chunk])


def _forward_batch(batch: PackedBatch, w: Parameters, cfg: ModelConfig, tapes: list | None = None) -> np.ndarray:
    """(n_segments, d) unit fingerprints in batch order, forwarded stack by stack.

    Given tapes, appends one (segment indices, tape) pair per stack.
    """
    z = np.empty((batch.n_segments, cfg.d))
    for chunk, x in _stacks(batch):
        tape = None if tapes is None else []
        z[chunk] = _forward_stack(x, w, cfg, tape)
        if tapes is not None:
            tapes.append((chunk, tape))
    return z


def store_everything_forward(batch: PackedBatch, params: Parameters, cfg: ModelConfig):
    """Training forward of a packed batch: (z, backward).

    z is the (n_segments, d) fingerprints in batch order. backward(dz), given
    dz = d(objective)/dz, runs _backward_stack over every stack and returns
    the gradient of every parameter under its per-head name.
    """
    w = _fuse_heads(params, cfg)
    tapes: list = []
    z = _forward_batch(batch, w, cfg, tapes)

    def backward(dz: np.ndarray) -> Parameters:
        grads = {name: np.zeros_like(v) for name, v in w.items()}
        for chunk, tape in tapes:  # pop from a copy: backward may run more than once
            _backward_stack(dz[chunk], w, cfg, list(tape), grads)
        return _split_heads(grads, cfg)

    return z, backward


def segment_waveform_span(w, seg):
    """Samples backing a segment (frame-grid spans include the analysis tail).

    The earlier training path, kept as a reference: a frame-grid span runs
    from the first frame's start to the last frame's end on the one STFT grid.
    """
    if seg.frame_indices is not None:
        first, last = seg.frame_indices[0], seg.frame_indices[-1]
        start = first * DEFAULT_HOP
        n = (last - first) * DEFAULT_HOP + DEFAULT_WINDOW
        return w.slice_samples(start, n)
    return w.slice_samples(seg.start_sample, seg.n_samples)


def span_mel(w, seg, mel_cfg):
    """The mel of a segment's re-sliced span, clamped against the span's own maximum.

    Equals the segment's mel for contiguous segments and fixed windows.
    """
    return mel_spectrogram(segment_waveform_span(w, seg), mel_cfg).data
