"""Time-frequency front end: STFT, spectral entropy, mel spectrogram, dB levels."""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .audio import Waveform

# The one STFT frame grid: segment frame indices, mel rows and training
# rows all refer to it.
DEFAULT_WINDOW = 1024
DEFAULT_HOP = 256
# Mel band edges (Hz) and the dB range kept below each mel's maximum.
MEL_FMIN = 300.0
MEL_FMAX = 4000.0
MEL_DYNAMIC_RANGE_DB = 80.0
# Frames per block of every pass over a stream (entropy series, frame levels,
# time stretch), so that no temporary grows with the stream.
ANALYSIS_BLOCK_FRAMES = 512
# Equal-width |amplitude| bins of the waveform-entropy histogram.
WAVEFORM_ENTROPY_BINS = 64
EPS = 1e-12
SILENT_DB = -np.inf


@dataclass(frozen=True)
class StftFrames:
    """Complex STFT frames on the one grid, one row per frame (DEFAULT_WINDOW//2 + 1 bins)."""

    frames: np.ndarray
    sample_rate: int

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_bins(self) -> int:
        return self.frames.shape[1]

    def select(self, rows) -> "StftFrames":
        """The frames at the given row indices, in that order."""
        return replace(self, frames=self.frames[np.asarray(rows, dtype=np.intp)])

    def power(self) -> np.ndarray:
        return np.abs(self.frames) ** 2


@dataclass(frozen=True)
class MelConfig:
    """Mel front-end settings; the frame grid and band edges are fixed constants."""

    n_mels: int = 256


@dataclass(frozen=True)
class MelSpectrogram:
    """T x F log-power (dB) mel matrix, clamped to its top MEL_DYNAMIC_RANGE_DB."""

    data: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]


# The grid's periodic Hann window, constant-overlap-add at 75% overlap; built
# once and read-only, for stft and the time-stretch resynthesis alike.
HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(DEFAULT_WINDOW) / DEFAULT_WINDOW)
HANN.flags.writeable = False


def frame_count(n: int) -> int:
    """Number of full analysis frames in n samples; sub-window input yields one padded frame."""
    if n < DEFAULT_WINDOW:
        return 1
    return (n - DEFAULT_WINDOW) // DEFAULT_HOP + 1


def frame_span(w: Waveform, first: int, count: int) -> Waveform:
    """The samples under frames first..first+count-1 of w's grid, zero-padded past its end."""
    return w.slice_samples(first * DEFAULT_HOP, (count - 1) * DEFAULT_HOP + DEFAULT_WINDOW)


def stft(w: Waveform) -> StftFrames:
    """Short-time Fourier transform with a Hann window, on the one grid.

    Frame i covers samples [i*DEFAULT_HOP, i*DEFAULT_HOP + DEFAULT_WINDOW);
    no centering. Input shorter than one window is zero-padded to a single frame.
    """
    x = w.samples
    if x.shape[0] == 0:
        raise ValueError("empty input")
    if x.shape[0] < DEFAULT_WINDOW:
        x = np.concatenate([x, np.zeros(DEFAULT_WINDOW - x.shape[0])])
    frames = np.lib.stride_tricks.sliding_window_view(x, DEFAULT_WINDOW)[::DEFAULT_HOP]
    frames = frames * HANN
    return StftFrames(np.fft.rfft(frames, axis=1), w.sample_rate)


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


def spectral_entropies(frames: StftFrames) -> np.ndarray:
    """Per-frame spectral entropy, vectorized over all frames.

    Frames below EPS total power score 0, which sets segmentation's level
    floor: on the first 8 desk audios, gains of 1e-4 to 1e3 move no segment,
    but at 1e-5 (-100 dB) or 1e-6 (-120 dB) `main` and `pelt` change on 8/8
    audios and `nosilence` on 2/8 and 3/8.
    """
    p = frames.power()
    totals = p.sum(axis=1)
    out = np.zeros(p.shape[0])
    live = totals >= EPS
    if np.any(live):
        q = p[live] / totals[live, None]
        plogp = np.where(q > 0, q * np.log(np.where(q > 0, q, 1.0)), 0.0)
        out[live] = -plogp.sum(axis=1)
    return out


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    n_mels: int, n_fft: int, sample_rate: int, fmin: float, fmax: float
) -> np.ndarray:
    """HTK-style triangular filterbank, area-unnormalized, (n_mels, n_fft//2+1).

    Every filter's support lies strictly within [fmin, fmax]; centers are
    strictly increasing on the mel scale.
    """
    if not (0 <= fmin < fmax <= sample_rate / 2):
        raise ValueError(f"need 0 <= fmin < fmax <= nyquist, got {fmin}, {fmax}")
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    lo, ctr, hi = edges_hz[:-2], edges_hz[1:-1], edges_hz[2:]
    up = (bin_freqs[None, :] - lo[:, None]) / np.maximum(ctr - lo, EPS)[:, None]
    down = (hi[:, None] - bin_freqs[None, :]) / np.maximum(hi - ctr, EPS)[:, None]
    return np.maximum(0.0, np.minimum(up, down))


@functools.lru_cache(maxsize=16)
def _shared_mel_filterbank(n_mels: int, sample_rate: int) -> np.ndarray:
    """The MEL_FMIN..MEL_FMAX filterbank on the grid's bins, built once per shape and read-only."""
    fb = mel_filterbank(n_mels, DEFAULT_WINDOW, sample_rate, MEL_FMIN, MEL_FMAX)
    fb.flags.writeable = False
    return fb


def mel_from_frames(frames: StftFrames, cfg: MelConfig) -> MelSpectrogram:
    """Apply the mel filterbank and dB conversion to existing STFT frames.

    The dB range is clamped against these frames' own maximum, so a
    segment's mel is this function of its selected rows alone.
    """
    fb = _shared_mel_filterbank(cfg.n_mels, frames.sample_rate)
    mel_power = frames.power() @ fb.T
    db = 10.0 * np.log10(mel_power + EPS)
    db = np.maximum(db, db.max() - MEL_DYNAMIC_RANGE_DB)
    return MelSpectrogram(db)


def mel_spectrogram(w: Waveform, cfg: MelConfig = MelConfig()) -> MelSpectrogram:
    """Log-mel spectrogram (T x F), dB, clamped to the top MEL_DYNAMIC_RANGE_DB."""
    if len(w) < DEFAULT_HOP:
        raise ValueError(f"waveform shorter than one hop ({DEFAULT_HOP} samples)")
    return mel_from_frames(stft(w), cfg)


def frame_rms_db(w: Waveform) -> np.ndarray:
    """Per-hop RMS in dB relative to the waveform's peak absolute sample.

    Non-overlapping frames of DEFAULT_HOP samples (trailing partial frame
    included), so there are never fewer levels than STFT frames. Zero
    frames and all-zero input map to -inf (silent).
    """
    x = w.samples
    n = max(1, int(np.ceil(x.shape[0] / DEFAULT_HOP)))
    peak = w.peak
    out = np.full(n, SILENT_DB)
    if peak == 0.0:
        return out
    n_full = x.shape[0] // DEFAULT_HOP
    # A row mean sums each frame exactly as a mean over that frame alone.
    ms = np.empty(n)
    for s in range(0, n_full, ANALYSIS_BLOCK_FRAMES):
        e = min(s + ANALYSIS_BLOCK_FRAMES, n_full)
        ms[s:e] = np.mean(x[s * DEFAULT_HOP : e * DEFAULT_HOP].reshape(e - s, DEFAULT_HOP) ** 2, axis=1)
    if n > n_full:
        ms[n_full] = np.mean(x[n_full * DEFAULT_HOP :] ** 2)
    rms = np.sqrt(ms)
    live = rms > 0.0
    out[live] = 20.0 * np.log10(rms[live] / peak)
    return out


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


def waveform_entropies(chunks: np.ndarray) -> np.ndarray:
    """waveform_entropy of every row of a (frames, samples) matrix, bit for bit.

    Each row is binned by np.histogram's uniform-bin rule (index from the
    scaled offset, the right edge folded into the last bin, then one step of
    correction against the linspace edges) and all rows are counted in one
    bincount. Rows are reduced in groups of equal non-empty-bin count, so
    each row's entropy is summed in the same order as the scalar call.
    """
    a = np.abs(np.asarray(chunks, dtype=np.float64))
    if a.ndim != 2 or a.shape[1] == 0:
        raise ValueError(f"need a non-empty (frames, samples) matrix, got shape {a.shape}")
    lo, hi = a.min(axis=1), a.max(axis=1)
    if not np.all(np.isfinite(hi)):
        raise ValueError("non-finite samples")
    out = np.zeros(a.shape[0])
    live = np.flatnonzero(hi - lo >= EPS)
    if live.size == 0:
        return out
    a, lo, hi = a[live], lo[live], hi[live]
    n_bins = WAVEFORM_ENTROPY_BINS
    edges = np.linspace(lo, hi, n_bins + 1, axis=1)
    idx = (((a - lo[:, None]) / (hi - lo)[:, None]) * n_bins).astype(np.intp)
    idx[idx == n_bins] -= 1
    idx[a < np.take_along_axis(edges, idx, axis=1)] -= 1
    idx[(a >= np.take_along_axis(edges, idx + 1, axis=1)) & (idx != n_bins - 1)] += 1
    rows = np.arange(live.size)[:, None]
    counts = np.bincount((rows * n_bins + idx).ravel(), minlength=live.size * n_bins)
    counts = counts.reshape(live.size, n_bins)
    filled = counts > 0
    n_filled = filled.sum(axis=1)
    for k in np.unique(n_filled):
        group = np.flatnonzero(n_filled == k)
        p = counts[group][filled[group]].reshape(group.size, k) / a.shape[1]
        out[live[group]] = -(p * np.log(p)).sum(axis=1)
    return out
