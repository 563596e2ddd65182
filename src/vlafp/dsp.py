"""Time-frequency front end: STFT, spectral entropy, mel spectrogram, dB levels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .audio import Waveform

# The one STFT frame grid: segment frame indices, mel rows and training
# spans all refer to it.
DEFAULT_WINDOW = 1024
DEFAULT_HOP = 256
# Mel band edges (Hz) and the dB range kept below each mel's maximum.
MEL_FMIN = 300.0
MEL_FMAX = 4000.0
MEL_DYNAMIC_RANGE_DB = 80.0
EPS = 1e-12
SILENT_DB = -np.inf


@dataclass(frozen=True)
class StftFrames:
    """Complex STFT frames, one row per frame (window_size//2 + 1 bins)."""

    frames: np.ndarray
    window_size: int
    hop: int
    sample_rate: int

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_bins(self) -> int:
        return self.frames.shape[1]

    @property
    def frame_period(self) -> float:
        """Seconds advanced per frame."""
        return self.hop / self.sample_rate

    def power(self) -> np.ndarray:
        return np.abs(self.frames) ** 2


@dataclass(frozen=True)
class MelConfig:
    """Mel front-end settings; the frame grid and band edges are fixed constants."""

    n_mels: int = 256
    window_size: ClassVar[int] = DEFAULT_WINDOW
    hop: ClassVar[int] = DEFAULT_HOP


@dataclass(frozen=True)
class MelSpectrogram:
    """T x F log-power (dB) mel matrix, clamped to its top MEL_DYNAMIC_RANGE_DB."""

    data: np.ndarray
    n_mels: int
    fmin: float
    fmax: float
    hop: int
    sample_rate: int

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]


def hann_window(n: int) -> np.ndarray:
    # Periodic Hann, constant-overlap-add at 75% overlap.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_count(n_samples: int, window_size: int, hop: int) -> int:
    """Number of full analysis frames; sub-window input yields one padded frame."""
    if n_samples < window_size:
        return 1
    return (n_samples - window_size) // hop + 1


def stft(w: Waveform, window_size: int = DEFAULT_WINDOW, hop: int = DEFAULT_HOP) -> StftFrames:
    """Short-time Fourier transform with a Hann window.

    Frame i covers samples [i*hop, i*hop + window_size); no centering.
    Input shorter than one window is zero-padded to a single frame.
    """
    if not (window_size >= hop > 0):
        raise ValueError(f"need window_size >= hop > 0, got {window_size}, {hop}")
    x = w.samples
    if x.shape[0] == 0:
        raise ValueError("empty input")
    if x.shape[0] < window_size:
        x = np.concatenate([x, np.zeros(window_size - x.shape[0])])
    n = frame_count(x.shape[0], window_size, hop)
    idx = np.arange(window_size)[None, :] + hop * np.arange(n)[:, None]
    frames = x[idx] * hann_window(window_size)[None, :]
    return StftFrames(np.fft.rfft(frames, axis=1), window_size, hop, w.sample_rate)


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
    """Per-frame spectral entropy, vectorized over all frames."""
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


def mel_from_frames(frames: StftFrames, cfg: MelConfig) -> MelSpectrogram:
    """Apply the mel filterbank and dB conversion to existing STFT frames."""
    fb = mel_filterbank(cfg.n_mels, frames.window_size, frames.sample_rate, MEL_FMIN, MEL_FMAX)
    mel_power = frames.power() @ fb.T
    db = 10.0 * np.log10(mel_power + EPS)
    db = np.maximum(db, db.max() - MEL_DYNAMIC_RANGE_DB)
    return MelSpectrogram(db, cfg.n_mels, MEL_FMIN, MEL_FMAX, frames.hop, frames.sample_rate)


def mel_spectrogram(w: Waveform, cfg: MelConfig = MelConfig()) -> MelSpectrogram:
    """Log-mel spectrogram (T x F), dB, clamped to the top MEL_DYNAMIC_RANGE_DB."""
    if len(w) < DEFAULT_HOP:
        raise ValueError(f"waveform shorter than one hop ({DEFAULT_HOP} samples)")
    return mel_from_frames(stft(w), cfg)


def frame_rms_db(w: Waveform, frame_len: int) -> np.ndarray:
    """Per-frame RMS in dB relative to the waveform's peak absolute sample.

    Non-overlapping frames of frame_len samples (trailing partial frame
    included). Zero frames and all-zero input map to -inf (silent).
    """
    if frame_len <= 0:
        raise ValueError(f"frame_len must be positive, got {frame_len}")
    x = w.samples
    n = max(1, int(np.ceil(x.shape[0] / frame_len)))
    peak = w.peak
    out = np.full(n, SILENT_DB)
    if peak == 0.0:
        return out
    for i in range(n):
        chunk = x[i * frame_len : (i + 1) * frame_len]
        rms = np.sqrt(np.mean(chunk**2)) if chunk.size else 0.0
        if rms > 0.0:
            out[i] = 20.0 * np.log10(rms / peak)
    return out


def waveform_entropy(chunk: np.ndarray, n_bins: int = 64) -> float:
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
    counts, _ = np.histogram(a, bins=n_bins, range=(lo, hi))
    p = counts[counts > 0] / a.size
    return float(-(p * np.log(p)).sum())
