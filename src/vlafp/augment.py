"""Distortion chain for positives and query simulation: TS -> BG -> IR."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft
from scipy.signal import lfilter

from .audio import Waveform
from .dsp import ANALYSIS_BLOCK_FRAMES, DEFAULT_HOP, DEFAULT_WINDOW, HANN, frame_count, frame_span, stft

# convolve_ir's input block: 16.4 s at 8 kHz, so training items and DTR queries of the
# default durations are one block each.
CONVOLVE_BLOCK = 2**17


@dataclass(frozen=True)
class AugmentConfig:
    """The chain's settings: TS runs when enabled, BG and IR when their pool is non-empty."""

    enable_ts: bool = True
    ts_range: tuple[float, float] = (0.8, 1.2)
    snr_range_db: tuple[float, float] = (1.0, 10.0)
    bg_pool: tuple[Waveform, ...] = ()
    ir_pool: tuple[Waveform, ...] = ()

    def __post_init__(self):
        lo, hi = self.ts_range
        if not (0 < lo <= hi < np.inf):
            raise ValueError(f"need 0 < ts_range low <= high < inf, got {self.ts_range}")
        lo, hi = self.snr_range_db
        if not (-np.inf < lo <= hi < np.inf):
            raise ValueError(f"need finite snr_range_db low <= high, got {self.snr_range_db}")


def time_stretch(w: Waveform, factor: float) -> Waveform:
    """Phase-vocoder time stretch on the one STFT grid: factor > 1 speeds up, < 1 slows down.

    Pitch is preserved; output length is round(len(w) / factor), and the
    input must hold at least one hop (DEFAULT_HOP samples). Output
    frame k interpolates frames floor(k*factor) and floor(k*factor)+1 of w
    followed by one window of silence, read in blocks of
    ANALYSIS_BLOCK_FRAMES (at least 2) frames, and is overlap-added as soon
    as it is made, so no whole-stream spectrum is held.
    """
    if factor <= 0:
        raise ValueError(f"stretch factor must be positive, got {factor}")
    x = w.samples
    if x.shape[0] < DEFAULT_HOP:
        raise ValueError(f"input of {x.shape[0]} samples is shorter than one hop ({DEFAULT_HOP} samples)")
    target = max(1, round(x.shape[0] / factor))
    if factor == 1.0:
        return Waveform(x.copy(), w.sample_rate)

    n_frames = frame_count(len(w) + DEFAULT_WINDOW)

    def block(first: int) -> np.ndarray:
        return stft(frame_span(w, first, min(ANALYSIS_BLOCK_FRAMES, n_frames - first))).frames

    steps = np.arange(0.0, n_frames - 1, factor)
    total = (steps.shape[0] - 1) * DEFAULT_HOP + DEFAULT_WINDOW
    acc = np.zeros(max(target, total))
    norm = np.zeros_like(acc)
    omega = 2.0 * np.pi * DEFAULT_HOP * np.arange(DEFAULT_WINDOW // 2 + 1) / DEFAULT_WINDOW
    first, spec = 0, block(0)
    phase = np.angle(spec[0])
    for k, step in enumerate(steps):
        i = int(step)
        if i + 1 >= first + spec.shape[0]:
            first, spec = i, block(i)
        a, b = spec[i - first], spec[i + 1 - first]
        frac = step - i
        mag = (1.0 - frac) * np.abs(a) + frac * np.abs(b)
        at = k * DEFAULT_HOP
        acc[at : at + DEFAULT_WINDOW] += np.fft.irfft(mag * np.exp(1j * phase), n=DEFAULT_WINDOW) * HANN
        norm[at : at + DEFAULT_WINDOW] += HANN**2
        dphi = np.angle(b) - np.angle(a) - omega
        dphi -= 2.0 * np.pi * np.round(dphi / (2.0 * np.pi))
        phase = phase + omega + dphi
    acc /= np.maximum(norm, 1e-8, out=norm)
    return Waveform(acc[:target], w.sample_rate)


def _noise_excerpt(noise: np.ndarray, length: int, rng: np.random.Generator) -> np.ndarray:
    if noise.shape[0] >= length:
        off = int(rng.integers(0, noise.shape[0] - length + 1))
        return noise[off : off + length]
    reps = int(np.ceil((length + noise.shape[0]) / noise.shape[0]))
    tiled = np.tile(noise, reps)
    off = int(rng.integers(0, noise.shape[0]))
    return tiled[off : off + length]


def mix_background(
    w: Waveform, noise: Waveform, snr_db: float, rng: np.random.Generator
) -> Waveform:
    """Add a noise excerpt scaled so signal/noise power hits snr_db exactly."""
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    excerpt = _noise_excerpt(noise.samples, len(w), rng)
    p_noise = float(np.mean(excerpt**2))
    if p_noise <= 0.0:
        raise ValueError("noise must be non-silent")
    p_signal = float(np.mean(w.samples**2))
    if p_signal <= 0.0:
        warnings.warn("silent signal: SNR undefined, returning noise excerpt")
        return Waveform(excerpt.copy(), w.sample_rate)
    scale = np.sqrt(p_signal / (p_noise * 10.0 ** (snr_db / 10.0)))
    return Waveform(w.samples + scale * excerpt, w.sample_rate)


def convolve_ir(w: Waveform, ir: Waveform) -> Waveform:
    """Full linear convolution truncated to len(w), peak-matched to the input.

    The input is convolved in blocks of CONVOLVE_BLOCK samples, each one
    rfft/irfft pair at next_fast_len(len(block) + len(ir) - 1), and the
    blocks are overlap-added (Stockham 1966), so no buffer but the output
    grows with the input. An input of at most one block is one FFT at the
    length scipy.signal.fftconvolve picks, or, when the input or the IR is
    one sample, fftconvolve's product, so its bytes are fftconvolve's.
    """
    if len(ir) == 0:
        raise ValueError("empty impulse response")
    x, h = w.samples, ir.samples
    if min(len(x), len(h)) == 1:
        out = x * h[0]  # fftconvolve's own shortcut: a one-sample operand is a product
    else:
        out = np.empty(len(x))
        spectra: dict[int, np.ndarray] = {}
        filled = 0
        for start in range(0, len(x), CONVOLVE_BLOCK):
            block = x[start : start + CONVOLVE_BLOCK]
            n = sp_fft.next_fast_len(len(block) + len(h) - 1, True)
            if n not in spectra:
                spectra[n] = sp_fft.rfft(h, n)
            y = sp_fft.irfft(sp_fft.rfft(block, n) * spectra[n], n)
            stop = min(len(x), start + len(block) + len(h) - 1)
            out[start:filled] += y[: filled - start]
            out[filled:stop] = y[filled - start : stop - start]
            filled = stop
    result = Waveform(out, w.sample_rate)
    peak_in, peak_out = w.peak, result.peak
    if peak_out > 0.0 and peak_in > 0.0:
        out *= peak_in / peak_out  # in place: result holds out itself
    return result


@dataclass(frozen=True)
class ChainDraws:
    """Parameters drawn for one pass through the chain (None = stage not run)."""

    ts_factor: float | None = None
    bg_index: int | None = None
    snr_db: float | None = None
    ir_index: int | None = None


def augment_chain_with_draws(
    w: Waveform, cfg: AugmentConfig, rng: np.random.Generator
) -> tuple[Waveform, ChainDraws]:
    """Apply TS if enabled, then BG and IR if their pool is non-empty, drawing from
    rng in that order; a stage that does not run draws nothing."""
    out = w
    factor = bg_index = snr = ir_index = None
    if cfg.enable_ts:
        factor = float(rng.uniform(*cfg.ts_range))
        out = time_stretch(out, factor)
    if cfg.bg_pool:
        bg_index = int(rng.integers(0, len(cfg.bg_pool)))
        snr = float(rng.uniform(*cfg.snr_range_db))
        out = mix_background(out, cfg.bg_pool[bg_index], snr, rng)
    if cfg.ir_pool:
        ir_index = int(rng.integers(0, len(cfg.ir_pool)))
        out = convolve_ir(out, cfg.ir_pool[ir_index])
    return out, ChainDraws(factor, bg_index, snr, ir_index)


def make_noise_pool(
    n: int, duration_s: float, sample_rate: int, seed: int
) -> tuple[Waveform, ...]:
    """Synthetic colored-noise pool: white noise shaped by a random one-pole filter."""
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


def make_ir_pool(
    n: int, duration_s: float, sample_rate: int, seed: int
) -> tuple[Waveform, ...]:
    """Synthetic impulse responses: direct path + exponentially decaying tail."""
    rng = np.random.default_rng(seed)
    pool = []
    length = max(2, int(duration_s * sample_rate))
    t = np.arange(length)
    for _ in range(n):
        decay = float(rng.uniform(20.0, 200.0))
        tail = rng.standard_normal(length) * np.exp(-t / decay)
        tail[0] = 1.0
        pool.append(Waveform(tail / np.max(np.abs(tail)), sample_rate))
    return tuple(pool)
