"""Deterministic synthetic audio so every test runs without external datasets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import DEFAULT_SAMPLE_RATE, Waveform

# Low-level dither keeps entropy statistics non-degenerate everywhere while
# staying ~20 dB below the No-Silence threshold.
FLOOR_STD = 1e-4


@dataclass(frozen=True)
class SynthSpec:
    n_audios: int = 50
    duration_range: tuple[float, float] = (10.0, 10.0)
    sample_rate: int = DEFAULT_SAMPLE_RATE
    recipe: str = "mixture"  # mixture | tone_noise | tone_silence
    seed: int = 7

    def __post_init__(self):
        if self.n_audios < 1:
            raise ValueError(f"n_audios must be >= 1, got {self.n_audios}")
        lo, hi = self.duration_range
        if not (0 < lo <= hi < np.inf):
            raise ValueError(f"need 0 < duration low <= high < inf, got {self.duration_range}")


@dataclass(frozen=True)
class _Signature:
    """Per-audio spectral identity: a base register plus partial ratios.

    Coarse spectral position survives heavy added noise, so anchoring each
    audio's events to its own frequency set keeps the corpus identifiable
    at one-second granularity even at low SNR.
    """

    freqs: tuple[float, ...]


def _tone(dur_s: float, fs: int, rng: np.random.Generator, sig: _Signature) -> np.ndarray:
    # The full signature chord sounds in every tonal event, so even short
    # excerpts carry the audio's identity.
    n = int(dur_s * fs)
    t = np.arange(n) / fs
    out = np.zeros(n)
    amp = rng.uniform(0.25, 0.5)
    vib_rate = rng.uniform(3.0, 7.0)
    for j, f in enumerate(sig.freqs):
        f0 = f * rng.uniform(0.995, 1.005)
        vib_depth = rng.uniform(0.002, 0.006) * f0
        inst_freq = f0 + vib_depth * np.sin(2 * np.pi * vib_rate * t + rng.uniform(0, 2 * np.pi))
        phase = 2 * np.pi * np.cumsum(inst_freq) / fs
        out += (amp / (1.0 + 0.7 * j)) * np.sin(phase + rng.uniform(0, 2 * np.pi))
    am = 1.0 + rng.uniform(0.1, 0.3) * np.sin(2 * np.pi * rng.uniform(1.0, 4.0) * t)
    return out * am


def _chirp(dur_s: float, fs: int, rng: np.random.Generator, sig: _Signature) -> np.ndarray:
    # Sweep between two signature frequencies with a base-drone underneath.
    n = int(dur_s * fs)
    t = np.arange(n) / fs
    f0 = float(rng.choice(sig.freqs)) * rng.uniform(0.98, 1.02)
    f1 = float(rng.choice(sig.freqs)) * rng.uniform(0.9, 1.1)
    phase = 2 * np.pi * (f0 * t + 0.5 * (f1 - f0) * t**2 / max(dur_s, 1e-9))
    drone = 0.4 * np.sin(2 * np.pi * sig.freqs[0] * t + rng.uniform(0, 2 * np.pi))
    return rng.uniform(0.25, 0.45) * (np.sin(phase) + drone)


def _noise_burst(dur_s: float, fs: int, rng: np.random.Generator, sig: _Signature) -> np.ndarray:
    # Band-limited around a signature frequency: identifiable even as noise.
    n = int(dur_s * fs)
    center = float(rng.choice(sig.freqs))
    half_bw = rng.uniform(80.0, 200.0)
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    spec[(freqs < center - half_bw) | (freqs > center + half_bw)] = 0.0
    shaped = np.fft.irfft(spec, n=n)
    shaped /= max(np.max(np.abs(shaped)), 1e-12)
    return rng.uniform(0.2, 0.45) * shaped


def _gap(dur_s: float, fs: int, rng: np.random.Generator, sig: _Signature) -> np.ndarray:
    return np.zeros(int(dur_s * fs))


_EVENTS = (_tone, _chirp, _noise_burst, _gap)
_EVENT_PROBS = (0.45, 0.25, 0.15, 0.15)


def _make_signature(index: int, n_audios: int, rng: np.random.Generator) -> _Signature:
    lo, hi = 240.0, 2400.0
    if n_audios == 1:
        base = np.sqrt(lo * hi)
    else:
        base = lo * (hi / lo) ** (index / (n_audios - 1))
    base *= rng.uniform(0.99, 1.01)
    ratios = [1.0, rng.uniform(1.25, 1.6), rng.uniform(1.9, 2.8)]
    freqs = tuple(min(base * r, 3600.0) for r in ratios)
    return _Signature(freqs)


def _mixture_audio(
    dur_s: float, fs: int, rng: np.random.Generator, sig: _Signature
) -> np.ndarray:
    parts = []
    remaining = dur_s
    while remaining > 1e-6:
        kind = int(rng.choice(len(_EVENTS), p=_EVENT_PROBS))
        # Gaps stay short so any one-second window keeps identifiable content.
        hi = 0.35 if _EVENTS[kind] is _gap else 1.2
        lo = 0.15 if _EVENTS[kind] is _gap else 0.5
        event_dur = min(float(rng.uniform(lo, hi)), remaining)
        parts.append(_EVENTS[kind](event_dur, fs, rng, sig))
        remaining -= event_dur
    return np.concatenate(parts) if parts else np.zeros(0)


def _alternation_audio(
    dur_s: float, fs: int, rng: np.random.Generator, second: str
) -> np.ndarray:
    parts = []
    remaining = dur_s
    use_tone = True
    period = 1.0
    freq = rng.uniform(400.0, 1200.0)
    while remaining > 1e-6:
        event_dur = min(period, remaining)
        n = int(event_dur * fs)
        if use_tone:
            t = np.arange(n) / fs
            parts.append(0.5 * np.sin(2 * np.pi * freq * t))
        elif second == "noise":
            parts.append(0.3 * rng.standard_normal(n))
        else:
            parts.append(np.zeros(n))
        use_tone = not use_tone
        remaining -= event_dur
    return np.concatenate(parts)


def generate(spec: SynthSpec) -> list[tuple[int, Waveform]]:
    """Reproducible corpus of mutually distinguishable audios, ids 0..n-1."""
    order = np.random.default_rng(np.random.SeedSequence((spec.seed, 0x516))).permutation(
        spec.n_audios
    )
    out = []
    for i in range(spec.n_audios):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, i)))
        dur = float(rng.uniform(*spec.duration_range))
        fs = spec.sample_rate
        if spec.recipe == "mixture":
            sig = _make_signature(int(order[i]), spec.n_audios, rng)
            x = _mixture_audio(dur, fs, rng, sig)
        elif spec.recipe == "tone_noise":
            x = _alternation_audio(dur, fs, rng, "noise")
        elif spec.recipe == "tone_silence":
            x = _alternation_audio(dur, fs, rng, "silence")
        else:
            raise ValueError(f"unknown recipe {spec.recipe!r}")
        x = x + FLOOR_STD * rng.standard_normal(x.shape[0])
        peak = np.max(np.abs(x))
        if peak > 1.0:
            x = x / peak
        out.append((i, Waveform(x, fs)))
    return out
