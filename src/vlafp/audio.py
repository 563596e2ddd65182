"""Mono waveform container and file I/O (WAV and raw float32)."""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

DEFAULT_SAMPLE_RATE = 8000


@dataclass(frozen=True)
class Waveform:
    """Mono audio signal with its sampling rate.

    Samples are float64 in nominal range [-1, 1]; no resampling is
    performed anywhere, a rate mismatch at load time is an error.
    """

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"mono only: expected 1-D samples, got shape {arr.shape}")
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate

    @property
    def peak(self) -> float:
        # max(x.max(), -x.min()) is max(|x|) without a copy of |x|.
        return float(max(self.samples.max(), -self.samples.min())) if len(self) else 0.0

    def slice_samples(self, start: int, n: int) -> "Waveform":
        """Sample window [start, start+n), zero-padded past the end."""
        chunk = self.samples[max(start, 0) : start + n]
        if chunk.shape[0] < n:
            chunk = np.concatenate([chunk, np.zeros(n - chunk.shape[0])])
        return Waveform(chunk, self.sample_rate)


def read_wav(path: str | Path, expected_rate: int | None = None) -> Waveform:
    """Read a PCM16 or float32 WAV file as a mono Waveform.

    Raises on a file scipy cannot parse or that ends inside its data, on
    stereo input or on a sampling-rate mismatch; resampling is the caller's
    job. Other scipy warnings (an unknown chunk, say) still load.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
            rate, data = wavfile.read(str(path))
    except (ValueError, struct.error, wavfile.WavFileWarning) as exc:
        raise ValueError(f"{path}: not a readable WAV file ({exc})") from None
    if data.ndim != 1:
        raise ValueError(f"{path}: mono only, got {data.shape[1]} channels")
    if expected_rate is not None and rate != expected_rate:
        raise ValueError(f"{path}: sample rate {rate} != expected {expected_rate}")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    else:
        raise ValueError(f"{path}: unsupported WAV sample format {data.dtype}")
    return Waveform(samples, int(rate))


def write_wav(path: str | Path, w: Waveform) -> None:
    """Write a Waveform as a float32 WAV."""
    wavfile.write(str(path), w.sample_rate, w.samples.astype(np.float32))


def read_raw_f32(path: str | Path, sample_rate: int = DEFAULT_SAMPLE_RATE) -> Waveform:
    """Read a headerless little-endian float32 mono file."""
    return Waveform(np.fromfile(str(path), dtype="<f4").astype(np.float64), sample_rate)


def load_audio(path: str | Path, sample_rate: int = DEFAULT_SAMPLE_RATE) -> Waveform:
    """Load .wav (rate-checked) or raw .f32 audio: at least one sample, every one finite."""
    p = Path(path)
    if p.suffix.lower() == ".wav":
        w = read_wav(p, expected_rate=sample_rate)
    elif p.suffix.lower() in (".f32", ".raw"):
        w = read_raw_f32(p, sample_rate)
    else:
        raise ValueError(f"{path}: unsupported audio format {p.suffix!r}")
    if len(w) == 0:
        raise ValueError(f"{path}: empty audio")
    bad = np.flatnonzero(~np.isfinite(w.samples))
    if bad.size:
        raise ValueError(f"{path}: {bad.size} non-finite samples (NaN or Inf), first at sample {bad[0]}")
    return w
