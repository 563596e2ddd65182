"""Variable-length segmentation via entropy z-scores, its three variants, and fixed windows."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform
from .dsp import (
    ANALYSIS_BLOCK_FRAMES,
    DEFAULT_HOP,
    DEFAULT_WINDOW,
    frame_count,
    frame_rms_db,
    spectral_entropies,
    stft,
    waveform_entropies,
)
from .pelt import default_penalty, pelt_changepoints

# The frame-grid methods, then fixed sample windows: every --method choice.
VARIABLE_METHODS = ("main", "nosilence", "pelt", "waveform")
METHODS = VARIABLE_METHODS + ("fixed",)
SILENCE_THRESHOLD_DB = -60.0
# Below this the window entropy is effectively constant; the next frame is
# treated as in-regime (z = 0) rather than dividing by ~0.
MIN_STD = 1e-9


# A segment as Segment.span gives it: its span of samples and its rows within
# the span's STFT, increasing from 0; a contiguous segment or a fixed window
# has every frame as a row.
Source = tuple[Waveform, tuple[int, ...]]


def default_theta(method: str) -> float:
    """Per-method z-score threshold default (waveform entropy runs hotter; fixed reads none)."""
    return {"waveform": 4.0, "fixed": 0.0}.get(method, 1.0)


@dataclass(frozen=True)
class SegmenterConfig:
    """A segmentation method and its settings; window_s and hop_s are read by "fixed" alone."""

    t_min: float = 0.5
    t_max: float = 5.0
    theta: float = 1.0
    method: str = "main"
    pelt_penalty: float | None = None
    window_s: float = 1.0
    hop_s: float = 0.5

    def __post_init__(self):
        if not (0 < self.t_min <= self.t_max < math.inf):
            raise ValueError(f"need 0 < t_min <= t_max < inf, got {self.t_min}, {self.t_max}")
        if not (self.theta >= 0):
            raise ValueError(f"theta must be >= 0 (inf allowed), got {self.theta}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.pelt_penalty is not None and not (self.pelt_penalty > 0):
            raise ValueError(f"pelt_penalty must be > 0 (inf allowed), got {self.pelt_penalty}")

    def min_frames(self, sample_rate: int) -> int:
        return max(1, math.ceil(self.t_min * sample_rate / DEFAULT_HOP))

    def max_frames(self, sample_rate: int) -> int:
        return max(1, math.ceil(self.t_max * sample_rate / DEFAULT_HOP))


@dataclass(frozen=True)
class Segment:
    """A span of one audio, in frame-grid or sample-window coordinates.

    Variable-length methods produce frame-grid segments (frame_indices into
    the audio's STFT frame sequence); fixed segmentation produces
    sample windows (start_sample/n_samples) that need not align to the grid.
    """

    audio_id: int
    start_time: float
    duration: float
    frame_indices: tuple[int, ...] | None = None
    start_sample: int | None = None
    n_samples: int | None = None

    @property
    def n_frames(self) -> int:
        if self.frame_indices is None:
            raise ValueError("sample-window segment has no frame coordinates")
        return len(self.frame_indices)

    def span(self, w: Waveform) -> Source:
        """The segment's span of w's samples and its rows within the span's STFT.

        A frame-grid span runs from the start of the first frame to the end
        of the last, so its STFT frames are w's frames first..last and the
        rows are the segment's frames among them. A sample window is its
        zero-padded window, every frame a row. pipeline.source_mel turns
        the pair into the segment's mel in training, indexing and querying
        alike.
        """
        if self.frame_indices is None:
            span = w.slice_samples(self.start_sample, self.n_samples)
            return span, tuple(range(frame_count(self.n_samples)))
        first, last = self.frame_indices[0], self.frame_indices[-1]
        span = w.slice_samples(first * DEFAULT_HOP, (last - first) * DEFAULT_HOP + DEFAULT_WINDOW)
        return span, tuple(f - first for f in self.frame_indices)


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


def _frame_segment(audio_id: int, indices: list[int], sample_rate: int) -> Segment:
    period = DEFAULT_HOP / sample_rate
    return Segment(
        audio_id=audio_id,
        start_time=indices[0] * period,
        duration=len(indices) * period,
        frame_indices=tuple(indices),
    )


def spectral_entropy_series(w: Waveform) -> np.ndarray:
    """spectral_entropies(stft(w)) bit for bit, in blocks of frames cut as Segment.span cuts a span."""
    if len(w) == 0:
        raise ValueError("empty input")
    out = np.empty(frame_count(len(w)))
    for s in range(0, len(out), ANALYSIS_BLOCK_FRAMES):
        k = min(ANALYSIS_BLOCK_FRAMES, len(out) - s)
        block = w.slice_samples(s * DEFAULT_HOP, (k - 1) * DEFAULT_HOP + DEFAULT_WINDOW)
        out[s : s + k] = spectral_entropies(stft(block))
    return out


def segment_main(w: Waveform, cfg: SegmenterConfig, audio_id: int = 0) -> list[Segment]:
    """Spectral-entropy z-score segmentation over the audio's STFT frames."""
    entropies = spectral_entropy_series(w)
    groups = _zscore_partition(
        entropies, cfg.min_frames(w.sample_rate), cfg.max_frames(w.sample_rate), cfg.theta
    )
    return [_frame_segment(audio_id, g, w.sample_rate) for g in groups]


def segment_no_silence(w: Waveform, cfg: SegmenterConfig, audio_id: int = 0) -> list[Segment]:
    """Like segment_main, but the fill phase skips frames quieter than the
    silence threshold (relative to the waveform's peak)."""
    entropies = spectral_entropy_series(w)
    # One level per hop: never fewer than the STFT's frames.
    silent = frame_rms_db(w)[: len(entropies)] < SILENCE_THRESHOLD_DB
    groups = _zscore_partition(
        entropies,
        cfg.min_frames(w.sample_rate),
        cfg.max_frames(w.sample_rate),
        cfg.theta,
        skip=silent,
    )
    return [_frame_segment(audio_id, g, w.sample_rate) for g in groups]


def segment_waveform(w: Waveform, cfg: SegmenterConfig, audio_id: int = 0) -> list[Segment]:
    """z-score loop on per-frame waveform entropy instead of spectral entropy.

    Frames follow the same hop grid as the STFT so segments stay sliceable
    against the audio's frame sequence.
    """
    if len(w) == 0:
        raise ValueError("empty input")
    # Frame i's chunk is samples [i*hop, (i+1)*hop); only input shorter
    # than one hop gives a shorter (single) chunk.
    n = frame_count(len(w))
    width = min(len(w), DEFAULT_HOP)
    chunks = w.samples[: n * width].reshape(n, width)
    starts = range(0, n, ANALYSIS_BLOCK_FRAMES)
    values = np.concatenate([waveform_entropies(chunks[s : s + ANALYSIS_BLOCK_FRAMES]) for s in starts])
    groups = _zscore_partition(
        values, cfg.min_frames(w.sample_rate), cfg.max_frames(w.sample_rate), cfg.theta
    )
    return [_frame_segment(audio_id, g, w.sample_rate) for g in groups]


def _split_oversize(bounds: list[tuple[int, int]], max_frames: int) -> list[tuple[int, int]]:
    out = []
    for a, b in bounds:
        length = b - a
        if length <= max_frames:
            out.append((a, b))
            continue
        parts = math.ceil(length / max_frames)
        base, rem = divmod(length, parts)
        start = a
        for p in range(parts):
            size = base + (1 if p < rem else 0)
            out.append((start, start + size))
            start += size
    return out


def segment_pelt(w: Waveform, cfg: SegmenterConfig, audio_id: int = 0) -> list[Segment]:
    """Change-point segmentation of the spectral-entropy series.

    cfg.pelt_penalty None means the series' default penalty. Segments
    exceeding t_max are split into near-equal parts afterwards.
    """
    entropies = spectral_entropy_series(w)
    pen = cfg.pelt_penalty if cfg.pelt_penalty is not None else default_penalty(entropies)
    bps = pelt_changepoints(entropies, penalty=pen, min_size=cfg.min_frames(w.sample_rate))
    bounds = list(zip([0] + bps[:-1], bps))
    bounds = _split_oversize(bounds, cfg.max_frames(w.sample_rate))
    return [_frame_segment(audio_id, list(range(a, b)), w.sample_rate) for a, b in bounds]


def segment_fixed(
    w: Waveform, window_s: float = 1.0, hop_s: float = 0.5, audio_id: int = 0
) -> list[Segment]:
    """Overlapping fixed-length sample windows (zero-padded tail).

    The audio is padded up to a whole number of windows, so a k-second
    audio under a 1 s window / 0.5 s hop yields exactly 2k-1 windows. A
    window must hold at least one STFT hop and the hop at least one sample.
    """
    if not (math.inf > window_s >= hop_s > 0):
        raise ValueError(f"need finite window >= hop > 0, got {window_s}, {hop_s}")
    if len(w) == 0:
        raise ValueError("empty input")
    fs = w.sample_rate
    w_n = round(window_s * fs)
    h_n = round(hop_s * fs)
    if w_n < DEFAULT_HOP:
        raise ValueError(f"window {window_s} s is {w_n} samples, shorter than one hop ({DEFAULT_HOP} samples)")
    if h_n < 1:
        raise ValueError(f"hop {hop_s} s rounds to 0 samples at {fs} Hz")
    padded = max(w_n, math.ceil(len(w) / w_n) * w_n)
    count = (padded - w_n) // h_n + 1
    return [
        Segment(
            audio_id=audio_id,
            start_time=i * h_n / fs,
            duration=w_n / fs,
            start_sample=i * h_n,
            n_samples=w_n,
        )
        for i in range(count)
    ]


def segment(w: Waveform, cfg: SegmenterConfig, audio_id: int = 0) -> list[Segment]:
    """Dispatch on cfg.method."""
    if cfg.method == "main":
        return segment_main(w, cfg, audio_id)
    if cfg.method == "nosilence":
        return segment_no_silence(w, cfg, audio_id)
    if cfg.method == "pelt":
        return segment_pelt(w, cfg, audio_id)
    if cfg.method == "waveform":
        return segment_waveform(w, cfg, audio_id)
    if cfg.method == "fixed":
        return segment_fixed(w, cfg.window_s, cfg.hop_s, audio_id)
    raise ValueError(f"unknown method {cfg.method!r}")


# 1 s windows every 0.5 s: the fixed-length baseline the variable methods replace.
FIXED_WINDOWS = SegmenterConfig(method="fixed", theta=default_theta("fixed"))


def write_manifest(path: str | Path, segments: list[Segment], cfg: SegmenterConfig) -> None:
    """Line-delimited records: audio_id,start_time_s,duration_s,method,theta."""
    with open(path, "w") as fh:
        for s in segments:
            fh.write(f"{s.audio_id},{s.start_time:.6f},{s.duration:.6f},{cfg.method},{cfg.theta}\n")


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
