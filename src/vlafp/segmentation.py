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
    frame_count,
    frame_rms_db,
    frame_span,
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
        first = self.frame_indices[0]
        span = frame_span(w, first, self.frame_indices[-1] - first + 1)
        return span, tuple(f - first for f in self.frame_indices)


def _zscore_partition(
    values: np.ndarray, min_frames: int, max_frames: int, theta: float, skip: np.ndarray | None = None
) -> list[list[int]]:
    """Greedy fill-then-extend loop shared by main/nosilence/waveform.

    Fill absorbs frames unconditionally (skipping flagged ones) until the
    minimum is reached; extension absorbs while the frame's z-score
    |x - mean| / std against the members so far stays at or below theta. The
    mean and population std are Welford's running count, mean and M2; a std
    below MIN_STD gives z = 0. A rejected frame starts the next segment.
    """
    x = values.tolist()
    skipped = skip.tolist() if skip is not None else [False] * len(x)
    out: list[list[int]] = []
    i = 0
    while i < len(x):
        members: list[int] = []
        count, mean, m2 = 0, 0.0, 0.0
        while i < len(x) and len(members) < max_frames:
            v = x[i]
            if len(members) >= min_frames:
                sigma = math.sqrt(m2 / count)
                z = 0.0 if sigma < MIN_STD else abs(v - mean) / sigma
                if not z <= theta:  # a NaN z rejects the frame
                    break
            elif skipped[i]:
                i += 1
                continue
            members.append(i)
            count += 1
            delta = v - mean
            mean += delta / count
            m2 += delta * (v - mean)
            i += 1
        if members:  # empty only when every frame left is skipped
            out.append(members)
    return out


def _frame_segments(groups: list[list[int]], audio_id: int, sample_rate: int) -> list[Segment]:
    period = DEFAULT_HOP / sample_rate
    return [Segment(audio_id, g[0] * period, len(g) * period, tuple(g)) for g in groups]


def _zscore_segments(
    values: np.ndarray, w: Waveform, cfg: SegmenterConfig, audio_id: int, skip: np.ndarray | None = None
) -> list[Segment]:
    """The z-score partition of one value per frame under cfg's frame bounds and theta, as Segments."""
    fs = w.sample_rate
    groups = _zscore_partition(values, cfg.min_frames(fs), cfg.max_frames(fs), cfg.theta, skip)
    return _frame_segments(groups, audio_id, fs)


def spectral_entropy_series(w: Waveform) -> np.ndarray:
    """spectral_entropies(stft(w)) bit for bit, in blocks of frames cut by frame_span."""
    if len(w) == 0:
        raise ValueError("empty input")
    out = np.empty(frame_count(len(w)))
    for s in range(0, len(out), ANALYSIS_BLOCK_FRAMES):
        k = min(ANALYSIS_BLOCK_FRAMES, len(out) - s)
        out[s : s + k] = spectral_entropies(stft(frame_span(w, s, k)))
    return out


def segment_main(w: Waveform, cfg: SegmenterConfig, audio_id: int = 0) -> list[Segment]:
    """Spectral-entropy z-score segmentation over the audio's STFT frames.

    Causal: each boundary is decided from the frames up to one past it.
    """
    return _zscore_segments(spectral_entropy_series(w), w, cfg, audio_id)


def segment_no_silence(w: Waveform, cfg: SegmenterConfig, audio_id: int = 0) -> list[Segment]:
    """Like segment_main, but the fill phase skips frames quieter than the
    silence threshold (relative to the waveform's peak).

    Not causal: the silence test reads the whole stream's peak.
    """
    entropies = spectral_entropy_series(w)
    # One level per hop: never fewer than the STFT's frames.
    silent = frame_rms_db(w)[: len(entropies)] < SILENCE_THRESHOLD_DB
    return _zscore_segments(entropies, w, cfg, audio_id, silent)


def segment_waveform(w: Waveform, cfg: SegmenterConfig, audio_id: int = 0) -> list[Segment]:
    """z-score loop on per-frame waveform entropy instead of spectral entropy.

    Frames follow the same hop grid as the STFT so segments stay sliceable
    against the audio's frame sequence. Causal, as segment_main.
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
    return _zscore_segments(values, w, cfg, audio_id)


def segment_pelt(w: Waveform, cfg: SegmenterConfig, audio_id: int = 0) -> list[Segment]:
    """Change-point segmentation of the spectral-entropy series.

    cfg.pelt_penalty None means the series' default penalty. A segment
    longer than t_max is split into the fewest near-equal parts that fit,
    the first ones a frame longer. Not causal: the penalty and the optimum
    are the whole stream's.
    """
    entropies = spectral_entropy_series(w)
    pen = cfg.pelt_penalty if cfg.pelt_penalty is not None else default_penalty(entropies)
    bps = pelt_changepoints(entropies, penalty=pen, min_size=cfg.min_frames(w.sample_rate))
    max_frames = cfg.max_frames(w.sample_rate)
    groups = [
        part.tolist()
        for a, b in zip([0] + bps[:-1], bps)
        for part in np.array_split(np.arange(a, b), math.ceil((b - a) / max_frames))
    ]
    return _frame_segments(groups, audio_id, w.sample_rate)


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
