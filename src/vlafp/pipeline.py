"""Glue between segmentation, the model, and the index."""

from __future__ import annotations

import numpy as np

from .audio import Waveform
from .dsp import MelConfig, mel_from_frames, mel_spectrogram, stft
from .index import FingerprintIndex, IndexEntry
from .model import ModelConfig, Parameters, fingerprint, fingerprint_batch, pack_segments
from .segmentation import FIXED_WINDOWS, Segment, SegmenterConfig, segment
from .segmentation import segment_fixed  # noqa: F401  bench/tracing.py patches pipeline.segment_fixed


def segment_mels(w: Waveform, segments: list[Segment], mel_cfg: MelConfig) -> list[np.ndarray]:
    """Each segment's mel: mel_from_frames of its rows of its span's STFT (Segment.span)."""
    out = []
    for seg in segments:
        span, rows = seg.span(w)
        out.append(mel_from_frames(stft(span).select(rows), mel_cfg).data)
    return out


def fingerprint_segments(
    w: Waveform,
    segments: list[Segment],
    mel_cfg: MelConfig,
    params: Parameters,
    model_cfg: ModelConfig,
) -> list[IndexEntry]:
    """Fingerprint every segment of one audio into index entries, in one packed batch."""
    if not segments:
        return []
    vectors = fingerprint_batch(pack_segments(segment_mels(w, segments, mel_cfg)), params, model_cfg)
    return [
        IndexEntry(v.astype(np.float32), seg.audio_id, ord_, seg.start_time, seg.duration)
        for ord_, (seg, v) in enumerate(zip(segments, vectors))
    ]


def build_index(
    corpus: list[tuple[int, Waveform]],
    seg_cfg: SegmenterConfig | None,
    mel_cfg: MelConfig,
    params: Parameters,
    model_cfg: ModelConfig,
) -> FingerprintIndex:
    """Segment and fingerprint a corpus."""
    entries = []
    for aid, w in corpus:
        # None means FIXED_WINDOWS: bench/ and test_acceptance still pass None.
        segs = segment(w, seg_cfg or FIXED_WINDOWS, aid)
        entries += fingerprint_segments(w, segs, mel_cfg, params, model_cfg)
    return FingerprintIndex.build(entries) if entries else FingerprintIndex(model_cfg.d)


def make_embedder(params: Parameters, model_cfg: ModelConfig, mel_cfg: MelConfig):
    """Waveform -> unit fingerprint vector, for query-side evaluation."""

    def embed(w: Waveform) -> np.ndarray:
        mel = mel_spectrogram(w, mel_cfg).data
        return fingerprint(mel, params, model_cfg).vector

    return embed


def training_sources(
    corpus: list[tuple[int, Waveform]],
    seg_cfg: SegmenterConfig | None,
    mel_cfg: MelConfig,
) -> list[tuple[Waveform, tuple[int, ...]]]:
    """Clean training segments: each one's (span, rows) pair from Segment.span.

    mel_cfg sets nothing here; the anchor's mel is built from the rows in
    training.build_batch, as segment_mels builds it at index time.
    """
    # None means FIXED_WINDOWS: bench/ and test_acceptance still pass None.
    return [seg.span(w) for aid, w in corpus for seg in segment(w, seg_cfg or FIXED_WINDOWS, aid)]
