"""Glue between segmentation, the model, and the index."""

from __future__ import annotations

import numpy as np

from .audio import Waveform
from .dsp import MelConfig, mel_from_frames, stft
from .index import FingerprintIndex, IndexEntry
from .model import ModelConfig, PackedBatch, Parameters, fingerprint, fingerprint_batch
from .segmentation import FIXED_WINDOWS, Segment, SegmenterConfig, Source, segment
from .segmentation import segment_fixed  # noqa: F401  bench/tracing.py patches pipeline.segment_fixed


def source_mel(source: Source, mel_cfg: MelConfig) -> np.ndarray:
    """A segment's mel from its (span, rows) pair: mel_from_frames of its rows of the span's STFT."""
    span, rows = source
    return mel_from_frames(stft(span).select(rows), mel_cfg).data


def segment_mels(w: Waveform, segments: list[Segment], mel_cfg: MelConfig) -> list[np.ndarray]:
    """Each segment's mel, from Segment.span."""
    return [source_mel(seg.span(w), mel_cfg) for seg in segments]


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
    vectors = fingerprint_batch(PackedBatch(tuple(segment_mels(w, segments, mel_cfg))), params, model_cfg)
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


# One segment per call, not a batch: bench/'s dtr workload counts 2k-1 calls per k-second query.
def make_embedder(params: Parameters, model_cfg: ModelConfig, mel_cfg: MelConfig):
    """Source -> unit fingerprint vector of one query segment, with the index's mel and model."""

    def embed(source: Source) -> np.ndarray:
        return fingerprint(source_mel(source, mel_cfg), params, model_cfg)

    return embed


def training_sources(
    corpus: list[tuple[int, Waveform]],
    seg_cfg: SegmenterConfig | None,
    mel_cfg: MelConfig,
) -> list[Source]:
    """Clean training segments: each one's (span, rows) pair from Segment.span.

    mel_cfg sets nothing here; training.build_batch takes the anchor's mel
    with source_mel, as segment_mels does at index time.
    """
    # None means FIXED_WINDOWS: bench/ and test_acceptance still pass None.
    return [seg.span(w) for aid, w in corpus for seg in segment(w, seg_cfg or FIXED_WINDOWS, aid)]
