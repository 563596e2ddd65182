"""Glue between segmentation, the model, and the index."""

from __future__ import annotations

import numpy as np

from .audio import Waveform
from .dsp import MelConfig, mel_from_frames, mel_spectrogram, stft
from .index import FingerprintIndex, IndexEntry
from .model import ModelConfig, Parameters, fingerprint, fingerprint_batch, pack_segments
from .segmentation import Segment, SegmenterConfig, segment, segment_fixed


def segment_audio(
    w: Waveform, seg_cfg: SegmenterConfig | None, audio_id: int, window_s: float, hop_s: float
) -> list[Segment]:
    """One audio's segments; seg_cfg None means fixed sample windows of window_s every hop_s."""
    if seg_cfg is None:
        return segment_fixed(w, window_s, hop_s, audio_id=audio_id)
    return segment(w, seg_cfg, audio_id=audio_id)


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
    fixed_window_s: float = 1.0,
    fixed_hop_s: float = 0.5,
) -> FingerprintIndex:
    """Segment and fingerprint a corpus; seg_cfg None means fixed windows."""
    entries = []
    for aid, w in corpus:
        segs = segment_audio(w, seg_cfg, aid, fixed_window_s, fixed_hop_s)
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
    fixed_window_s: float = 1.0,
    fixed_hop_s: float = 0.5,
) -> list[tuple[Waveform, tuple[int, ...]]]:
    """Clean training segments: each one's (span, rows) pair from Segment.span.

    mel_cfg sets nothing here; the anchor's mel is built from the rows in
    training.build_batch, as segment_mels builds it at index time.
    """
    return [
        seg.span(w) for aid, w in corpus for seg in segment_audio(w, seg_cfg, aid, fixed_window_s, fixed_hop_s)
    ]
