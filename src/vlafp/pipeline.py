"""Glue between segmentation, the model, and the index."""

from __future__ import annotations

import numpy as np

from .audio import Waveform
from .dsp import MelConfig, mel_from_frames, mel_spectrogram, stft
from .index import FingerprintIndex, IndexEntry
from .model import ModelConfig, Parameters, fingerprint, fingerprint_batch, pack_segments
from .segmentation import Segment, SegmenterConfig, segment, segment_fixed
from .training import SourceSegment


def segment_mels(w: Waveform, segments: list[Segment], mel_cfg: MelConfig) -> list[np.ndarray]:
    """Materialize each segment's mel matrix.

    Frame-grid segments slice one full-audio mel on the default STFT grid
    (the grid the segmenters use); sample windows get their own mel
    (zero-padded to the window length).
    """
    full = None
    out = []
    for seg in segments:
        if seg.frame_indices is not None:
            if full is None:
                full = mel_from_frames(stft(w), mel_cfg).data
            out.append(full[list(seg.frame_indices)])
        else:
            chunk = w.slice_samples(seg.start_sample, seg.n_samples, pad=True)
            out.append(mel_spectrogram(chunk, mel_cfg).data)
    return out


def segment_waveform_span(w: Waveform, seg: Segment, mel_cfg: MelConfig) -> Waveform:
    """Samples backing a segment (frame-grid spans include the analysis tail).

    A frame-grid span runs on mel_cfg's fixed grid (MelConfig.hop and
    .window_size, bound to dsp.DEFAULT_HOP and dsp.DEFAULT_WINDOW).
    """
    if seg.frame_indices is not None:
        first, last = seg.frame_indices[0], seg.frame_indices[-1]
        start = first * mel_cfg.hop
        n = (last - first) * mel_cfg.hop + mel_cfg.window_size
        return w.slice_samples(start, n, pad=True)
    return w.slice_samples(seg.start_sample, seg.n_samples, pad=True)


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
        segs = (
            segment(w, seg_cfg, audio_id=aid)
            if seg_cfg is not None
            else segment_fixed(w, fixed_window_s, fixed_hop_s, audio_id=aid)
        )
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
) -> list[SourceSegment]:
    """Clean segment waveforms for contrastive training."""
    sources = []
    for aid, w in corpus:
        segs = (
            segment(w, seg_cfg, audio_id=aid)
            if seg_cfg is not None
            else segment_fixed(w, fixed_window_s, fixed_hop_s, audio_id=aid)
        )
        for seg in segs:
            sources.append(
                SourceSegment(
                    aid, segment_waveform_span(w, seg, mel_cfg), seg.start_time, seg.duration
                )
            )
    return sources
