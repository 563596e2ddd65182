"""A segment's mel has one definition: its rows of the audio's STFT, then mel_from_frames.

Training (the build_batch anchor), indexing and querying (segment_mels) give
the same bytes for every segment, and the re-sliced span oracle agrees on
contiguous segments and fixed windows.
"""

import numpy as np
import pytest

from oracles import span_mel

from vlafp.augment import AugmentConfig, time_stretch
from vlafp.dsp import MelConfig, mel_from_frames, stft
from vlafp.pipeline import segment_audio, segment_mels, training_sources
from vlafp.segmentation import METHODS, SegmenterConfig, default_theta
from vlafp.training import TrainConfig, build_batch

MEL_CFG = MelConfig(n_mels=64)


def seg_config(method):
    return None if method == "fixed" else SegmenterConfig(method=method, theta=default_theta(method))


def contiguous(seg):
    f = seg.frame_indices
    return f is None or f[-1] - f[0] == len(f) - 1


def batch_mels(sources, aug):
    """Anchor and positive mels of one n_pos=1 batch over every source, in item order."""
    cfg = TrainConfig(n_pos=1)
    batch = build_batch(sources, cfg, aug, MEL_CFG, np.random.default_rng(0), chosen=list(range(len(sources))))
    mels = [batch.packed.frames[off : off + n] for off, n in batch.packed.spans]
    return mels[::2], mels[1::2]


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("method", METHODS + ("fixed",))
def test_training_index_and_oracle_mels_are_byte_equal(small_corpus, method):
    cfg = seg_config(method)
    no_aug = AugmentConfig(enable_ts=False, enable_bg=False, enable_ir=False)
    n_segments = n_contiguous = 0
    for aid, w in small_corpus:
        segs = segment_audio(w, cfg, aid, 1.0, 0.5)
        anchors, _ = batch_mels(training_sources([(aid, w)], cfg, MEL_CFG), no_aug)
        for seg, anchor, index_mel in zip(segs, anchors, segment_mels(w, segs, MEL_CFG), strict=True):
            n_segments += 1
            assert same_bytes(anchor, index_mel)
            if contiguous(seg):
                n_contiguous += 1
                assert same_bytes(span_mel(w, seg, MEL_CFG), anchor)
    # nosilence must reach segments whose fill skipped silent frames.
    assert (n_contiguous < n_segments) == (method == "nosilence")


@pytest.fixture(scope="module")
def skipping_sources(small_corpus):
    """nosilence training sources whose rows skip silent frames."""
    cfg = seg_config("nosilence")
    sources = [s for s in training_sources(small_corpus, cfg, MEL_CFG) if s.rows[-1] != len(s.rows) - 1]
    assert sources
    return sources


def stretch_only(factor):
    return AugmentConfig(enable_bg=False, enable_ir=False, ts_range=(factor, factor))


def test_unit_stretch_positive_equals_anchor(skipping_sources):
    anchors, positives = batch_mels(skipping_sources, stretch_only(1.0))
    for anchor, positive in zip(anchors, positives, strict=True):
        assert same_bytes(anchor, positive)


@pytest.mark.parametrize("factor", [0.8, 1.2])
def test_stretched_positive_keeps_row_0_and_drops_skipped_frames(skipping_sources, factor):
    _, positives = batch_mels(skipping_sources, stretch_only(factor))
    n_dropped = 0
    for src, positive in zip(skipping_sources, positives, strict=True):
        n_source = stft(src.waveform).n_frames
        frames = stft(time_stretch(src.waveform, factor))
        keep = [j for j in range(frames.n_frames) if min(round(j * factor), n_source - 1) in src.rows]
        assert keep[0] == 0
        n_dropped += frames.n_frames - len(keep)
        assert same_bytes(positive, mel_from_frames(frames.select(keep), MEL_CFG).data)
    assert n_dropped > 0


@pytest.mark.parametrize("method", ["fixed", "main"])
@pytest.mark.parametrize("factor", [0.8, 1.2])
def test_every_frame_source_positive_keeps_every_stretched_frame(small_corpus, method, factor):
    sources = training_sources(small_corpus[:2], seg_config(method), MEL_CFG)
    assert all(len(s.rows) == stft(s.waveform).n_frames for s in sources)
    _, positives = batch_mels(sources, stretch_only(factor))
    for src, positive in zip(sources, positives, strict=True):
        stretched = time_stretch(src.waveform, factor)
        assert same_bytes(positive, mel_from_frames(stft(stretched), MEL_CFG).data)
