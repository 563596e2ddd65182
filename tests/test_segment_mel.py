"""A segment's mel has one definition: pipeline.source_mel of its Segment.span.

Training (the build_batch anchor) and indexing (segment_mels) give the same
bytes for every segment, the re-sliced span oracle agrees on contiguous
segments and fixed windows, and a segment embedded as a query fingerprints
to the vector its index entry stores.
"""

import numpy as np
import pytest

from oracles import span_mel

from vlafp.augment import AugmentConfig, time_stretch
from vlafp.dsp import MelConfig, mel_from_frames, stft
from vlafp.model import ModelConfig, init_parameters
from vlafp.pipeline import fingerprint_segments, make_embedder, segment_mels, training_sources
from vlafp.segmentation import METHODS, SegmenterConfig, default_theta, segment
from vlafp.synth import SynthSpec, generate
from vlafp.training import TrainConfig, build_batch

MEL_CFG = MelConfig(n_mels=64)


def seg_config(method):
    return SegmenterConfig(method=method, theta=default_theta(method))


def contiguous(seg):
    f = seg.frame_indices
    return f is None or f[-1] - f[0] == len(f) - 1


def batch_mels(sources, aug):
    """Anchor and positive mels of one n_pos=1 batch over every source, in item order."""
    cfg = TrainConfig(n_pos=1)
    mels = build_batch(sources, cfg, aug, MEL_CFG, np.random.default_rng(0))[0].mels
    return mels[::2], mels[1::2]


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_training_index_and_oracle_mels_are_byte_equal(small_corpus, method):
    cfg = seg_config(method)
    no_aug = AugmentConfig(enable_ts=False)
    n_segments = n_contiguous = 0
    for aid, w in small_corpus:
        segs = segment(w, cfg, aid)
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
    sources = [
        (span, rows) for span, rows in training_sources(small_corpus, cfg, MEL_CFG) if rows[-1] != len(rows) - 1
    ]
    assert sources
    return sources


def stretch_only(factor):
    return AugmentConfig(ts_range=(factor, factor))


def test_unit_stretch_positive_equals_anchor(skipping_sources):
    anchors, positives = batch_mels(skipping_sources, stretch_only(1.0))
    for anchor, positive in zip(anchors, positives, strict=True):
        assert same_bytes(anchor, positive)


@pytest.mark.parametrize("factor", [0.8, 1.2])
def test_stretched_positive_keeps_row_0_and_drops_skipped_frames(skipping_sources, factor):
    _, positives = batch_mels(skipping_sources, stretch_only(factor))
    n_dropped = 0
    for (span, rows), positive in zip(skipping_sources, positives, strict=True):
        n_source = stft(span).n_frames
        frames = stft(time_stretch(span, factor))
        keep = [j for j in range(frames.n_frames) if min(round(j * factor), n_source - 1) in rows]
        assert keep[0] == 0
        n_dropped += frames.n_frames - len(keep)
        assert same_bytes(positive, mel_from_frames(frames.select(keep), MEL_CFG).data)
    assert n_dropped > 0


@pytest.mark.parametrize("method", ["fixed", "main"])
@pytest.mark.parametrize("factor", [0.8, 1.2])
def test_every_frame_source_positive_keeps_every_stretched_frame(small_corpus, method, factor):
    sources = training_sources(small_corpus[:2], seg_config(method), MEL_CFG)
    assert all(len(rows) == stft(span).n_frames for span, rows in sources)
    _, positives = batch_mels(sources, stretch_only(factor))
    for (span, _), positive in zip(sources, positives, strict=True):
        stretched = time_stretch(span, factor)
        assert same_bytes(positive, mel_from_frames(stft(stretched), MEL_CFG).data)


@pytest.fixture(scope="module", params=["mixture", "tone_silence"])
def recipe_audio(request):
    ((aid, w),) = generate(SynthSpec(n_audios=1, duration_range=(8.0, 8.0), recipe=request.param, seed=5))
    return request.param, aid, w


@pytest.mark.parametrize("method", METHODS)
def test_query_and_index_fingerprints_are_bit_equal(recipe_audio, method):
    recipe, aid, w = recipe_audio
    model_cfg = ModelConfig(f_bins=MEL_CFG.n_mels)
    params = init_parameters(model_cfg, seed=0)
    segs = segment(w, seg_config(method), aid)
    embed = make_embedder(params, model_cfg, MEL_CFG)
    entries = fingerprint_segments(w, segs, MEL_CFG, params, model_cfg)
    for seg, entry in zip(segs, entries, strict=True):
        assert same_bytes(np.float32(embed(seg.span(w))), entry.vector)
    # tone_silence reaches nosilence segments whose rows skip silent frames.
    if (method, recipe) == ("nosilence", "tone_silence"):
        assert not all(contiguous(seg) for seg in segs)
