import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import EntropyStats, read_manifest, segment_waveform_span

from vlafp import dsp, segmentation
from vlafp.audio import Waveform
from vlafp.dsp import (
    ANALYSIS_BLOCK_FRAMES,
    DEFAULT_HOP,
    DEFAULT_WINDOW,
    EPS,
    MelConfig,
    frame_count,
    spectral_entropies,
    stft,
    waveform_entropies,
)
from vlafp.pelt import default_penalty
from vlafp.pipeline import segment_mels, training_sources
from vlafp.segmentation import (
    FIXED_WINDOWS,
    METHODS,
    SILENCE_THRESHOLD_DB,
    SegmenterConfig,
    _zscore_partition,
    default_theta,
    segment,
    segment_fixed,
    segment_main,
    segment_no_silence,
    segment_waveform,
    spectral_entropy_series,
    write_manifest,
)
from vlafp.synth import SynthSpec, generate

FS = 8000
VARIABLE_METHODS = tuple(m for m in METHODS if m != "fixed")


def reconstructs(segments, n_frames):
    covered = [i for s in segments for i in s.frame_indices]
    return covered == list(range(n_frames))


class TestEntropyStats:
    def test_matches_numpy(self, rng):
        vals = rng.standard_normal(40)
        stats = EntropyStats.from_values(vals)
        assert stats.count == 40
        assert stats.mean == pytest.approx(vals.mean(), abs=1e-12)
        assert stats.std == pytest.approx(vals.std(), abs=1e-12)

    def test_constant_window_zscore_zero(self):
        stats = EntropyStats.from_values([2.0] * 10)
        assert stats.zscore(5.0) == 0.0

    def test_two_sided(self):
        stats = EntropyStats.from_values([0.0, 2.0])
        assert stats.zscore(3.0) == stats.zscore(-1.0) == pytest.approx(2.0)


@st.composite
def _partition_cases(draw):
    """A series of runs (constant runs, values drawn again from a small pool), a skip mask, bounds and theta."""
    pool = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
    value = st.one_of(st.sampled_from(pool), st.floats(-1e3, 1e3))
    runs = draw(st.lists(st.tuples(value, st.integers(1, 30)), min_size=1, max_size=30))
    values = np.array([v for v, k in runs for _ in range(k)])
    skip = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=len(values), max_size=len(values))))
    max_frames = draw(st.integers(1, 200))
    min_frames = draw(st.integers(1, max_frames))
    theta = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.just(math.inf)))
    return values, None if skip is None else np.array(skip), min_frames, max_frames, theta


class TestZscorePartitionReference:
    """The scan keeps its running statistics in three floats; its partition is the EntropyStats scan's."""

    @given(_partition_cases())
    @settings(max_examples=300, deadline=None)
    def test_partition_matches_the_reference(self, case):
        values, skip, min_frames, max_frames, theta = case
        expected = oracles._zscore_partition(values, min_frames, max_frames, theta, skip)
        assert _zscore_partition(values, min_frames, max_frames, theta, skip) == expected


class TestMainLimits:
    def test_theta_zero_all_min_frames(self, small_corpus):
        cfg = SegmenterConfig(theta=0.0)
        mf = cfg.min_frames(FS)
        for aid, w in small_corpus:
            segs = segment_main(w, cfg, aid)
            assert all(s.n_frames == mf for s in segs[:-1])
            assert segs[-1].n_frames <= mf

    def test_theta_inf_all_max_frames(self, small_corpus):
        cfg = SegmenterConfig(theta=math.inf)
        Mf = cfg.max_frames(FS)
        for aid, w in small_corpus:
            segs = segment_main(w, cfg, aid)
            assert all(s.n_frames == Mf for s in segs[:-1])
            assert segs[-1].n_frames <= Mf

    def test_reconstruction(self, small_corpus):
        for theta in (0.0, 1.0, 2.0, math.inf):
            cfg = SegmenterConfig(theta=theta)
            for aid, w in small_corpus:
                n = stft(w).n_frames
                assert reconstructs(segment_main(w, cfg, aid), n)

    def test_length_bounds(self, small_corpus):
        cfg = SegmenterConfig(theta=1.0)
        mf, Mf = cfg.min_frames(FS), cfg.max_frames(FS)
        for aid, w in small_corpus:
            segs = segment_main(w, cfg, aid)
            for s in segs[:-1]:
                assert mf <= s.n_frames <= Mf

    def test_sub_hop_waveform_single_segment(self):
        segs = segment_main(Waveform(np.ones(50), FS), SegmenterConfig())
        assert len(segs) == 1
        assert segs[0].n_frames == 1

    def test_determinism(self, small_corpus):
        cfg = SegmenterConfig(theta=1.0)
        aid, w = small_corpus[0]
        a = segment_main(w, cfg, aid)
        b = segment_main(w, cfg, aid)
        assert a == b

    def test_boundary_frames_terminate_segments(self):
        ((_, w),) = generate(SynthSpec(n_audios=1, duration_range=(10.0, 10.0), recipe="tone_noise", seed=4))
        switches = range(FS, len(w), FS)  # the recipe switches between tone and noise every second
        cfg = SegmenterConfig(theta=1.0)
        hop = DEFAULT_HOP
        switch_frames = {s // hop for s in switches}
        mf = cfg.min_frames(FS)
        for seg in segment_main(w, cfg):
            # extension matter only: a regime switch may hide inside the
            # unconditional fill, never in the z-scored extension phase
            extension = seg.frame_indices[mf:]
            inner = set(extension[:-1]) if len(extension) > 1 else set()
            crossed = {f for f in inner if f + 1 in switch_frames or f in switch_frames}
            assert not crossed


class TestThetaMonotonicity:
    def test_counts_and_lengths_ordered(self, small_corpus):
        thetas = [0.0, 1.0, 2.0, 4.0, math.inf]
        counts, mean_lens = [], []
        for theta in thetas:
            cfg = SegmenterConfig(theta=theta)
            segs = [s for aid, w in small_corpus for s in segment_main(w, cfg, aid)]
            counts.append(len(segs))
            mean_lens.append(np.mean([s.duration for s in segs]))
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(mean_lens, mean_lens[1:]))


class TestLogBaseInvariance:
    @given(
        a=st.floats(min_value=0.1, max_value=10.0),
        b=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_affine_entropy_transform_keeps_partition(self, a, b):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 6.0, size=200)
        base = _zscore_partition(values, 16, 157, theta=1.0)
        transformed = _zscore_partition(a * values + b, 16, 157, theta=1.0)
        assert base == transformed


class TestNoSilence:
    def test_fully_silent_empty(self):
        segs = segment_no_silence(
            Waveform(np.zeros(FS * 2), FS), SegmenterConfig(method="nosilence")
        )
        assert segs == []

    def test_no_silent_frames_matches_main(self, small_corpus):
        aid, w = small_corpus[0]
        # mixture corpus has gaps; use a gap-free slice
        chunk = Waveform(np.where(np.abs(w.samples) < 1e-3, 0.01, w.samples), FS)
        cfg_m = SegmenterConfig(theta=1.0)
        cfg_ns = SegmenterConfig(theta=1.0, method="nosilence")
        main = segment_main(chunk, cfg_m, aid)
        nosil = segment_no_silence(chunk, cfg_ns, aid)
        assert [s.frame_indices for s in main] == [s.frame_indices for s in nosil]

    def test_tone_silence_tone_covers_tones_only(self):
        # One second of tone, one of silence, one of tone, one of silence.
        ((_, w),) = generate(SynthSpec(n_audios=1, duration_range=(4.0, 4.0), recipe="tone_silence", seed=0))
        cfg = SegmenterConfig(theta=0.0, method="nosilence")
        segs = segment_no_silence(w, cfg)
        hop = DEFAULT_HOP
        for s in segs:
            for f in s.frame_indices:
                chunk = w.samples[f * hop : (f + 1) * hop]
                level = np.sqrt(np.mean(chunk**2))
                assert level > w.peak * 10 ** (-60 / 20)


class TestWaveformMethod:
    def test_theta_limits(self, small_corpus):
        aid, w = small_corpus[1]
        cfg0 = SegmenterConfig(theta=0.0, method="waveform")
        cfginf = SegmenterConfig(theta=math.inf, method="waveform")
        mf, Mf = cfg0.min_frames(FS), cfg0.max_frames(FS)
        s0 = segment_waveform(w, cfg0, aid)
        sinf = segment_waveform(w, cfginf, aid)
        assert all(s.n_frames == mf for s in s0[:-1])
        assert all(s.n_frames == Mf for s in sinf[:-1])

    def test_default_theta_is_4(self):
        assert default_theta("waveform") == 4.0
        assert default_theta("main") == 1.0
        assert default_theta("fixed") == FIXED_WINDOWS.theta == 0.0

    def test_reconstruction(self, small_corpus):
        aid, w = small_corpus[2]
        cfg = SegmenterConfig(theta=4.0, method="waveform")
        n = stft(w).n_frames
        assert reconstructs(segment_waveform(w, cfg, aid), n)


class TestFrameGrid:
    """Segments, their index-side mel rows and their training rows share one frame grid."""

    @pytest.mark.parametrize("method", VARIABLE_METHODS)
    def test_mel_rows_and_span_follow_the_grid(self, small_corpus, method):
        mel_cfg = MelConfig(n_mels=32)
        cfg = SegmenterConfig(method=method, theta=default_theta(method))
        for aid, w in small_corpus[:2]:
            segs = segment(w, cfg, aid)
            audio_frames = stft(w).frames
            sources = training_sources([(aid, w)], cfg, mel_cfg)
            for seg, mel, (span, rows) in zip(segs, segment_mels(w, segs, mel_cfg), sources, strict=True):
                first, last = seg.frame_indices[0], seg.frame_indices[-1]
                assert mel.shape == (seg.n_frames, 32)
                assert seg.start_time == pytest.approx(first * DEFAULT_HOP / FS)
                assert len(span) == (last - first) * DEFAULT_HOP + DEFAULT_WINDOW
                assert rows == tuple(i - first for i in seg.frame_indices)
                # The span's STFT is the audio's frames first..last, bit for bit.
                assert np.array_equal(stft(span).frames, audio_frames[first : last + 1])

    @pytest.mark.parametrize("method", METHODS)
    def test_segment_span_selects_the_segments_frames(self, small_corpus, method):
        cfg = SegmenterConfig(method=method, theta=default_theta(method))
        for aid, w in small_corpus[:2]:
            for seg in segment(w, cfg, aid):
                span, rows = seg.span(w)
                start = round(seg.start_time * FS)
                # The span is the reference span, and it starts where the segment does.
                assert np.array_equal(span.samples, segment_waveform_span(w, seg).samples)
                assert np.array_equal(span.samples, w.slice_samples(start, len(span)).samples)
                # The rows run, increasing, from the span's first frame to its last,
                # and row r is w's frame r hops after the segment's start.
                frames = stft(span).frames
                assert rows[0] == 0 and rows[-1] == len(frames) - 1
                assert all(a < b for a, b in zip(rows, rows[1:]))
                for r in rows:
                    frame = w.slice_samples(start + r * DEFAULT_HOP, DEFAULT_WINDOW)
                    assert np.array_equal(frames[r], stft(frame).frames[0])

    def test_waveform_method_short_and_empty_input(self):
        cfg = SegmenterConfig(method="waveform", theta=4.0)
        segs = segment_waveform(Waveform(np.ones(50), FS), cfg)
        assert [s.frame_indices for s in segs] == [(0,)]
        with pytest.raises(ValueError, match="empty"):
            segment_waveform(Waveform(np.zeros(0), FS), cfg)
        # frame_count(0) is 1: a block loop must not turn no samples into one frame.
        for method in ("main", "nosilence", "pelt"):
            with pytest.raises(ValueError, match="empty input"):
                segment(Waveform(np.zeros(0), FS), SegmenterConfig(method=method))


def _samples_for(frames: int, extra: int = 0) -> int:
    return (frames - 1) * DEFAULT_HOP + DEFAULT_WINDOW + extra


B = ANALYSIS_BLOCK_FRAMES
# Sub-window, one-window and just-over-one-window input; then one block, one
# block +- 1 frame and several blocks, each on a frame end and 100 samples past it.
STREAM_LENGTHS = [1, 255, 1023, 1024, 1025] + [
    _samples_for(f, extra) for f in (B - 1, B, B + 1, 3 * B + 5) for extra in (0, 100)
]


def _stream(n: int) -> Waveform:
    """Noise with a silent head and tail and a faded stretch scaled by 1e-7, in part below EPS power."""
    x = 0.3 * np.random.default_rng(n).standard_normal(n)
    x[: n // 8] = 0.0
    x[n - n // 8 :] = 0.0
    a, b = n // 3, n // 2
    x[a:b] *= 1e-7 * np.linspace(0.0, 1.0, b - a)
    return Waveform(x, FS)


class TestAnalysisBlocks:
    """The entropy series, computed a block of frames at a time, are the whole stream's, bit for bit."""

    def test_stream_has_frames_below_eps(self):
        totals = stft(_stream(STREAM_LENGTHS[-1])).power().sum(axis=1)
        assert np.any((totals > 0) & (totals < EPS))
        assert np.any(totals == 0)

    @pytest.mark.parametrize("n", STREAM_LENGTHS)
    def test_spectral_series_is_the_whole_stream_series(self, n):
        w = _stream(n)
        assert spectral_entropy_series(w).tobytes() == spectral_entropies(stft(w)).tobytes()

    @pytest.mark.parametrize("n", STREAM_LENGTHS)
    def test_waveform_series_is_the_whole_matrix_series(self, n, monkeypatch):
        w = _stream(n)
        seen = []
        partition = segmentation._zscore_partition

        def record(values, *args, **kwargs):
            seen.append(values)
            return partition(values, *args, **kwargs)

        monkeypatch.setattr(segmentation, "_zscore_partition", record)
        segment_waveform(w, SegmenterConfig(method="waveform", theta=default_theta("waveform")))
        frames, width = frame_count(n), min(n, DEFAULT_HOP)
        whole = waveform_entropies(w.samples[: frames * width].reshape(frames, width))
        assert [v.tobytes() for v in seen] == [whole.tobytes()]

    @pytest.mark.parametrize("method", VARIABLE_METHODS)
    def test_segments_do_not_depend_on_the_block_size(self, small_corpus, method, monkeypatch):
        cfg = SegmenterConfig(method=method, theta=default_theta(method))
        audios = [_stream(STREAM_LENGTHS[-1])] + [w for _, w in small_corpus[:2]]
        blocked = [segment(w, cfg) for w in audios]
        for frames in (1, 7, 10**9):  # 10**9: the whole stream in one block
            # segmentation blocks the entropy series, dsp the nosilence frame levels.
            monkeypatch.setattr(segmentation, "ANALYSIS_BLOCK_FRAMES", frames)
            monkeypatch.setattr(dsp, "ANALYSIS_BLOCK_FRAMES", frames)
            assert [segment(w, cfg) for w in audios] == blocked

    @staticmethod
    def _segment_peak(small_corpus, method: str, seconds: int) -> tuple[int, int]:
        """The traced peak of segment() on the corpus tiled to `seconds`, and the samples' bytes."""
        w = Waveform(np.resize(np.concatenate([a.samples for _, a in small_corpus]), seconds * FS), FS)
        cfg = SegmenterConfig(method=method, theta=default_theta(method))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            segment(w, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, w.samples.nbytes

    @pytest.mark.parametrize("method", VARIABLE_METHODS)
    def test_peak_memory_is_bounded_by_the_samples(self, small_corpus, method):
        # About 120 s: the whole-stream STFT and its temporaries would take ~12x the samples.
        peak, samples = self._segment_peak(small_corpus, method, 120)
        assert peak <= 2 * samples

    @pytest.mark.parametrize("method", VARIABLE_METHODS)
    def test_a_long_stream_takes_no_temporary_of_its_size(self, small_corpus, method):
        # 600 s: blocks of frames peak at about 13 MB, a third of the samples;
        # one stream-sized temporary (|x| for the peak, x**2 for the levels) would pass 0.5x.
        peak, samples = self._segment_peak(small_corpus, method, 600)
        assert peak <= 0.5 * samples


class TestTails:
    @pytest.mark.parametrize("method", VARIABLE_METHODS)
    def test_only_the_last_segment_may_be_short(self, small_corpus, method):
        cfg = SegmenterConfig(method=method, theta=default_theta(method))
        for aid, w in small_corpus:
            segs = segment(w, cfg, aid)
            assert all(s.n_frames >= cfg.min_frames(FS) for s in segs[:-1])


def windows(window_s, hop_s):
    return SegmenterConfig(method="fixed", window_s=window_s, hop_s=hop_s)


class TestFixed:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 10])
    def test_2k_minus_1(self, k):
        w = Waveform(np.random.default_rng(0).standard_normal(k * FS) * 0.1, FS)
        assert len(segment_fixed(w, FIXED_WINDOWS)) == 2 * k - 1

    def test_1s_single_segment(self):
        w = Waveform(np.ones(FS), FS)
        assert len(segment_fixed(w, FIXED_WINDOWS)) == 1

    def test_2p3s_five_segments(self):
        w = Waveform(np.ones(int(2.3 * FS)), FS)
        segs = segment_fixed(w, FIXED_WINDOWS)
        assert len(segs) == 5
        assert all(s.n_samples == FS for s in segs)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            segment_fixed(Waveform(np.ones(FS), FS), windows(0.5, 1.0))
        for window, hop in [(math.inf, 0.5), (math.inf, math.inf), (math.nan, 0.5), (1.0, math.nan)]:
            with pytest.raises(ValueError, match="need finite window >= hop > 0"):
                segment_fixed(Waveform(np.ones(FS), FS), windows(window, hop))
        for method in METHODS:  # every method's config checks the windows, not only "fixed"
            with pytest.raises(ValueError, match="need finite window >= hop > 0, got 0.5, 1.0"):
                SegmenterConfig(method=method, window_s=0.5, hop_s=1.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            segment_fixed(Waveform(np.zeros(0), FS), FIXED_WINDOWS)

    def test_window_needs_one_hop_and_hop_one_sample(self):
        w = Waveform(np.ones(FS), FS)
        assert len(segment_fixed(w, windows(DEFAULT_HOP / FS, DEFAULT_HOP / FS))) == math.ceil(FS / DEFAULT_HOP)
        with pytest.raises(ValueError, match="shorter than one hop"):
            segment_fixed(w, windows((DEFAULT_HOP - 1) / FS, 0.01))
        with pytest.raises(ValueError, match="rounds to 0 samples"):
            segment_fixed(w, windows(1.0, 0.00001))

    @pytest.mark.parametrize("window,hop", [(1.0, 0.5), (2.0, 1.0), (0.5, 0.5)])
    def test_segment_sends_fixed_to_segment_fixed(self, small_corpus, window, hop):
        cfg = windows(window, hop)
        for aid, w in small_corpus:
            assert segment(w, cfg, aid) == segment_fixed(w, cfg, aid)


class TestPeltConstantSeries:
    @pytest.mark.parametrize("level", [0.0, 0.1])
    def test_constant_audio_is_one_span_split_by_t_max(self, level):
        w = Waveform(np.full(10 * FS, level), FS)
        cfg = SegmenterConfig(method="pelt")
        got = segment(w, cfg)
        assert default_penalty(spectral_entropy_series(w)) == 1.0
        n_frames = stft(w).n_frames
        parts = math.ceil(n_frames / cfg.max_frames(FS))
        assert len(got) == parts > 1
        assert reconstructs(got, n_frames)
        assert max(s.n_frames for s in got) - min(s.n_frames for s in got) <= 1


class TestTracerSites:
    """The benchmark's tracer patches each segmenter by its module-level name; segment() must call that name."""

    NAMES = {
        "main": "segment_main",
        "nosilence": "segment_no_silence",
        "pelt": "segment_pelt",
        "waveform": "segment_waveform",
        "fixed": "segment_fixed",
    }

    @pytest.mark.parametrize("method", METHODS)
    def test_segment_calls_the_patched_name(self, small_corpus, method, monkeypatch):
        calls = []
        for name in self.NAMES.values():
            monkeypatch.setattr(segmentation, name, lambda *args, name=name: calls.append(name) or [])
        aid, w = small_corpus[0]
        assert segment(w, SegmenterConfig(method=method), aid) == []
        assert calls == [self.NAMES[method]]


class TestDispatchAndManifest:
    @pytest.mark.parametrize("method", METHODS)
    def test_omitted_theta_is_the_method_default(self, method):
        assert SegmenterConfig(method=method).theta == default_theta(method)
        assert SegmenterConfig(method=method, theta=2.5).theta == 2.5
        assert SegmenterConfig(method=method, theta=0.0).theta == 0.0

    def test_dispatch_by_method(self, small_corpus):
        aid, w = small_corpus[0]
        for method in METHODS:
            segs = segment(w, SegmenterConfig(method=method), aid)
            assert len(segs) >= 1

    def test_manifest_roundtrip(self, tmp_path, small_corpus):
        aid, w = small_corpus[0]
        segs = segment_main(w, SegmenterConfig(theta=1.0), aid)
        path = tmp_path / "segments.txt"
        write_manifest(path, segs, SegmenterConfig(theta=1.0))
        records = read_manifest(path)
        assert len(records) == len(segs)
        for rec, s in zip(records, segs):
            assert rec[0] == aid
            assert rec[1] == pytest.approx(s.start_time, abs=1e-6)
            assert rec[3] == "main"

    def test_pinned_defaults(self):
        cfg = SegmenterConfig()
        assert (cfg.t_min, cfg.t_max, cfg.theta) == (0.5, 5.0, 1.0)
        assert (DEFAULT_WINDOW, DEFAULT_HOP) == (1024, 256)
        assert SILENCE_THRESHOLD_DB == -60.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SegmenterConfig(t_min=2.0, t_max=1.0)
        for t_min, t_max in [(0.5, math.inf), (math.inf, math.inf), (math.nan, 5.0), (0.5, math.nan)]:
            with pytest.raises(ValueError, match="need 0 < t_min <= t_max < inf"):
                SegmenterConfig(t_min=t_min, t_max=t_max)
        with pytest.raises(ValueError):
            SegmenterConfig(theta=-1.0)
        with pytest.raises(ValueError):
            SegmenterConfig(method="bogus")


class TestLevelInvariance:
    """Scaling the audio by a gain moves no boundary, above the floor dsp.spectral_entropies documents."""

    @pytest.mark.parametrize("gain", [1e-3, 1e-1, 10.0, 1e3])
    @pytest.mark.parametrize("method", METHODS)
    def test_segments_do_not_depend_on_level(self, small_corpus, method, gain):
        cfg = SegmenterConfig(method=method, theta=default_theta(method))
        for aid, w in small_corpus:
            assert segment(Waveform(w.samples * gain, FS), cfg, aid) == segment(w, cfg, aid)


class TestPrefixProperty:
    """A causal method cuts a prefix as it cuts the whole stream, up to the prefix's last segment.

    `nosilence` and `pelt` are left out: the first sets its silence floor from
    the whole stream's peak, and the second its penalty and its optimum from
    the whole stream, so a longer stream can move an early boundary.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        duration=st.floats(min_value=4.0, max_value=12.0),
        cut=st.floats(min_value=0.05, max_value=1.0),
        recipe=st.sampled_from(["mixture", "tone_noise", "tone_silence"]),
        method=st.sampled_from(["main", "waveform"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_prefix_segments_but_the_last_are_the_streams_first(self, seed, duration, cut, recipe, method):
        spec = SynthSpec(n_audios=1, duration_range=(duration, duration), recipe=recipe, seed=seed)
        _, w = generate(spec)[0]
        prefix = Waveform(w.samples[: max(DEFAULT_WINDOW, int(cut * len(w)))], FS)
        cfg = SegmenterConfig(method=method, theta=default_theta(method))

        def view(segs):
            return [(s.frame_indices, s.start_time, s.duration) for s in segs]

        head = view(segment(prefix, cfg))[:-1]
        assert head == view(segment(w, cfg))[: len(head)]
