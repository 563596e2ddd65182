import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import frame_rms_db_loop, stft_gather

from vlafp import dsp
from vlafp.audio import Waveform
from vlafp.dsp import (
    ANALYSIS_BLOCK_FRAMES,
    DEFAULT_HOP,
    DEFAULT_WINDOW,
    EPS,
    _shared_mel_filterbank,
    MEL_DYNAMIC_RANGE_DB,
    MEL_FMAX,
    MEL_FMIN,
    MelConfig,
    frame_count,
    frame_rms_db,
    mel_filterbank,
    mel_from_frames,
    mel_spectrogram,
    spectral_entropies,
    spectral_entropy,
    stft,
    waveform_entropies,
    waveform_entropy,
)

FS = 8000
CHUNK_KINDS = ("noise", "thirds", "ulp_edges", "constant", "zero", "sparse")


def make_chunk(kind: str, width: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "noise":
        return rng.standard_normal(width) * rng.uniform(1e-4, 1.0)
    if kind == "thirds":  # |x| in {0, 1/3, 2/3, 1}: on the range ends or, often, the middle edge
        return rng.integers(-3, 4, width) / 3
    if kind == "ulp_edges":  # the 65 bin edges of [lo, hi], each maybe one ulp off
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
        edges = np.linspace(lo, hi, 65)[rng.integers(0, 65, width + 2)]
        out = np.nextafter(edges, edges + rng.integers(-1, 2, width + 2))
        out[:2] = lo, hi
        return out[:width] * rng.choice([-1.0, 1.0], width)
    if kind == "constant":
        return np.full(width, rng.uniform(-1.0, 1.0))
    if kind == "zero":
        return np.zeros(width)
    out = np.zeros(width)  # sparse
    out[rng.integers(0, width, size=max(1, width // 16))] = rng.uniform(-1.0, 1.0)
    return out


@st.composite
def chunk_lists(draw, max_chunks=8):
    """Chunks of mixed kinds from a drawn seed, all of one drawn width."""
    width = draw(st.sampled_from([1, 2, 3, 7, 64, 100, 255, 256]))
    kinds = draw(st.lists(st.sampled_from(CHUNK_KINDS), min_size=1, max_size=max_chunks))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [make_chunk(k, width, rng) for k in kinds]


class TestStft:
    def test_frame_count_8000_samples(self, noise_wave):
        w = Waveform(noise_wave.samples[:8000], FS)
        assert stft(w).n_frames == frame_count(8000) == (8000 - 1024) // 256 + 1 == 28

    def test_zero_input_single_padded_frame(self):
        out = stft(Waveform(np.zeros(1024), FS))
        assert out.n_frames == 1
        assert np.allclose(out.frames, 0.0)

    def test_short_input_zero_padded(self):
        out = stft(Waveform(np.ones(100), FS))
        assert out.n_frames == frame_count(100) == 1

    def test_sine_peak_bin(self, tone_1k):
        out = stft(tone_1k)
        expected_bin = round(1000 * 1024 / FS)
        assert np.all(np.abs(out.frames).argmax(axis=1) == expected_bin)

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="empty input"):
            stft(Waveform(np.zeros(0), FS))

    def test_deterministic(self, noise_wave):
        a = stft(noise_wave).frames
        b = stft(noise_wave).frames
        assert np.array_equal(a, b)


class TestSpectralEntropy:
    def test_single_bin_is_zero(self):
        assert spectral_entropy(np.array([0.0, 5.0, 0.0, 0.0])) == 0.0

    def test_uniform_is_log_bins(self):
        assert spectral_entropy(np.ones(16)) == pytest.approx(np.log(16), abs=1e-12)

    def test_half_half(self):
        frame = np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0])
        assert spectral_entropy(frame) == pytest.approx(np.log(2), abs=1e-12)

    def test_degenerate_energy_is_zero(self):
        assert spectral_entropy(np.zeros(8)) == 0.0

    def test_range_and_scale_invariance(self, noise_wave):
        frames = stft(noise_wave)
        ents = spectral_entropies(frames)
        assert np.all(ents >= 0.0)
        assert np.all(ents <= np.log(frames.n_bins) + 1e-12)
        scaled = spectral_entropies(
            stft(Waveform(noise_wave.samples * 1.7, FS))
        )
        assert np.allclose(ents, scaled, atol=1e-9)

    @given(st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance_single_frame(self, c):
        frame = np.random.default_rng(0).standard_normal(64) + 1j
        assert spectral_entropy(frame * c) == pytest.approx(
            spectral_entropy(frame), abs=1e-9
        )


class TestStftFraming:
    @given(st.integers(0, 6000).map(lambda k: 2 * k + 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_gathered_frames_on_odd_lengths(self, n, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        got = stft(Waveform(x, FS)).frames
        assert got.shape[0] == frame_count(n)
        assert np.array_equal(got, stft_gather(x, DEFAULT_WINDOW, DEFAULT_HOP))

    @given(st.integers(1, 20_000))
    @settings(max_examples=60, deadline=None)
    def test_no_fewer_hop_levels_than_frames(self, n):
        # segment_no_silence reads one level per STFT frame without padding.
        w = Waveform(np.random.default_rng(n).standard_normal(n), FS)
        assert frame_rms_db(w).shape[0] >= stft(w).n_frames


class TestMel:
    def test_pinned_defaults(self):
        assert MelConfig().n_mels == 256
        assert (DEFAULT_WINDOW, DEFAULT_HOP) == (1024, 256)
        assert (MEL_FMIN, MEL_FMAX, MEL_DYNAMIC_RANGE_DB) == (300.0, 4000.0, 80.0)

    def test_default_shape(self, noise_wave):
        m = mel_spectrogram(Waveform(noise_wave.samples[:8000], FS))
        assert m.data.shape == (28, 256)

    def test_dynamic_range_clamp(self, noise_wave):
        m = mel_spectrogram(noise_wave)
        assert m.data.max() - m.data.min() <= 80.0 + 1e-9

    def test_silence_constant_matrix(self):
        m = mel_spectrogram(Waveform(np.zeros(4096), FS))
        assert np.allclose(m.data, m.data[0, 0])

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="shorter than one hop"):
            mel_spectrogram(Waveform(np.ones(100), FS))

    def test_filter_support_within_band(self):
        fb = mel_filterbank(64, 1024, FS, MEL_FMIN, MEL_FMAX)
        freqs = np.arange(513) * FS / 1024
        active = fb.sum(axis=0) > 0
        assert freqs[active].min() >= MEL_FMIN
        assert freqs[active].max() <= MEL_FMAX

    def test_filter_centers_increasing(self):
        fb = mel_filterbank(32, 1024, FS, 300.0, 4000.0)
        centers = fb.argmax(axis=1)
        assert np.all(np.diff(centers) >= 0)

    def test_shared_filterbank_is_read_only_and_exact(self, noise_wave):
        frames = stft(noise_wave)
        fb = mel_filterbank(64, DEFAULT_WINDOW, FS, MEL_FMIN, MEL_FMAX)
        db = 10.0 * np.log10(frames.power() @ fb.T + EPS)
        want = np.maximum(db, db.max() - MEL_DYNAMIC_RANGE_DB)
        for _ in range(2):
            assert np.array_equal(mel_from_frames(frames, MelConfig(n_mels=64)).data, want)
        shared = _shared_mel_filterbank(64, FS)
        assert shared is _shared_mel_filterbank(64, FS)
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 1.0

    def test_selected_rows_clamp_against_their_own_maximum(self, noise_wave):
        frames = stft(noise_wave)
        rows = [0, 3, 4, 20]
        picked = frames.select(rows)
        assert np.array_equal(picked.frames, frames.frames[rows])
        assert picked.sample_rate == FS
        got = mel_from_frames(picked, MelConfig(n_mels=64)).data
        db = 10.0 * np.log10(frames.power()[rows] @ _shared_mel_filterbank(64, FS).T + EPS)
        assert np.array_equal(got, np.maximum(db, db.max() - MEL_DYNAMIC_RANGE_DB))

    def test_row_count_superadditive(self, noise_wave):
        w = noise_wave
        ww = Waveform(np.concatenate([w.samples, w.samples]), FS)
        t1 = mel_spectrogram(w, MelConfig(n_mels=32)).n_frames
        t2 = mel_spectrogram(ww, MelConfig(n_mels=32)).n_frames
        assert t2 >= 2 * t1 - 2


class TestFrameRms:
    def test_constant_amplitude_is_zero_db(self):
        out = frame_rms_db(Waveform(np.ones(1000), FS))
        assert out.shape == (4,)
        assert np.allclose(out, 0.0)

    def test_minus_60_db(self):
        x = np.concatenate([np.full(DEFAULT_HOP, 0.001), np.full(DEFAULT_HOP, 1.0)])
        out = frame_rms_db(Waveform(x, FS))
        assert out[0] == pytest.approx(-60.0, abs=1e-9)
        assert out[1] == pytest.approx(0.0, abs=1e-9)

    def test_zero_frame_is_minus_inf(self):
        x = np.concatenate([np.zeros(DEFAULT_HOP), np.ones(DEFAULT_HOP)])
        out = frame_rms_db(Waveform(x, FS))
        assert np.isneginf(out[0])

    def test_all_zero_flagged_silent(self):
        out = frame_rms_db(Waveform(np.zeros(500), FS))
        assert np.all(np.isneginf(out))

    def test_values_never_positive(self, noise_wave):
        out = frame_rms_db(noise_wave)
        assert np.all(out[np.isfinite(out)] <= 1e-12)

    @given(chunk_lists(max_chunks=12), st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_frame_loop(self, chunks, tail):
        # Chunk widths and the hop differ, so frames straddle chunk kinds;
        # the extra tail leaves a sub-frame remainder, or input shorter than a frame.
        x = np.concatenate(chunks)
        x = x[: max(1, x.shape[0] - tail)]
        got = frame_rms_db(Waveform(x, FS))
        assert np.array_equal(got, frame_rms_db_loop(x, DEFAULT_HOP))

    @pytest.mark.parametrize("frames", [ANALYSIS_BLOCK_FRAMES, 1, 7, 10**9])  # 10**9: one block
    def test_blocks_of_frames_equal_the_per_frame_loop(self, frames, monkeypatch):
        # Three blocks and a partial frame, with a silent and a near-silent stretch.
        x = 0.3 * np.random.default_rng(4).standard_normal(3 * ANALYSIS_BLOCK_FRAMES * DEFAULT_HOP + 100)
        x[1000:70000] = 0.0
        x[200000:260000] *= 1e-9
        monkeypatch.setattr(dsp, "ANALYSIS_BLOCK_FRAMES", frames)
        got = frame_rms_db(Waveform(x, FS))
        assert got.tobytes() == frame_rms_db_loop(x, DEFAULT_HOP).tobytes()


class TestWaveformEntropy:
    def test_constant_chunk_zero(self):
        assert waveform_entropy(np.full(256, 0.25)) == 0.0

    def test_all_zero_chunk_zero(self):
        assert waveform_entropy(np.zeros(256)) == 0.0

    def test_noise_positive(self):
        chunk = np.random.default_rng(0).standard_normal(256)
        assert waveform_entropy(chunk) > 0.5

    @given(chunk_lists())
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_scalar_entropy(self, chunks):
        got = waveform_entropies(np.stack(chunks))
        assert np.array_equal(got, np.array([waveform_entropy(c) for c in chunks]))

    def test_rows_of_ramped_noise_equal_scalar_entropy(self, noise_wave):
        x = noise_wave.samples * np.repeat(np.linspace(0.0, 1.0, 8), noise_wave.samples.shape[0] // 8)
        chunks = x[: x.shape[0] // 256 * 256].reshape(-1, 256)
        got = waveform_entropies(chunks)
        assert np.array_equal(got, np.array([waveform_entropy(c) for c in chunks]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            waveform_entropies(np.array([[0.0, np.nan, 1.0]]))
