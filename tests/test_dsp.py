import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlafp.audio import Waveform
from vlafp.dsp import (
    MEL_DYNAMIC_RANGE_DB,
    MEL_FMAX,
    MEL_FMIN,
    MelConfig,
    frame_rms_db,
    mel_filterbank,
    mel_spectrogram,
    spectral_entropies,
    spectral_entropy,
    stft,
    waveform_entropy,
)

FS = 8000


class TestStft:
    def test_frame_count_8000_samples(self, noise_wave):
        w = Waveform(noise_wave.samples[:8000], FS)
        assert stft(w, 1024, 256).n_frames == (8000 - 1024) // 256 + 1 == 28

    def test_zero_input_single_padded_frame(self):
        out = stft(Waveform(np.zeros(1024), FS), 1024, 256)
        assert out.n_frames == 1
        assert np.allclose(out.frames, 0.0)

    def test_short_input_zero_padded(self):
        out = stft(Waveform(np.ones(100), FS), 1024, 256)
        assert out.n_frames == 1

    def test_sine_peak_bin(self, tone_1k):
        out = stft(tone_1k, 1024, 256)
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


class TestMel:
    def test_pinned_defaults(self):
        cfg = MelConfig()
        assert (cfg.n_mels, cfg.window_size, cfg.hop) == (256, 1024, 256)
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

    def test_row_count_superadditive(self, noise_wave):
        w = noise_wave
        ww = Waveform(np.concatenate([w.samples, w.samples]), FS)
        t1 = mel_spectrogram(w, MelConfig(n_mels=32)).n_frames
        t2 = mel_spectrogram(ww, MelConfig(n_mels=32)).n_frames
        assert t2 >= 2 * t1 - 2


class TestFrameRms:
    def test_constant_amplitude_is_zero_db(self):
        out = frame_rms_db(Waveform(np.ones(1000), FS), 100)
        assert np.allclose(out, 0.0)

    def test_minus_60_db(self):
        x = np.concatenate([np.full(100, 0.001), np.full(100, 1.0)])
        out = frame_rms_db(Waveform(x, FS), 100)
        assert out[0] == pytest.approx(-60.0, abs=1e-9)
        assert out[1] == pytest.approx(0.0, abs=1e-9)

    def test_zero_frame_is_minus_inf(self):
        x = np.concatenate([np.zeros(100), np.ones(100)])
        out = frame_rms_db(Waveform(x, FS), 100)
        assert np.isneginf(out[0])

    def test_all_zero_flagged_silent(self):
        out = frame_rms_db(Waveform(np.zeros(500), FS), 100)
        assert np.all(np.isneginf(out))

    def test_values_never_positive(self, noise_wave):
        out = frame_rms_db(noise_wave, 256)
        assert np.all(out[np.isfinite(out)] <= 1e-12)


class TestWaveformEntropy:
    def test_constant_chunk_zero(self):
        assert waveform_entropy(np.full(256, 0.25)) == 0.0

    def test_all_zero_chunk_zero(self):
        assert waveform_entropy(np.zeros(256)) == 0.0

    def test_noise_positive(self):
        chunk = np.random.default_rng(0).standard_normal(256)
        assert waveform_entropy(chunk) > 0.5
