import numpy as np
import pytest

from vlafp.audio import Waveform
from vlafp.augment import (
    AugmentConfig,
    augment_chain,
    augment_chain_with_draws,
    convolve_ir,
    make_ir_pool,
    make_noise_pool,
    mix_background,
    time_stretch,
)

from oracles import naive_convolve

FS = 8000


class TestTimeStretch:
    def test_identity_factor_length(self, tone_1k):
        out = time_stretch(tone_1k, 1.0)
        assert abs(len(out) - len(tone_1k)) <= 256

    def test_speedup_length(self):
        t = np.arange(3 * FS) / FS
        w = Waveform(0.5 * np.sin(2 * np.pi * 440 * t), FS)
        out = time_stretch(w, 1.5)
        assert abs(len(out) - round(len(w) / 1.5)) <= 256

    def test_slowdown_length(self):
        w = Waveform(np.random.default_rng(0).standard_normal(8000) * 0.2, FS)
        out = time_stretch(w, 0.8)
        assert abs(len(out) - 10000) <= 256

    def test_pitch_preserved(self):
        t = np.arange(3 * FS) / FS
        w = Waveform(0.5 * np.sin(2 * np.pi * 440 * t), FS)
        out = time_stretch(w, 1.25)
        mid = out.samples[4000:12000] * np.hanning(8000)
        peak_hz = np.abs(np.fft.rfft(mid)).argmax() * FS / 8000
        assert peak_hz == pytest.approx(440.0, abs=3.0)

    def test_roundtrip_length(self, tone_1k):
        out = time_stretch(time_stretch(tone_1k, 1.2), 1 / 1.2)
        assert abs(len(out) - len(tone_1k)) <= 2 * 256

    def test_invalid_factor(self, tone_1k):
        with pytest.raises(ValueError):
            time_stretch(tone_1k, 0.0)
        with pytest.raises(ValueError):
            time_stretch(tone_1k, -1.0)


class TestMixBackground:
    def test_requested_snr_realized(self, tone_1k, noise_wave, rng):
        for target in (1.0, 6.0, 10.0):
            mixed = mix_background(tone_1k, noise_wave, target, rng)
            resid = mixed.samples - tone_1k.samples
            measured = 10 * np.log10(np.mean(tone_1k.samples**2) / np.mean(resid**2))
            assert measured == pytest.approx(target, abs=0.1)

    def test_high_snr_nearly_identity(self, tone_1k, noise_wave, rng):
        mixed = mix_background(tone_1k, noise_wave, 60.0, rng)
        rel = np.linalg.norm(mixed.samples - tone_1k.samples) / np.linalg.norm(
            tone_1k.samples
        )
        assert rel < 1e-2

    def test_output_power_grows(self, tone_1k, noise_wave, rng):
        mixed = mix_background(tone_1k, noise_wave, 5.0, rng)
        assert np.mean(mixed.samples**2) >= np.mean(tone_1k.samples**2)

    def test_length_preserved_with_short_noise(self, tone_1k, rng):
        short = Waveform(np.random.default_rng(1).standard_normal(500), FS)
        mixed = mix_background(tone_1k, short, 3.0, rng)
        assert len(mixed) == len(tone_1k)

    def test_silent_signal_warns(self, noise_wave, rng):
        with pytest.warns(UserWarning, match="SNR undefined"):
            out = mix_background(Waveform(np.zeros(FS), FS), noise_wave, 5.0, rng)
        assert len(out) == FS

    def test_silent_noise_rejected(self, tone_1k, rng):
        with pytest.raises(ValueError, match="non-silent"):
            mix_background(tone_1k, Waveform(np.zeros(FS), FS), 5.0, rng)


class TestConvolveIr:
    def test_unit_impulse_identity(self, noise_wave):
        delta = Waveform(np.array([1.0]), FS)
        out = convolve_ir(noise_wave, delta)
        assert np.allclose(out.samples, noise_wave.samples, atol=1e-12)

    def test_delayed_impulse_shifts(self):
        x = Waveform(np.arange(1.0, 101.0), FS)
        delayed = np.zeros(5)
        delayed[4] = 1.0
        out = convolve_ir(x, Waveform(delayed, FS))
        # shifted content, then peak-matched back to the input's peak
        scale = x.peak / x.samples[:-4].max()
        assert np.allclose(out.samples[4:], x.samples[:-4] * scale, atol=1e-9)
        assert np.allclose(out.samples[:4], 0.0)

    def test_matches_naive_convolution(self, rng):
        x = Waveform(np.random.default_rng(3).standard_normal(400), FS)
        h = Waveform(np.random.default_rng(4).standard_normal(60) * 0.3, FS)
        out = convolve_ir(x, h)
        ref = naive_convolve(x.samples, h.samples)
        ref *= x.peak / np.max(np.abs(np.convolve(x.samples, h.samples)[: len(x)]))
        assert np.abs(out.samples - ref).max() < 1e-6

    def test_empty_ir_rejected(self, tone_1k):
        with pytest.raises(ValueError):
            convolve_ir(tone_1k, Waveform(np.zeros(0), FS))


@pytest.fixture(scope="module")
def pools():
    return make_noise_pool(3, 1.0, FS, 1), make_ir_pool(3, 0.1, FS, 2)


class TestChain:

    def test_all_disabled_identity(self, tone_1k):
        cfg = AugmentConfig(enable_ts=False, enable_bg=False, enable_ir=False)
        out = augment_chain(tone_1k, cfg, np.random.default_rng(0))
        assert np.array_equal(out.samples, tone_1k.samples)

    def test_deterministic_given_seed(self, tone_1k, pools):
        bg, ir = pools
        cfg = AugmentConfig(bg_pool=bg, ir_pool=ir)
        a = augment_chain(tone_1k, cfg, np.random.default_rng(5))
        b = augment_chain(tone_1k, cfg, np.random.default_rng(5))
        assert np.array_equal(a.samples, b.samples)

    def test_distinct_seeds_distinct_draws(self, tone_1k, pools):
        bg, ir = pools
        cfg = AugmentConfig(bg_pool=bg, ir_pool=ir)
        _, d1 = augment_chain_with_draws(tone_1k, cfg, np.random.default_rng(1))
        _, d2 = augment_chain_with_draws(tone_1k, cfg, np.random.default_rng(2))
        assert d1 != d2

    def test_dtr_style_chain_disables_ts(self, tone_1k, pools):
        bg, ir = pools
        cfg = AugmentConfig(enable_ts=False, bg_pool=bg, ir_pool=ir)
        out, draws = augment_chain_with_draws(tone_1k, cfg, np.random.default_rng(0))
        assert draws.ts_factor is None
        assert draws.bg_index is not None and draws.ir_index is not None
        assert len(out) == len(tone_1k)

    def test_empty_pool_rejected(self, tone_1k):
        cfg = AugmentConfig(enable_ts=False, enable_bg=True, enable_ir=False)
        with pytest.raises(ValueError, match="bg_pool"):
            augment_chain(tone_1k, cfg, np.random.default_rng(0))

    def test_snr_draw_within_range(self, tone_1k, pools):
        bg, ir = pools
        cfg = AugmentConfig(enable_ts=False, bg_pool=bg, ir_pool=ir)
        for seed in range(10):
            _, draws = augment_chain_with_draws(tone_1k, cfg, np.random.default_rng(seed))
            assert 1.0 <= draws.snr_db <= 10.0

    def test_pinned_defaults(self):
        cfg = AugmentConfig()
        assert cfg.ts_range == (0.8, 1.2)
        assert cfg.snr_range_db == (1.0, 10.0)
        assert cfg.enable_ts and cfg.enable_bg and cfg.enable_ir

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(ts_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            AugmentConfig(snr_range_db=(10.0, 1.0))
        for snr in [(1.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (1.0, np.nan)]:
            with pytest.raises(ValueError, match="need finite snr_range_db"):
                AugmentConfig(snr_range_db=snr)
        for ts in [(1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)]:
            with pytest.raises(ValueError, match="need 0 < ts_range"):
                AugmentConfig(ts_range=ts)
