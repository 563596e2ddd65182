import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlafp import augment
from vlafp.audio import Waveform
from vlafp.dsp import ANALYSIS_BLOCK_FRAMES, DEFAULT_HOP
from vlafp.augment import (
    AugmentConfig,
    augment_chain_with_draws,
    convolve_ir,
    make_ir_pool,
    make_noise_pool,
    mix_background,
    time_stretch,
)

import oracles
from oracles import naive_convolve

FS = 8000
# Longer than two blocks of frames, ending 100 samples past a hop.
LONG = (2 * ANALYSIS_BLOCK_FRAMES + 3) * DEFAULT_HOP + 100


def _noise(n: int, seed: int) -> Waveform:
    """Noise with a silent head and a quiet middle, so some frames hold no power."""
    x = 0.3 * np.random.default_rng(seed).standard_normal(n)
    x[: n // 8] = 0.0
    x[n // 3 : n // 2] *= 1e-7
    return Waveform(x, FS)


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


class TestTimeStretchReference:
    """time_stretch reads its frames a block at a time; its bytes are the whole-stream vocoder's."""

    @given(
        st.integers(DEFAULT_HOP, 4096),
        st.one_of(st.just(1.0), st.floats(0.3, 3.0)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_short_inputs_match_the_reference(self, n, factor, seed):
        w = _noise(n, seed)
        assert time_stretch(w, factor).samples.tobytes() == oracles.time_stretch(w, factor).samples.tobytes()

    @pytest.mark.parametrize("factor", [0.8, 1.0, 1.2])
    @pytest.mark.parametrize("n", [1, 100, DEFAULT_HOP - 1])
    def test_input_shorter_than_one_hop_is_rejected(self, n, factor):
        # oracles.time_stretch makes no output frame there and returns zeros.
        with pytest.raises(ValueError, match=rf"input of {n} samples .* one hop \({DEFAULT_HOP} samples\)"):
            time_stretch(_noise(n, 0), factor)

    @pytest.mark.parametrize("factor", [0.3, 0.85, 1.0, 1.2, 3.0])
    def test_a_stream_of_several_blocks_matches_the_reference(self, factor):
        w = _noise(LONG, 1)
        assert time_stretch(w, factor).samples.tobytes() == oracles.time_stretch(w, factor).samples.tobytes()

    @pytest.mark.parametrize("frames", [2, 7, 10**9])  # 10**9: the whole stream in one block
    def test_bytes_do_not_depend_on_the_block_size(self, frames, monkeypatch):
        w = _noise(LONG, 2)
        blocked = [time_stretch(w, f).samples.tobytes() for f in (0.8, 2.9)]
        monkeypatch.setattr(augment, "ANALYSIS_BLOCK_FRAMES", frames)
        assert [time_stretch(w, f).samples.tobytes() for f in (0.8, 2.9)] == blocked

    def test_peak_memory_is_a_small_multiple_of_the_output(self):
        # 300 s: the whole-stream spectrum and output frames took about 11x the output.
        w = _noise(300 * FS, 3)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = time_stretch(w, 0.85)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * out.samples.nbytes


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
        out, _ = augment_chain_with_draws(tone_1k, cfg, np.random.default_rng(0))
        assert np.array_equal(out.samples, tone_1k.samples)

    def test_deterministic_given_seed(self, tone_1k, pools):
        bg, ir = pools
        cfg = AugmentConfig(bg_pool=bg, ir_pool=ir)
        a, _ = augment_chain_with_draws(tone_1k, cfg, np.random.default_rng(5))
        b, _ = augment_chain_with_draws(tone_1k, cfg, np.random.default_rng(5))
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
            augment_chain_with_draws(tone_1k, cfg, np.random.default_rng(0))

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
