import numpy as np
import pytest

from oracles import max_pairwise_correlation

from vlafp.dsp import spectral_entropies, stft
from vlafp.synth import FLOOR_STD, SynthSpec, generate


class TestGenerate:
    def test_deterministic(self):
        spec = SynthSpec(n_audios=3, duration_range=(2.0, 3.0), seed=42)
        a = generate(spec)
        b = generate(spec)
        for (ia, wa), (ib, wb) in zip(a, b):
            assert ia == ib
            assert np.array_equal(wa.samples, wb.samples)

    def test_ids_and_count(self):
        corpus = generate(SynthSpec(n_audios=5, duration_range=(1.0, 2.0), seed=0))
        assert [aid for aid, _ in corpus] == list(range(5))

    def test_distinguishable(self, small_corpus):
        assert max_pairwise_correlation(small_corpus) < 0.5

    def test_duration_range_respected(self):
        corpus = generate(SynthSpec(n_audios=4, duration_range=(2.0, 4.0), seed=1))
        for _, w in corpus:
            assert 1.9 <= w.duration <= 4.0

    def test_different_seeds_differ(self):
        a = generate(SynthSpec(n_audios=1, duration_range=(2.0, 2.0), seed=1))[0][1]
        b = generate(SynthSpec(n_audios=1, duration_range=(2.0, 2.0), seed=2))[0][1]
        assert not np.array_equal(a.samples, b.samples)

    def test_amplitude_bounded(self, small_corpus):
        for _, w in small_corpus:
            assert w.peak <= 1.0

    def test_recipes(self):
        for recipe in ("mixture", "tone_noise", "tone_silence"):
            corpus = generate(
                SynthSpec(n_audios=2, duration_range=(2.0, 2.0), recipe=recipe, seed=3)
            )
            assert len(corpus) == 2

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            SynthSpec(n_audios=0)
        with pytest.raises(ValueError):
            SynthSpec(duration_range=(3.0, 1.0))
        for dur in [(1.0, np.inf), (np.inf, np.inf), (np.nan, 1.0)]:
            with pytest.raises(ValueError, match="need 0 < duration"):
                SynthSpec(duration_range=dur)
        with pytest.raises(ValueError):
            generate(SynthSpec(recipe="nope"))


def one_audio(recipe: str, seconds: float, seed: int):
    ((_, w),) = generate(SynthSpec(n_audios=1, duration_range=(seconds, seconds), recipe=recipe, seed=seed))
    return w


class TestHelpers:
    """The alternation recipes: tone, then noise or silence, switching every second."""

    def test_alternation_switch_points(self):
        w = one_audio("tone_noise", 4.0, seed=0)
        assert len(w) == 4 * 8000
        # Every frame of a tone second is sparser than every frame of a noise second.
        seconds = [spectral_entropies(stft(w.slice_samples(k * 8000, 8000))) for k in range(4)]
        assert max(seconds[0].max(), seconds[2].max()) < min(seconds[1].min(), seconds[3].min())

    def test_tone_silence_structure(self):
        w = one_audio("tone_silence", 4.0, seed=0)
        assert len(w) == 4 * 8000
        rms = [np.sqrt(np.mean(w.samples[k * 8000 : (k + 1) * 8000] ** 2)) for k in range(4)]
        assert rms[1] < 2 * FLOOR_STD and rms[3] < 2 * FLOOR_STD
        assert rms[0] > 0.1 and rms[2] > 0.1
