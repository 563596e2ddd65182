import numpy as np
import pytest

from vlafp.synth import (
    SynthSpec,
    generate,
    make_tone_noise_alternation,
    make_tone_silence,
    max_pairwise_correlation,
)


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


class TestHelpers:
    def test_alternation_switch_points(self):
        w, switches = make_tone_noise_alternation(4.0, 1.0, seed=0)
        assert len(w) == 4 * 8000
        assert switches == [8000, 16000, 24000]

    def test_tone_silence_structure(self):
        w = make_tone_silence(1.0, 2.0, 1.0)
        assert len(w) == 4 * 8000
        silent = w.samples[10000:22000]
        assert np.sqrt(np.mean(silent**2)) < 1e-4
        loud = w.samples[:8000]
        assert np.sqrt(np.mean(loud**2)) > 0.1
