import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import dp_oracle, pelt_list_reference, segmentation_cost

from vlafp.audio import Waveform
from vlafp.augment import AugmentConfig, make_ir_pool, make_noise_pool
from vlafp.dsp import spectral_entropies, stft
from vlafp.evaluation import simulate_broadcast
from vlafp.pelt import default_penalty, pelt_changepoints
from vlafp.segmentation import SegmenterConfig, segment_pelt
from vlafp.synth import SynthSpec, generate

FS = 8000


class TestPeltOracle:
    def test_constant_series_single_segment(self):
        bps = pelt_changepoints(np.full(50, 3.0), penalty=1.0)
        assert bps == [50]

    def test_step_series_one_changepoint(self):
        series = np.array([0.0] * 20 + [5.0] * 20)
        bps = pelt_changepoints(series, penalty=1.0)
        assert bps == [20, 40]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dp_random_series(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 31))
        # piecewise-constant-ish with noise, entropy-like values
        series = np.concatenate(
            [
                rng.normal(rng.uniform(0, 6), 0.3, size=int(rng.integers(3, 12)))
                for _ in range(4)
            ]
        )[:n]
        penalty = float(rng.uniform(0.2, 4.0))
        min_size = int(rng.integers(1, 4))
        jump = int(rng.integers(1, 3))
        got = pelt_changepoints(series, penalty, min_size, jump)
        want = dp_oracle(series, penalty, min_size, jump)
        assert segmentation_cost(series, got, penalty) == pytest.approx(
            segmentation_cost(series, want, penalty), rel=1e-12, abs=1e-12
        )

    def test_short_series_single_segment(self):
        assert pelt_changepoints(np.arange(5.0), penalty=1.0, min_size=3) == [5]

    def test_invalid_args(self):
        for penalty in (0.0, np.nan):
            with pytest.raises(ValueError):
                pelt_changepoints(np.ones(10), penalty=penalty)
        with pytest.raises(ValueError):
            pelt_changepoints(np.ones(10), penalty=1.0, min_size=0)

    def test_infinite_penalty_is_one_segment(self, rng):
        series = np.concatenate([np.zeros(20), np.full(20, 5.0)]) + rng.normal(0, 0.1, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pelt_changepoints(series, np.inf) == pelt_changepoints(series, 1e12) == [40]

    def test_default_penalty_positive(self, rng):
        assert default_penalty(rng.standard_normal(100)) > 0


@pytest.fixture(scope="module")
def long_entropy_series():
    """Spectral-entropy series of a 10-audio synth corpus and of a TS+BG+IR broadcast."""
    corpus = [w for _, w in generate(SynthSpec(n_audios=10, duration_range=(8.0, 8.0), seed=5))]
    joined = Waveform(np.concatenate([w.samples for w in corpus]), FS)
    aug = AugmentConfig(bg_pool=make_noise_pool(4, 3.0, FS, 11), ir_pool=make_ir_pool(4, 0.25, FS, 12))
    sim = simulate_broadcast(corpus[0], corpus[1:], aug, np.random.default_rng(2), n_others=9)
    return {
        "corpus": spectral_entropies(stft(joined)),
        "broadcast": spectral_entropies(stft(sim.stream)),
    }


class TestPeltAtScale:
    """Long series, where pruning drops most candidates: identical breakpoints."""

    @pytest.mark.parametrize("jump", [1, 3])
    @pytest.mark.parametrize("source", ["corpus", "broadcast"])
    def test_matches_list_reference(self, long_entropy_series, source, jump):
        series = long_entropy_series[source]
        assert series.shape[0] >= 2000
        penalty = default_penalty(series)
        got = pelt_changepoints(series, penalty, min_size=16, jump=jump)
        assert len(got) > 2
        assert got == pelt_list_reference(series, penalty, min_size=16, jump=jump)


class TestSegmentPelt:
    def test_splits_respect_t_max(self, small_corpus):
        aid, w = small_corpus[0]
        cfg = SegmenterConfig(method="pelt")
        segs = segment_pelt(w, cfg, audio_id=aid)
        Mf = cfg.max_frames(FS)
        assert all(s.n_frames <= Mf for s in segs)

    def test_reconstruction(self, small_corpus):
        from vlafp.dsp import stft

        aid, w = small_corpus[3]
        cfg = SegmenterConfig(method="pelt")
        segs = segment_pelt(w, cfg, audio_id=aid)
        n = stft(w).n_frames
        covered = [i for s in segs for i in s.frame_indices]
        assert covered == list(range(n))

    def test_constant_entropy_only_tmax_splits(self):
        # pure stationary tone: near-constant entropy, no change points
        t = np.arange(8 * FS) / FS
        w = Waveform(0.5 * np.sin(2 * np.pi * 500 * t), FS)
        cfg = SegmenterConfig(method="pelt")
        segs = segment_pelt(w, replace(cfg, pelt_penalty=5.0))
        Mf = cfg.max_frames(FS)
        assert all(s.n_frames <= Mf for s in segs)
        # near-equal split of one long run
        assert max(s.n_frames for s in segs) - min(s.n_frames for s in segs) <= 1
