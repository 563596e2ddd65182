import numpy as np
import pytest
from oracles import exhaustive_best_f1

from vlafp.audio import Waveform
from vlafp.augment import AugmentConfig, make_ir_pool, make_noise_pool
from vlafp.evaluation import (
    DtrQuery,
    cbr_evaluate,
    dtr_evaluate,
    majority_vote,
    make_dtr_queries,
    overlap_fraction,
    simulate_broadcast,
    sweep_thresholds,
)
from vlafp.index import FingerprintIndex, IndexEntry
from vlafp.segmentation import Segment

FS = 8000


class TestThresholdSweep:
    def test_spec_hand_case(self):
        scores = np.array([0.9, 0.8, 0.4])
        labels = np.array([True, False, True])
        rows, best = sweep_thresholds(scores, labels)
        assert best.threshold == pytest.approx(0.4)
        assert best.f1 == pytest.approx(0.8)
        assert best.precision == pytest.approx(2 / 3)
        assert best.recall == pytest.approx(1.0)
        at_09 = next(r for r in rows if r.threshold == pytest.approx(0.9))
        assert at_09.f1 == pytest.approx(2 / 3)
        assert at_09.precision == 1.0 and at_09.recall == 0.5

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            scores = np.round(rng.uniform(0, 1, n), 3)
            labels = rng.random(n) < 0.4
            if not labels.any():
                labels[0] = True
            rows, best = sweep_thresholds(scores, labels)
            want_f1 = exhaustive_best_f1(list(scores), list(labels))[0]
            assert best.f1 == pytest.approx(want_f1, abs=1e-12)
            assert all(best.f1 >= r.f1 for r in rows)

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError, match="recall undefined"):
            sweep_thresholds(np.array([0.5]), np.array([False]))

    def test_all_below_threshold_row_f1_zero(self):
        rows, _ = sweep_thresholds(np.array([0.2, 0.3]), np.array([True, False]))
        inf_row = next(r for r in rows if np.isinf(r.threshold))
        assert inf_row.tp == 0 and inf_row.f1 == 0.0

    def test_metric_ranges(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0, 1, 40)
        labels = rng.random(40) < 0.5
        labels[0] = True
        rows, _ = sweep_thresholds(scores, labels)
        for r in rows:
            assert 0.0 <= r.precision <= 1.0
            assert 0.0 <= r.recall <= 1.0
            assert 0.0 <= r.f1 <= 1.0
            assert (r.f1 == 0.0) == (r.tp == 0)


class TestOverlap:
    def test_full_overlap(self):
        assert overlap_fraction(1.0, 1.0, (0.0, 5.0)) == 1.0

    def test_half_overlap_is_not_positive(self):
        assert overlap_fraction(4.5, 1.0, (0.0, 5.0)) == pytest.approx(0.5)

    def test_no_overlap(self):
        assert overlap_fraction(6.0, 1.0, (0.0, 5.0)) == 0.0


class TestMajorityVote:
    def test_plain_majority(self):
        assert majority_vote([(1, 0.9), (1, 0.8), (2, 0.95)]) == 1

    def test_tie_higher_summed_score(self):
        assert majority_vote([(1, 0.5), (2, 0.9)]) == 2

    def test_tie_score_then_lower_id(self):
        assert majority_vote([(5, 0.5), (3, 0.5)]) == 3


def _unit(v):
    v = np.asarray(v, dtype=np.float32)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def basis_index():
    index = FingerprintIndex(4)
    for aid in range(3):
        for ord_ in range(3):
            v = np.zeros(4)
            v[aid] = 1.0
            v[3] = 0.1 * ord_
            index.insert(IndexEntry(_unit(v), aid, ord_, 0.5 * ord_, 1.0))
    return index


class TestDtr:

    def test_lookup_count_is_2k_minus_1(self, basis_index):
        embed = lambda w: _unit([1.0, 0, 0, 0])
        for k in (1, 2, 3, 5, 6, 10):
            w = Waveform(np.random.default_rng(0).standard_normal(k * FS) * 0.1, FS)
            rep = dtr_evaluate(basis_index, [DtrQuery(0, float(k), w)], embed)
            assert rep.results[0].n_lookups == 2 * k - 1

    def test_hit_and_miss(self, basis_index):
        w = Waveform(np.random.default_rng(0).standard_normal(2 * FS) * 0.1, FS)
        rep = dtr_evaluate(basis_index, [DtrQuery(1, 2.0, w)], lambda _: _unit([0, 1, 0, 0]))
        assert rep.results[0].hit and rep.hit_rates[2.0] == 1.0
        rep = dtr_evaluate(basis_index, [DtrQuery(2, 2.0, w)], lambda _: _unit([0, 1, 0, 0]))
        assert not rep.results[0].hit

    def test_query_crop_warns_when_too_long(self):
        w = Waveform(np.random.default_rng(1).standard_normal(FS) * 0.2, FS)
        aug = AugmentConfig(enable_ts=False, enable_bg=False, enable_ir=False)
        with pytest.warns(UserWarning, match="cropping"):
            qs = make_dtr_queries([(0, w)], [3.0], aug, np.random.default_rng(0))
        assert len(qs) == 1

    @pytest.mark.parametrize("dur", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_duration_rejected(self, dur):
        w = Waveform(np.zeros(FS), FS)
        aug = AugmentConfig(enable_ts=False, enable_bg=False, enable_ir=False)
        with pytest.raises(ValueError, match="positive number of seconds"):
            make_dtr_queries([(0, w)], [1.0, dur], aug, np.random.default_rng(0))


@pytest.fixture(scope="module")
def audios():
    rng = np.random.default_rng(2)
    return [Waveform(rng.standard_normal(FS) * 0.2, FS) for _ in range(6)]


class TestBroadcastSim:

    def test_no_distortion_span_is_exact(self, audios):
        aug = AugmentConfig(enable_ts=False, enable_bg=False, enable_ir=False)
        commercial = audios[0]
        sim = simulate_broadcast(commercial, audios[1:], aug, np.random.default_rng(0), n_others=5)
        t0, t1 = sim.span
        assert t1 - t0 == pytest.approx(commercial.duration)
        got = sim.stream.samples[int(t0 * FS) : int(t0 * FS) + len(commercial)]
        np.testing.assert_allclose(got, commercial.samples)

    def test_time_stretch_scales_span(self, audios):
        aug = AugmentConfig(
            enable_ts=True, enable_bg=False, enable_ir=False, ts_range=(1.25, 1.25)
        )
        sim = simulate_broadcast(audios[0], audios[1:], aug, np.random.default_rng(1), n_others=5)
        assert sim.draws.ts_factor == pytest.approx(1.25)
        unstretched = simulate_broadcast(
            audios[0],
            audios[1:],
            AugmentConfig(enable_ts=False, enable_bg=False, enable_ir=False),
            np.random.default_rng(1),
            n_others=5,
        )
        assert sim.span[0] == pytest.approx(unstretched.span[0] / 1.25, abs=1e-9)
        assert sim.span[1] == pytest.approx(unstretched.span[1] / 1.25, abs=1e-9)

    def test_same_seed_identical_stream(self, audios):
        aug = AugmentConfig(
            enable_ts=False,
            bg_pool=make_noise_pool(2, 1.0, FS, 3),
            ir_pool=make_ir_pool(2, 0.1, FS, 4),
        )
        a = simulate_broadcast(audios[0], audios[1:], aug, np.random.default_rng(7), n_others=5)
        b = simulate_broadcast(audios[0], audios[1:], aug, np.random.default_rng(7), n_others=5)
        assert np.array_equal(a.stream.samples, b.stream.samples)
        assert a.span == b.span

    def test_too_few_others_rejected(self, audios):
        aug = AugmentConfig(enable_ts=False, enable_bg=False, enable_ir=False)
        with pytest.raises(ValueError, match="other audios"):
            simulate_broadcast(audios[0], audios[1:3], aug, np.random.default_rng(0), n_others=5)


class TestCbrEvaluate:
    def test_self_match_reaches_perfect_f1(self):
        # index = broadcast fingerprints restricted to the commercial span
        rng = np.random.default_rng(3)
        index = FingerprintIndex(6)
        segments = []
        span = (4.0, 7.0)
        for i in range(10):
            start = float(i)
            inside = span[0] <= start and start + 1.0 <= span[1]
            v = _unit(rng.standard_normal(6))
            if inside:
                index.insert(IndexEntry(v, 0, i, start, 1.0))
            segments.append((Segment(1, start, 1.0, None, 0, FS), v))
        report = cbr_evaluate(index, segments, span)
        assert report.best.f1 == 1.0
        assert report.best.tp == 3

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            cbr_evaluate(FingerprintIndex(4), [], (0.0, 1.0))

    def test_scored_dump_recomputes(self):
        rng = np.random.default_rng(4)
        index = FingerprintIndex(5)
        stored = [_unit(rng.standard_normal(5)) for _ in range(4)]
        for i, v in enumerate(stored):
            index.insert(IndexEntry(v, 0, i, 0.5 * i, 1.0))
        segments = []
        for i in range(8):
            segments.append((Segment(1, float(i), 1.0, None, 0, FS), _unit(rng.standard_normal(5))))
        report = cbr_evaluate(index, segments, (2.0, 5.0))
        # independent recomputation of metrics from the raw dump
        scores = np.array([s for _, _, s, _ in report.scored])
        labels = np.array([l for _, _, _, l in report.scored])
        tp = int(np.sum((scores >= report.best.threshold) & labels))
        fp = int(np.sum((scores >= report.best.threshold) & ~labels))
        fn = int(np.sum((scores < report.best.threshold) & labels))
        assert (tp, fp, fn) == (report.best.tp, report.best.fp, report.best.fn)
