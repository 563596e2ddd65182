"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The slowest item is the
desk-scale learning-signal run (a few minutes of single-threaded training);
everything else finishes in seconds.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import dp_oracle, exhaustive_best_f1, naive_convolve, segmentation_cost

from vlafp.audio import Waveform
from vlafp.augment import (
    AugmentConfig,
    convolve_ir,
    make_ir_pool,
    make_noise_pool,
    mix_background,
    time_stretch,
)
from vlafp.dsp import MelConfig
from vlafp.evaluation import (
    cbr_evaluate,
    dtr_evaluate,
    make_dtr_queries,
    simulate_broadcast,
    sweep_thresholds,
)
from vlafp.index import FingerprintIndex, IndexEntry, expected_file_size
from vlafp.model import (
    ModelConfig,
    PackedBatch,
    fingerprint,
    fingerprint_batch,
    fingerprint_batch_forward,
    init_parameters,
)
from vlafp.pelt import pelt_changepoints
from vlafp.pipeline import (
    build_index,
    fingerprint_segments,
    make_embedder,
    training_sources,
)
from vlafp.segmentation import SegmenterConfig, segment_fixed, segment_main
from vlafp.synth import SynthSpec, generate
from vlafp.training import TrainConfig, supcon_loss, train

FS = 8000
DESK_MODEL = ModelConfig()  # d=32, L=2, H=4, d_head=8, F=64


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance {num:02d}] {name}: FAIL", flush=True)
        raise
    print(f"\n[acceptance {num:02d}] {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def desk_corpus():
    return generate(SynthSpec(n_audios=50, seed=7))


def test_01_segmentation_limit_laws(desk_corpus):
    with criterion(1, "segmentation limit laws"):
        start = time.monotonic()
        cfg0 = SegmenterConfig(theta=0.0)
        cfginf = SegmenterConfig(theta=math.inf)
        mf, Mf = cfg0.min_frames(FS), cfg0.max_frames(FS)
        for aid, w in desk_corpus:
            s0 = segment_main(w, cfg0, aid)
            assert all(s.n_frames == mf for s in s0[:-1])
            assert s0[-1].n_frames <= mf
            sinf = segment_main(w, cfginf, aid)
            assert all(s.n_frames == Mf for s in sinf[:-1])
            assert sinf[-1].n_frames <= Mf
        assert time.monotonic() - start < 30.0


def test_02_theta_monotonicity(desk_corpus):
    with criterion(2, "theta-monotonicity trend"):
        counts = []
        mean_lens = []
        for theta in (0.0, 1.0, 2.0, 4.0, math.inf):
            cfg = SegmenterConfig(theta=theta)
            segs = [s for aid, w in desk_corpus for s in segment_main(w, cfg, aid)]
            counts.append(len(segs))
            mean_lens.append(float(np.mean([s.duration for s in segs])))
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert all(a <= b for a, b in zip(mean_lens, mean_lens[1:]))


def test_03_pelt_oracle():
    with criterion(3, "PELT equals exhaustive DP"):
        start = time.monotonic()
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 120:
            n = int(rng.integers(6, 31))
            series = np.concatenate(
                [
                    rng.normal(rng.uniform(0, 6), rng.uniform(0.1, 0.6), size=int(rng.integers(2, 12)))
                    for _ in range(5)
                ]
            )[:n]
            if len(series) < n:
                continue
            penalty = float(rng.uniform(0.2, 5.0))
            min_size = int(rng.integers(1, 4))
            jump = int(rng.integers(1, 3))
            got = pelt_changepoints(series, penalty, min_size, jump)
            want = dp_oracle(series, penalty, min_size, jump)
            assert segmentation_cost(series, got, penalty) == segmentation_cost(
                series, want, penalty
            )
            checked += 1
        assert time.monotonic() - start < 60.0


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def test_04_gradient_suite():
    with criterion(4, "finite-difference gradient suite"):
        start = time.monotonic()
        rng = np.random.default_rng(4)
        params = init_parameters(DESK_MODEL, seed=4)
        mel = rng.standard_normal((6, DESK_MODEL.f_bins))
        probe = rng.standard_normal(DESK_MODEL.d)
        batch = PackedBatch((mel,))  # the one forward, as a batch of one

        def objective(p) -> float:
            (z,), _ = fingerprint_batch_forward(batch, p, DESK_MODEL)
            return float((z * probe).sum())

        _, backward = fingerprint_batch_forward(batch, params, DESK_MODEL)
        grads = backward(probe[None, :])
        step = 1e-5
        for name in params:
            grad = grads.get(name)
            assert grad is not None, f"no gradient reached {name}"
            flat = [0, grad.size // 2, grad.size - 1]
            for fi in sorted(set(flat)):
                idx = np.unravel_index(fi, grad.shape)
                perturbed = {k: v.copy() for k, v in params.items()}
                perturbed[name][idx] += step
                up = objective(perturbed)
                perturbed[name][idx] -= 2 * step
                down = objective(perturbed)
                fd = (up - down) / (2 * step)
                assert _rel_err(fd, grad[idx]) < 1e-4, f"{name}{idx}"

        # loss-only check at tighter tolerance
        z6 = rng.standard_normal((6, 4))
        z6 /= np.linalg.norm(z6, axis=1, keepdims=True)
        pos = {0: [1, 2], 1: [0, 2], 2: [0, 1], 3: [4], 4: [3], 5: [3, 4]}
        _, grad = supcon_loss(z6, pos, tau=0.05)
        eps = 1e-6
        for i in range(6):
            for j in range(4):
                zp = z6.copy()
                zp[i, j] += eps
                up, _ = supcon_loss(zp, pos, 0.05)
                zp[i, j] -= 2 * eps
                down, _ = supcon_loss(zp, pos, 0.05)
                fd = (up - down) / (2 * eps)
                assert abs(fd - grad[i, j]) / max(1.0, abs(fd)) < 1e-6
        assert time.monotonic() - start < 300.0


def test_05_architectural_invariants():
    with criterion(5, "architectural invariants"):
        rng = np.random.default_rng(5)
        params = init_parameters(DESK_MODEL, seed=5)
        for _ in range(1000):
            t = int(rng.integers(1, 158))
            z = fingerprint(rng.standard_normal((t, DESK_MODEL.f_bins)), params, DESK_MODEL)
            assert abs(np.linalg.norm(z) - 1.0) < 1e-5
        for _ in range(10):
            t = int(rng.integers(2, 120))
            mel = rng.standard_normal((t, DESK_MODEL.f_bins))
            a = fingerprint(mel, params, DESK_MODEL)
            b = fingerprint(mel[rng.permutation(t)], params, DESK_MODEL)
            assert np.abs(a - b).max() < 1e-6
        mels = [rng.standard_normal((t, DESK_MODEL.f_bins)) for t in (16, 40, 96, 1, 157)]
        packed = fingerprint_batch(PackedBatch(tuple(mels)), params, DESK_MODEL)
        for z, mel in zip(packed, mels):
            assert np.abs(z - fingerprint(mel, params, DESK_MODEL)).max() < 1e-6


def test_06_supcon_closed_forms():
    with criterion(6, "contrastive-loss closed forms"):
        b = 60
        z = np.tile(np.ones(8) / np.sqrt(8), (b, 1))
        pos = {i: [j for j in range(b) if j != i] for i in range(b)}
        val, _ = supcon_loss(z, pos, tau=0.05)
        assert abs(val - b * math.log(b - 1)) < 1e-9
        z2 = np.tile(np.ones(4) / 2.0, (2, 1))
        val2, _ = supcon_loss(z2, {0: [1], 1: [0]}, tau=0.05)
        assert abs(val2) < 1e-12


def test_07_index_exactness(tmp_path):
    with criterion(7, "index equals linear scan; round-trip bytes"):
        rng = np.random.default_rng(7)
        vecs = rng.standard_normal((1000, 32)).astype(np.float32)
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        index = FingerprintIndex(32)
        meta = []
        for i, v in enumerate(vecs):
            aid, ord_ = (i * 13) % 97, i
            index.insert(IndexEntry(v, aid, ord_, 0.5 * i, 1.0))
            meta.append((aid, ord_))
        for _ in range(100):
            q = rng.standard_normal(32).astype(np.float32)
            q /= np.linalg.norm(q)
            got = index.search_top_k(q, 10)
            scores = vecs @ q
            order = sorted(range(1000), key=lambda i: (-scores[i], meta[i][0], meta[i][1]))
            assert [g[0].segment_ord for g in got] == order[:10]
            assert [g[1] for g in got] == [float(scores[i]) for i in order[:10]]
        p1, p2 = tmp_path / "a.vlix", tmp_path / "b.vlix"
        index.save(p1)
        FingerprintIndex.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.slow
def test_08_desk_scale_learning_signal(desk_corpus):
    with criterion(8, "desk-scale learning signal (DTR)"):
        start = time.monotonic()
        mel_cfg = MelConfig(n_mels=64)
        bg = make_noise_pool(24, 3.0, FS, 11)
        ir = make_ir_pool(12, 0.25, FS, 12)
        aug = AugmentConfig(enable_ts=False, bg_pool=bg, ir_pool=ir)
        sources = training_sources(desk_corpus, None, mel_cfg)
        tc = TrainConfig(epochs=16, lr=1e-3, seed=0)
        params, history = train(sources, DESK_MODEL, tc, aug, mel_cfg)
        assert history[-1] < history[0]

        def hit_rate(p, query_seed):
            index = build_index(desk_corpus, None, mel_cfg, p, DESK_MODEL)
            embed = make_embedder(p, DESK_MODEL, mel_cfg)
            rng = np.random.default_rng(query_seed)
            queries = make_dtr_queries(desk_corpus, [1.0], aug, rng, queries_per_target=2)
            return dtr_evaluate(index, queries, embed).hit_rates[1.0]

        trained = hit_rate(params, 99)
        random_init = hit_rate(init_parameters(DESK_MODEL, seed=123), 99)
        elapsed = time.monotonic() - start
        print(
            f"\n  trained hit@1s={trained:.3f}, random-init={random_init:.3f}, "
            f"runtime={elapsed:.0f}s"
        )
        assert trained >= 0.90
        assert random_init <= 0.40
        assert elapsed < 600.0


def test_09_dtr_lookup_arithmetic():
    with criterion(9, "DTR 2k-1 lookup arithmetic"):
        index = FingerprintIndex(4)
        v = np.zeros(4, np.float32)
        v[0] = 1.0
        index.insert(IndexEntry(v, 0, 0, 0.0, 1.0))
        embed = lambda w: v
        rng = np.random.default_rng(9)
        for k in (1, 2, 3, 5, 6, 10):
            w = Waveform(rng.standard_normal(k * FS) * 0.1, FS)
            assert len(segment_fixed(w, SegmenterConfig(method="fixed"))) == 2 * k - 1
            from vlafp.evaluation import DtrQuery

            rep = dtr_evaluate(index, [DtrQuery(0, float(k), w)], embed)
            assert rep.results[0].n_lookups == 2 * k - 1


def test_10_cbr_metric_oracle():
    with criterion(10, "CBR metric oracle and self-match F1=1"):
        # hand-constructed score set from the operation contract
        rows, best = sweep_thresholds(
            np.array([0.9, 0.8, 0.4]), np.array([True, False, True])
        )
        assert best.f1 == pytest.approx(0.8) and best.threshold == pytest.approx(0.4)
        # random labeled sets vs exhaustive enumeration
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            scores = np.round(rng.uniform(0, 1, size=n), 3)
            labels = rng.random(n) < 0.4
            if not labels.any():
                labels[int(rng.integers(0, n))] = True
            _, got = sweep_thresholds(scores, labels)
            want_f1, _, want_p, want_r = exhaustive_best_f1(list(scores), list(labels))
            assert got.f1 == pytest.approx(want_f1, abs=1e-12)

        # self-match CBR: no distortion, aligned fixed segmentation
        corpus = [
            (aid, Waveform(w.samples[: 6 * FS], FS))
            for aid, w in generate(SynthSpec(n_audios=6, duration_range=(7.0, 7.0), seed=10))
        ]
        params = init_parameters(DESK_MODEL, seed=10)
        mel_cfg = MelConfig(n_mels=64)
        commercial = corpus[0][1]
        others = [w for _, w in corpus[1:]]
        aug = AugmentConfig(enable_ts=False)
        sim = simulate_broadcast(commercial, others, aug, np.random.default_rng(3), n_others=5)
        commercial_index = build_index(
            [(0, commercial)], None, mel_cfg, params, DESK_MODEL
        )
        segs = segment_fixed(sim.stream, SegmenterConfig(method="fixed"), audio_id=-1)
        entries = fingerprint_segments(sim.stream, segs, mel_cfg, params, DESK_MODEL)
        report = cbr_evaluate(
            commercial_index, [(s, e.vector) for s, e in zip(segs, entries)], sim.span
        )
        assert report.best.f1 == 1.0


def test_11_augmentation_oracles():
    with criterion(11, "augmentation oracles"):
        rng = np.random.default_rng(11)
        x = Waveform(rng.standard_normal(500), FS)
        h = Waveform(rng.standard_normal(80) * 0.5, FS)
        got = convolve_ir(x, h)
        ref = naive_convolve(x.samples, h.samples)
        ref *= x.peak / np.max(np.abs(np.convolve(x.samples, h.samples)[: len(x)]))
        assert np.abs(got.samples - ref).max() < 1e-6

        t = np.arange(2 * FS) / FS
        tone = Waveform(0.5 * np.sin(2 * np.pi * 500 * t), FS)
        noise = Waveform(rng.standard_normal(FS) * 0.3, FS)
        for snr in (1.0, 5.5, 10.0):
            mixed = mix_background(tone, noise, snr, rng)
            resid = mixed.samples - tone.samples
            measured = 10 * np.log10(np.mean(tone.samples**2) / np.mean(resid**2))
            assert abs(measured - snr) < 0.1

        for factor in (0.8, 1.0, 1.2, 1.5):
            out = time_stretch(tone, factor)
            assert abs(len(out) - round(len(tone) / factor)) <= 256


def test_12_storage_linearity(tmp_path):
    with criterion(12, "index storage linearity"):
        rng = np.random.default_rng(12)
        sizes = {}
        for n, d in ((100, 32), (200, 32), (100, 64)):
            index = FingerprintIndex(d)
            vecs = rng.standard_normal((n, d)).astype(np.float32)
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            for i in range(n):
                index.insert(IndexEntry(vecs[i], i, i, 0.0, 1.0))
            path = tmp_path / f"{n}x{d}.vlix"
            index.save(path)
            sizes[(n, d)] = path.stat().st_size
            assert sizes[(n, d)] == expected_file_size(n, d)
        # fit size = a + N*(4d + c) from two points, verify the third exactly
        c = (sizes[(200, 32)] - sizes[(100, 32)]) / 100 - 4 * 32
        a = sizes[(100, 32)] - 100 * (4 * 32 + c)
        assert sizes[(100, 64)] == a + 100 * (4 * 64 + c)
        assert (a, c) == (20.0, 20.0)
