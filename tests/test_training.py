import numpy as np
import pytest

from vlafp.audio import Waveform
from vlafp.augment import AugmentConfig, make_ir_pool, make_noise_pool
from vlafp.autodiff import Tensor
from vlafp.dsp import MelConfig
from vlafp.model import ModelConfig, init_parameters
from vlafp.synth import SynthSpec, generate
from vlafp.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    SourceSegment,
    TrainConfig,
    build_batch,
    supcon_loss,
    supcon_loss_value_and_grad,
    train,
)
from vlafp.pipeline import training_sources

FS = 8000
TAU = 0.05


def full_positive_sets(group_ids):
    return {
        i: [j for j, gj in enumerate(group_ids) if gj == g and j != i]
        for i, g in enumerate(group_ids)
    }


class TestSupconClosedForms:
    def test_identical_batch(self):
        for b in (4, 8, 60):
            z = np.tile(np.ones(6) / np.sqrt(6), (b, 1))
            pos = {i: [j for j in range(b) if j != i] for i in range(b)}
            val, _ = supcon_loss_value_and_grad(z, pos, TAU)
            assert val == pytest.approx(b * np.log(b - 1), abs=1e-9)

    def test_two_identical_items_zero(self):
        z = np.tile(np.ones(4) / 2.0, (2, 1))
        val, _ = supcon_loss_value_and_grad(z, {0: [1], 1: [0]}, TAU)
        assert abs(val) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((6, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        pos = {0: [1, 2], 1: [0, 2], 2: [0, 1], 3: [4], 4: [3], 5: [3, 4]}
        _, grad = supcon_loss_value_and_grad(z, pos, TAU)
        eps = 1e-6
        for i in range(6):
            for j in range(4):
                zp = z.copy()
                zp[i, j] += eps
                up, _ = supcon_loss_value_and_grad(zp, pos, TAU)
                zp[i, j] -= 2 * eps
                dn, _ = supcon_loss_value_and_grad(zp, pos, TAU)
                fd = (up - dn) / (2 * eps)
                assert abs(fd - grad[i, j]) / max(1.0, abs(fd)) < 1e-6

    def test_empty_positive_set_rejected(self, rng):
        z = rng.standard_normal((3, 4))
        with pytest.raises(ValueError, match="empty positive set"):
            supcon_loss_value_and_grad(z, {0: []}, TAU)

    def test_self_positive_rejected(self, rng):
        z = rng.standard_normal((3, 4))
        with pytest.raises(ValueError, match="itself"):
            supcon_loss_value_and_grad(z, {0: [0, 1]}, TAU)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((8, 5))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        group_ids = [0, 0, 1, 1, 2, 2, 2, 2]
        pos = full_positive_sets(group_ids)
        base, _ = supcon_loss_value_and_grad(z, pos, TAU)
        perm = rng.permutation(8)
        z_p = z[perm]
        pos_p = full_positive_sets([group_ids[i] for i in perm])
        permuted, _ = supcon_loss_value_and_grad(z_p, pos_p, TAU)
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_temperature_equals_similarity_rescale(self):
        # tau -> c*tau is the same loss as dividing every similarity by c;
        # scaling fingerprints by 1/sqrt(c) scales the Gram matrix by 1/c
        rng = np.random.default_rng(9)
        z = rng.standard_normal((6, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        pos = full_positive_sets([0, 0, 0, 1, 1, 1])
        c = 2.5
        a = supcon_loss(Tensor(z), pos, TAU * c).item()
        b = supcon_loss(Tensor(z / np.sqrt(c)), pos, TAU).item()
        assert a == pytest.approx(b, rel=1e-10)


@pytest.fixture(scope="module")
def tiny_setup():
    corpus = generate(SynthSpec(n_audios=4, duration_range=(4.0, 4.0), seed=5))
    mel_cfg = MelConfig(n_mels=32)
    aug = AugmentConfig(
        enable_ts=False,
        bg_pool=make_noise_pool(3, 1.0, FS, 1),
        ir_pool=make_ir_pool(3, 0.1, FS, 2),
    )
    sources = training_sources(corpus, None, mel_cfg)
    model_cfg = ModelConfig(f_bins=32, d=16, n_blocks=1, n_heads=2, d_head=8)
    return sources, mel_cfg, aug, model_cfg


class TestBuildBatch:
    def test_group_sizes(self, tiny_setup):
        sources, mel_cfg, aug, _ = tiny_setup
        cfg = TrainConfig(batch_items=16, n_pos=3, seed=0)
        batch = build_batch(sources, cfg, aug, mel_cfg, np.random.default_rng(0))
        assert batch.packed.n_segments == 16
        for i, g in enumerate(batch.group_ids):
            assert len(batch.positive_sets[i]) == 3

    @pytest.mark.parametrize("n_pos", [1, 2, 3, 4, 5])
    def test_n_pos_sweep(self, tiny_setup, n_pos):
        sources, mel_cfg, aug, _ = tiny_setup
        cfg = TrainConfig(batch_items=2 * (1 + n_pos), n_pos=n_pos, seed=0)
        batch = build_batch(sources, cfg, aug, mel_cfg, np.random.default_rng(0))
        assert batch.packed.n_segments == 2 * (1 + n_pos)

    def test_same_seed_same_batch(self, tiny_setup):
        sources, mel_cfg, aug, _ = tiny_setup
        cfg = TrainConfig(batch_items=8, n_pos=1, seed=0)
        a = build_batch(sources, cfg, aug, mel_cfg, np.random.default_rng(3))
        b = build_batch(sources, cfg, aug, mel_cfg, np.random.default_rng(3))
        assert np.array_equal(a.packed.frames, b.packed.frames)
        assert a.positive_sets == b.positive_sets

    def test_small_corpus_warns(self, tiny_setup):
        _, mel_cfg, aug, _ = tiny_setup
        few = [
            SourceSegment(
                0, Waveform(np.random.default_rng(0).standard_normal(FS) * 0.2, FS), 0.0, 1.0, tuple(range(28))
            )
        ]
        cfg = TrainConfig(batch_items=60, n_pos=3, seed=0)
        with pytest.warns(UserWarning, match="smaller batch"):
            batch = build_batch(few, cfg, aug, mel_cfg, np.random.default_rng(0))
        assert batch.packed.n_segments == 4

    def test_empty_corpus_rejected(self, tiny_setup):
        _, mel_cfg, aug, _ = tiny_setup
        with pytest.raises(ValueError, match="empty corpus"):
            build_batch([], TrainConfig(), aug, mel_cfg, np.random.default_rng(0))


class TestTrainLoop:
    def test_zero_lr_keeps_params_bit_exact(self, tiny_setup):
        sources, mel_cfg, aug, model_cfg = tiny_setup
        cfg = TrainConfig(batch_items=8, n_pos=1, lr=0.0, epochs=1, seed=0)
        init = init_parameters(model_cfg, seed=0)
        before = {k: v.copy() for k, v in init.items()}
        params, _ = train(sources[:8], model_cfg, cfg, aug, mel_cfg, params=init)
        for k in before:
            assert np.array_equal(params[k], before[k])

    def test_loss_decreases(self, tiny_setup):
        sources, mel_cfg, aug, model_cfg = tiny_setup
        cfg = TrainConfig(batch_items=12, n_pos=2, lr=1e-3, epochs=6, seed=1)
        _, history = train(sources, model_cfg, cfg, aug, mel_cfg)
        assert len(history) == 6
        assert history[5] < history[0]

    def test_deterministic_given_seed(self, tiny_setup):
        sources, mel_cfg, aug, model_cfg = tiny_setup
        cfg = TrainConfig(batch_items=8, n_pos=1, lr=1e-3, epochs=1, seed=2)
        p1, h1 = train(sources[:10], model_cfg, cfg, aug, mel_cfg)
        p2, h2 = train(sources[:10], model_cfg, cfg, aug, mel_cfg)
        assert h1 == h2
        for k in p1:
            assert np.array_equal(p1[k], p2[k])


class TestEndToEndGradient:
    def test_loss_gradient_through_model(self):
        # finite differences through fingerprinting + normalization + loss
        from vlafp.autodiff import Tensor, concat
        from vlafp.model import as_tensors, fingerprint_batch_forward, pack_segments

        cfg = ModelConfig(f_bins=5, d=8, n_blocks=2, n_heads=2, d_head=4)
        params = init_parameters(cfg, seed=11)
        rng = np.random.default_rng(11)
        mels = [rng.standard_normal((t, 5)) for t in (4, 6, 3, 5)]
        batch = pack_segments(mels)
        pos = {0: [1], 1: [0], 2: [3], 3: [2]}

        def loss_of(p) -> float:
            zs = fingerprint_batch_forward(batch, as_tensors(p), cfg)
            z = concat([zz.reshape(1, -1) for zz in zs], axis=0)
            return supcon_loss(z, pos, 0.05).item()

        tp = as_tensors(params, requires_grad=True)
        zs = fingerprint_batch_forward(batch, tp, cfg)
        z = concat([zz.reshape(1, -1) for zz in zs], axis=0)
        supcon_loss(z, pos, 0.05).backward()
        step = 1e-5
        for name in ("w0", "block0.attn.wq.0", "block1.cross.wv.1", "seg_init.ws.0", "block1.ffn.w2"):
            grad = tp[name].grad
            for fi in (0, grad.size - 1):
                idx = np.unravel_index(fi, grad.shape)
                perturbed = {k: v.copy() for k, v in params.items()}
                perturbed[name][idx] += step
                up = loss_of(perturbed)
                perturbed[name][idx] -= 2 * step
                down = loss_of(perturbed)
                fd = (up - down) / (2 * step)
                assert abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-6) < 1e-4


class TestAdam:
    def test_pinned_defaults(self):
        cfg = TrainConfig()
        assert (cfg.tau, cfg.batch_items, cfg.n_pos) == (0.05, 60, 3)
        assert (cfg.lr, cfg.epochs) == (1e-5, 100)
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
        assert cfg.groups_per_batch == 15

    def test_single_step_matches_reference(self):
        cfg = TrainConfig(lr=0.1)
        params = {"w": np.array([1.0, 2.0])}
        opt = Adam(params, cfg)
        g = np.array([0.5, -0.25])
        opt.step({"w": g})
        m = 0.1 * g
        v = 0.001 * g * g
        expected = np.array([1.0, 2.0]) - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
        np.testing.assert_allclose(params["w"], expected, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(tau=0.0)
        with pytest.raises(ValueError):
            TrainConfig(n_pos=0)
