import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlafp.augment import AugmentConfig, make_ir_pool, make_noise_pool
from vlafp.autodiff import Tensor
from vlafp.dsp import MelConfig
from vlafp.model import ModelConfig, PackedBatch, fingerprint_batch_forward, init_parameters
from vlafp.synth import SynthSpec, generate
from vlafp.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    BuiltBatch,
    TrainConfig,
    build_batch,
    supcon_loss,
    train,
    train_step,
)
from vlafp.pipeline import training_sources
from vlafp.segmentation import FIXED_WINDOWS

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
            val, _ = supcon_loss(z, pos, TAU)
            assert val == pytest.approx(b * np.log(b - 1), abs=1e-9)

    def test_two_identical_items_zero(self):
        z = np.tile(np.ones(4) / 2.0, (2, 1))
        val, _ = supcon_loss(z, {0: [1], 1: [0]}, TAU)
        assert abs(val) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((6, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        pos = {0: [1, 2], 1: [0, 2], 2: [0, 1], 3: [4], 4: [3], 5: [3, 4]}
        _, grad = supcon_loss(z, pos, TAU)
        eps = 1e-6
        for i in range(6):
            for j in range(4):
                zp = z.copy()
                zp[i, j] += eps
                up, _ = supcon_loss(zp, pos, TAU)
                zp[i, j] -= 2 * eps
                dn, _ = supcon_loss(zp, pos, TAU)
                fd = (up - dn) / (2 * eps)
                assert abs(fd - grad[i, j]) / max(1.0, abs(fd)) < 1e-6

    def test_empty_positive_set_rejected(self, rng):
        z = rng.standard_normal((3, 4))
        with pytest.raises(ValueError, match="empty positive set"):
            supcon_loss(z, {0: []}, TAU)

    def test_self_positive_rejected(self, rng):
        z = rng.standard_normal((3, 4))
        with pytest.raises(ValueError, match="itself"):
            supcon_loss(z, {0: [0, 1]}, TAU)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((8, 5))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        group_ids = [0, 0, 1, 1, 2, 2, 2, 2]
        pos = full_positive_sets(group_ids)
        base, _ = supcon_loss(z, pos, TAU)
        perm = rng.permutation(8)
        z_p = z[perm]
        pos_p = full_positive_sets([group_ids[i] for i in perm])
        permuted, _ = supcon_loss(z_p, pos_p, TAU)
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_temperature_equals_similarity_rescale(self):
        # tau -> c*tau is the same loss as dividing every similarity by c;
        # scaling fingerprints by 1/sqrt(c) scales the Gram matrix by 1/c
        rng = np.random.default_rng(9)
        z = rng.standard_normal((6, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        pos = full_positive_sets([0, 0, 0, 1, 1, 1])
        c = 2.5
        a, _ = supcon_loss(z, pos, TAU * c)
        b, _ = supcon_loss(z / np.sqrt(c), pos, TAU)
        assert a == pytest.approx(b, rel=1e-10)


@st.composite
def loss_inputs(draw):
    """Unit fingerprints in anchor groups of 2-5, the last group ragged, and a temperature."""
    n = draw(st.integers(2, 80))
    d = draw(st.integers(1, 32))
    size = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    z = np.random.default_rng(seed).standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    # the last group is whatever is left, so a lone last item has no positive and is no anchor
    groups = [list(range(g, min(g + size, n))) for g in range(0, n, size)]
    pos = {i: [j for j in group if j != i] for group in groups if len(group) > 1 for i in group}
    return z, pos, draw(st.sampled_from([0.05, 0.1, 1.0]))


@given(loss_inputs())
@settings(max_examples=60, deadline=None)
def test_supcon_loss_bytes_equal_the_tensor_graph(inputs):
    z, pos, tau = inputs
    value, grad = supcon_loss(z, pos, tau)
    zt = Tensor(z, requires_grad=True)
    loss = oracles.supcon_loss(zt, pos, tau)
    loss.backward()
    assert np.float64(value).tobytes() == loss.data.tobytes()
    assert grad.tobytes() == zt.grad.tobytes()


@pytest.fixture(scope="module")
def tiny_setup():
    corpus = generate(SynthSpec(n_audios=4, duration_range=(4.0, 4.0), seed=5))
    mel_cfg = MelConfig(n_mels=32)
    aug = AugmentConfig(
        enable_ts=False,
        bg_pool=make_noise_pool(3, 1.0, FS, 1),
        ir_pool=make_ir_pool(3, 0.1, FS, 2),
    )
    sources = training_sources(corpus, FIXED_WINDOWS, mel_cfg)
    model_cfg = ModelConfig(f_bins=32, d=16, n_blocks=1, n_heads=2, d_head=8)
    return sources, mel_cfg, aug, model_cfg


class TestBuildBatch:
    def test_group_sizes(self, tiny_setup):
        sources, mel_cfg, aug, _ = tiny_setup
        cfg = TrainConfig(batch_items=16, n_pos=3, seed=0)
        batch = build_batch(sources[:4], cfg, aug, mel_cfg, np.random.default_rng(0))
        assert batch.packed.n_segments == 16
        for i in range(16):
            assert len(batch.positive_sets[i]) == 3

    @pytest.mark.parametrize("n_pos", [1, 2, 3, 4, 5])
    def test_n_pos_sweep(self, tiny_setup, n_pos):
        sources, mel_cfg, aug, _ = tiny_setup
        cfg = TrainConfig(batch_items=2 * (1 + n_pos), n_pos=n_pos, seed=0)
        batch = build_batch(sources[:2], cfg, aug, mel_cfg, np.random.default_rng(0))
        assert batch.packed.n_segments == 2 * (1 + n_pos)

    def test_same_seed_same_batch(self, tiny_setup):
        sources, mel_cfg, aug, _ = tiny_setup
        cfg = TrainConfig(batch_items=8, n_pos=1, seed=0)
        a = build_batch(sources[:4], cfg, aug, mel_cfg, np.random.default_rng(3))
        b = build_batch(sources[:4], cfg, aug, mel_cfg, np.random.default_rng(3))
        assert len(a.packed.mels) == len(b.packed.mels) == 8
        for x, y in zip(a.packed.mels, b.packed.mels):
            assert np.array_equal(x, y)
        assert a.positive_sets == b.positive_sets

    def test_empty_corpus_rejected(self, tiny_setup):
        _, mel_cfg, aug, _ = tiny_setup
        with pytest.raises(ValueError, match="empty corpus"):
            build_batch([], TrainConfig(), aug, mel_cfg, np.random.default_rng(0))


class TestTrainLoop:
    def test_zero_lr_keeps_params_bit_exact(self, tiny_setup):
        # TrainConfig rejects lr 0, so the optimizer's rate is zeroed after construction
        sources, mel_cfg, aug, model_cfg = tiny_setup
        cfg = TrainConfig(batch_items=8, n_pos=1, epochs=1, seed=0)
        params = init_parameters(model_cfg, seed=0)
        before = {k: v.copy() for k, v in params.items()}
        optimizer = Adam(params, cfg)
        optimizer.lr = 0.0
        batch = build_batch(sources[:4], cfg, aug, mel_cfg, np.random.default_rng(0))
        train_step(params, optimizer, batch, model_cfg, cfg)
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
        cfg = ModelConfig(f_bins=5, d=8, n_blocks=2, n_heads=2, d_head=4)
        params = init_parameters(cfg, seed=11)
        rng = np.random.default_rng(11)
        mels = [rng.standard_normal((t, 5)) for t in (4, 6, 3, 5)]
        batch = PackedBatch(tuple(mels))
        pos = {0: [1], 1: [0], 2: [3], 3: [2]}

        def loss_of(p) -> float:
            z, _ = fingerprint_batch_forward(batch, p, cfg)
            return supcon_loss(z, pos, 0.05)[0]

        z, backward = fingerprint_batch_forward(batch, params, cfg)
        grads = backward(supcon_loss(z, pos, 0.05)[1])
        step = 1e-5
        for name in ("w0", "block0.attn.wq.0", "block1.cross.wv.1", "seg_init.ws.0", "block1.ffn.w2"):
            grad = grads[name]
            for fi in (0, grad.size - 1):
                idx = np.unravel_index(fi, grad.shape)
                perturbed = {k: v.copy() for k, v in params.items()}
                perturbed[name][idx] += step
                up = loss_of(perturbed)
                perturbed[name][idx] -= 2 * step
                down = loss_of(perturbed)
                fd = (up - down) / (2 * step)
                assert abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-6) < 1e-4


def graph_train_step(params, optimizer, batch, model_cfg, train_cfg) -> float:
    """train_step with the loss on the Tensor graph and the model as one graph node."""
    tp = oracles.as_tensors(params, requires_grad=True)
    z, backward = fingerprint_batch_forward(batch.packed, params, model_cfg)

    def node_backward(g):
        for name, grad in backward(g).items():
            tp[name]._accum(grad)

    loss = oracles.supcon_loss(Tensor._result(z, tuple(tp.values()), node_backward), batch.positive_sets, train_cfg.tau)
    loss.backward()
    optimizer.step({k: t.grad for k, t in tp.items()})
    return loss.item()


class TestTrainStep:
    @pytest.fixture
    def mixed_batch(self):
        """60 items in 15 groups of 4, lengths mixed within and across groups, 1 frame included."""
        rng = np.random.default_rng(21)
        lengths = rng.choice([1, 9, 28, 28, 28, 40, 93], size=60)
        mels = [rng.standard_normal((t, ModelConfig().f_bins)) for t in lengths]
        pos = {i: [j for j in range(60) if j // 4 == i // 4 and j != i] for i in range(60)}
        return BuiltBatch(PackedBatch(tuple(mels)), pos)

    def test_step_bytes_equal_the_tensor_graph_step(self, mixed_batch):
        model_cfg, train_cfg = ModelConfig(), TrainConfig(lr=1e-3)
        params = init_parameters(model_cfg, seed=21)
        graph_params = {k: v.copy() for k, v in params.items()}
        loss = train_step(params, Adam(params, train_cfg), mixed_batch, model_cfg, train_cfg)
        graph_loss = graph_train_step(graph_params, Adam(graph_params, train_cfg), mixed_batch, model_cfg, train_cfg)
        assert np.float64(loss).tobytes() == np.float64(graph_loss).tobytes()
        for name in params:
            assert not np.array_equal(params[name], init_parameters(model_cfg, seed=21)[name]), name
            assert params[name].tobytes() == graph_params[name].tobytes(), name

    def test_step_constructs_no_tensor(self, mixed_batch, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("train_step built a Tensor")

        monkeypatch.setattr(Tensor, "__init__", refuse)
        model_cfg, train_cfg = ModelConfig(), TrainConfig(lr=1e-3)
        params = init_parameters(model_cfg, seed=21)
        assert np.isfinite(train_step(params, Adam(params, train_cfg), mixed_batch, model_cfg, train_cfg))


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
        for field, value in [("tau", 0.0), ("tau", np.inf), ("tau", np.nan), ("lr", 0.0), ("lr", -1.0), ("lr", np.nan)]:
            with pytest.raises(ValueError, match=f"{field} must be finite and > 0, got {value}"):
                TrainConfig(**{field: value})
        with pytest.raises(ValueError):
            TrainConfig(n_pos=0)
        with pytest.raises(ValueError, match="epochs must be >= 1, got 0"):
            TrainConfig(epochs=0)
        for batch_items in (0, 3):
            with pytest.raises(ValueError, match=f"3 positives, got {batch_items}"):
                TrainConfig(batch_items=batch_items, n_pos=3)
        assert TrainConfig(batch_items=4, n_pos=3).groups_per_batch == 1
