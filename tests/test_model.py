import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    as_tensors,
    batch_forward,
    block_frames,
    cross_attention_block,
    ffn,
    fingerprint_forward,
    forward_stack,
    init_segment_embeddings,
    multi_head_attention,
    rms_norm,
    seg_init,
    supcon_loss,
)

from vlafp import model
from vlafp.autodiff import Tensor, concat
from vlafp.model import (
    ModelConfig,
    PackedBatch,
    fingerprint,
    fingerprint_batch,
    fingerprint_batch_forward,
    init_parameters,
    load_checkpoint,
    pack_segments,
    save_checkpoint,
)
from vlafp import training

DESK = ModelConfig()
SMALL = ModelConfig(f_bins=6, d=8, n_blocks=2, n_heads=2, d_head=4)


class TestConfig:
    def test_ffn_hidden_formula(self):
        assert ModelConfig(f_bins=4, d=3).ffn_hidden == 8
        assert DESK.ffn_hidden == int(np.ceil(1.0 * (2 / 3) * 4 * 32))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
    def test_ffn_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(ValueError, match="ffn_alpha must be finite and > 0"):
            ModelConfig(ffn_alpha=alpha)

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            ModelConfig(eps=eps)


class TestRmsNorm:
    def test_ones_stay_ones(self):
        x = Tensor(np.ones((2, 4)))
        out = rms_norm(x, Tensor(np.ones(4)), eps=1e-12)
        np.testing.assert_allclose(out.data, 1.0, atol=1e-6)

    def test_three_four(self):
        out = rms_norm(Tensor(np.array([[3.0, 4.0]])), Tensor(np.ones(2)), eps=0.0)
        np.testing.assert_allclose(out.data, [[3, 4]] / np.sqrt(12.5), atol=1e-12)

    def test_unit_rms_rows(self, rng):
        x = rng.standard_normal((5, 8)) * 3
        out = rms_norm(Tensor(x), Tensor(np.ones(8)), eps=1e-12).data
        np.testing.assert_allclose(np.sqrt((out**2).mean(axis=1)), 1.0, atol=1e-5)


class TestFfn:
    def test_zero_input_zero_output(self):
        out = ffn(
            Tensor(np.zeros((3, 2))),
            Tensor(np.ones((2, 5))),
            Tensor(np.ones((5, 2))),
            Tensor(np.ones((2, 5))),
        )
        np.testing.assert_allclose(out.data, 0.0)

    def test_scalar_case(self):
        one = Tensor(np.ones((1, 1)))
        out = ffn(one, Tensor(np.ones((1, 1))), Tensor(np.ones((1, 1))), Tensor(np.ones((1, 1))))
        sigma1 = 1 / (1 + np.exp(-1))
        np.testing.assert_allclose(out.data, sigma1, atol=1e-4)


class TestAttention:
    def test_single_row_softmax_is_identity_weight(self, rng):
        cfg = ModelConfig(f_bins=4, d=8, n_blocks=1, n_heads=2, d_head=4)
        params = init_parameters(cfg, seed=0)
        tp = as_tensors(params)
        x = Tensor(rng.standard_normal((1, 8)))
        out = multi_head_attention(x, x, tp, "block0.attn", 2, 4)
        heads = []
        for h in range(2):
            v = x.data @ params[f"block0.attn.wv.{h}"]
            heads.append(v)
        expected = np.concatenate(heads, axis=1) @ params["block0.attn.wo"]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_identical_rows_give_identical_outputs(self, rng):
        cfg = SMALL
        tp = as_tensors(init_parameters(cfg, seed=1))
        row = rng.standard_normal(8)
        x = Tensor(np.tile(row, (4, 1)))
        out = multi_head_attention(x, x, tp, "block0.attn", cfg.n_heads, cfg.d_head)
        assert np.allclose(out.data, out.data[0], atol=1e-12)

    def test_hand_sized_oracle(self, rng):
        # T=3, d=2, H=1, d_h=2 against a straight-line numpy computation
        wq = rng.standard_normal((2, 2))
        wk = rng.standard_normal((2, 2))
        wv = rng.standard_normal((2, 2))
        wo = rng.standard_normal((2, 2))
        tp = {
            "a.wq.0": Tensor(wq),
            "a.wk.0": Tensor(wk),
            "a.wv.0": Tensor(wv),
            "a.wo": Tensor(wo),
        }
        x = rng.standard_normal((3, 2))
        got = multi_head_attention(Tensor(x), Tensor(x), tp, "a", 1, 2).data
        q, k, v = x @ wq, x @ wk, x @ wv
        logits = q @ k.T / np.sqrt(2)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got, (att @ v) @ wo, atol=1e-12)

    def test_block_zero_params_near_identity(self, rng):
        cfg = SMALL
        params = {k: np.zeros_like(v) for k, v in init_parameters(cfg, seed=0).items()}
        # zero gains kill the normed input; residuals carry everything
        tp = as_tensors(params)
        x = rng.standard_normal((5, 8))
        out = block_frames(Tensor(x), tp, 0, cfg)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_cross_attention_zero_wo_is_identity(self, rng):
        cfg = SMALL
        params = init_parameters(cfg, seed=0)
        params["block0.cross.wo"] = np.zeros_like(params["block0.cross.wo"])
        tp = as_tensors(params)
        s = rng.standard_normal((cfg.n_heads, cfg.d))
        frames = rng.standard_normal((6, cfg.d))
        out = cross_attention_block(Tensor(s), Tensor(frames), tp, 0, cfg)
        np.testing.assert_allclose(out.data, s, atol=1e-12)

    def test_cross_attention_collapses_frames(self, rng):
        cfg = SMALL
        tp = as_tensors(init_parameters(cfg, seed=2))
        s = rng.standard_normal((cfg.n_heads, cfg.d))
        for t in (1, 3, 50):
            frames = rng.standard_normal((t, cfg.d))
            out = cross_attention_block(Tensor(s), Tensor(frames), tp, 0, cfg)
            assert out.shape == (cfg.n_heads, cfg.d)

    def test_cross_attention_hand_oracle(self, rng):
        # H=2 query rows, T=3 frames, straight-line numpy reference
        cfg = SMALL
        params = init_parameters(cfg, seed=6)
        tp = as_tensors(params)
        s = rng.standard_normal((2, cfg.d))[:2]
        frames = rng.standard_normal((3, cfg.d))
        got = cross_attention_block(Tensor(s), Tensor(frames), tp, 0, cfg).data

        def ref_rms(x, gain):
            return x / np.sqrt((x**2).mean(axis=-1, keepdims=True) + cfg.eps) * gain

        q_in = ref_rms(s, params["block0.cross_qnorm.gain"])
        kv_in = ref_rms(frames, params["block0.cross_kvnorm.gain"])
        heads = []
        for h in range(cfg.n_heads):
            q = q_in @ params[f"block0.cross.wq.{h}"]
            k = kv_in @ params[f"block0.cross.wk.{h}"]
            v = kv_in @ params[f"block0.cross.wv.{h}"]
            logits = q @ k.T / np.sqrt(cfg.d_head)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            heads.append((e / e.sum(axis=1, keepdims=True)) @ v)
        expected = s + np.concatenate(heads, axis=1) @ params["block0.cross.wo"]
        np.testing.assert_allclose(got, expected, atol=1e-12)


def oracle_vector(mel, params, cfg):
    return fingerprint_forward(Tensor(mel), as_tensors(params), cfg).data


class TestSegInit:
    def test_single_frame_pool_is_that_frame(self, rng):
        cfg = SMALL
        params = init_parameters(cfg, seed=3)
        tp = as_tensors(params)
        h1 = rng.standard_normal((1, 1, cfg.d))
        s0 = seg_init(Tensor(h1), tp, cfg)
        for h in range(cfg.n_heads):
            np.testing.assert_allclose(
                s0.data[0, h], (h1[0] @ params[f"seg_init.ws.{h}"])[0], atol=1e-12
            )

    def test_permutation_invariant(self, rng):
        cfg = SMALL
        tp = as_tensors(init_parameters(cfg, seed=3))
        h1 = rng.standard_normal((1, 7, cfg.d))
        a = seg_init(Tensor(h1), tp, cfg).data
        b = seg_init(Tensor(h1[:, ::-1].copy()), tp, cfg).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_distinct_heads_distinct_rows(self, rng):
        cfg = SMALL
        tp = as_tensors(init_parameters(cfg, seed=3))
        s0 = seg_init(Tensor(rng.standard_normal((1, 5, cfg.d))), tp, cfg).data
        assert not np.allclose(s0[0, 0], s0[0, 1])

    def test_stack_matches_single_segment_oracle(self, rng):
        cfg = SMALL
        tp = as_tensors(init_parameters(cfg, seed=3))
        h1 = rng.standard_normal((4, 9, cfg.d))
        got = seg_init(Tensor(h1), tp, cfg).data
        for i in range(4):
            want = init_segment_embeddings(Tensor(h1[i]), tp, cfg).data
            np.testing.assert_allclose(got[i], want, atol=1e-12)


def jittered_params(cfg, seed):
    """init_parameters with every norm gain moved off 1, so the gains count."""
    rng = np.random.default_rng(seed)
    params = init_parameters(cfg, seed=seed)
    return {k: v + rng.normal(0.0, 0.1, v.shape) if k.endswith(".gain") else v for k, v in params.items()}


class TestLayersMatchReference:
    """Each layer of the numpy forward, without a tape, against its Tensor reference.

    Inputs are n = 3 stacks of L frames (x, width d; mel, width f_bins) and
    their H segment embeddings (s); w is the head-fused numpy parameters and
    tp the per-head Tensors.
    """

    LAYERS = {
        "rms_norm": (
            lambda i, w: model._rms_norm(i["x"], w["block1.ffn_norm.gain"], DESK.eps, None),
            lambda i, tp: rms_norm(Tensor(i["x"]), tp["block1.ffn_norm.gain"], DESK.eps),
        ),
        "self_attention": (
            lambda i, w: model._attention(i["x"], i["x"], w, "block1.attn", DESK, None),
            lambda i, tp: multi_head_attention(
                Tensor(i["x"]), Tensor(i["x"]), tp, "block1.attn", DESK.n_heads, DESK.d_head
            ),
        ),
        "cross_attention": (
            lambda i, w: model._attention(i["s"], i["x"], w, "block1.cross", DESK, None),
            lambda i, tp: multi_head_attention(
                Tensor(i["s"]), Tensor(i["x"]), tp, "block1.cross", DESK.n_heads, DESK.d_head
            ),
        ),
        "ffn": (
            lambda i, w: model._ffn(i["x"], w, "block1.ffn", None),
            lambda i, tp: ffn(
                Tensor(i["x"]), tp["block1.ffn.w1"], tp["block1.ffn.w2"], tp["block1.ffn.w3"]
            ),
        ),
        "block_frames": (
            lambda i, w: model._block_frames(i["x"], w, 1, DESK, None),
            lambda i, tp: block_frames(Tensor(i["x"]), tp, 1, DESK),
        ),
        "seg_init": (
            lambda i, w: model._seg_init(i["x"], w, DESK, None),
            lambda i, tp: seg_init(Tensor(i["x"]), tp, DESK),
        ),
        "cross_block": (
            lambda i, w: model._cross_block(i["s"], i["x"], w, 1, DESK, None),
            lambda i, tp: cross_attention_block(Tensor(i["s"]), Tensor(i["x"]), tp, 1, DESK),
        ),
        "forward_stack": (
            lambda i, w: model._forward_stack(i["mel"], w, DESK),
            lambda i, tp: concat([z.reshape(1, -1) for z in forward_stack(i["mel"], tp, DESK)], axis=0),
        ),
    }

    @pytest.mark.parametrize("length", [1, 28])
    @pytest.mark.parametrize("layer", sorted(LAYERS))
    def test_same_bytes_at_desk_size(self, layer, length):
        rng = np.random.default_rng(length)
        params = jittered_params(DESK, seed=11)
        inputs = {
            "x": rng.standard_normal((3, length, DESK.d)),
            "mel": rng.standard_normal((3, length, DESK.f_bins)),
            "s": rng.standard_normal((3, DESK.n_heads, DESK.d)),
        }
        ours, reference = self.LAYERS[layer]
        got = ours(inputs, model._fuse_heads(params, DESK))
        want = reference(inputs, as_tensors(params)).data
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_cross_block_with_zero_wo_is_identity(self, rng):
        params = init_parameters(DESK, seed=0)
        params["block0.cross.wo"] = np.zeros_like(params["block0.cross.wo"])
        s = rng.standard_normal((2, DESK.n_heads, DESK.d))
        frames = rng.standard_normal((2, 6, DESK.d))
        out = model._cross_block(s, frames, model._fuse_heads(params, DESK), 0, DESK, None)
        assert np.array_equal(out, s)

    def test_single_frame_pool_is_that_frame(self, rng):
        params = init_parameters(DESK, seed=3)
        h1 = rng.standard_normal((2, 1, DESK.d))
        s0 = model._seg_init(h1, model._fuse_heads(params, DESK), DESK, None)
        for h in range(DESK.n_heads):
            np.testing.assert_allclose(
                s0[:, h], h1[:, 0] @ params[f"seg_init.ws.{h}"], rtol=0, atol=1e-12
            )


class TestFingerprint:
    def test_unit_norm(self, rng):
        params = init_parameters(DESK, seed=0)
        for t in (1, 5, 60, 157):
            z = fingerprint(rng.standard_normal((t, DESK.f_bins)), params, DESK).vector
            assert abs(np.linalg.norm(z) - 1.0) < 1e-5

    def test_frame_permutation_invariance(self, rng):
        params = init_parameters(DESK, seed=0)
        mel = rng.standard_normal((30, DESK.f_bins))
        a = fingerprint(mel, params, DESK).vector
        b = fingerprint(mel[rng.permutation(30)], params, DESK).vector
        assert np.abs(a - b).max() < 1e-6

    def test_distinct_inputs_distinct_outputs(self, rng):
        params = init_parameters(DESK, seed=0)
        a = fingerprint(rng.standard_normal((20, DESK.f_bins)), params, DESK).vector
        b = fingerprint(rng.standard_normal((20, DESK.f_bins)), params, DESK).vector
        assert float(a @ b) < 1.0 - 1e-6

    def test_non_finite_rejected(self):
        params = init_parameters(DESK, seed=0)
        mel = np.full((4, DESK.f_bins), np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            fingerprint(mel, params, DESK)

    def test_bad_shape_rejected(self):
        params = init_parameters(DESK, seed=0)
        with pytest.raises(ValueError):
            fingerprint(np.zeros((0, DESK.f_bins)), params, DESK)

    def test_matches_single_segment_oracle(self, rng):
        params = init_parameters(DESK, seed=0)
        for t in (1, 2, 31, 157):
            mel = rng.standard_normal((t, DESK.f_bins))
            got = fingerprint(mel, params, DESK).vector
            np.testing.assert_allclose(got, oracle_vector(mel, params, DESK), rtol=0, atol=1e-12)


class TestPackedBatch:
    def test_empty_span_rejected(self, rng):
        with pytest.raises(ValueError, match="T >= 1, got shape \\(0, 4\\)"):
            PackedBatch((rng.standard_normal((3, 4)), np.zeros((0, 4))))

    def test_spans_are_the_mels_laid_end_to_end(self, rng):
        batch = pack_segments([rng.standard_normal((t, 4)) for t in (3, 1, 7, 2)])
        assert batch.spans == ((0, 3), (3, 1), (4, 7), (11, 2))
        assert pack_segments([]).spans == ()

    def test_single_span_matches_fingerprint(self, rng):
        params = init_parameters(DESK, seed=4)
        mel = rng.standard_normal((25, DESK.f_bins))
        packed = fingerprint_batch(pack_segments([mel]), params, DESK)[0]
        assert np.array_equal(packed, fingerprint(mel, params, DESK).vector)
        assert np.abs(packed - oracle_vector(mel, params, DESK)).max() < 1e-12

    def test_packed_equals_per_segment(self, rng):
        params = init_parameters(DESK, seed=4)
        mels = [rng.standard_normal((t, DESK.f_bins)) for t in (16, 40, 96)]
        packed = fingerprint_batch(pack_segments(mels), params, DESK)
        for z, mel in zip(packed, mels):
            assert np.abs(z - oracle_vector(mel, params, DESK)).max() < 1e-12

    def test_mixed_lengths_share_rows(self, rng):
        params = init_parameters(DESK, seed=4)
        mels = [rng.standard_normal((t, DESK.f_bins)) for t in (8, 40, 8, 8)]
        packed = fingerprint_batch(pack_segments(mels), params, DESK)
        for z, mel in zip(packed, mels):
            assert np.abs(z - oracle_vector(mel, params, DESK)).max() < 1e-12

    def test_non_finite_rejected(self, rng):
        params = init_parameters(DESK, seed=0)
        mel = rng.standard_normal((6, DESK.f_bins))
        mel[3, 5] = np.nan
        batch = pack_segments([rng.standard_normal((4, DESK.f_bins)), mel])
        with pytest.raises(ValueError, match="non-finite"):
            fingerprint_batch(batch, params, DESK)

    def test_wrong_frame_width_rejected(self, rng):
        params = init_parameters(DESK, seed=0)
        batch = pack_segments([rng.standard_normal((4, DESK.f_bins - 1))])
        with pytest.raises(ValueError, match=f"expected \\(T, {DESK.f_bins}\\)"):
            fingerprint_batch(batch, params, DESK)

    def test_one_wrong_width_mel_among_others_rejected(self, rng):
        params = init_parameters(DESK, seed=0)
        mels = [rng.standard_normal((4, DESK.f_bins)), rng.standard_normal((4, DESK.f_bins + 1))]
        message = f"expected \\(T, {DESK.f_bins}\\) mel frames, got shape \\(4, {DESK.f_bins + 1}\\)"
        with pytest.raises(ValueError, match=message):
            fingerprint_batch(pack_segments(mels), params, DESK)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mel_of_its_own_length_rejected(self, rng, bad):
        params = init_parameters(DESK, seed=0)
        mels = [rng.standard_normal((t, DESK.f_bins)) for t in (4, 4, 9)]
        mels[2][8, 0] = bad
        with pytest.raises(ValueError, match="non-finite values in mel input"):
            fingerprint_batch(pack_segments(mels), params, DESK)

    def test_stacks_stay_within_attention_cap(self, rng, monkeypatch):
        seen = []
        forward_stack = model._forward_stack

        def record(x, *rest):
            seen.append(x.shape[:2])
            return forward_stack(x, *rest)

        monkeypatch.setattr(model, "_forward_stack", record)
        lengths = [100] * 7 + [3, 260, 260]
        mels = [rng.standard_normal((t, SMALL.f_bins)) for t in lengths]
        fingerprint_batch(pack_segments(mels), init_parameters(SMALL, seed=5), SMALL)
        # 65 536 // 100^2 = 6 segments of 100 frames fit one stack; 260^2 > 65 536
        assert sorted(seen) == [(1, 3), (1, 100), (1, 260), (1, 260), (6, 100)]

    # 1 frame, repeated and mixed lengths, and groups past the chunk cap:
    # seven 100-frame segments hold 70 000 attention cells, and a single
    # 260-frame segment 67 600, above model.MAX_ATTENTION_CELLS.
    @example(lengths=[1], seed=0)
    @example(lengths=[5, 1, 5, 1, 1], seed=1)
    @example(lengths=[100] * 7 + [3], seed=2)
    @example(lengths=[260, 1, 260], seed=3)
    @given(
        lengths=st.lists(st.sampled_from([1, 2, 3, 17, 100, 260]), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle_in_span_order(self, lengths, seed):
        rng = np.random.default_rng(seed)
        params = init_parameters(SMALL, seed=5)
        mels = [rng.standard_normal((t, SMALL.f_bins)) for t in lengths]
        batch = pack_segments(mels)
        packed = fingerprint_batch(batch, params, SMALL)
        assert len(packed) == len(mels)
        reference = batch_forward(batch, as_tensors(params), SMALL)
        assert np.stack(packed).tobytes() == np.stack([z.data for z in reference]).tobytes()
        for z, mel in zip(packed, mels):
            np.testing.assert_allclose(z, oracle_vector(mel, params, SMALL), rtol=0, atol=1e-12)

    def test_constructs_no_tensor(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fingerprint_batch built a Tensor")

        monkeypatch.setattr(Tensor, "__init__", refuse)
        mels = [rng.standard_normal((t, DESK.f_bins)) for t in (3, 28, 28)]
        assert len(fingerprint_batch(pack_segments(mels), init_parameters(DESK, seed=0), DESK)) == 3


class TestBackward:
    """The hand-written backward against the Tensor graph's, through the contrastive loss."""

    def test_every_parameter_matches_the_tensor_graph(self):
        rng = np.random.default_rng(8)
        params = init_parameters(DESK, seed=8)
        # 15 groups of 4, lengths mixed within and across groups, 1 frame included
        lengths = rng.choice([1, 16, 28, 28, 28, 40, 93], size=60)
        batch = pack_segments([rng.standard_normal((t, DESK.f_bins)) for t in lengths])
        pos = {i: [j for j in range(60) if j // 4 == i // 4 and j != i] for i in range(60)}
        z, backward = fingerprint_batch_forward(batch, params, DESK)
        got = backward(training.supcon_loss(z, pos, 0.05)[1])
        tp = as_tensors(params, requires_grad=True)
        zs = batch_forward(batch, tp, DESK)
        supcon_loss(concat([zi.reshape(1, -1) for zi in zs], axis=0), pos, 0.05).backward()
        want = {name: t.grad for name, t in tp.items()}
        assert set(got) == set(want) == set(params)
        for name in params:
            assert got[name] is not None, f"no gradient reached {name}"
            assert got[name].shape == params[name].shape, name
            scale = np.abs(want[name]).max()
            assert scale > 0.0, name
            assert np.abs(got[name] - want[name]).max() <= 1e-10 * scale, name

    def test_forward_values_are_the_inference_bytes(self, rng):
        params = init_parameters(SMALL, seed=2)
        batch = pack_segments([rng.standard_normal((t, SMALL.f_bins)) for t in (4, 9, 4, 1)])
        z, _ = fingerprint_batch_forward(batch, params, SMALL)
        inference = fingerprint_batch(batch, params, SMALL)
        assert z.tobytes() == np.stack(inference).tobytes()


class TestCheckpoint:
    def test_roundtrip_values_and_config(self, tmp_path):
        params = init_parameters(SMALL, seed=9)
        path = tmp_path / "model.vlfp"
        save_checkpoint(path, params, SMALL)
        loaded, cfg = load_checkpoint(path)
        assert cfg == SMALL
        assert set(loaded) == set(params)
        for k in params:
            np.testing.assert_allclose(loaded[k], params[k].astype(np.float32), atol=0)

    def test_roundtrip_bytes_identical(self, tmp_path):
        params = init_parameters(SMALL, seed=9)
        p1 = tmp_path / "a.vlfp"
        p2 = tmp_path / "b.vlfp"
        save_checkpoint(p1, params, SMALL)
        loaded, cfg = load_checkpoint(p1)
        save_checkpoint(p2, loaded, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.vlfp"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "vfuture.vlfp"
        path.write_bytes(
            b"VLFP" + struct.pack("<8I2d", 99, 4, 8, 8, 8, 1, 2, 4, 1.0, 1e-6) + b"\x00" * 4
        )
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_header_writes_d_in_all_three_width_slots(self, tmp_path):
        path = tmp_path / "model.vlfp"
        save_checkpoint(path, init_parameters(SMALL, seed=9), SMALL)
        header = struct.pack("<8I2d", 1, 6, 8, 8, 8, 2, 2, 4, 1.0, 1e-6)
        assert path.read_bytes()[: 4 + len(header)] == b"VLFP" + header

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_unequal_header_widths_rejected(self, tmp_path, slot):
        path = tmp_path / "model.vlfp"
        save_checkpoint(path, init_parameters(SMALL, seed=9), SMALL)
        data = bytearray(path.read_bytes())
        # magic, version and f_bins precede the three width u32s
        struct.pack_into("<I", data, 12 + 4 * slot, 9)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="widths must be equal") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("eps", [np.nan, -1.0])
    def test_header_eps_must_be_finite_and_positive(self, tmp_path, eps):
        path = tmp_path / "model.vlfp"
        save_checkpoint(path, init_parameters(SMALL, seed=9), SMALL)
        data = bytearray(path.read_bytes())
        # eps is the last double of the header, after magic, eight u32s and ffn_alpha
        struct.pack_into("<d", data, 4 + 8 * 4 + 8, eps)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="eps must be finite and > 0") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("keep", [30, 2000])
    def test_truncated_desk_checkpoint_names_path(self, tmp_path, keep):
        full = tmp_path / "full.vlfp"
        save_checkpoint(full, init_parameters(DESK, seed=0), DESK)
        path = tmp_path / "cut.vlfp"
        path.write_bytes(full.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize(
        "edit,needle",
        [
            (lambda p: p.pop("w0"), "missing tensor 'w0'"),
            (lambda p: p.update(extra=np.zeros(3)), "unexpected tensor 'extra'"),
            (lambda p: p.update({"block0.ffn.w1": p["block0.ffn.w1"].T}), "tensor 'block0.ffn.w1' has shape"),
            (lambda p: p["b0"].__setitem__(0, np.nan), "tensor 'b0' has non-finite values"),
            (lambda p: p["block1.attn.wo"].__setitem__((0, 0), np.inf), "tensor 'block1.attn.wo' has non-finite"),
        ],
        ids=["missing", "unexpected", "shape", "nan", "inf"],
    )
    def test_tensors_must_match_the_header(self, tmp_path, edit, needle):
        params = init_parameters(SMALL, seed=9)
        edit(params)
        path = tmp_path / "model.vlfp"
        save_checkpoint(path, params, SMALL)
        with pytest.raises(ValueError, match=re.escape(needle)) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_duplicate_tensor_rejected(self, tmp_path):
        path = tmp_path / "model.vlfp"
        save_checkpoint(path, init_parameters(SMALL, seed=9), SMALL)
        data = bytearray(path.read_bytes())
        # w0 is the last record (records are sorted by name): repeat it.
        last = 4 + len(b"w0") + 4 + 8 + 4 * SMALL.f_bins * SMALL.d
        count_at = 4 + struct.calcsize("<8I2d")
        struct.pack_into("<I", data, count_at, struct.unpack_from("<I", data, count_at)[0] + 1)
        path.write_bytes(bytes(data) + bytes(data[-last:]))
        with pytest.raises(ValueError, match="duplicate tensor"):
            load_checkpoint(path)

    def test_every_truncation_rejected(self, tmp_path):
        full = tmp_path / "full.vlfp"
        save_checkpoint(full, init_parameters(SMALL, seed=9), SMALL)
        data = full.read_bytes()
        path = tmp_path / "cut.vlfp"
        for keep in [*range(4, 300), *range(300, len(data), 97)]:
            path.write_bytes(data[:keep])
            with pytest.raises(ValueError, match="truncated"):
                load_checkpoint(path)
