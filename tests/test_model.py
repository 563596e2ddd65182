import struct

import numpy as np
import pytest

from vlafp.autodiff import Tensor
from vlafp.model import (
    ModelConfig,
    PackedBatch,
    as_tensors,
    cross_attention_block,
    ffn,
    fingerprint,
    fingerprint_batch,
    init_parameters,
    init_segment_embeddings,
    load_checkpoint,
    multi_head_attention,
    pack_segments,
    rms_norm,
    save_checkpoint,
    block_frames,
)

DESK = ModelConfig()
SMALL = ModelConfig(f_bins=6, d=8, n_blocks=2, n_heads=2, d_head=4)


class TestConfig:
    def test_ffn_hidden_formula(self):
        assert ModelConfig(f_bins=4, d=3).ffn_hidden == 8
        assert DESK.ffn_hidden == int(np.ceil(1.0 * (2 / 3) * 4 * 32))

    def test_full_scale_dims(self):
        cfg = ModelConfig.full_scale()
        assert (cfg.d, cfg.n_blocks, cfg.n_heads, cfg.d_head, cfg.ffn_alpha) == (
            256,
            4,
            8,
            256,
            32.0,
        )


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


class TestSegInit:
    def test_single_frame_pool_is_that_frame(self, rng):
        cfg = SMALL
        params = init_parameters(cfg, seed=3)
        tp = as_tensors(params)
        h1 = rng.standard_normal((1, cfg.d))
        s0 = init_segment_embeddings(Tensor(h1), tp, cfg)
        for h in range(cfg.n_heads):
            np.testing.assert_allclose(
                s0.data[h], (h1 @ params[f"seg_init.ws.{h}"])[0], atol=1e-12
            )

    def test_permutation_invariant(self, rng):
        cfg = SMALL
        tp = as_tensors(init_parameters(cfg, seed=3))
        h1 = rng.standard_normal((7, cfg.d))
        a = init_segment_embeddings(Tensor(h1), tp, cfg).data
        b = init_segment_embeddings(Tensor(h1[::-1].copy()), tp, cfg).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_distinct_heads_distinct_rows(self, rng):
        cfg = SMALL
        tp = as_tensors(init_parameters(cfg, seed=3))
        s0 = init_segment_embeddings(Tensor(rng.standard_normal((5, cfg.d))), tp, cfg).data
        assert not np.allclose(s0[0], s0[1])


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


class TestPackedBatch:
    def test_overlapping_spans_rejected(self, rng):
        frames = rng.standard_normal((10, 4))
        with pytest.raises(ValueError):
            PackedBatch(frames, ((0, 5), (3, 5)))

    def test_empty_span_rejected(self, rng):
        with pytest.raises(ValueError):
            PackedBatch(rng.standard_normal((4, 4)), ((0, 0),))

    def test_span_past_end_rejected(self, rng):
        with pytest.raises(ValueError):
            PackedBatch(rng.standard_normal((4, 4)), ((0, 5),))

    def test_single_span_matches_fingerprint(self, rng):
        params = init_parameters(DESK, seed=4)
        mel = rng.standard_normal((25, DESK.f_bins))
        packed = fingerprint_batch(pack_segments([mel]), params, DESK)[0]
        single = fingerprint(mel, params, DESK).vector
        assert np.abs(packed - single).max() < 1e-6

    def test_packed_equals_per_segment(self, rng):
        params = init_parameters(DESK, seed=4)
        mels = [rng.standard_normal((t, DESK.f_bins)) for t in (16, 40, 96)]
        packed = fingerprint_batch(pack_segments(mels), params, DESK)
        for z, mel in zip(packed, mels):
            assert np.abs(z - fingerprint(mel, params, DESK).vector).max() < 1e-6

    def test_mixed_lengths_share_rows(self, rng):
        params = init_parameters(DESK, seed=4)
        mels = [rng.standard_normal((t, DESK.f_bins)) for t in (8, 8, 8, 40)]
        packed = fingerprint_batch(pack_segments(mels), params, DESK)
        for z, mel in zip(packed, mels):
            assert np.abs(z - fingerprint(mel, params, DESK).vector).max() < 1e-6


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

    @pytest.mark.parametrize("keep", [30, 2000])
    def test_truncated_desk_checkpoint_names_path(self, tmp_path, keep):
        full = tmp_path / "full.vlfp"
        save_checkpoint(full, init_parameters(DESK, seed=0), DESK)
        path = tmp_path / "cut.vlfp"
        path.write_bytes(full.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_every_truncation_rejected(self, tmp_path):
        full = tmp_path / "full.vlfp"
        save_checkpoint(full, init_parameters(SMALL, seed=9), SMALL)
        data = full.read_bytes()
        path = tmp_path / "cut.vlfp"
        for keep in [*range(4, 300), *range(300, len(data), 97)]:
            path.write_bytes(data[:keep])
            with pytest.raises(ValueError, match="truncated"):
                load_checkpoint(path)
