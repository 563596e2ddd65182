"""Dual-attention fingerprint model: projection, self-attention blocks with
gated FFNs, cross-attention pooling into per-head segment embeddings, and
L2-normalized summarization."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, concat, silu, softmax_lastdim

MASKED_BIAS = -1e30
INIT_STD = 0.02

Parameters = dict[str, np.ndarray]


@dataclass(frozen=True)
class ModelConfig:
    f_bins: int = 64
    d: int = 32  # frame and segment width; residual paths tie them together
    n_blocks: int = 2
    n_heads: int = 4
    d_head: int = 8
    ffn_alpha: float = 1.0
    eps: float = 1e-6

    def __post_init__(self):
        dims = (self.f_bins, self.d, self.n_blocks, self.n_heads, self.d_head)
        if any(v < 1 for v in dims):
            raise ValueError(f"all dimensions must be >= 1, got {dims}")

    @property
    def ffn_hidden(self) -> int:
        return math.ceil(self.ffn_alpha * (2.0 / 3.0) * 4.0 * self.d)

    @classmethod
    def full_scale(cls) -> "ModelConfig":
        """Large configuration (d=256, 4 blocks, 8 heads); slow on CPU."""
        return cls(
            f_bins=256, d=256, n_blocks=4, n_heads=8, d_head=256, ffn_alpha=32.0
        )


@dataclass(frozen=True)
class Fingerprint:
    """Unit-L2 segment descriptor with provenance."""

    vector: np.ndarray
    audio_id: int
    start_time: float
    duration: float


@dataclass(frozen=True)
class PackedBatch:
    """Variable-length segments concatenated frame-wise, with per-segment spans."""

    frames: np.ndarray  # (T_total, F)
    spans: tuple[tuple[int, int], ...]  # (offset, length), ordered

    def __post_init__(self):
        prev_end = 0
        for off, length in self.spans:
            if length < 1:
                raise ValueError(f"empty span at offset {off}")
            if off < prev_end:
                raise ValueError("spans must be ordered and non-overlapping")
            prev_end = off + length
        if prev_end > self.frames.shape[0]:
            raise ValueError("span extends past packed frames")

    @property
    def n_segments(self) -> int:
        return len(self.spans)


def pack_segments(mels: list[np.ndarray]) -> PackedBatch:
    """Concatenate per-segment mel matrices into one PackedBatch."""
    spans = []
    offset = 0
    for m in mels:
        spans.append((offset, m.shape[0]))
        offset += m.shape[0]
    return PackedBatch(np.concatenate(mels, axis=0), tuple(spans))


def init_parameters(cfg: ModelConfig, seed: int = 0) -> Parameters:
    """Weights ~ N(0, 0.02^2); biases at 0; norm gains at 1."""
    rng = np.random.default_rng(seed)

    def w(*shape):
        return rng.normal(0.0, INIT_STD, size=shape)

    params: Parameters = {
        "w0": w(cfg.f_bins, cfg.d),
        "b0": np.zeros(cfg.d),
    }
    for l in range(cfg.n_blocks):
        for h in range(cfg.n_heads):
            params[f"block{l}.attn.wq.{h}"] = w(cfg.d, cfg.d_head)
            params[f"block{l}.attn.wk.{h}"] = w(cfg.d, cfg.d_head)
            params[f"block{l}.attn.wv.{h}"] = w(cfg.d, cfg.d_head)
            params[f"block{l}.cross.wq.{h}"] = w(cfg.d, cfg.d_head)
            params[f"block{l}.cross.wk.{h}"] = w(cfg.d, cfg.d_head)
            params[f"block{l}.cross.wv.{h}"] = w(cfg.d, cfg.d_head)
        params[f"block{l}.attn.wo"] = w(cfg.n_heads * cfg.d_head, cfg.d)
        params[f"block{l}.cross.wo"] = w(cfg.n_heads * cfg.d_head, cfg.d)
        params[f"block{l}.attn_norm.gain"] = np.ones(cfg.d)
        params[f"block{l}.ffn_norm.gain"] = np.ones(cfg.d)
        params[f"block{l}.cross_qnorm.gain"] = np.ones(cfg.d)
        params[f"block{l}.cross_kvnorm.gain"] = np.ones(cfg.d)
        params[f"block{l}.ffn.w1"] = w(cfg.d, cfg.ffn_hidden)
        params[f"block{l}.ffn.w3"] = w(cfg.d, cfg.ffn_hidden)
        params[f"block{l}.ffn.w2"] = w(cfg.ffn_hidden, cfg.d)
    for h in range(cfg.n_heads):
        params[f"seg_init.ws.{h}"] = w(cfg.d, cfg.d)
    return params


def as_tensors(params: Parameters, requires_grad: bool = False) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=requires_grad) for k, v in params.items()}


# -- layer primitives ---------------------------------------------------


def rms_norm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """x / sqrt(mean(x^2) + eps) over the last axis, scaled by gain."""
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x / (ms + eps).sqrt() * gain


def multi_head_attention(
    q_in: Tensor,
    kv_in: Tensor,
    tp: dict[str, Tensor],
    prefix: str,
    n_heads: int,
    d_head: int,
    mask_bias: np.ndarray | None = None,
) -> Tensor:
    """softmax(QK^T / sqrt(d_head)) V per head, heads concatenated, then W_O.

    q_in and kv_in may be 2-D (rows x dim) or batched 3-D. The per-head
    projections run as one matmul each, then split into a head axis.
    mask_bias is an additive constant broadcast over heads (0 = attend,
    large negative = blocked).
    """
    scale = 1.0 / math.sqrt(d_head)
    wq = concat([tp[f"{prefix}.wq.{h}"] for h in range(n_heads)], axis=1)
    wk = concat([tp[f"{prefix}.wk.{h}"] for h in range(n_heads)], axis=1)
    wv = concat([tp[f"{prefix}.wv.{h}"] for h in range(n_heads)], axis=1)

    def split_heads(x: Tensor) -> Tensor:
        # (..., rows, H*dh) -> (..., H, rows, dh)
        return x.reshape(*x.shape[:-1], n_heads, d_head).swapaxes(-3, -2)

    q = split_heads(q_in @ wq)
    k = split_heads(kv_in @ wk)
    v = split_heads(kv_in @ wv)
    logits = (q @ k.swapaxes(-1, -2)) * scale
    if mask_bias is not None:
        if mask_bias.ndim == 3:  # (batch, rows, keys): broadcast over heads
            mask_bias = mask_bias[:, None, :, :]
        logits = logits + Tensor(mask_bias)
    att = softmax_lastdim(logits) @ v
    merged = att.swapaxes(-3, -2)
    merged = merged.reshape(*merged.shape[:-2], n_heads * d_head)
    return merged @ tp[f"{prefix}.wo"]


def ffn(x: Tensor, w1: Tensor, w2: Tensor, w3: Tensor) -> Tensor:
    """Gated feedforward: (SiLU(x W1) * (x W3)) W2."""
    return (silu(x @ w1) * (x @ w3)) @ w2


def block_frames(
    h_prev: Tensor,
    tp: dict[str, Tensor],
    block: int,
    cfg: ModelConfig,
    mask_bias: np.ndarray | None = None,
) -> Tensor:
    """Pre-norm residual frame update: self-attention then gated FFN."""
    normed = rms_norm(h_prev, tp[f"block{block}.attn_norm.gain"], cfg.eps)
    h = h_prev + multi_head_attention(
        normed, normed, tp, f"block{block}.attn", cfg.n_heads, cfg.d_head, mask_bias
    )
    h_t = h + ffn(
        rms_norm(h, tp[f"block{block}.ffn_norm.gain"], cfg.eps),
        tp[f"block{block}.ffn.w1"],
        tp[f"block{block}.ffn.w2"],
        tp[f"block{block}.ffn.w3"],
    )
    return h_t


def init_segment_embeddings(h1: Tensor, tp: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Mean-pool block-1 frame embeddings, project once per head: (H, d)."""
    if h1.shape[-2] == 0:
        raise ValueError("cannot pool zero frames")
    pooled = h1.mean(axis=-2, keepdims=True)  # (1, d)
    rows = [pooled @ tp[f"seg_init.ws.{h}"] for h in range(cfg.n_heads)]
    return concat(rows, axis=0)


def cross_attention_block(
    s_prev: Tensor,
    frames: Tensor,
    tp: dict[str, Tensor],
    block: int,
    cfg: ModelConfig,
    mask_bias: np.ndarray | None = None,
) -> Tensor:
    """Segment embeddings attend to frames; a single residual addition."""
    q = rms_norm(s_prev, tp[f"block{block}.cross_qnorm.gain"], cfg.eps)
    kv = rms_norm(frames, tp[f"block{block}.cross_kvnorm.gain"], cfg.eps)
    return s_prev + multi_head_attention(
        q, kv, tp, f"block{block}.cross", cfg.n_heads, cfg.d_head, mask_bias
    )


def l2_normalize(x: Tensor) -> Tensor:
    norm = (x * x).sum() + 1e-24
    return x / norm.sqrt()


# -- full forward pass ---------------------------------------------------


def fingerprint_forward(mel: Tensor, tp: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Map one (T, F) mel segment to a unit-L2 fingerprint Tensor of size d."""
    h = mel @ tp["w0"] + tp["b0"]
    s = None
    for block in range(cfg.n_blocks):
        h = block_frames(h, tp, block, cfg)
        if block == 0:
            s = init_segment_embeddings(h, tp, cfg)
        s = cross_attention_block(s, h, tp, block, cfg)
    return l2_normalize(s.mean(axis=0))


def fingerprint(
    mel: np.ndarray,
    params: Parameters,
    cfg: ModelConfig,
    audio_id: int = 0,
    start_time: float = 0.0,
    duration: float = 0.0,
) -> Fingerprint:
    """Fingerprint a single mel segment (no gradient graph retained)."""
    mel = np.asarray(mel, dtype=np.float64)
    if mel.ndim != 2 or mel.shape[0] < 1:
        raise ValueError(f"expected (T, F) mel with T >= 1, got shape {mel.shape}")
    if not np.all(np.isfinite(mel)):
        raise ValueError("non-finite values in mel input")
    z = fingerprint_forward(Tensor(mel), as_tensors(params), cfg)
    return Fingerprint(z.data.copy(), audio_id, start_time, duration)


# -- packed batches -------------------------------------------------------


def _pack_rows(spans: tuple[tuple[int, int], ...], capacity: int) -> list[list[int]]:
    """Greedy next-fit packing of segment indices into rows of `capacity` frames."""
    rows: list[list[int]] = []
    used = capacity
    for i, (_, length) in enumerate(spans):
        if used + length > capacity:
            rows.append([])
            used = 0
        rows[-1].append(i)
        used += length
    return rows


def fingerprint_batch_forward(
    batch: PackedBatch, tp: dict[str, Tensor], cfg: ModelConfig
) -> list[Tensor]:
    """Forward all segments of a packed batch, several segments per row.

    Additive masks keep both attention paths segment-local: frame
    self-attention is blocked across segment boundaries, and each segment's
    query slot sees only its own frames as keys. Padding positions attend
    only to padding. Returns per-segment fingerprint Tensors in span order.

    Row capacity is the longest span; masked cross-segment attention
    entries are wasted compute, so rows stay as short as the content allows.
    """
    capacity = max(length for _, length in batch.spans)
    rows = _pack_rows(batch.spans, capacity)

    n_rows = len(rows)
    n_slots = max(len(members) for members in rows)
    x = np.zeros((n_rows, capacity, batch.frames.shape[1]))
    block_ids = np.full((n_rows, capacity), -1, dtype=np.int64)
    slot_seg = np.full((n_rows, n_slots), -1, dtype=np.int64)
    pool_mat = np.zeros((n_rows, n_slots, capacity))
    placement: dict[int, tuple[int, int]] = {}
    for r, members in enumerate(rows):
        cursor = 0
        for slot, seg_idx in enumerate(members):
            off, length = batch.spans[seg_idx]
            x[r, cursor : cursor + length] = batch.frames[off : off + length]
            block_ids[r, cursor : cursor + length] = seg_idx
            slot_seg[r, slot] = seg_idx
            pool_mat[r, slot, cursor : cursor + length] = 1.0 / length
            placement[seg_idx] = (r, slot)
            cursor += length

    frame_bias = np.where(block_ids[:, :, None] == block_ids[:, None, :], 0.0, MASKED_BIAS)
    slot_bias = np.where(slot_seg[:, :, None] == block_ids[:, None, :], 0.0, MASKED_BIAS)
    key_bias = np.repeat(slot_bias, cfg.n_heads, axis=1)  # query rows: slot-major, head-minor

    h = Tensor(x) @ tp["w0"] + tp["b0"]
    s = None
    for block in range(cfg.n_blocks):
        h = block_frames(h, tp, block, cfg, mask_bias=frame_bias)
        if block == 0:
            pooled = Tensor(pool_mat) @ h  # (rows, slots, d) masked mean per segment
            head_rows = [
                (pooled @ tp[f"seg_init.ws.{hh}"]).reshape(n_rows, n_slots, 1, cfg.d)
                for hh in range(cfg.n_heads)
            ]
            s = concat(head_rows, axis=2).reshape(n_rows, n_slots * cfg.n_heads, cfg.d)
        s = cross_attention_block(s, h, tp, block, cfg, mask_bias=key_bias)
    s = s.reshape(n_rows, n_slots, cfg.n_heads, cfg.d).mean(axis=2)
    out = []
    for seg_idx in range(batch.n_segments):
        r, slot = placement[seg_idx]
        out.append(l2_normalize(s[r, slot]))
    return out


def fingerprint_batch(batch: PackedBatch, params: Parameters, cfg: ModelConfig) -> list[np.ndarray]:
    """Inference-mode packed forward; returns per-segment unit vectors."""
    zs = fingerprint_batch_forward(batch, as_tensors(params), cfg)
    return [z.data.copy() for z in zs]


# -- checkpoint I/O --------------------------------------------------------

CKPT_MAGIC = b"VLFP"
CKPT_VERSION = 1


def save_checkpoint(path: str | Path, params: Parameters, cfg: ModelConfig) -> None:
    """Binary checkpoint: magic, version, config, then named float32 tensors.

    The header keeps three width slots (frame, attention and segment
    width); all three hold cfg.d.
    """
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(
            struct.pack(
                "<8I2d",
                CKPT_VERSION,
                cfg.f_bins,
                cfg.d,
                cfg.d,
                cfg.d,
                cfg.n_blocks,
                cfg.n_heads,
                cfg.d_head,
                cfg.ffn_alpha,
                cfg.eps,
            )
        )
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            arr = np.asarray(params[name], dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> tuple[Parameters, ModelConfig]:
    """Read a `.vlfp` file; a short or malformed one is a ValueError naming the path."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            if fh.tell() + n > size:
                raise ValueError(f"truncated checkpoint at byte {fh.tell()} of {size}")
            return fh.read(n)

        try:
            if fh.read(4) != CKPT_MAGIC:
                raise ValueError("bad checkpoint magic")
            header = struct.unpack("<8I2d", read(8 * 4 + 2 * 8))
            version, f_bins, d1, d2, d, n_blocks, n_heads, d_head, ffn_alpha, eps = header
            if version != CKPT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            if not d1 == d2 == d:
                raise ValueError(f"header widths must be equal, got {d1}, {d2}, {d}")
            cfg = ModelConfig(
                f_bins=f_bins, d=d, n_blocks=n_blocks, n_heads=n_heads, d_head=d_head,
                ffn_alpha=ffn_alpha, eps=eps,
            )
            (count,) = struct.unpack("<I", read(4))
            params: Parameters = {}
            for _ in range(count):
                (name_len,) = struct.unpack("<I", read(4))
                name = read(name_len).decode("utf-8")
                (rank,) = struct.unpack("<I", read(4))
                shape = struct.unpack(f"<{rank}I", read(4 * rank))
                data = np.frombuffer(read(4 * math.prod(shape)), dtype="<f4")
                params[name] = data.reshape(shape).astype(np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return params, cfg
