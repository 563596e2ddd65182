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

INIT_STD = 0.02
# Largest self-attention, in cells (n * L^2), that one stack of n equal-length
# segments may hold; a longer group of equal lengths runs in chunks.
MAX_ATTENTION_CELLS = 65_536

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
) -> Tensor:
    """softmax(QK^T / sqrt(d_head)) V per head, heads concatenated, then W_O.

    q_in and kv_in may be 2-D (rows x dim) or batched 3-D. The per-head
    projections run as one matmul each, then split into a head axis.
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
) -> Tensor:
    """Pre-norm residual frame update: self-attention then gated FFN."""
    normed = rms_norm(h_prev, tp[f"block{block}.attn_norm.gain"], cfg.eps)
    h = h_prev + multi_head_attention(
        normed, normed, tp, f"block{block}.attn", cfg.n_heads, cfg.d_head
    )
    h_t = h + ffn(
        rms_norm(h, tp[f"block{block}.ffn_norm.gain"], cfg.eps),
        tp[f"block{block}.ffn.w1"],
        tp[f"block{block}.ffn.w2"],
        tp[f"block{block}.ffn.w3"],
    )
    return h_t


def seg_init(h1: Tensor, tp: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Mean-pool each segment of an (n, L, d) stack, project once per head: (n, H, d).

    The mean is a matmul with a 1/L pooling row, not a sum and a divide:
    retraining bench/desk.vlfp reproduces it bit for bit only with this
    rounding (`bench/make_checkpoint.py --check`).
    """
    n, length, _ = h1.shape
    pooled = Tensor(np.full((n, 1, length), 1.0 / length)) @ h1  # (n, 1, d)
    return concat([pooled @ tp[f"seg_init.ws.{h}"] for h in range(cfg.n_heads)], axis=1)


def cross_attention_block(
    s_prev: Tensor,
    frames: Tensor,
    tp: dict[str, Tensor],
    block: int,
    cfg: ModelConfig,
) -> Tensor:
    """Segment embeddings attend to frames; a single residual addition."""
    q = rms_norm(s_prev, tp[f"block{block}.cross_qnorm.gain"], cfg.eps)
    kv = rms_norm(frames, tp[f"block{block}.cross_kvnorm.gain"], cfg.eps)
    return s_prev + multi_head_attention(q, kv, tp, f"block{block}.cross", cfg.n_heads, cfg.d_head)


def l2_normalize(x: Tensor) -> Tensor:
    norm = (x * x).sum() + 1e-24
    return x / norm.sqrt()


# -- forward pass ----------------------------------------------------------


def _forward_stack(x: np.ndarray, tp: dict[str, Tensor], cfg: ModelConfig) -> list[Tensor]:
    """Forward n equal-length segments stacked as (n, L, F); one unit vector each."""
    h = Tensor(x) @ tp["w0"] + tp["b0"]
    s = None
    for block in range(cfg.n_blocks):
        h = block_frames(h, tp, block, cfg)
        if block == 0:
            s = seg_init(h, tp, cfg)
        s = cross_attention_block(s, h, tp, block, cfg)
    s = s.mean(axis=1)
    return [l2_normalize(s[i]) for i in range(x.shape[0])]


def fingerprint_batch_forward(
    batch: PackedBatch, tp: dict[str, Tensor], cfg: ModelConfig
) -> list[Tensor]:
    """Forward every segment of a packed batch; fingerprint Tensors in span order.

    Segments of equal length run together as one (n, L, F) stack, so no
    attention crosses a segment boundary and nothing needs a mask. A stack
    whose self-attention would exceed MAX_ATTENTION_CELLS runs in chunks.
    """
    groups: dict[int, list[int]] = {}  # length -> span indices
    for i, (_, length) in enumerate(batch.spans):
        groups.setdefault(length, []).append(i)
    out: list[Tensor] = [None] * batch.n_segments
    for length, members in groups.items():
        per_chunk = max(1, MAX_ATTENTION_CELLS // (length * length))
        for start in range(0, len(members), per_chunk):
            chunk = members[start : start + per_chunk]
            offsets = [batch.spans[i][0] for i in chunk]
            x = np.stack([batch.frames[off : off + length] for off in offsets])
            for i, z in zip(chunk, _forward_stack(x, tp, cfg)):
                out[i] = z
    return out


def fingerprint_batch(batch: PackedBatch, params: Parameters, cfg: ModelConfig) -> list[np.ndarray]:
    """Inference-mode forward of a packed batch; per-segment unit vectors in span order."""
    frames = batch.frames
    if frames.ndim != 2 or frames.shape[1] != cfg.f_bins:
        raise ValueError(f"expected (T, {cfg.f_bins}) mel frames, got shape {frames.shape}")
    if not np.all(np.isfinite(frames)):
        raise ValueError("non-finite values in mel input")
    zs = fingerprint_batch_forward(batch, as_tensors(params), cfg)
    return [z.data.copy() for z in zs]


def fingerprint(
    mel: np.ndarray,
    params: Parameters,
    cfg: ModelConfig,
    audio_id: int = 0,
    start_time: float = 0.0,
    duration: float = 0.0,
) -> Fingerprint:
    """Fingerprint a single mel segment: a packed batch of one."""
    mel = np.asarray(mel, dtype=np.float64)
    if mel.ndim != 2 or mel.shape[0] < 1:
        raise ValueError(f"expected (T, F) mel with T >= 1, got shape {mel.shape}")
    (z,) = fingerprint_batch(pack_segments([mel]), params, cfg)
    return Fingerprint(z, audio_id, start_time, duration)


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
