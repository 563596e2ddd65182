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
from scipy.special import expit

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
        for name in ("ffn_alpha", "eps"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")

    @property
    def ffn_hidden(self) -> int:
        return math.ceil(self.ffn_alpha * (2.0 / 3.0) * 4.0 * self.d)


@dataclass(frozen=True)
class Fingerprint:
    """Unit-L2 segment descriptor; provenance lives in index.IndexEntry."""

    vector: np.ndarray


@dataclass(frozen=True)
class PackedBatch:
    """The mel matrices of variable-length segments, one (T, F) array each, in order."""

    mels: tuple[np.ndarray, ...]

    def __post_init__(self):
        for mel in self.mels:
            if mel.ndim != 2 or mel.shape[0] < 1:
                raise ValueError(f"expected (T, F) mel with T >= 1, got shape {mel.shape}")

    @property
    def n_segments(self) -> int:
        return len(self.mels)

    @property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """(offset, length) of each mel with the mels laid end to end."""
        lengths = [mel.shape[0] for mel in self.mels]
        return tuple(zip(np.cumsum([0] + lengths[:-1]).tolist(), lengths))


def pack_segments(mels: list[np.ndarray]) -> PackedBatch:
    """One PackedBatch of per-segment mel matrices."""
    return PackedBatch(tuple(mels))


def _parameters(cfg: ModelConfig, w, zeros, ones) -> dict:
    """Every parameter by name, made by w (weights), zeros (bias) and ones (gains) in draw order.

    init_parameters fills them; load_checkpoint checks a file's names and shapes against them.
    """
    params = {"w0": w(cfg.f_bins, cfg.d), "b0": zeros(cfg.d)}
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
        params[f"block{l}.attn_norm.gain"] = ones(cfg.d)
        params[f"block{l}.ffn_norm.gain"] = ones(cfg.d)
        params[f"block{l}.cross_qnorm.gain"] = ones(cfg.d)
        params[f"block{l}.cross_kvnorm.gain"] = ones(cfg.d)
        params[f"block{l}.ffn.w1"] = w(cfg.d, cfg.ffn_hidden)
        params[f"block{l}.ffn.w3"] = w(cfg.d, cfg.ffn_hidden)
        params[f"block{l}.ffn.w2"] = w(cfg.ffn_hidden, cfg.d)
    for h in range(cfg.n_heads):
        params[f"seg_init.ws.{h}"] = w(cfg.d, cfg.d)
    return params


def init_parameters(cfg: ModelConfig, seed: int = 0) -> Parameters:
    """Weights ~ N(0, 0.02^2); biases at 0; norm gains at 1."""
    rng = np.random.default_rng(seed)
    return _parameters(cfg, lambda *shape: rng.normal(0.0, INIT_STD, size=shape), np.zeros, np.ones)


# -- forward and backward --------------------------------------------------
#
# The model is plain numpy over one (n, L, F) stack of equal-length segments.
# In training each layer pushes the arrays its backward reads onto a tape (a
# list), and each *_backward pops them in reverse order, adds the layer's
# weight gradients into `grads` and returns the gradient of its inputs.
# Inference passes no tape, so every array is freed as soon as it is used.
# The forward keeps the arithmetic of the graph reference in
# tests/oracles.py (a mean is sum * (1/n), pooling a matmul with a 1/L row,
# SiLU x * expit(x)), so its bytes equal the reference's.

HEAD_WEIGHTS = ("wq", "wk", "wv")


def _attention_prefixes(cfg: ModelConfig) -> list[str]:
    return [f"block{b}.{kind}" for b in range(cfg.n_blocks) for kind in ("attn", "cross")]


def _fuse_heads(params: Parameters, cfg: ModelConfig) -> Parameters:
    """params with each attention's per-head wq/wk/wv as one (d, H*d_head) matrix."""
    w = dict(params)
    for prefix in _attention_prefixes(cfg):
        for kind in HEAD_WEIGHTS:
            heads = [w.pop(f"{prefix}.{kind}.{h}") for h in range(cfg.n_heads)]
            w[f"{prefix}.{kind}"] = np.concatenate(heads, axis=1)
    return w


def _split_heads(grads: Parameters, cfg: ModelConfig) -> Parameters:
    """Inverse of _fuse_heads: fused weight gradients back under the per-head names."""
    out = dict(grads)
    for prefix in _attention_prefixes(cfg):
        for kind in HEAD_WEIGHTS:
            fused = out.pop(f"{prefix}.{kind}")
            for h in range(cfg.n_heads):
                out[f"{prefix}.{kind}.{h}"] = fused[:, h * cfg.d_head : (h + 1) * cfg.d_head]
    return out


def _rows(x: np.ndarray) -> np.ndarray:
    """Every leading axis flattened: (..., k) -> (rows, k)."""
    return x.reshape(-1, x.shape[-1])


def _rms_norm(x: np.ndarray, gain: np.ndarray, eps: float, tape: list | None) -> np.ndarray:
    """x / sqrt(mean(x^2) + eps) over the last axis, scaled by gain."""
    r = np.sqrt((x * x).sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1]) + eps)
    xhat = x / r
    if tape is not None:
        tape.append((xhat, r))
    return xhat * gain


def _rms_norm_backward(dy, w, name, tape, grads):
    xhat, r = tape.pop()
    grads[name] += _rows(dy * xhat).sum(axis=0)
    dxhat = dy * w[name]
    return (dxhat - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / r


def _attention(q_in, kv_in, w: Parameters, prefix: str, cfg: ModelConfig, tape: list | None) -> np.ndarray:
    """softmax(QK^T / sqrt(d_head)) V per head, heads merged, then W_O.

    q_in is (n, Rq, d) and kv_in (n, Rk, d); each head is a (n, H, rows,
    d_head) view of one fused projection.
    """
    n_heads, d_head = cfg.n_heads, cfg.d_head

    def split(x):  # (n, rows, H*dh) -> (n, H, rows, dh)
        return x.reshape(*x.shape[:-1], n_heads, d_head).swapaxes(-3, -2)

    q = split(q_in @ w[f"{prefix}.wq"])
    k = split(kv_in @ w[f"{prefix}.wk"])
    v = split(kv_in @ w[f"{prefix}.wv"])
    logits = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_head))
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    att = (p @ v).swapaxes(-3, -2)
    merged = att.reshape(*att.shape[:-2], n_heads * d_head)
    if tape is not None:
        tape.append((q_in, kv_in, q, k, v, p, merged))
    return merged @ w[f"{prefix}.wo"]


def _attention_backward(dout, w, prefix, cfg, tape, grads):
    """Gradients of the query and the key/value inputs of _attention."""
    q_in, kv_in, q, k, v, p, merged = tape.pop()
    n_heads, d_head = cfg.n_heads, cfg.d_head

    def merge(x):  # (n, H, rows, dh) -> (n, rows, H*dh)
        x = x.swapaxes(-3, -2)
        return x.reshape(*x.shape[:-2], n_heads * d_head)

    grads[f"{prefix}.wo"] += _rows(merged).T @ _rows(dout)
    datt = dout @ w[f"{prefix}.wo"].T
    datt = datt.reshape(*datt.shape[:-1], n_heads, d_head).swapaxes(-3, -2)
    dp = datt @ v.swapaxes(-1, -2)
    dv = merge(p.swapaxes(-1, -2) @ datt)
    dlogits = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * (1.0 / math.sqrt(d_head))
    dq = merge(dlogits @ k)
    dk = merge(dlogits.swapaxes(-1, -2) @ q)
    grads[f"{prefix}.wq"] += _rows(q_in).T @ _rows(dq)
    grads[f"{prefix}.wk"] += _rows(kv_in).T @ _rows(dk)
    grads[f"{prefix}.wv"] += _rows(kv_in).T @ _rows(dv)
    dq_in = dq @ w[f"{prefix}.wq"].T
    dkv_in = dk @ w[f"{prefix}.wk"].T + dv @ w[f"{prefix}.wv"].T
    return dq_in, dkv_in


def _ffn(x: np.ndarray, w: Parameters, prefix: str, tape: list | None) -> np.ndarray:
    """Gated feedforward: (SiLU(x W1) * (x W3)) W2."""
    u = x @ w[f"{prefix}.w1"]
    gate = expit(u)
    silu = u * gate
    lin = x @ w[f"{prefix}.w3"]
    hidden = silu * lin
    if tape is not None:
        tape.append((x, u, gate, silu, lin, hidden))
    return hidden @ w[f"{prefix}.w2"]


def _ffn_backward(dout, w, prefix, tape, grads):
    x, u, gate, silu, lin, hidden = tape.pop()
    grads[f"{prefix}.w2"] += _rows(hidden).T @ _rows(dout)
    dhidden = dout @ w[f"{prefix}.w2"].T
    du = dhidden * lin * gate * (1.0 + u * (1.0 - gate))
    dlin = dhidden * silu
    grads[f"{prefix}.w1"] += _rows(x).T @ _rows(du)
    grads[f"{prefix}.w3"] += _rows(x).T @ _rows(dlin)
    return du @ w[f"{prefix}.w1"].T + dlin @ w[f"{prefix}.w3"].T


def _block_frames(h_prev: np.ndarray, w: Parameters, block: int, cfg: ModelConfig, tape: list | None):
    """Pre-norm residual frame update: self-attention then gated FFN."""
    p = f"block{block}"
    normed = _rms_norm(h_prev, w[f"{p}.attn_norm.gain"], cfg.eps, tape)
    h = h_prev + _attention(normed, normed, w, f"{p}.attn", cfg, tape)
    return h + _ffn(_rms_norm(h, w[f"{p}.ffn_norm.gain"], cfg.eps, tape), w, f"{p}.ffn", tape)


def _block_frames_backward(dh_out, w, block, cfg, tape, grads):
    p = f"block{block}"
    dnormed = _ffn_backward(dh_out, w, f"{p}.ffn", tape, grads)
    dh = dh_out + _rms_norm_backward(dnormed, w, f"{p}.ffn_norm.gain", tape, grads)
    dq_in, dkv_in = _attention_backward(dh, w, f"{p}.attn", cfg, tape, grads)
    return dh + _rms_norm_backward(dq_in + dkv_in, w, f"{p}.attn_norm.gain", tape, grads)


def _seg_init(h1: np.ndarray, w: Parameters, cfg: ModelConfig, tape: list | None) -> np.ndarray:
    """Mean-pool each segment of an (n, L, d) stack, project once per head: (n, H, d).

    The mean is a matmul with a 1/L pooling row, not a sum and a divide:
    retraining bench/desk.vlfp reproduces it bit for bit only with this
    rounding (`bench/make_checkpoint.py --check`).
    """
    n, length, _ = h1.shape
    pooled = np.full((n, 1, length), 1.0 / length) @ h1  # (n, 1, d)
    if tape is not None:
        tape.append((pooled, length))
    return np.concatenate([pooled @ w[f"seg_init.ws.{h}"] for h in range(cfg.n_heads)], axis=1)


def _seg_init_backward(ds, w, cfg, tape, grads):
    pooled, length = tape.pop()
    dpooled = 0.0
    for h in range(cfg.n_heads):
        grads[f"seg_init.ws.{h}"] += pooled[:, 0].T @ ds[:, h]
        dpooled = dpooled + ds[:, h : h + 1] @ w[f"seg_init.ws.{h}"].T
    return np.broadcast_to(dpooled * (1.0 / length), (ds.shape[0], length, ds.shape[2]))


def _cross_block(s_prev, frames, w: Parameters, block: int, cfg: ModelConfig, tape: list | None):
    """Segment embeddings attend to frames; a single residual addition."""
    p = f"block{block}"
    q = _rms_norm(s_prev, w[f"{p}.cross_qnorm.gain"], cfg.eps, tape)
    kv = _rms_norm(frames, w[f"{p}.cross_kvnorm.gain"], cfg.eps, tape)
    return s_prev + _attention(q, kv, w, f"{p}.cross", cfg, tape)


def _cross_block_backward(ds_out, w, block, cfg, tape, grads):
    """Gradients of the segment embeddings and of the frames."""
    p = f"block{block}"
    dq, dkv = _attention_backward(ds_out, w, f"{p}.cross", cfg, tape, grads)
    dframes = _rms_norm_backward(dkv, w, f"{p}.cross_kvnorm.gain", tape, grads)
    return ds_out + _rms_norm_backward(dq, w, f"{p}.cross_qnorm.gain", tape, grads), dframes


def _forward_stack(x: np.ndarray, w: Parameters, cfg: ModelConfig, tape: list | None = None) -> np.ndarray:
    """Forward n equal-length segments stacked as (n, L, F): (n, d) unit fingerprints.

    w holds head-fused weights (_fuse_heads). Given a tape, the forward
    pushes onto it what _backward_stack pops.
    """
    if tape is not None:
        tape.append(x)
    h = x @ w["w0"] + w["b0"]
    for block in range(cfg.n_blocks):
        h = _block_frames(h, w, block, cfg, tape)
        if block == 0:
            s = _seg_init(h, w, cfg, tape)
        s = _cross_block(s, h, w, block, cfg, tape)
    mean = s.sum(axis=1) * (1.0 / s.shape[1])
    norm = np.sqrt((mean * mean).sum(axis=-1, keepdims=True) + 1e-24)
    z = mean / norm
    if tape is not None:
        tape.append((z, norm))
    return z


def _backward_stack(dz: np.ndarray, w: Parameters, cfg: ModelConfig, tape: list, grads: Parameters) -> None:
    """Add one stack's weight gradients into grads, given dz = d(objective)/d(fingerprints)."""
    z, norm = tape.pop()
    dmean = (dz - z * (dz * z).sum(axis=-1, keepdims=True)) / norm
    ds = np.broadcast_to((dmean * (1.0 / cfg.n_heads))[:, None], (dz.shape[0], cfg.n_heads, cfg.d))
    dh = 0.0
    for block in reversed(range(cfg.n_blocks)):
        ds, dframes = _cross_block_backward(ds, w, block, cfg, tape, grads)
        dh = dh + dframes
        if block == 0:
            dh = dh + _seg_init_backward(ds, w, cfg, tape, grads)
        dh = _block_frames_backward(dh, w, block, cfg, tape, grads)
    x = tape.pop()
    grads["w0"] += _rows(x).T @ _rows(dh)
    grads["b0"] += _rows(dh).sum(axis=0)


def _stacks(batch: PackedBatch):
    """(segment indices, (n, L, F) stack) for each group of equal-length mels.

    A group whose self-attention would exceed MAX_ATTENTION_CELLS comes in
    chunks, so no attention crosses a segment boundary and nothing needs a
    mask.
    """
    groups: dict[int, list[int]] = {}  # length -> segment indices
    for i, mel in enumerate(batch.mels):
        groups.setdefault(mel.shape[0], []).append(i)
    for length, members in groups.items():
        per_chunk = max(1, MAX_ATTENTION_CELLS // (length * length))
        for start in range(0, len(members), per_chunk):
            chunk = members[start : start + per_chunk]
            yield chunk, np.stack([batch.mels[i] for i in chunk])


def _forward_batch(batch: PackedBatch, w: Parameters, cfg: ModelConfig, tapes: list | None = None) -> np.ndarray:
    """(n_segments, d) unit fingerprints in batch order, forwarded stack by stack.

    Given tapes, appends one (segment indices, tape) pair per stack.
    """
    z = np.empty((batch.n_segments, cfg.d))
    for chunk, x in _stacks(batch):
        tape = None if tapes is None else []
        z[chunk] = _forward_stack(x, w, cfg, tape)
        if tapes is not None:
            tapes.append((chunk, tape))
    return z


def fingerprint_batch_forward(batch: PackedBatch, params: Parameters, cfg: ModelConfig):
    """Training forward of a packed batch: (z, backward).

    z is the (n_segments, d) fingerprints in batch order. backward(dz), given
    dz = d(objective)/dz, runs _backward_stack over every stack and returns
    the gradient of every parameter under its per-head name.
    """
    w = _fuse_heads(params, cfg)
    tapes: list = []
    z = _forward_batch(batch, w, cfg, tapes)

    def backward(dz: np.ndarray) -> Parameters:
        grads = {name: np.zeros_like(v) for name, v in w.items()}
        for chunk, tape in tapes:  # pop from a copy: backward may run more than once
            _backward_stack(dz[chunk], w, cfg, list(tape), grads)
        return _split_heads(grads, cfg)

    return z, backward


def fingerprint_batch(batch: PackedBatch, params: Parameters, cfg: ModelConfig) -> list[np.ndarray]:
    """Inference-mode forward of a packed batch; per-segment unit vectors in batch order."""
    for mel in batch.mels:
        if mel.shape[1] != cfg.f_bins:
            raise ValueError(f"expected (T, {cfg.f_bins}) mel frames, got shape {mel.shape}")
    if not all(np.isfinite(mel).all() for mel in batch.mels):
        raise ValueError("non-finite values in mel input")
    return list(_forward_batch(batch, _fuse_heads(params, cfg), cfg))


def fingerprint(mel: np.ndarray, params: Parameters, cfg: ModelConfig) -> Fingerprint:
    """Fingerprint a single mel segment: a packed batch of one."""
    (z,) = fingerprint_batch(pack_segments([np.asarray(mel, dtype=np.float64)]), params, cfg)
    return Fingerprint(z)


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


def _check_tensors(params: Parameters, cfg: ModelConfig) -> None:
    """Exactly the tensors init_parameters(cfg) makes, in its shapes, every value finite."""

    def shape(*dims):
        return dims

    want = _parameters(cfg, shape, shape, shape)
    for name in sorted(want.keys() | params.keys()):
        if name not in params:
            raise ValueError(f"missing tensor {name!r}")
        if name not in want:
            raise ValueError(f"unexpected tensor {name!r}")
        if params[name].shape != want[name]:
            raise ValueError(f"tensor {name!r} has shape {params[name].shape}, expected {want[name]}")
        if not np.all(np.isfinite(params[name])):
            raise ValueError(f"tensor {name!r} has non-finite values")


def load_checkpoint(path: str | Path) -> tuple[Parameters, ModelConfig]:
    """Read a `.vlfp` file; a short or malformed one, or tensors that do not match
    the header's model, is a ValueError naming the path."""
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
                if name in params:
                    raise ValueError(f"duplicate tensor {name!r}")
                params[name] = data.reshape(shape).astype(np.float64)
            _check_tensors(params, cfg)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return params, cfg
