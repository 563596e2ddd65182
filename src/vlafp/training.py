"""Contrastive training: anchor/positive batches, the multi-positive loss, Adam."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augment import AugmentConfig, augment_chain_with_draws
from .dsp import MelConfig, frame_count
from .model import (
    ModelConfig,
    PackedBatch,
    Parameters,
    fingerprint_batch_forward,
    init_parameters,
    pack_segments,
)
from .pipeline import source_mel
from .segmentation import Source

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    tau: float = 0.05
    batch_items: int = 60  # total items per batch: anchors plus positives
    n_pos: int = 3
    lr: float = 1e-5
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("tau", "lr"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.n_pos < 1:
            raise ValueError(f"n_pos must be >= 1, got {self.n_pos}")
        if self.batch_items < 1 + self.n_pos:
            raise ValueError(
                f"batch_items must hold one anchor and its {self.n_pos} positives, got {self.batch_items}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")

    @property
    def groups_per_batch(self) -> int:
        return self.batch_items // (1 + self.n_pos)


def supcon_loss(
    z: np.ndarray, positive_sets: dict[int, list[int]], tau: float
) -> tuple[float, np.ndarray]:
    """Multi-positive contrastive loss over a batch of unit fingerprints, and its gradient.

    For each anchor a: -(1/|P(a)|) sum over positives of
    log( exp(z_a . z_p / tau) / sum over b != a of exp(z_a . z_b / tau) ).
    Returns the sum over anchors and d(loss)/dz, both in the arithmetic
    order of the reference graph in tests/oracles.py, so their bytes equal its.
    """
    n = z.shape[0]
    if not positive_sets:
        raise ValueError("no anchors given")
    pos_mask = np.zeros((n, n))
    anchor_mask = np.zeros(n)
    counts = np.ones(n)
    for a, pos in positive_sets.items():
        if len(pos) == 0:
            raise ValueError(f"anchor {a} has an empty positive set")
        if a in pos:
            raise ValueError(f"anchor {a} lists itself as a positive")
        anchor_mask[a] = 1.0
        counts[a] = float(len(pos))
        for p in pos:
            pos_mask[a, p] = 1.0

    scale = 1.0 / tau
    sims = (z @ z.T) * scale
    shift = sims.max(axis=-1, keepdims=True)
    expd = np.exp(sims - shift)
    not_self = 1.0 - np.eye(n)
    denom = (expd * not_self).sum(axis=-1)
    log_denom = np.log(denom) + shift.reshape(n)
    inv_counts = 1.0 / counts
    pos_mean = (sims * pos_mask).sum(axis=-1) * inv_counts
    loss = ((log_denom - pos_mean) * anchor_mask).sum()

    # sims is reached by two paths, the log-sum-exp and the positive mean;
    # z by two more, one per side of the Gram matrix.
    dsims = ((anchor_mask / denom)[:, None] * not_self) * expd
    dsims = dsims + ((-anchor_mask) * inv_counts)[:, None] * pos_mask
    dm = dsims * scale
    return float(loss), dm @ z + (z.T @ dm).T


@dataclass
class BuiltBatch:
    packed: PackedBatch
    positive_sets: dict[int, list[int]]


def build_batch(
    sources: list[Source],
    train_cfg: TrainConfig,
    aug_cfg: AugmentConfig,
    mel_cfg: MelConfig,
    rng: np.random.Generator,
) -> BuiltBatch:
    """One anchor group per source, in order: the clean segment plus n_pos augmented copies.

    Every mel is source_mel's, as at index time: the anchor's of its rows,
    and a positive stretched by f keeps its frame j iff source frame
    min(round(j * f), K - 1) is a row, K being the span's frame count:
    frame 0 always, and every frame for contiguous rows.

    Every group member acts as an anchor in turn with the rest of its group
    as positives; all other batch items are its negatives.
    """
    if not sources:
        raise ValueError("empty corpus")
    mels: list[np.ndarray] = []
    for span, rows in sources:
        n_frames = frame_count(len(span))
        is_row = np.zeros(n_frames, dtype=bool)
        is_row[list(rows)] = True
        mels.append(source_mel((span, rows), mel_cfg))
        for _ in range(train_cfg.n_pos):
            distorted, draws = augment_chain_with_draws(span, aug_cfg, rng)
            factor = 1.0 if draws.ts_factor is None else draws.ts_factor
            source = np.rint(np.arange(frame_count(len(distorted))) * factor).astype(np.intp)
            keep = np.flatnonzero(is_row[np.minimum(source, n_frames - 1)])
            mels.append(source_mel((distorted, keep), mel_cfg))

    size = 1 + train_cfg.n_pos  # group g is items g*size .. g*size + size - 1
    positive_sets = {i: [j for j in range(i - i % size, i - i % size + size) if j != i] for i in range(len(mels))}
    return BuiltBatch(pack_segments(mels), positive_sets)


class Adam:
    """Plain Adam (betas ADAM_BETA1/ADAM_BETA2, epsilon ADAM_EPS); no weight
    decay, schedule, or clipping."""

    def __init__(self, params: Parameters, cfg: TrainConfig):
        self.params = params
        self.lr = cfg.lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for name, g in grads.items():
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            m_hat = self.m[name] / b1c
            v_hat = self.v[name] / b2c
            self.params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train_step(
    params: Parameters,
    optimizer: Adam,
    batch: BuiltBatch,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> float:
    """One forward/backward/update pass; returns the batch loss."""
    z, backward = fingerprint_batch_forward(batch.packed, params, model_cfg)
    loss, dz = supcon_loss(z, batch.positive_sets, train_cfg.tau)
    optimizer.step(backward(dz))
    return loss


def train(
    sources: list[Source],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    aug_cfg: AugmentConfig,
    mel_cfg: MelConfig,
    params: Parameters | None = None,
    log=None,
) -> tuple[Parameters, list[float]]:
    """Adam over shuffled anchor groups; returns parameters and per-epoch mean loss.

    Deterministic for a fixed seed under single-threaded execution.
    """
    if not sources:
        raise ValueError("empty corpus")
    rng = np.random.default_rng(train_cfg.seed)
    if params is None:
        params = init_parameters(model_cfg, seed=train_cfg.seed)
    optimizer = Adam(params, train_cfg)
    history: list[float] = []
    per_batch = train_cfg.groups_per_batch
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(len(sources))
        losses = []
        for start in range(0, len(order), per_batch):
            chunk = [sources[i] for i in order[start : start + per_batch]]
            batch = build_batch(chunk, train_cfg, aug_cfg, mel_cfg, rng)
            loss = train_step(params, optimizer, batch, model_cfg, train_cfg)
            if not np.isfinite(loss):
                norms = {k: float(np.linalg.norm(v)) for k, v in params.items()}
                worst = max(norms.items(), key=lambda kv: kv[1])
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch starting {start} "
                    f"(largest parameter norm: {worst[0]}={worst[1]:.3g})"
                )
            losses.append(loss)
        history.append(float(np.mean(losses)))
        if log is not None:
            log(epoch, history[-1])
    return params, history
