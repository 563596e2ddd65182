"""Contrastive training: anchor/positive batches, the multi-positive loss, Adam."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import dsp
from .audio import Waveform
from .augment import AugmentConfig, augment_chain_with_draws
from .autodiff import Tensor, concat
from .dsp import MelConfig
from .model import (
    ModelConfig,
    PackedBatch,
    Parameters,
    as_tensors,
    fingerprint_batch_forward,
    init_parameters,
    pack_segments,
)

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
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.n_pos < 1:
            raise ValueError(f"n_pos must be >= 1, got {self.n_pos}")

    @property
    def groups_per_batch(self) -> int:
        return max(1, self.batch_items // (1 + self.n_pos))


@dataclass(frozen=True)
class SourceSegment:
    """A clean training segment: its span of samples, provenance, and rows.

    rows are the segment's frames within the span's STFT, increasing from 0
    (the span starts at the segment's first frame); a contiguous segment or
    a fixed window has every frame as a row.
    """

    audio_id: int
    waveform: Waveform
    start_time: float
    duration: float
    rows: tuple[int, ...]


def supcon_loss(
    fingerprints: Tensor, positive_sets: dict[int, list[int]], tau: float
) -> Tensor:
    """Multi-positive contrastive loss over a batch of unit fingerprints.

    For each anchor a: -(1/|P(a)|) sum over positives of
    log( exp(z_a . z_p / tau) / sum over b != a of exp(z_a . z_b / tau) ).
    Returns the scalar sum over anchors; gradients flow to all fingerprints.
    """
    n = fingerprints.shape[0]
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

    sims = (fingerprints @ fingerprints.T) * (1.0 / tau)
    shift = Tensor(sims.data.max(axis=-1, keepdims=True))
    expd = (sims - shift).exp() * Tensor(1.0 - np.eye(n))
    log_denom = expd.sum(axis=-1).log() + shift.reshape(n)
    pos_mean = (sims * Tensor(pos_mask)).sum(axis=-1) * Tensor(1.0 / counts)
    return ((log_denom - pos_mean) * Tensor(anchor_mask)).sum()


def supcon_loss_value_and_grad(
    fingerprints: np.ndarray, positive_sets: dict[int, list[int]], tau: float
) -> tuple[float, np.ndarray]:
    """Convenience wrapper for plain arrays: loss value and d(loss)/d(fingerprints)."""
    z = Tensor(np.asarray(fingerprints, dtype=np.float64), requires_grad=True)
    loss = supcon_loss(z, positive_sets, tau)
    loss.backward()
    return loss.item(), z.grad


@dataclass
class BuiltBatch:
    packed: PackedBatch
    positive_sets: dict[int, list[int]]
    group_ids: list[int]  # per item, index of its anchor group
    sources: list[SourceSegment]  # per item, the originating segment


def build_batch(
    sources: list[SourceSegment],
    train_cfg: TrainConfig,
    aug_cfg: AugmentConfig,
    mel_cfg: MelConfig,
    rng: np.random.Generator,
    chosen: list[int] | None = None,
) -> BuiltBatch:
    """Assemble anchor groups: each clean segment plus n_pos augmented copies.

    The anchor's mel is mel_from_frames of its rows of the span's STFT, as
    at index time. A positive stretched by f keeps its frame j iff source
    frame min(round(j * f), K - 1) is a row, K being the span's frame count:
    frame 0 always, and every frame for contiguous rows.

    Every group member acts as an anchor in turn with the rest of its group
    as positives; all other batch items are its negatives.
    """
    if not sources:
        raise ValueError("empty corpus")
    n_groups = train_cfg.groups_per_batch
    if chosen is None:
        if len(sources) < n_groups:
            warnings.warn(
                f"corpus has {len(sources)} segments < {n_groups} requested anchors; "
                "building a smaller batch"
            )
            n_groups = len(sources)
        chosen = list(rng.choice(len(sources), size=n_groups, replace=False))

    mels: list[np.ndarray] = []
    group_ids: list[int] = []
    item_sources: list[SourceSegment] = []
    for g, src_idx in enumerate(chosen):
        src = sources[src_idx]
        frames = dsp.stft(src.waveform)
        is_row = np.zeros(frames.n_frames, dtype=bool)
        is_row[list(src.rows)] = True
        mels.append(dsp.mel_from_frames(frames.select(src.rows), mel_cfg).data)
        group_ids.append(g)
        item_sources.append(src)
        for _ in range(train_cfg.n_pos):
            distorted, draws = augment_chain_with_draws(src.waveform, aug_cfg, rng)
            factor = 1.0 if draws.ts_factor is None else draws.ts_factor
            stretched = dsp.stft(distorted)
            source = np.rint(np.arange(stretched.n_frames) * factor).astype(np.intp)
            keep = np.flatnonzero(is_row[np.minimum(source, frames.n_frames - 1)])
            mels.append(dsp.mel_from_frames(stretched.select(keep), mel_cfg).data)
            group_ids.append(g)
            item_sources.append(src)

    positive_sets: dict[int, list[int]] = {}
    for i, g in enumerate(group_ids):
        positive_sets[i] = [j for j, gj in enumerate(group_ids) if gj == g and j != i]
    return BuiltBatch(pack_segments(mels), positive_sets, group_ids, item_sources)


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
    tp = as_tensors(params, requires_grad=True)
    zs = fingerprint_batch_forward(batch.packed, tp, model_cfg)
    z_mat = concat([z.reshape(1, -1) for z in zs], axis=0)
    loss = supcon_loss(z_mat, batch.positive_sets, train_cfg.tau)
    loss.backward()
    grads = {k: t.grad for k, t in tp.items() if t.grad is not None}
    optimizer.step(grads)
    return loss.item()


def train(
    sources: list[SourceSegment],
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
            chunk = [int(i) for i in order[start : start + per_batch]]
            batch = build_batch(sources, train_cfg, aug_cfg, mel_cfg, rng, chosen=chunk)
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
