"""Deterministic minibatch SGD over the dual encoders.

Sampling is reproducible by construction: each epoch owns one generator
seeded from (seed, epoch), which first draws the item permutation and then,
per item in batch order, the hard-negative subset (only when the kept pool
exceeds n_hard_max) and the verb-phrase choice (only when a caption lists
several). Runs with identical manifest and config therefore produce
identical batch index streams, and resuming from an epoch-boundary
checkpoint is bit-exact.

The optimizer is plain SGD, theta <- theta - lr*(grad + weight_decay*theta);
no momentum, so the finite-difference gradient story stays airtight. Two
presets ship: desk_config (lr 0.05, sigma 0.05) trains visibly in seconds
at toy scale; reference_config carries the published lr 1e-7 / sigma 5e-3
pair, which targets pretrained-scale logits and moves desk tables only
imperceptibly.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .calibration import VARIANT_FROM_LOSS
from .corpus import CaptionRecord, DatasetManifest, write_atomic
from .encoders import DualEncoders, EncoderConfig, EncoderError, EncoderGrads
from .losses import BatchTensors, LossConfig, combined_vfc

TRAIN_CHECKPOINT_FORMAT = "verbfocus-train"
TRAIN_CHECKPOINT_VERSION = 1


class TrainerError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    epochs: int = 100
    learning_rate: float = 0.05
    weight_decay: float = 1e-2
    n_hard_max: int = 5
    seed: int = 0
    checkpoint_every: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.n_hard_max < 0:
            raise ValueError("n_hard_max must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        loss = LossConfig(**d.pop("loss", {}))
        encoder = EncoderConfig(**d.pop("encoder", {}))
        return cls(loss=loss, encoder=encoder, **d)


def desk_config(**overrides) -> TrainConfig:
    """Toy-scale preset: large steps and a soft temperature."""
    overrides.setdefault("learning_rate", 0.05)
    overrides.setdefault("loss", LossConfig(sigma=0.05))
    return TrainConfig(**overrides)


def reference_config(**overrides) -> TrainConfig:
    """Published-values preset: lr 1e-7, weight decay 1e-2, sigma 5e-3."""
    overrides.setdefault("learning_rate", 1e-7)
    overrides.setdefault("loss", LossConfig(sigma=5e-3))
    return TrainConfig(**overrides)


@dataclass
class BatchIndexRecord:
    """Exactly which manifest rows fed one step; the determinism log unit."""

    epoch: int
    step: int
    caption_indices: list[int]
    hard_indices: list[list[int]]
    phrase_choices: list[int]

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "step": self.step,
            "caption_indices": self.caption_indices,
            "hard_indices": self.hard_indices,
            "phrase_choices": self.phrase_choices,
        }


@dataclass
class TrainState:
    encoders: DualEncoders
    epoch: int = 0
    step: int = 0
    last_metrics: dict | None = None


@dataclass
class EpochPlan:
    """Sampled index structure for one epoch, independent of embeddings."""

    records: list[BatchIndexRecord]


def _train_caption_indices(manifest: DatasetManifest) -> list[int]:
    split_of = {v.video_id: v.split for v in manifest.videos}
    return [i for i, cap in enumerate(manifest.captions)
            if split_of[cap.video_id] == "train"]


def sample_epoch(manifest: DatasetManifest, cfg: TrainConfig, epoch: int) -> EpochPlan:
    """Draw every batch of one epoch. Short final batches below 2 are dropped."""
    items = _train_caption_indices(manifest)
    if not items:
        raise TrainerError("train split is empty")
    pools = manifest.negative_pools()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch]))
    order = rng.permutation(len(items))
    bs = min(cfg.batch_size, len(items))
    records = []
    step = 0
    for start in range(0, len(order), bs):
        chunk = order[start : start + bs]
        if chunk.size < 2:
            break
        caption_indices = [items[i] for i in chunk]
        hard_indices: list[list[int]] = []
        phrase_choices: list[int] = []
        for ci in caption_indices:
            cap = manifest.captions[ci]
            pool = pools.get((cap.video_id, cap.text), [])
            take = min(len(pool), cfg.n_hard_max)
            if take == 0:
                hard_indices.append([])
            elif len(pool) > cfg.n_hard_max:
                picks = rng.choice(len(pool), size=take, replace=False)
                hard_indices.append([pool[int(p)] for p in picks])
            else:
                hard_indices.append(list(pool))
            nph = len(cap.verb_phrases)
            if nph == 0:
                phrase_choices.append(-1)
            elif nph == 1:
                phrase_choices.append(0)
            else:
                phrase_choices.append(int(rng.integers(nph)))
        records.append(BatchIndexRecord(epoch, step, caption_indices, hard_indices, phrase_choices))
        step += 1
    return EpochPlan(records)


def materialize_batch(manifest: DatasetManifest, encoders: DualEncoders,
                      record: BatchIndexRecord) -> BatchTensors:
    caps: list[CaptionRecord] = [manifest.captions[i] for i in record.caption_indices]
    video = encoders.encode_videos([c.video_id for c in caps])
    caption = encoders.encode_texts([c.text for c in caps])
    hard = []
    for gidxs in record.hard_indices:
        if gidxs:
            hard.append(encoders.encode_texts([manifest.generations[g].text for g in gidxs]))
        else:
            hard.append(np.zeros((0, encoders.config.dim)))
    mask = np.array([p >= 0 for p in record.phrase_choices], dtype=bool)
    verb = None
    if mask.any():
        verb = np.zeros((len(caps), encoders.config.dim))
        for i, (cap, p) in enumerate(zip(caps, record.phrase_choices)):
            if p >= 0:
                verb[i] = encoders.encode_text(cap.verb_phrases[p].surface)
    return BatchTensors(video=video, caption=caption, hard=hard, verb=verb,
                        verb_mask=mask if verb is not None else None)


def train_step(manifest: DatasetManifest, state: TrainState, cfg: TrainConfig,
               record: BatchIndexRecord, grads: EncoderGrads | None = None):
    """One forward/backward/SGD step; returns the LossOutput."""
    enc = state.encoders
    fed = record
    if cfg.loss.negative_variant == "none":
        # The loss never reads the sampled hard negatives: neither embed them
        # nor send their all-zero gradients back.
        fed = replace(record, hard_indices=[[] for _ in record.hard_indices])
    batch = materialize_batch(manifest, enc, fed)
    out = combined_vfc(batch, cfg.loss)
    if not np.isfinite(out.total):
        raise TrainerError(
            f"non-finite loss at epoch {record.epoch} step {record.step}; "
            f"batch record: {record.to_dict()}"
        )
    if grads is None:
        grads = EncoderGrads.zeros_for(enc)
    else:
        grads.clear()
    caps = [manifest.captions[i] for i in record.caption_indices]
    for i, cap in enumerate(caps):
        enc.backward_video(cap.video_id, out.grads.video[i], grads)
        enc.backward_text(cap.text, out.grads.caption[i], grads)
        for k, g in enumerate(fed.hard_indices[i]):
            enc.backward_text(manifest.generations[g].text, out.grads.hard[i][k], grads)
        p = record.phrase_choices[i]
        if p >= 0 and out.grads.verb is not None:
            enc.backward_text(cap.verb_phrases[p].surface, out.grads.verb[i], grads)
    enc.apply_sgd(grads, cfg.learning_rate, cfg.weight_decay)
    state.step += 1
    return out


class UsageCounter:
    """Per-concept positive/negative usage tally under a loss variant.

    For each batch, every phrase occurrence in a caption is one positive use
    and B-1 negative uses (it sits in the other items' denominators). Every
    occurrence in a sampled hard negative adds B negative uses under the
    uncalibrated variant (all rows see it) and 1 under the calibrated one
    (own row only). Ratios converge to the closed-form laws.
    """

    def __init__(self, variant: str):
        if variant not in VARIANT_FROM_LOSS.values():
            variant = VARIANT_FROM_LOSS[variant]
        self.variant = variant
        self.pos = Counter()
        self.neg = Counter()

    def observe(self, manifest: DatasetManifest, record: BatchIndexRecord) -> None:
        B = len(record.caption_indices)
        for ci in record.caption_indices:
            for ph in manifest.captions[ci].verb_phrases:
                self.pos[ph.surface] += 1
                self.neg[ph.surface] += B - 1
        if self.variant == "baseline":
            return
        per_occurrence = B if self.variant == "hn" else 1
        for gidxs in record.hard_indices:
            for g in gidxs:
                for ph in manifest.generations[g].verb_phrases:
                    self.neg[ph.surface] += per_occurrence

    def ratios(self) -> dict[str, float]:
        return {c: self.neg[c] / n for c, n in self.pos.items() if n > 0}


def simulate_usage(manifest: DatasetManifest, cfg: TrainConfig, epochs: int,
                   variant: str | None = None) -> UsageCounter:
    """Run only the batch sampler and count usages; no encoders involved."""
    counter = UsageCounter(variant or cfg.loss.negative_variant)
    for epoch in range(epochs):
        for record in sample_epoch(manifest, cfg, epoch).records:
            counter.observe(manifest, record)
    return counter


def save_train_checkpoint(path, state: TrainState, cfg: TrainConfig) -> None:
    # No timing fields in the header: checkpoint bytes must be identical
    # across equal-seed runs.
    header = {
        "format": TRAIN_CHECKPOINT_FORMAT,
        "version": TRAIN_CHECKPOINT_VERSION,
        "train_config": asdict(cfg),
        "epoch": state.epoch,
        "step": state.step,
    }
    write_atomic(path, json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n"
                 + state.encoders.to_bytes())


def load_train_checkpoint(path) -> tuple[TrainState, TrainConfig]:
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            if header.get("format") != TRAIN_CHECKPOINT_FORMAT:
                raise TrainerError(f"not a training checkpoint: {header.get('format')!r}")
            if header.get("version") != TRAIN_CHECKPOINT_VERSION:
                raise TrainerError(f"unsupported checkpoint version {header.get('version')!r}")
            encoders = DualEncoders.load_from(fh)
        except (EncoderError, TrainerError) as e:
            raise type(e)(f"{Path(path).name}: {e}") from None
    cfg = TrainConfig.from_dict(header["train_config"])
    state = TrainState(encoders=encoders, epoch=header["epoch"], step=header["step"])
    return state, cfg


def train_loop(manifest: DatasetManifest, cfg: TrainConfig,
               state: TrainState | None = None,
               log_path=None, checkpoint_dir=None,
               usage: UsageCounter | None = None) -> tuple[TrainState, list[dict]]:
    """Train from state.epoch to cfg.epochs; returns state and epoch metrics.

    Passing a state loaded from a checkpoint resumes bit-exactly, because
    epoch sampling depends only on (seed, epoch). A run from epoch 0
    rewrites the log at log_path; a resumed run appends to it. Checkpoints
    are written every cfg.checkpoint_every epochs (0 disables) plus once at
    the end when a directory is given.
    """
    if state is None:
        state = TrainState(encoders=DualEncoders.from_manifest(manifest, cfg.encoder))
    metrics: list[dict] = []
    grads = EncoderGrads.zeros_for(state.encoders)
    # The one artifact written in place: a resumed run appends one row per
    # epoch to the log it resumes, so the log is streamed, not replaced.
    mode = "a" if state.epoch > 0 else "w"
    log_fh = open(log_path, mode, encoding="utf-8") if log_path else None
    try:
        for epoch in range(state.epoch, cfg.epochs):
            t0 = time.perf_counter()
            plan = sample_epoch(manifest, cfg, epoch)
            sums = Counter()
            for record in plan.records:
                out = train_step(manifest, state, cfg, record, grads)
                if usage is not None:
                    usage.observe(manifest, record)
                sums["total"] += out.total
                for key, val in out.terms.items():
                    sums[key] += val
            n = max(len(plan.records), 1)
            row = {
                "epoch": epoch,
                "total": sums["total"] / n,
                "t2v": sums["t2v"] / n,
                "chn": sums["chn"] / n,
                "verb_phrase": sums["verb_phrase"] / n,
                "wall_ms": (time.perf_counter() - t0) * 1e3,
            }
            state.epoch = epoch + 1
            state.last_metrics = row
            metrics.append(row)
            if log_fh:
                log_fh.write(json.dumps(row) + "\n")
            if checkpoint_dir and cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
                save_train_checkpoint(
                    f"{checkpoint_dir}/checkpoint_epoch{epoch + 1:05d}.bin", state, cfg)
    finally:
        if log_fh:
            log_fh.close()
    if checkpoint_dir:
        save_train_checkpoint(f"{checkpoint_dir}/checkpoint_final.bin", state, cfg)
    return state, metrics
