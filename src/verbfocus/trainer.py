"""Deterministic minibatch SGD over the dual encoders.

Sampling is reproducible by construction: each epoch owns one generator
seeded from (seed, epoch), which first draws the item permutation and then,
per item in batch order, the hard-negative subset (only when the kept pool
exceeds n_hard_max) and the verb-phrase choice (only when a caption lists
several). Runs with identical manifest and config therefore produce
identical batch index streams, and resuming from an epoch-boundary
checkpoint is bit-exact.

train_loop builds the kept-negative pools and compiles the manifest once
(compile_manifest): every string a step can embed becomes token ids. A step
lays its rows out once, embeds them with one forward call per tower, passes
the hard negatives through the loss as one stacked array, and sends the
gradients back with one backward call per tower that reuses the forward's
activations and adds in batch order, so equal-seed reruns stay
byte-identical.

The optimizer is plain SGD, theta <- theta - lr*(grad + weight_decay*theta);
no momentum, so the finite-difference gradient story stays airtight. Two
presets ship: desk_config (lr 0.05, sigma 0.05) trains visibly in seconds
at toy scale; reference_config carries the published lr 1e-7 / sigma 5e-3
pair, which targets pretrained-scale logits and moves desk tables only
imperceptibly.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .calibration import VARIANT_FROM_LOSS, usage_weights
from .checks import check_fields
from .corpus import DatasetManifest, write_atomic
from .encoders import (DualEncoders, EncoderConfig, EncoderError, EncoderGrads, TokenIds,
                       _read_header)
from .losses import BatchTensors, LossConfig, LossGrads, StackedRows, combined_vfc

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
        check_fields(self, batch_size=2, epochs=0, n_hard_max=0, seed=0, checkpoint_every=0)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The inverse of asdict; an unknown key raises ValueError naming it."""
        d = dict(d)
        loss = _decode(LossConfig, d.pop("loss", {}), "loss.")
        encoder = _decode(EncoderConfig, d.pop("encoder", {}), "encoder.")
        return _decode(cls, {**d, "loss": loss, "encoder": encoder})


def _decode(cls, d: dict, prefix: str = ""):
    known = {f.name for f in fields(cls)}
    for key in d:
        if key not in known:
            raise ValueError(f"unknown train config key: {prefix}{key}")
    return cls(**d)


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
        return asdict(self)


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


def sample_epoch(manifest: DatasetManifest, cfg: TrainConfig, epoch: int,
                 pools: dict | None = None) -> EpochPlan:
    """Draw every batch of one epoch. Short final batches below 2 are dropped.
    pools is manifest.negative_pools(), built here when not given."""
    split_of = {v.video_id: v.split for v in manifest.videos}
    items = [i for i, cap in enumerate(manifest.captions) if split_of[cap.video_id] == "train"]
    if not items:
        raise TrainerError("train split is empty")
    if pools is None:
        pools = manifest.negative_pools()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch]))
    order = rng.permutation(len(items))
    bs = min(cfg.batch_size, len(items))
    records = []
    for step, start in enumerate(range(0, len(order), bs)):
        chunk = order[start : start + bs]
        if chunk.size < 2:
            break
        caption_indices = [items[i] for i in chunk]
        hard_indices: list[list[int]] = []
        phrase_choices: list[int] = []
        for ci in caption_indices:
            cap = manifest.captions[ci]
            pool = pools.get((cap.video_id, cap.text), [])
            if len(pool) > cfg.n_hard_max > 0:
                picks = rng.choice(len(pool), size=cfg.n_hard_max, replace=False)
                hard_indices.append([pool[p] for p in picks.tolist()])
            else:
                hard_indices.append(pool[:cfg.n_hard_max])
            nph = len(cap.verb_phrases)
            # -1 marks a caption without phrases; only a choice among several draws.
            phrase_choices.append(int(rng.integers(nph)) if nph > 1 else nph - 1)
        records.append(BatchIndexRecord(epoch, step, caption_indices, hard_indices, phrase_choices))
    return EpochPlan(records)


@dataclass(frozen=True)
class CompiledManifest:
    """A manifest's training strings as token ids of one encoder vocabulary.

    text holds one row per caption (in manifest order), then one per
    generation the sampler can draw (a kept hard negative), then one per
    caption verb phrase. generation_row maps a generation index to its text
    row (-1 if it is never drawn), phrase_row a caption index to the row of
    its first verb phrase, and video_row a caption index to its video's
    table row.
    """

    text: TokenIds
    generation_row: np.ndarray
    phrase_row: np.ndarray
    video_row: np.ndarray


def compile_manifest(manifest: DatasetManifest, encoders: DualEncoders,
                     pools: dict | None = None) -> CompiledManifest:
    """Tokenize every string a training step can embed, once. pools is
    manifest.negative_pools(), built here when not given."""
    caps = manifest.captions
    if pools is None:
        pools = manifest.negative_pools()
    drawable = sorted(g for pool in pools.values() for g in pool)
    generation_row = np.full(len(manifest.generations), -1, dtype=np.int64)
    generation_row[drawable] = len(caps) + np.arange(len(drawable))
    n_phrases = np.array([len(c.verb_phrases) for c in caps], dtype=np.int64)
    phrase_row = len(caps) + len(drawable) + np.cumsum(n_phrases) - n_phrases
    text = encoders.text_ids([c.text for c in caps]
                             + [manifest.generations[g].text for g in drawable]
                             + [ph.surface for c in caps for ph in c.verb_phrases])
    video_row = np.array([encoders.video_row(c.video_id) for c in caps], dtype=np.int64)
    return CompiledManifest(text, generation_row, phrase_row, video_row)


def _forward(manifest, encoders: DualEncoders, record: BatchIndexRecord):
    """The record's batch, and the backward that sends its LossGrads into an
    EncoderGrads reusing this forward's layout and activations. The strings
    are laid out once, per item its caption, its negatives and its chosen
    phrase if any: the order the per-string backward added them in."""
    if not isinstance(manifest, CompiledManifest):
        manifest = compile_manifest(manifest, encoders)
    caps = np.asarray(record.caption_indices, dtype=np.int64)
    n_hard = np.array([len(h) for h in record.hard_indices], dtype=np.int64)
    hard_bounds = np.zeros(len(caps) + 1, dtype=np.int64)
    np.cumsum(n_hard, out=hard_bounds[1:])
    gens = np.fromiter(itertools.chain.from_iterable(record.hard_indices), np.int64,
                       int(hard_bounds[-1]))
    choices = np.asarray(record.phrase_choices, dtype=np.int64)
    has_phrase = choices >= 0
    width = 1 + n_hard + has_phrase
    caption_at = np.cumsum(width) - width
    hard_at = np.repeat(caption_at + 1 - hard_bounds[:-1], n_hard) + np.arange(gens.size)
    phrase_at = (caption_at + 1 + n_hard)[has_phrase]
    rows = np.empty(int(width.sum()), dtype=np.int64)
    rows[caption_at] = caps
    rows[hard_at] = manifest.generation_row[gens]
    if (rows[hard_at] < 0).any():
        raise TrainerError(f"batch record at epoch {record.epoch} step {record.step} "
                           "draws a generation that is not a kept hard negative")
    rows[phrase_at] = manifest.phrase_row[caps[has_phrase]] + choices[has_phrase]
    tokens = manifest.text.take(rows)
    text = encoders.forward_ids(tokens)
    video_rows = manifest.video_row[caps]
    video = encoders.forward_video_rows(video_rows)
    unit = text[0]
    verb = None
    if has_phrase.any():
        verb = np.zeros_like(video[0])
        verb[has_phrase] = unit[phrase_at]
    batch = BatchTensors(video[0], unit[caption_at], StackedRows(unit[hard_at], hard_bounds),
                         verb, has_phrase if verb is not None else None)

    def backward(out: LossGrads, grads: EncoderGrads) -> None:
        upstream = np.empty_like(unit)
        upstream[caption_at] = out.caption
        upstream[hard_at] = out.hard.rows
        if verb is not None:
            upstream[phrase_at] = out.verb[has_phrase]
        encoders.backward_ids(tokens, upstream, grads, text)
        encoders.backward_video_rows(video_rows, out.video, grads, video)

    return batch, backward


def materialize_batch(manifest, encoders: DualEncoders,
                      record: BatchIndexRecord) -> BatchTensors:
    """The record's embeddings: one forward call per tower. manifest is a
    CompiledManifest, or a DatasetManifest compiled for this call only."""
    return _forward(manifest, encoders, record)[0]


def train_step(manifest, state: TrainState, cfg: TrainConfig,
               record: BatchIndexRecord, grads: EncoderGrads | None = None):
    """One forward/backward/SGD step; returns the LossOutput. manifest is as
    for materialize_batch."""
    enc = state.encoders
    fed = record
    if cfg.loss.negative_variant == "none":
        # The loss never reads the sampled hard negatives: neither embed them
        # nor send their all-zero gradients back.
        fed = replace(record, hard_indices=[[] for _ in record.hard_indices])
    batch, backward = _forward(manifest, enc, fed)
    out = combined_vfc(batch, cfg.loss)
    if not np.isfinite(out.total):
        raise TrainerError(f"non-finite loss at epoch {record.epoch} step {record.step}; "
                           f"batch record: {record.to_dict()}")
    grads = EncoderGrads.zeros_for(enc) if grads is None else grads
    grads.clear()
    backward(out.grads, grads)
    enc.apply_sgd(grads, cfg.learning_rate, cfg.weight_decay)
    state.step += 1
    return out


class UsageCounter:
    """Per-concept positive/negative usage tally under a loss variant.

    For each batch, every phrase occurrence in a caption is one positive use;
    its negative uses, and those of every occurrence in a sampled hard
    negative, are the weights calibration.usage_weights gives the variant, so
    the ratios converge to the closed-form laws of compute_ratio.
    """

    def __init__(self, variant: str):
        self.variant = VARIANT_FROM_LOSS.get(variant, variant)
        usage_weights(self.variant, 2)  # rejects an unknown variant by name
        self.pos = Counter()
        self.neg = Counter()

    def observe(self, manifest: DatasetManifest, record: BatchIndexRecord) -> None:
        per_caption, per_negative = usage_weights(self.variant, len(record.caption_indices))
        for ci in record.caption_indices:
            for ph in manifest.captions[ci].verb_phrases:
                self.pos[ph.surface] += 1
                self.neg[ph.surface] += per_caption
        if not per_negative:
            return
        for gidxs in record.hard_indices:
            for g in gidxs:
                for ph in manifest.generations[g].verb_phrases:
                    self.neg[ph.surface] += per_negative

    def ratios(self) -> dict[str, float]:
        return {c: self.neg[c] / n for c, n in self.pos.items() if n > 0}


def simulate_usage(manifest: DatasetManifest, cfg: TrainConfig, epochs: int,
                   variant: str | None = None) -> UsageCounter:
    """Run only the batch sampler and count usages; no encoders involved."""
    counter = UsageCounter(variant or cfg.loss.negative_variant)
    pools = manifest.negative_pools()
    for epoch in range(epochs):
        for record in sample_epoch(manifest, cfg, epoch, pools).records:
            counter.observe(manifest, record)
    return counter


def save_train_checkpoint(path, state: TrainState, cfg: TrainConfig) -> None:
    # No timing fields in the header: checkpoint bytes must be identical
    # across equal-seed runs.
    header = {"format": TRAIN_CHECKPOINT_FORMAT, "version": TRAIN_CHECKPOINT_VERSION,
              "train_config": asdict(cfg), "epoch": state.epoch, "step": state.step}
    write_atomic(path, json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n"
                 + state.encoders.to_bytes())


def load_train_checkpoint(path) -> tuple[TrainState, TrainConfig]:
    """A malformed checkpoint is bad input: it raises EncoderError, a
    ValueError, with the file's name in front."""
    with open(path, "rb") as fh:
        try:
            header = _read_header(fh, "a training", TRAIN_CHECKPOINT_FORMAT,
                                  TRAIN_CHECKPOINT_VERSION, ("train_config", "epoch", "step"))
            encoders = DualEncoders.load_from(fh)
            cfg = TrainConfig.from_dict(header["train_config"])
            for key in ("epoch", "step"):
                if type(header[key]) is not int or header[key] < 0:
                    raise EncoderError(f"header field {key!r} is not a non-negative integer")
        except (TypeError, ValueError) as e:  # EncoderError, or a bad train_config
            raise EncoderError(f"{Path(path).name}: {e}") from None
    return TrainState(encoders=encoders, epoch=header["epoch"], step=header["step"]), cfg


def train_loop(manifest: DatasetManifest, cfg: TrainConfig,
               state: TrainState | None = None,
               log_path=None, checkpoint_dir=None) -> tuple[TrainState, list[dict]]:
    """Train from state.epoch to cfg.epochs; returns state and epoch metrics.

    Passing a state loaded from a checkpoint resumes bit-exactly, because
    epoch sampling depends only on (seed, epoch). A run from epoch 0
    rewrites the log at log_path; a resumed run appends to it. Checkpoints
    are written every cfg.checkpoint_every epochs (0 disables) plus once at
    the end when a directory is given.
    """
    if state is None:
        state = TrainState(encoders=DualEncoders.from_manifest(manifest, cfg.encoder))
    pools = manifest.negative_pools()
    compiled = compile_manifest(manifest, state.encoders, pools)
    metrics: list[dict] = []
    grads = EncoderGrads.zeros_for(state.encoders)
    # The one artifact written in place: a resumed run appends one row per
    # epoch to the log it resumes, so the log is streamed, not replaced.
    mode = "a" if state.epoch > 0 else "w"
    log_fh = open(log_path, mode, encoding="utf-8") if log_path else None
    try:
        for epoch in range(state.epoch, cfg.epochs):
            t0 = time.perf_counter()
            plan = sample_epoch(manifest, cfg, epoch, pools)
            sums = Counter()
            for record in plan.records:
                out = train_step(compiled, state, cfg, record, grads)
                for key, val in {"total": out.total, **out.terms}.items():
                    sums[key] += val
            n = max(len(plan.records), 1)
            row = {"epoch": epoch,
                   **{k: sums[k] / n for k in ("total", "t2v", "chn", "verb_phrase")},
                   "wall_ms": (time.perf_counter() - t0) * 1e3}
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
