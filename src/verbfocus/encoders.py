"""Lookup-table dual encoders producing unit-norm f64 embeddings.

The video tower is one learnable vector per video id. The text tower is a
bag of learnable token vectors: lowercase, strip punctuation, whitespace
split, arithmetic mean, then L2-normalize. Both towers are deliberately
order-invariant and pixel-free so that loss-side effects can be isolated
and gradients checked against finite differences at tight tolerance.

Unknown tokens share one dedicated vector (the last table row). Gradients
flow through the normalization via (I - uu^T)/||x|| applied to the upstream
gradient; frozen towers contribute exactly zero.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .corpus import DatasetManifest, write_atomic
from .text import tokenize

CHECKPOINT_FORMAT = "verbfocus-encoders"
CHECKPOINT_VERSION = 1


class EncoderError(ValueError):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 32
    init_scale: float | None = None
    seed: int = 0
    freeze_video: bool = False
    freeze_text: bool = False

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.init_scale is None:
            object.__setattr__(self, "init_scale", 1.0 / math.sqrt(self.dim))
        elif self.init_scale <= 0:
            raise ValueError("init_scale must be positive")


@dataclass
class EncoderGrads:
    """Dense gradient buffers matching the two parameter tables."""

    video: np.ndarray
    token: np.ndarray

    @classmethod
    def zeros_for(cls, enc: "DualEncoders") -> "EncoderGrads":
        return cls(np.zeros_like(enc.video_table), np.zeros_like(enc.token_table))

    def clear(self) -> None:
        self.video[:] = 0.0
        self.token[:] = 0.0


class DualEncoders:
    """Paired video/text towers over a fixed id list and vocabulary.

    Parameter layout is stable: video_table rows follow video_ids order;
    token_table rows follow vocab order with one extra final row shared by
    all out-of-vocabulary tokens. Initialization draws the video table
    first, then the token table, from one seeded generator.
    """

    def __init__(self, config: EncoderConfig, video_ids, vocab,
                 video_table: np.ndarray | None = None,
                 token_table: np.ndarray | None = None):
        self.config = config
        self.video_ids = list(video_ids)
        self.vocab = list(vocab)
        if len(set(self.video_ids)) != len(self.video_ids):
            raise EncoderError("duplicate video ids")
        if len(set(self.vocab)) != len(self.vocab):
            raise EncoderError("duplicate vocabulary tokens")
        self._video_row = {vid: i for i, vid in enumerate(self.video_ids)}
        self._token_row = {tok: i for i, tok in enumerate(self.vocab)}
        self.unknown_row = len(self.vocab)
        d = config.dim
        if video_table is None or token_table is None:
            rng = np.random.default_rng(np.random.SeedSequence([config.seed]))
            video_table = rng.normal(0.0, config.init_scale, (len(self.video_ids), d))
            token_table = rng.normal(0.0, config.init_scale, (len(self.vocab) + 1, d))
        self.video_table = np.asarray(video_table, dtype=np.float64)
        self.token_table = np.asarray(token_table, dtype=np.float64)
        if self.video_table.shape != (len(self.video_ids), d):
            raise EncoderError("video table shape mismatch")
        if self.token_table.shape != (len(self.vocab) + 1, d):
            raise EncoderError("token table shape mismatch")

    @classmethod
    def from_manifest(cls, manifest: DatasetManifest, config: EncoderConfig) -> "DualEncoders":
        """Vocabulary spans captions, generations, and verb phrase surfaces."""
        tokens: set[str] = set()
        for cap in manifest.captions:
            tokens.update(tokenize(cap.text))
            for ph in cap.verb_phrases:
                tokens.update(ph.surface.split())
        for gen in manifest.generations:
            tokens.update(tokenize(gen.text))
            for ph in gen.verb_phrases:
                tokens.update(ph.surface.split())
        video_ids = [v.video_id for v in manifest.videos]
        return cls(config, video_ids, sorted(tokens))

    # -- forward ---------------------------------------------------------

    def _normalize(self, x: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(x)
        if norm == 0.0:
            raise EncoderError("zero-norm embedding")
        return x / norm

    def video_row(self, video_id: str) -> int:
        try:
            return self._video_row[video_id]
        except KeyError:
            raise EncoderError(f"unknown video id {video_id!r}") from None

    def token_rows(self, text: str) -> list[int]:
        toks = tokenize(text)
        if not toks:
            raise EncoderError(f"text has no tokens: {text!r}")
        return [self._token_row.get(t, self.unknown_row) for t in toks]

    def encode_video(self, video_id: str) -> np.ndarray:
        return self._normalize(self.video_table[self.video_row(video_id)])

    def encode_text(self, text: str) -> np.ndarray:
        rows = self.token_rows(text)
        return self._normalize(self.token_table[rows].mean(axis=0))

    def encode_videos(self, video_ids) -> np.ndarray:
        return np.stack([self.encode_video(v) for v in video_ids])

    def encode_texts(self, texts) -> np.ndarray:
        return np.stack([self.encode_text(t) for t in texts])

    # -- backward --------------------------------------------------------

    def _normalization_backward(self, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(x)
        if norm == 0.0:
            raise EncoderError("zero-norm embedding")
        u = x / norm
        return (upstream - np.dot(u, upstream) * u) / norm

    def backward_video(self, video_id: str, upstream: np.ndarray, grads: EncoderGrads) -> None:
        if self.config.freeze_video:
            return
        row = self.video_row(video_id)
        grads.video[row] += self._normalization_backward(self.video_table[row], upstream)

    def backward_text(self, text: str, upstream: np.ndarray, grads: EncoderGrads) -> None:
        if self.config.freeze_text:
            return
        rows = self.token_rows(text)
        x = self.token_table[rows].mean(axis=0)
        g = self._normalization_backward(x, upstream) / len(rows)
        for row in rows:
            grads.token[row] += g

    def apply_sgd(self, grads: EncoderGrads, lr: float, weight_decay: float) -> None:
        """theta <- theta - lr * (grad + weight_decay * theta), frozen towers untouched."""
        if not self.config.freeze_video:
            self.video_table -= lr * (grads.video + weight_decay * self.video_table)
        if not self.config.freeze_text:
            self.token_table -= lr * (grads.token + weight_decay * self.token_table)

    # -- checkpointing ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """The checkpoint: a JSON header line, then both tables as little-endian f8."""
        header = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "video_ids": self.video_ids,
            "vocab": self.vocab,
            "video_shape": list(self.video_table.shape),
            "token_shape": list(self.token_table.shape),
        }
        return b"".join((json.dumps(header, ensure_ascii=False).encode("utf-8"), b"\n",
                         np.ascontiguousarray(self.video_table, dtype="<f8").tobytes(),
                         np.ascontiguousarray(self.token_table, dtype="<f8").tobytes()))

    def save_checkpoint(self, path) -> None:
        write_atomic(path, self.to_bytes())

    @classmethod
    def load_from(cls, fh: io.BufferedIOBase) -> "DualEncoders":
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("format") != CHECKPOINT_FORMAT:
            raise EncoderError(f"not an encoder checkpoint: format {header.get('format')!r}")
        if header.get("version") != CHECKPOINT_VERSION:
            raise EncoderError(f"unsupported checkpoint version {header.get('version')!r}")
        config = EncoderConfig(**header["config"])
        vshape = tuple(header["video_shape"])
        tshape = tuple(header["token_shape"])
        nv, nt = math.prod(vshape), math.prod(tshape)
        payload = fh.read()
        if len(payload) != 8 * (nv + nt):
            raise EncoderError(f"checkpoint payload is {len(payload)} bytes, expected "
                               f"{8 * (nv + nt)} for tables {list(vshape)} and {list(tshape)}")
        video = np.frombuffer(payload, "<f8", nv).astype(np.float64).reshape(vshape)
        token = np.frombuffer(payload, "<f8", nt, 8 * nv).astype(np.float64).reshape(tshape)
        return cls(config, header["video_ids"], header["vocab"],
                   video_table=video, token_table=token)

    @classmethod
    def load_checkpoint(cls, path) -> "DualEncoders":
        with open(path, "rb") as fh:
            try:
                return cls.load_from(fh)
            except EncoderError as e:
                raise EncoderError(f"{Path(path).name}: {e}") from None
