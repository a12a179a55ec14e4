"""Lookup-table dual encoders producing unit-norm f64 embeddings.

The video tower is one learnable vector per video id. The text tower is a
bag of learnable token vectors: lowercase, strip punctuation, whitespace
split, arithmetic mean, then L2-normalize. Both towers are deliberately
order-invariant and pixel-free so that loss-side effects can be isolated
and gradients checked against finite differences at tight tolerance.
Unknown tokens share one dedicated vector (the last table row); frozen
towers get exactly zero gradient.

Each tower has one forward and one backward kernel; text arrives tokenized
into token-table rows (TokenIds, CSR form). The forward sums each string's
rows first to last, divides by its length and returns the unit rows with
their norms, which a backward reuses when it is handed them. The backward
applies (I - uu^T)/||x|| to the upstream rows; the text tower then adds
every token's share with one ordered scatter-add (per column, a bincount
over the touched rows that starts from their current values and adds in
input order, as np.add.at would), the video tower with np.add.at. Every
per-string method (encode_text, backward_text, ...) is a batch of one
through the same kernels, so an embedding does not depend on its batch,
and equal-seed runs stay byte-identical.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .checks import check_fields
from .corpus import DatasetManifest, write_atomic
from .text import tokenize

CHECKPOINT_FORMAT = "verbfocus-encoders"
CHECKPOINT_VERSION = 1


class EncoderError(ValueError):
    """A bad encoder config or a malformed checkpoint file."""


def _read_header(fh: io.BufferedIOBase, kind: str, fmt: str, version: int,
                 keys: tuple[str, ...]) -> dict:
    """A checkpoint's first line: a JSON object of this format and version
    that holds every one of keys."""
    try:
        header = json.loads(fh.readline().decode("utf-8"))
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise EncoderError(f"header line is not JSON: {e}") from None
    if not isinstance(header, dict):
        raise EncoderError("header line is not a JSON object")
    if header.get("format") != fmt:
        raise EncoderError(f"not {kind} checkpoint: format {header.get('format')!r}")
    if header.get("version") != version:
        raise EncoderError(f"unsupported checkpoint version {header.get('version')!r}")
    for key in keys:
        if key not in header:
            raise EncoderError(f"header has no {key!r} field")
    return header


@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 32
    init_scale: float | None = None
    seed: int = 0
    freeze_video: bool = False
    freeze_text: bool = False

    def __post_init__(self):
        check_fields(self, dim=2)
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


@dataclass
class TokenIds:
    """Token-table rows of n strings in CSR form: string i is
    ids[indptr[i]:indptr[i + 1]], never empty."""

    indptr: np.ndarray
    ids: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "TokenIds":
        indptr = np.array([0, *itertools.accumulate(map(len, rows))], dtype=np.int64)
        ids = np.fromiter(itertools.chain.from_iterable(rows), np.int64, int(indptr[-1]))
        return cls(indptr, ids)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def take(self, strings) -> "TokenIds":
        """The given strings, in that order."""
        strings = np.asarray(strings, dtype=np.int64)
        starts = self.indptr[strings]
        lengths = self.indptr[strings + 1] - starts
        indptr = np.zeros(len(strings) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        at = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return TokenIds(indptr, self.ids[at])


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b. As a stack of
    1 x d by d x 1 products each is one BLAS dot, summed in the order np.dot
    sums two vectors."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of x scaled to unit length, and their norms."""
    norms = np.sqrt(row_dots(x, x))
    if not norms.all():
        raise EncoderError("zero-norm embedding")
    return x / norms[:, None], norms


def _normalization_backward(forward: tuple[np.ndarray, np.ndarray],
                            upstream: np.ndarray) -> np.ndarray:
    """Row-wise gradient through x -> x / ||x|| given the forward's unit
    rows u and norms: (g - (u.g) u) / ||x||."""
    upstream = np.asarray(upstream, dtype=np.float64)
    u, norms = forward
    return (upstream - row_dots(u, upstream)[:, None] * u) / norms[:, None]


def _scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray,
                 source: np.ndarray) -> None:
    """table[rows[k]] += values[source[k]] for k in order, bit for bit as
    np.add.at adds them. Each column is one bincount over the touched rows
    only, which adds in input order: a touched entry's current value goes in
    first, then its shares."""
    touched, slot = np.unique(rows, return_inverse=True)
    k = touched.size
    bins = np.concatenate((np.arange(k), slot))
    current = table[touched]
    weights = np.empty(bins.size)
    for c, column in enumerate(values.T):
        weights[:k] = current[:, c]
        weights[k:] = column[source]
        current[:, c] = np.bincount(bins, weights, minlength=k)
    table[touched] = current


def _token_means(table: np.ndarray, tokens: TokenIds) -> np.ndarray:
    """Mean token row of each string, each string's rows added first to last
    as table[rows].mean(axis=0) adds them (np.add.reduceat would add them in
    another order). A batch is summed position by position; one string is
    that mean itself, the same sum with less call overhead."""
    if len(tokens) == 1:
        return np.add.reduce(table[tokens.ids], axis=0, keepdims=True) / tokens.ids.size
    lengths = tokens.lengths()
    starts = tokens.indptr[:-1]
    sums = table[tokens.ids[starts]]
    for p in range(1, int(lengths.max(initial=0))):
        live = np.flatnonzero(lengths > p)
        sums[live] += table[tokens.ids[starts[live] + p]]
    return sums / lengths[:, None]


def manifest_vocab(manifest: DatasetManifest) -> list[str]:
    """Sorted tokens of the captions, generations and verb phrase surfaces."""
    records = (*manifest.captions, *manifest.generations)
    tokens = {t for text in dict.fromkeys(r.text for r in records) for t in tokenize(text)}
    tokens.update(t for r in records for ph in r.verb_phrases for t in ph.surface.split())
    return sorted(tokens)


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
        return cls(config, [v.video_id for v in manifest.videos], manifest_vocab(manifest))

    # -- forward ---------------------------------------------------------

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

    def text_ids(self, texts) -> TokenIds:
        """Tokenize each distinct text once into token-table rows."""
        texts = list(texts)
        rows = {t: self.token_rows(t) for t in dict.fromkeys(texts)}
        return TokenIds.from_rows([rows[t] for t in texts])

    def forward_ids(self, tokens: TokenIds) -> tuple[np.ndarray, np.ndarray]:
        """(n, d) unit embeddings of the strings in tokens and the norms they
        were scaled by: the forward kernel."""
        return _unit_rows(_token_means(self.token_table, tokens))

    def forward_video_rows(self, rows) -> tuple[np.ndarray, np.ndarray]:
        return _unit_rows(self.video_table[rows])

    def encode_ids(self, tokens: TokenIds) -> np.ndarray:
        return self.forward_ids(tokens)[0]

    def encode_video_rows(self, rows) -> np.ndarray:
        return self.forward_video_rows(rows)[0]

    def encode_text(self, text: str) -> np.ndarray:
        return self.encode_ids(self.text_ids([text]))[0]

    def encode_texts(self, texts) -> np.ndarray:
        return self.encode_ids(self.text_ids(texts))

    def encode_video(self, video_id: str) -> np.ndarray:
        return self.encode_video_rows([self.video_row(video_id)])[0]

    def encode_videos(self, video_ids) -> np.ndarray:
        return self.encode_video_rows([self.video_row(v) for v in video_ids])

    # -- backward --------------------------------------------------------

    def backward_ids(self, tokens: TokenIds, upstream: np.ndarray, grads: EncoderGrads,
                     forward: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        """Add the gradient of the (n, d) upstream through encode_ids(tokens)
        into grads.token: the backward kernel. forward is forward_ids(tokens)
        if the caller kept it; otherwise it is recomputed."""
        if self.config.freeze_text:
            return
        lengths = tokens.lengths()
        g = _normalization_backward(forward or self.forward_ids(tokens), upstream)
        owner = np.repeat(np.arange(lengths.size), lengths)
        _scatter_add(grads.token, tokens.ids, g / lengths[:, None], owner)

    def backward_video_rows(self, rows, upstream: np.ndarray, grads: EncoderGrads,
                            forward: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        if self.config.freeze_video:
            return
        g = _normalization_backward(forward or self.forward_video_rows(rows), upstream)
        np.add.at(grads.video, rows, g)

    def backward_text(self, text: str, upstream: np.ndarray, grads: EncoderGrads) -> None:
        self.backward_ids(self.text_ids([text]), np.asarray(upstream)[None], grads)

    def backward_video(self, video_id: str, upstream: np.ndarray, grads: EncoderGrads) -> None:
        self.backward_video_rows([self.video_row(video_id)], np.asarray(upstream)[None], grads)

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
        header = _read_header(fh, "an encoder", CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                              ("config", "video_ids", "vocab", "video_shape", "token_shape"))
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
            except (TypeError, ValueError) as e:  # EncoderError, or a bad config or shape
                raise EncoderError(f"{Path(path).name}: {e}") from None
