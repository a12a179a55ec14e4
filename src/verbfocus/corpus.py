"""Data model and manifest I/O for videos, captions and generated captions.

A manifest is one UTF-8, LF-terminated JSONL file. Every line is a record
tagged with a ``record`` field: one header, then videos, captions and
generations. Caption and generation payloads mirror the documented line
schemas; ordering inside the file is preserved by load/save round trips.

save_manifest writes each line as ``json.dumps(record, ensure_ascii=False)``
would: ``", "`` between members, ``": "`` after keys, non-ASCII characters
kept as they are (json's escapes for quotes, backslashes and control
characters only), ``true``/``false`` for ``kept``, and the keys in this
order:

  {"record": "header", "schema_version": 1}
  {"record": "video", "video_id": ..., "split": ...}
  {"record": "caption", "video_id": ..., "text": ..., "split": ..., "verb_phrases": [...]}
  {"record": "generation", "parent_video_id": ..., "parent_caption": ..., "text": ...,
   "kind": ..., "backend": ..., "verb_phrases": [...], "kept": true}

(the generation record is one line). Ids, texts, kinds, backends, splits and
phrases are JSON strings; a caption's split is its video's.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path

import numpy as np

from .text import has_tokens, is_normalized, normalize_text

SPLITS = ("train", "val", "test")
GENERATION_KINDS = ("hard_negative", "positive_paraphrase")
GENERATION_BACKENDS = ("llm_completion", "t5_cloze", "random_verb", "antonym_verb")

SCHEMA_VERSION = 1

Parser = Callable[[dict], object]


class CorpusError(ValueError):
    """Raised for schema violations; message carries line numbers where known."""


@dataclass(frozen=True)
class VerbPhrase:
    """Normalized verb-phrase surface form, the unit of concept matching."""

    surface: str

    def __post_init__(self):
        if not is_normalized(self.surface):
            raise CorpusError(f"verb phrase not normalized: {self.surface!r}")

    @classmethod
    def normalize(cls, raw: str) -> "VerbPhrase":
        s = normalize_text(raw)
        if not s:
            raise CorpusError(f"verb phrase normalizes to empty: {raw!r}")
        return cls(s)


@dataclass(frozen=True)
class VideoRecord:
    video_id: str
    split: str = "train"

    def __post_init__(self):
        if not self.video_id:
            raise CorpusError("video_id must be non-empty")
        if self.split not in SPLITS:
            raise CorpusError(f"unknown split {self.split!r} for video {self.video_id!r}")


@dataclass(frozen=True)
class CaptionRecord:
    video_id: str
    text: str
    verb_phrases: tuple[VerbPhrase, ...] = ()

    def __post_init__(self):
        if not self.text.strip():
            raise CorpusError(f"caption for video {self.video_id!r} has empty text")


@dataclass(frozen=True)
class GeneratedCaption:
    parent_video_id: str
    parent_caption: str
    text: str
    kind: str
    backend: str
    verb_phrases: tuple[VerbPhrase, ...] = ()
    kept: bool = True

    def __post_init__(self):
        if self.kind not in GENERATION_KINDS:
            raise CorpusError(f"unknown generation kind {self.kind!r}")
        if self.backend not in GENERATION_BACKENDS:
            raise CorpusError(f"unknown generation backend {self.backend!r}")
        if not self.text.strip():
            raise CorpusError(f"generation for video {self.parent_video_id!r} has empty text")


@dataclass
class DatasetManifest:
    videos: list[VideoRecord] = field(default_factory=list)
    captions: list[CaptionRecord] = field(default_factory=list)
    generations: list[GeneratedCaption] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def video_index(self) -> dict[str, VideoRecord]:
        return {v.video_id: v for v in self.videos}

    def captions_for_split(self, split: str) -> list[CaptionRecord]:
        by_id = self.video_index()
        return [c for c in self.captions if by_id[c.video_id].split == split]

    def negative_pools(self) -> dict[tuple[str, str], list[int]]:
        """Kept hard-negative indices by parent (video id, caption), in generation order."""
        pools: dict[tuple[str, str], list[int]] = {}
        for idx, gen in enumerate(self.generations):
            if gen.kind == "hard_negative" and gen.kept:
                pools.setdefault((gen.parent_video_id, gen.parent_caption), []).append(idx)
        return pools

    def validate(self) -> None:
        seen: set[str] = set()
        for v in self.videos:
            if v.video_id in seen:
                raise CorpusError(f"duplicate video_id {v.video_id!r}")
            seen.add(v.video_id)
        for c in self.captions:
            if c.video_id not in seen:
                raise CorpusError(
                    f"caption references unknown video_id {c.video_id!r}"
                )
        for g in self.generations:
            if g.parent_video_id not in seen:
                raise CorpusError(
                    f"generation references unknown video_id {g.parent_video_id!r}"
                )


def _phrases_from_json(raw, known: dict) -> tuple[VerbPhrase, ...]:
    """The phrases of one record. known maps each surface validated so far to
    its phrase, and each list of surfaces read so far, as a tuple, to its
    phrases, which the records share."""
    if type(raw) is list:
        try:
            return known[tuple(raw)]
        except (KeyError, TypeError):
            pass  # a list not seen yet, or an entry that is not a surface
    if not isinstance(raw, list) or not all(isinstance(p, str) for p in raw):
        raise CorpusError("verb_phrases must be a list of strings")
    phrases = tuple(known.get(p) or known.setdefault(p, VerbPhrase(p)) for p in raw)
    known[tuple(raw)] = phrases
    return phrases


def _require(obj: dict, keys: tuple[str, ...]) -> None:
    """Raise naming the missing fields, else the unknown ones; obj holds a
    "record" tag and does not hold exactly keys besides it."""
    missing = [k for k in keys if k not in obj]
    if missing:
        raise CorpusError(f"missing fields {missing}")
    extra = sorted(set(obj) - set(keys) - {"record"})
    raise CorpusError(f"unknown fields {extra}")


def read_jsonl(path: str | Path, parse: Parser | dict[str, Parser],
               error: type[ValueError]) -> list:
    """Parse each non-blank line of a JSONL file as one JSON object.

    ``parse`` takes the object and returns the line's record; a mapping
    instead picks the parser by the object's ``record`` tag. Returns the
    records in file order. Bad JSON, a line that is not an object, a missing
    field (a KeyError in the parser), an unknown tag, or a record the parser
    rejects with a ValueError or TypeError all raise ``error`` prefixed with
    ``name:line``. Lines end at newlines only, as JSONL defines them.
    """
    path = Path(path)
    by_tag = parse if isinstance(parse, dict) else None
    raw_decode = json.JSONDecoder().raw_decode
    records = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            try:
                obj, end = raw_decode(line)
            except json.JSONDecodeError:
                end = None
            if end != len(line):
                # Not one JSON value: json.loads raises with its own wording.
                obj = json.loads(line)
            if not isinstance(obj, dict):
                raise error("expected a JSON object")
            if by_tag is not None:
                parse = by_tag.get(obj["record"])
                if parse is None:
                    raise error(f"unknown record tag {obj['record']!r}")
            records.append(parse(obj))
        except json.JSONDecodeError as e:
            raise error(f"{path.name}:{lineno}: invalid JSON ({e.msg})") from None
        except KeyError as e:
            raise error(f"{path.name}:{lineno}: missing field {e.args[0]!r}") from None
        except (TypeError, ValueError) as e:
            raise error(f"{path.name}:{lineno}: {e}") from None
    return records


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` via a same-directory temp file (named per
    process and thread) and one ``os.replace``: a reader sees the old file or
    the new one, never a prefix. Nothing is fsynced, so this covers an
    interrupted process, not a power cut."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write each record as one JSON line, atomically; read_jsonl reads it back."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    body = "".join(encode(obj) + "\n" for obj in records)
    write_atomic(path, body.encode("utf-8"))


_surface = attrgetter("surface")


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write the manifest in the line format of the module docstring,
    atomically; load_manifest reads it back."""
    manifest.validate()
    q = encode_basestring  # the string escaper of json.dumps(ensure_ascii=False)
    split_of = {v.video_id: q(v.split) for v in manifest.videos}
    lines = [f'{{"record": "header", "schema_version": {json.dumps(manifest.schema_version)}}}\n']
    lines += [f'{{"record": "video", "video_id": {q(v.video_id)}, "split": {q(v.split)}}}\n'
              for v in manifest.videos]
    lines += [f'{{"record": "caption", "video_id": {q(c.video_id)}, "text": {q(c.text)}, '
              f'"split": {split_of[c.video_id]}, '
              f'"verb_phrases": [{", ".join(map(q, map(_surface, c.verb_phrases)))}]}}\n'
              for c in manifest.captions]
    lines += [f'{{"record": "generation", "parent_video_id": {q(g.parent_video_id)}, '
              f'"parent_caption": {q(g.parent_caption)}, "text": {q(g.text)}, '
              f'"kind": {q(g.kind)}, "backend": {q(g.backend)}, '
              f'"verb_phrases": [{", ".join(map(q, map(_surface, g.verb_phrases)))}], '
              f'"kept": {"true" if g.kept else "false"}}}\n'
              for g in manifest.generations]
    write_atomic(path, "".join(lines).encode("utf-8"))


# Record tag -> the fields of its line besides "record", in the documented order.
_FIELDS = {
    "header": ("schema_version",),
    "video": ("video_id", "split"),
    "caption": ("video_id", "text", "split", "verb_phrases"),
    "generation": ("parent_video_id", "parent_caption", "text", "kind", "backend",
                   "verb_phrases", "kept"),
}
_KEYS = {tag: {"record", *fields} for tag, fields in _FIELDS.items()}


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse and validate a manifest file; errors name the offending line.

    Caption and generation texts must have at least one token: the encoders
    cannot embed a text without, so it is rejected here rather than
    mid-training. Verb phrases are normalized, so never empty.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"manifest not found: {path}")
    manifest = DatasetManifest()
    phrases: dict = {}  # see _phrases_from_json
    split_of: dict[str, str] = {}
    caption_splits: dict[str, str] = {}
    headers: list[dict] = []

    def header(obj):
        if obj.keys() != _KEYS["header"]:
            _require(obj, _FIELDS["header"])
        if obj["schema_version"] != SCHEMA_VERSION:
            raise CorpusError(f"unsupported schema_version {obj['schema_version']!r}")
        headers.append(obj)

    def video(obj):
        if obj.keys() != _KEYS["video"]:
            _require(obj, _FIELDS["video"])
        manifest.videos.append(VideoRecord(obj["video_id"], obj["split"]))
        split_of[obj["video_id"]] = obj["split"]
        # The line format holds ids and texts as JSON strings only.
        if not isinstance(obj["video_id"], str):
            raise CorpusError(f"video_id must be a string, got {obj['video_id']!r}")

    def caption(obj):
        if obj.keys() != _KEYS["caption"]:
            _require(obj, _FIELDS["caption"])
        text = obj["text"]
        if not has_tokens(text):
            raise CorpusError(f"caption text has no tokens: {text!r}")
        manifest.captions.append(CaptionRecord(
            obj["video_id"], text, _phrases_from_json(obj["verb_phrases"], phrases)))
        caption_splits[obj["video_id"]] = obj["split"]

    def generation(obj):
        if obj.keys() != _KEYS["generation"]:
            _require(obj, _FIELDS["generation"])
        text = obj["text"]
        if not has_tokens(text):
            raise CorpusError(f"generation text has no tokens: {text!r}")
        # The parent pair keys the negative pools: reject an unhashable one here.
        hash((obj["parent_video_id"], obj["parent_caption"]))
        manifest.generations.append(GeneratedCaption(
            obj["parent_video_id"], obj["parent_caption"], text, obj["kind"],
            obj["backend"], _phrases_from_json(obj["verb_phrases"], phrases), bool(obj["kept"])))
        if not isinstance(obj["parent_caption"], str):
            raise CorpusError(f"parent_caption must be a string, got {obj['parent_caption']!r}")

    read_jsonl(path, {"header": header, "video": video, "caption": caption,
                      "generation": generation}, CorpusError)
    if not headers:
        raise CorpusError(f"{path.name}: missing header record")
    try:
        manifest.validate()
    except CorpusError as e:
        raise CorpusError(f"{path.name}: {e}") from None
    for vid, split in caption_splits.items():
        if split_of[vid] != split:
            raise CorpusError(
                f"{path.name}: caption split {split!r} disagrees with video {vid!r} ({split_of[vid]!r})"
            )
    return manifest


def set_kept_flags(manifest: DatasetManifest, kept: dict[int, bool]) -> DatasetManifest:
    """Return a manifest with generation ``kept`` flags replaced by index.
    Generations whose flag stays the same are shared with the input."""
    gens = list(manifest.generations)
    for i, flag in kept.items():
        if 0 <= i < len(gens) and gens[i].kept is not flag:
            g = gens[i]
            gens[i] = GeneratedCaption(g.parent_video_id, g.parent_caption, g.text, g.kind,
                                       g.backend, g.verb_phrases, flag)
    return DatasetManifest(manifest.videos, manifest.captions, gens, manifest.schema_version)


@dataclass(frozen=True)
class SynthSpec:
    """Spec for a synthetic corpus of context groups crossed with verb phrases."""

    n_contexts: int
    verbs_per_context: int
    captions_per_cell: int
    frequency_skew: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_contexts < 1 or self.verbs_per_context < 1 or self.captions_per_cell < 1:
            raise CorpusError("SynthSpec counts must be positive")
        if self.frequency_skew < 0:
            raise CorpusError("frequency_skew must be >= 0")


def synth_context_tokens(context: int) -> tuple[str, ...]:
    return ("the", f"place{context:03d}", f"thing{context:03d}", f"spot{context:03d}")


def synth_verb_phrase(context: int, verb: int) -> str:
    return f"act{context:03d}x{verb:02d}"


def make_synthetic_corpus(spec: SynthSpec) -> DatasetManifest:
    """Deterministic corpus: captions are context tokens plus one verb phrase.

    Within a context, verb ranks get caption counts proportional to
    rank**(-frequency_skew); skew 0 gives exactly captions_per_cell per cell.
    One video per caption, all in the train split.
    """
    cells: list[tuple[int, int]] = []
    for c in range(spec.n_contexts):
        weights = np.array(
            [(r + 1) ** (-spec.frequency_skew) for r in range(spec.verbs_per_context)]
        )
        total = spec.captions_per_cell * spec.verbs_per_context
        counts = [max(1, round(total * w / weights.sum())) for w in weights]
        for k, n in enumerate(counts):
            cells.extend([(c, k)] * n)
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(len(cells))
    manifest = DatasetManifest()
    for i, cell_idx in enumerate(order):
        c, k = cells[cell_idx]
        vid = f"vid{i:05d}"
        phrase = synth_verb_phrase(c, k)
        text = " ".join(synth_context_tokens(c) + (phrase,))
        manifest.videos.append(VideoRecord(vid, "train"))
        manifest.captions.append(CaptionRecord(vid, text, (VerbPhrase(phrase),)))
    manifest.validate()
    return manifest
