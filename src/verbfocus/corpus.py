"""Data model and manifest I/O for videos, captions and generated captions.

A manifest is one UTF-8, LF-terminated JSONL file. Every line is a record
tagged with a ``record`` field: one header, then videos, captions and
generations. Caption and generation payloads mirror the documented line
schemas; ordering inside the file is preserved by load/save round trips.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
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


def _phrases_to_json(phrases: tuple[VerbPhrase, ...]) -> list[str]:
    return [p.surface for p in phrases]


def _phrases_from_json(raw, known: dict[str, VerbPhrase]) -> tuple[VerbPhrase, ...]:
    """The phrases of one record; known holds the surfaces already validated."""
    if not isinstance(raw, list) or not all(isinstance(p, str) for p in raw):
        raise CorpusError("verb_phrases must be a list of strings")
    return tuple(known.get(p) or known.setdefault(p, VerbPhrase(p)) for p in raw)


def _require(obj: dict, keys: tuple[str, ...]) -> None:
    if len(obj) == len(keys) + 1 and "record" in obj and all(map(obj.__contains__, keys)):
        return
    missing = [k for k in keys if k not in obj]
    if missing:
        raise CorpusError(f"missing fields {missing}")
    extra = sorted(set(obj) - set(keys) - {"record"})
    if extra:
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
    records = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
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


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write the manifest as JSONL with a fixed key order (round-trip stable)."""
    manifest.validate()
    split_of = {v.video_id: v.split for v in manifest.videos}
    lines = [{"record": "header", "schema_version": manifest.schema_version}]
    for v in manifest.videos:
        lines.append({"record": "video", "video_id": v.video_id, "split": v.split})
    for c in manifest.captions:
        lines.append(
            {
                "record": "caption",
                "video_id": c.video_id,
                "text": c.text,
                "split": split_of[c.video_id],
                "verb_phrases": _phrases_to_json(c.verb_phrases),
            }
        )
    for g in manifest.generations:
        lines.append(
            {
                "record": "generation",
                "parent_video_id": g.parent_video_id,
                "parent_caption": g.parent_caption,
                "text": g.text,
                "kind": g.kind,
                "backend": g.backend,
                "verb_phrases": _phrases_to_json(g.verb_phrases),
                "kept": g.kept,
            }
        )
    write_jsonl(path, lines)


def _require_tokens(text: str, what: str) -> None:
    # The encoders cannot embed a text without tokens; reject it at load time
    # rather than mid-training. Verb phrases are normalized, so never empty.
    if not has_tokens(text):
        raise CorpusError(f"{what} has no tokens: {text!r}")


_GENERATION_FIELDS = ("parent_video_id", "parent_caption", "text", "kind",
                      "backend", "verb_phrases", "kept")


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse and validate a manifest file; errors name the offending line.

    Caption and generation texts must have at least one token.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"manifest not found: {path}")
    manifest = DatasetManifest()
    phrases: dict[str, VerbPhrase] = {}
    split_of: dict[str, str] = {}
    caption_splits: dict[str, str] = {}
    headers: list[dict] = []

    def header(obj):
        _require(obj, ("schema_version",))
        if obj["schema_version"] != SCHEMA_VERSION:
            raise CorpusError(f"unsupported schema_version {obj['schema_version']!r}")
        headers.append(obj)

    def video(obj):
        _require(obj, ("video_id", "split"))
        manifest.videos.append(VideoRecord(obj["video_id"], obj["split"]))
        split_of[obj["video_id"]] = obj["split"]

    def caption(obj):
        _require(obj, ("video_id", "text", "split", "verb_phrases"))
        _require_tokens(obj["text"], "caption text")
        manifest.captions.append(CaptionRecord(
            obj["video_id"], obj["text"], _phrases_from_json(obj["verb_phrases"], phrases)))
        caption_splits[obj["video_id"]] = obj["split"]

    def generation(obj):
        _require(obj, _GENERATION_FIELDS)
        _require_tokens(obj["text"], "generation text")
        # The parent pair keys the negative pools: reject an unhashable one here.
        hash((obj["parent_video_id"], obj["parent_caption"]))
        manifest.generations.append(GeneratedCaption(
            obj["parent_video_id"], obj["parent_caption"], obj["text"], obj["kind"],
            obj["backend"], _phrases_from_json(obj["verb_phrases"], phrases), bool(obj["kept"])))

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
