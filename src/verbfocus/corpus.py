"""Data model and manifest I/O for videos, captions and generated captions.

A manifest is one UTF-8, LF-terminated JSONL file. Every line is a record
tagged with a ``record`` field: one header, then videos, captions and
generations. Caption and generation payloads mirror the documented line
schemas; ordering inside the file is preserved by load/save round trips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .text import has_tokens, is_normalized, normalize_text

SPLITS = ("train", "val", "test")
GENERATION_KINDS = ("hard_negative", "positive_paraphrase")
GENERATION_BACKENDS = ("llm_completion", "t5_cloze", "random_verb", "antonym_verb")

SCHEMA_VERSION = 1


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


def _phrases_from_json(raw, where: str) -> tuple[VerbPhrase, ...]:
    if not isinstance(raw, list) or not all(isinstance(p, str) for p in raw):
        raise CorpusError(f"{where}: verb_phrases must be a list of strings")
    try:
        return tuple(VerbPhrase(p) for p in raw)
    except CorpusError as e:
        raise CorpusError(f"{where}: {e}") from None


def _require(obj: dict, keys: tuple[str, ...], where: str) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise CorpusError(f"{where}: missing fields {missing}")
    extra = sorted(set(obj) - set(keys) - {"record"})
    if extra:
        raise CorpusError(f"{where}: unknown fields {extra}")


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
    body = "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in lines)
    Path(path).write_text(body, encoding="utf-8", newline="\n")


def _require_tokens(text: str, what: str) -> None:
    # The encoders cannot embed a text without tokens; reject it at load time
    # rather than mid-training. Verb phrases are normalized, so never empty.
    if not has_tokens(text):
        raise CorpusError(f"{what} has no tokens: {text!r}")


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse and validate a manifest file; errors name the offending line.

    Caption and generation texts must have at least one token.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"manifest not found: {path}")
    manifest = DatasetManifest()
    caption_splits: dict[str, str] = {}
    saw_header = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path.name}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusError(f"{where}: invalid JSON ({e.msg})") from None
        if not isinstance(obj, dict) or "record" not in obj:
            raise CorpusError(f"{where}: expected an object with a 'record' tag")
        kind = obj["record"]
        try:
            if kind == "header":
                _require(obj, ("schema_version",), where)
                if obj["schema_version"] != SCHEMA_VERSION:
                    raise CorpusError(
                        f"{where}: unsupported schema_version {obj['schema_version']!r}"
                    )
                saw_header = True
            elif kind == "video":
                _require(obj, ("video_id", "split"), where)
                manifest.videos.append(VideoRecord(obj["video_id"], obj["split"]))
            elif kind == "caption":
                _require(obj, ("video_id", "text", "split", "verb_phrases"), where)
                _require_tokens(obj["text"], "caption text")
                manifest.captions.append(
                    CaptionRecord(
                        obj["video_id"],
                        obj["text"],
                        _phrases_from_json(obj["verb_phrases"], where),
                    )
                )
                caption_splits[obj["video_id"]] = obj["split"]
            elif kind == "generation":
                _require(
                    obj,
                    (
                        "parent_video_id",
                        "parent_caption",
                        "text",
                        "kind",
                        "backend",
                        "verb_phrases",
                        "kept",
                    ),
                    where,
                )
                _require_tokens(obj["text"], "generation text")
                manifest.generations.append(
                    GeneratedCaption(
                        obj["parent_video_id"],
                        obj["parent_caption"],
                        obj["text"],
                        obj["kind"],
                        obj["backend"],
                        _phrases_from_json(obj["verb_phrases"], where),
                        bool(obj["kept"]),
                    )
                )
            else:
                raise CorpusError(f"{where}: unknown record tag {kind!r}")
        except CorpusError as e:
            msg = str(e)
            raise CorpusError(msg if msg.startswith(path.name) else f"{where}: {e}") from None
    if not saw_header:
        raise CorpusError(f"{path.name}: missing header record")
    manifest.validate()
    split_of = {v.video_id: v.split for v in manifest.videos}
    for vid, split in caption_splits.items():
        if split_of[vid] != split:
            raise CorpusError(
                f"{path.name}: caption split {split!r} disagrees with video {vid!r} ({split_of[vid]!r})"
            )
    return manifest


def set_kept_flags(manifest: DatasetManifest, kept: dict[int, bool]) -> DatasetManifest:
    """Return a manifest with generation ``kept`` flags replaced by index."""
    gens = [
        replace(g, kept=kept.get(i, g.kept)) for i, g in enumerate(manifest.generations)
    ]
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
