"""Closed-class verb lexicon: recognition, inflection and replacement resources.

The recognizer is a surface-form table generated from a base-verb list with
regular inflection rules plus irregular overrides. It is deliberately a closed
class: a token is a verb iff it is in the table, so behaviour is deterministic
and auxiliaries (is, are, has, ...) are never treated as action verbs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import DatasetManifest, VerbPhrase
from .text import normalize_text

VOWELS = "aeiou"

# Bases longer than three letters that still double the final consonant.
DOUBLE_FINAL = {
    "chat", "chip", "clap", "drop", "drum", "flip", "grab", "grin", "scrub",
    "shred", "skip", "slam", "slap", "snap", "spar", "spin", "squat", "stir",
    "stop", "strip", "strum", "swim", "trim", "wrap",
}

# Irregular third/past/participle forms; gerunds follow from spelling rules.
IRREGULAR: dict[str, dict[str, str]] = {
    "bend": {"past": "bent"},
    "bite": {"past": "bit", "part": "bitten"},
    "blow": {"past": "blew", "part": "blown"},
    "break": {"past": "broke", "part": "broken"},
    "build": {"past": "built"},
    "buy": {"past": "bought"},
    "catch": {"past": "caught"},
    "cut": {"past": "cut"},
    "dig": {"past": "dug"},
    "dive": {"past": "dove"},
    "do": {"past": "did", "part": "done"},
    "draw": {"past": "drew", "part": "drawn"},
    "drink": {"past": "drank", "part": "drunk"},
    "drive": {"past": "drove", "part": "driven"},
    "eat": {"past": "ate", "part": "eaten"},
    "fall": {"past": "fell", "part": "fallen"},
    "feed": {"past": "fed"},
    "fight": {"past": "fought"},
    "find": {"past": "found"},
    "fly": {"past": "flew", "part": "flown"},
    "forget": {"past": "forgot", "part": "forgotten"},
    "get": {"past": "got", "part": "gotten"},
    "give": {"past": "gave", "part": "given"},
    "grind": {"past": "ground"},
    "grow": {"past": "grew", "part": "grown"},
    "hang": {"past": "hung"},
    "hide": {"past": "hid", "part": "hidden"},
    "hit": {"past": "hit"},
    "hold": {"past": "held"},
    "kneel": {"past": "knelt"},
    "lay": {"past": "laid"},
    "lead": {"past": "led"},
    "leave": {"past": "left"},
    "lie": {"past": "lay", "part": "lain"},
    "lose": {"past": "lost"},
    "make": {"past": "made"},
    "put": {"past": "put"},
    "read": {"past": "read"},
    "ride": {"past": "rode", "part": "ridden"},
    "rise": {"past": "rose", "part": "risen"},
    "run": {"past": "ran", "part": "run"},
    "say": {"past": "said"},
    "see": {"past": "saw", "part": "seen"},
    "sell": {"past": "sold"},
    "sew": {"part": "sewn"},
    "shake": {"past": "shook", "part": "shaken"},
    "shine": {"past": "shone"},
    "shoot": {"past": "shot"},
    "shut": {"past": "shut"},
    "sing": {"past": "sang", "part": "sung"},
    "sink": {"past": "sank", "part": "sunk"},
    "sit": {"past": "sat"},
    "sleep": {"past": "slept"},
    "slide": {"past": "slid"},
    "speak": {"past": "spoke", "part": "spoken"},
    "spin": {"past": "spun"},
    "stand": {"past": "stood"},
    "sweep": {"past": "swept"},
    "swim": {"past": "swam", "part": "swum"},
    "swing": {"past": "swung"},
    "take": {"past": "took", "part": "taken"},
    "teach": {"past": "taught"},
    "tear": {"past": "tore", "part": "torn"},
    "tell": {"past": "told"},
    "throw": {"past": "threw", "part": "thrown"},
    "wake": {"past": "woke", "part": "woken"},
    "wear": {"past": "wore", "part": "worn"},
    "weave": {"past": "wove", "part": "woven"},
    "win": {"past": "won"},
    "write": {"past": "wrote", "part": "written"},
}

# Surfaces registered directly, without registering the base's other forms.
# Keeps e.g. "fishing" and "parking" recognizable while "fish" and "park" stay
# nouns; the same holds for place, point, watch, box, plant and bike. Their
# plurals stay nouns too, apart from "points", whose "points at" reading is
# the one captions use. "dying" is the common variant spelling of dyeing (so
# "dying hair" tags).
EXTRA_SURFACES: dict[str, tuple[str, str]] = {
    "fishing": ("fish", "gerund"),
    "parking": ("park", "gerund"),
    "parked": ("park", "past"),
    "placing": ("place", "gerund"),
    "placed": ("place", "past"),
    "points": ("point", "third"),
    "pointing": ("point", "gerund"),
    "pointed": ("point", "past"),
    "watching": ("watch", "gerund"),
    "watched": ("watch", "past"),
    "boxing": ("box", "gerund"),
    "boxed": ("box", "past"),
    "planting": ("plant", "gerund"),
    "planted": ("plant", "past"),
    "biking": ("bike", "gerund"),
    "biked": ("bike", "past"),
    "dying": ("dye", "gerund"),
}

TAGS = ("base", "third", "gerund", "past", "part")

# Function words ignored when grouping labels by context.
STOPWORDS = frozenset({
    "a", "an", "and", "at", "by", "for", "from", "in", "into", "of", "on",
    "or", "over", "the", "through", "to", "under", "up", "with",
})


def _doubles(base: str) -> bool:
    if base in DOUBLE_FINAL:
        return True
    if len(base) != 3:
        return False
    a, b, c = base
    return a not in VOWELS and b in VOWELS and c not in VOWELS and c not in "wxy"


def inflect(base: str, tag: str) -> str:
    """Inflected surface of ``base`` for a tag in TAGS."""
    if tag not in TAGS:
        raise ValueError(f"unknown inflection tag {tag!r}")
    if tag == "base":
        return base
    override = IRREGULAR.get(base, {})
    if tag == "part":
        return override.get("part") or inflect(base, "past")
    if tag in override:
        return override[tag]
    if tag == "third":
        if base.endswith(("s", "x", "z", "ch", "sh", "o")):
            return base + "es"
        if base.endswith("y") and len(base) > 1 and base[-2] not in VOWELS:
            return base[:-1] + "ies"
        return base + "s"
    if tag == "gerund":
        if base.endswith("ie"):
            return base[:-2] + "ying"
        if base.endswith("e") and not base.endswith(("ee", "oe", "ye")):
            return base[:-1] + "ing"
        if _doubles(base):
            return base + base[-1] + "ing"
        return base + "ing"
    # past
    if base.endswith("e"):
        return base + "d"
    if base.endswith("y") and len(base) > 1 and base[-2] not in VOWELS:
        return base[:-1] + "ied"
    if _doubles(base):
        return base + base[-1] + "ed"
    return base + "ed"


class VerbRecognizer:
    """Surface -> (base, tag) table over a closed class of verbs."""

    def __init__(self, table: Mapping[str, tuple[str, str]]):
        self.table = dict(table)

    @classmethod
    def from_bases(
        cls,
        bases: Iterable[str],
        extra_surfaces: Mapping[str, tuple[str, str]] | None = None,
    ) -> "VerbRecognizer":
        table: dict[str, tuple[str, str]] = {}
        for base in sorted(set(bases)):
            for tag in TAGS:
                table.setdefault(inflect(base, tag), (base, tag))
        for surface, entry in (extra_surfaces or {}).items():
            table.setdefault(surface, entry)
        return cls(table)

    def analyze(self, token: str) -> tuple[str, str] | None:
        return self.table.get(token)

    def is_verb(self, token: str) -> bool:
        return token in self.table

    def verb_tokens(self, tokens: Iterable[str]) -> list[str]:
        return [t for t in tokens if t in self.table]

    def inflect_like(self, replacement: str, template_token: str) -> str:
        """Inflect ``replacement`` to match the form of ``template_token``.

        Unrecognized inputs pass through unchanged, so arbitrary corpus
        entries can still be substituted verbatim.
        """
        template = self.analyze(template_token)
        if template is None:
            return replacement
        analyzed = self.analyze(replacement)
        base = analyzed[0] if analyzed else replacement
        try:
            return inflect(base, template[1])
        except ValueError:
            return replacement


class _Without(Sequence):
    """A sorted tuple with the entry at one position left out, read in place."""

    __slots__ = ("items", "cut")

    def __init__(self, items: tuple[str, ...], cut: int):
        self.items, self.cut = items, cut

    def __len__(self) -> int:
        return len(self.items) - 1

    def __getitem__(self, j):
        j = range(len(self))[j]  # a tuple's IndexError and negative indices
        return self.items[j + (j >= self.cut)]


@dataclass(frozen=True)
class LexiconResources:
    """Lexical resources for the rule-based generation backends."""

    verb_corpus: tuple[str, ...]
    antonym_map: Mapping[str, tuple[str, ...]]
    recognizer: VerbRecognizer
    # Inflection tag (None: unrecognized) -> sorted corpus surfaces; filled
    # lazily by swap_options.
    _swap_table: dict[str | None, tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # Recognized verb token -> its phrase; filled lazily by verb_phrases, so
    # it holds at most the recognizer's surfaces.
    _phrase_table: dict[str, VerbPhrase] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def verb_phrases(self, tokens: Iterable[str]) -> tuple[VerbPhrase, ...]:
        """One single-verb phrase per recognized token, in token order."""
        table = self._phrase_table
        return tuple(table.get(t) or table.setdefault(t, VerbPhrase(t))
                     for t in self.recognizer.verb_tokens(tokens))

    def swap_options(self, core: str) -> Sequence[str]:
        """Corpus verbs inflected like ``core``, sorted, without ``core``.

        Equals ``sorted({inflect_like(e, core) for e in verb_corpus} - {core})``.
        That set depends on ``core`` only through its inflection tag, so it is
        built once per tag; ``core`` is found by bisection and left out by a
        view rather than a copy of the table.
        """
        analyzed = self.recognizer.analyze(core)
        tag = analyzed[1] if analyzed else None
        surfaces = self._swap_table.get(tag)
        if surfaces is None:
            inflect_like = self.recognizer.inflect_like
            surfaces = tuple(sorted({inflect_like(e, core) for e in self.verb_corpus}))
            self._swap_table[tag] = surfaces
        i = bisect_left(surfaces, core)
        if i < len(surfaces) and surfaces[i] == core:
            return _Without(surfaces, i)
        return surfaces

    @classmethod
    def default(cls) -> "LexiconResources":
        bases = load_verb_corpus(_data_path("verbs.txt"))
        return cls(
            verb_corpus=bases,
            antonym_map=load_antonym_map(_data_path("antonyms.tsv")),
            recognizer=VerbRecognizer.from_bases(bases, EXTRA_SURFACES),
        )

    @classmethod
    def from_manifest(cls, manifest: DatasetManifest) -> "LexiconResources":
        """Resources whose verb class is the head tokens of manifest phrases.

        Useful for synthetic corpora whose verb phrases are not English.
        """
        heads: set[str] = set()
        for c in manifest.captions:
            heads.update(p.surface.split()[0] for p in c.verb_phrases)
        for g in manifest.generations:
            heads.update(p.surface.split()[0] for p in g.verb_phrases)
        table = {h: (h, "base") for h in sorted(heads)}
        return cls(
            verb_corpus=tuple(sorted(heads)),
            antonym_map={},
            recognizer=VerbRecognizer(table),
        )


def _data_path(name: str) -> Path:
    return Path(str(importlib_resources.files("verbfocus").joinpath("data", name)))


def load_verb_corpus(path: str | Path) -> tuple[str, ...]:
    """Newline-delimited verb list; blank lines and #-comments are skipped."""
    entries = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        s = line.strip()
        if s and not s.startswith("#"):
            entries.append(normalize_text(s))
    return tuple(entries)


def load_antonym_map(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Two-column TSV: verb, comma-separated antonyms. Values must be non-empty."""
    out: dict[str, tuple[str, ...]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{Path(path).name}:{lineno}: expected two tab-separated columns")
        verb = normalize_text(parts[0])
        antonyms = tuple(normalize_text(a) for a in parts[1].split(",") if a.strip())
        if not verb or not antonyms:
            raise ValueError(f"{Path(path).name}:{lineno}: empty verb or antonym list")
        out[verb] = antonyms
    return out
