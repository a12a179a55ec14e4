"""Caption rewriting backends: completion prompts, cloze filling, rule edits.

Every hard-negative backend takes one path. A source yields raw candidate
strings: numbered completions split at their prefixes (llm_completion), the
cloze fills substituted rank by rank (t5_cloze), or rule rewrites
(random_verb, antonym_verb). Then one dedupe keeps the first candidate of
each normalized form, one filter drops every candidate that shares a verb
with the parent caption, and one cap keeps the first candidates_per_caption
survivors. A t5_cloze source is at most top_k_fill ranks long, and that
bound, not candidates_per_caption, caps it. Positive paraphrases share the
completion source and the dedupe; they only need to differ in surface form.
"""

from __future__ import annotations

import hashlib
import logging
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .checks import check_fields
from .clients import (EXTRACTION_DECODE, HARD_NEGATIVE_DECODE, POSITIVE_DECODE, DecodeParams,
                      GenerationClient)
from .corpus import (GENERATION_BACKENDS, GENERATION_KINDS, CaptionRecord, DatasetManifest,
                     GeneratedCaption, VerbPhrase)
from .lexicon import LexiconResources
from .prompts import HARD_NEGATIVE_PROMPT, POSITIVE_PROMPT, VERB_PHRASE_PROMPT, parse_phrase_list
from .text import normalize_text, tokenize

log = logging.getLogger(__name__)

MASK_TOKEN = "[MASK]"

EXTRACT_BACKENDS = ("llm_completion", "rule_tagger", "provided_labels")


class TextGenError(RuntimeError):
    pass


class CaptionSkip(TextGenError):
    """The caption cannot be handled by this backend; skip it, don't abort."""


@dataclass(frozen=True)
class GenBackendConfig:
    """One generation run: the backend and its bounds, which kinds of caption
    to generate, and the extractor that fills in missing verb phrases."""

    backend: str = "llm_completion"
    candidates_per_caption: int = 10
    top_k_fill: int = 50
    seed: int = 0
    include_exemplars: bool = True
    kinds: tuple[str, ...] = ("hard_negative",)
    extractor: str = "rule_tagger"

    def __post_init__(self):
        if self.backend not in GENERATION_BACKENDS:
            raise ValueError(f"unknown generation backend {self.backend!r}")
        check_fields(self, candidates_per_caption=1, top_k_fill=1, seed=0)
        if (not isinstance(self.kinds, (list, tuple)) or not self.kinds
                or not all(k in GENERATION_KINDS for k in self.kinds)):
            raise ValueError(f"kinds must be a non-empty list of {GENERATION_KINDS}, "
                             f"got {self.kinds!r}")
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if self.extractor not in EXTRACT_BACKENDS:
            raise ValueError(f"unknown extraction backend {self.extractor!r}")


# Trailing whitespace must stay on the item's own line: a blank item like
# "1. \n" must not swallow the newline that introduces the next prefix.
_ITEM_PREFIX = re.compile(r"(?:^|\n)\s*\d+[.)][ \t]*")


def split_numbered(raw: str) -> list[str]:
    """Candidates of one completion: numbered items, each cut at its newline.

    A completion without any numbered prefix is treated as one candidate.
    """
    parts = _ITEM_PREFIX.split(raw)
    if len(parts) == 1:
        single = raw.split("\n", 1)[0].strip()
        return [single] if single else []
    out = []
    for part in parts[1:]:
        cand = part.split("\n", 1)[0].strip()
        if cand:
            out.append(cand)
    return out


def rule_phrases(text: str, resources: LexiconResources) -> tuple[VerbPhrase, ...]:
    """Single-verb phrases found by the closed-class tagger, in token order."""
    return resources.verb_phrases(tokenize(text))


def _first_seen(candidates: list[str], *exclude: str):
    """(candidate, its tokens) for the first candidate of each normalized
    form that is neither empty nor excluded."""
    seen = {"", *exclude}
    for cand in candidates:
        norm = normalize_text(cand)
        if norm not in seen:
            seen.add(norm)
            yield cand, norm.split()


def filter_hard_negative_candidates(
    candidates: list[str], parent: CaptionRecord, resources: LexiconResources
) -> list[tuple[str, tuple[VerbPhrase, ...]]]:
    """Dedupe and drop candidates that still share a verb with the parent.

    The parent's verbs are the head tokens of its phrases plus the verbs
    tagged in its text. A candidate's phrases are its tagged verbs, one token
    each, so sharing a whole parent phrase means sharing that phrase's head.
    """
    parent_verbs = {p.surface.split()[0] for p in parent.verb_phrases}
    parent_verbs.update(resources.recognizer.verb_tokens(tokenize(parent.text)))
    out = []
    for cand, tokens in _first_seen(candidates):
        phrases = resources.verb_phrases(tokens)
        if parent_verbs.isdisjoint(p.surface for p in phrases):
            out.append((cand, phrases))
    return out


def _records(parent: CaptionRecord, kind: str, backend: str,
             kept: list[tuple[str, tuple[VerbPhrase, ...]]]) -> list[GeneratedCaption]:
    """Records of the kept (text, phrases) pairs of a parent."""
    return [GeneratedCaption(parent.video_id, parent.text, text, kind, backend, phrases)
            for text, phrases in kept]


def postprocess(
    raw: str, parent: CaptionRecord, resources: LexiconResources | None = None
) -> list[GeneratedCaption]:
    """Split one raw completion and filter it into hard-negative records."""
    resources = resources or LexiconResources.default()
    kept = filter_hard_negative_candidates(split_numbered(raw), parent, resources)
    return _records(parent, "hard_negative", "llm_completion", kept)


def _completions(client: GenerationClient | None, prompt: str,
                 decode: DecodeParams) -> list[str]:
    """The numbered candidates of every completion of one prompt."""
    if client is None:
        raise TextGenError("completion requests need a completion client")
    return [cand for raw in client.complete(prompt, decode) for cand in split_numbered(raw)]


def _caption_rng(cfg: GenBackendConfig, caption: CaptionRecord) -> np.random.Generator:
    digest = hashlib.sha256(caption.text.encode("utf-8")).digest()
    return np.random.default_rng([cfg.seed, int.from_bytes(digest[:8], "big")])


_TOKEN_SHAPE = re.compile(r"^(\W*)(.*?)(\W*)$", re.DOTALL)


@dataclass(frozen=True)
class _VerbSite:
    index: int
    prefix: str
    core: str  # lowercased
    suffix: str
    capitalized: bool
    options: Sequence[str]


def _verb_sites(
    caption: CaptionRecord, resources: LexiconResources, options_for
) -> tuple[list[str], list[_VerbSite]]:
    words = caption.text.split()
    sites = []
    for i, word in enumerate(words):
        prefix, core, suffix = _TOKEN_SHAPE.match(word).groups()
        low = core.lower()
        if core and resources.recognizer.is_verb(low):
            sites.append(_VerbSite(i, prefix, low, suffix, core[:1].isupper(), options_for(low)))
    if not sites:
        raise CaptionSkip(f"no verb detected in caption for video {caption.video_id!r}")
    return words, sites


def _substitute(words: list[str], sites: list[_VerbSite], picks: list[str]) -> str:
    out = list(words)
    for site, pick in zip(sites, picks):
        if site.capitalized:
            pick = pick.capitalize()
        out[site.index] = f"{site.prefix}{pick}{site.suffix}"
    return " ".join(out)


def _rule_rewrites(
    caption: CaptionRecord, cfg: GenBackendConfig, resources: LexiconResources
) -> list[str]:
    recognizer = resources.recognizer

    if cfg.backend == "random_verb":
        options_for = resources.swap_options
    else:  # antonym_verb
        def options_for(core: str) -> tuple[str, ...]:
            antonyms = resources.antonym_map.get(core)
            if antonyms is None:
                analyzed = recognizer.analyze(core)
                if analyzed:
                    antonyms = resources.antonym_map.get(analyzed[0])
            if not antonyms:
                return ()
            opts = {recognizer.inflect_like(a, core) for a in antonyms}
            opts.discard(core)
            return tuple(sorted(opts))

    words, sites = _verb_sites(caption, resources, options_for)
    if cfg.backend == "antonym_verb" and not any(s.options for s in sites):
        raise CaptionSkip(
            f"no antonym entry for any verb in caption for video {caption.video_id!r}"
        )
    rng = _caption_rng(cfg, caption)
    rewrites = []
    for _ in range(cfg.candidates_per_caption):
        picks = [
            s.options[rng.integers(len(s.options))] if s.options else s.core for s in sites
        ]
        rewrites.append(_substitute(words, sites, picks))
    return rewrites


def _cloze_fills(caption: CaptionRecord, cfg: GenBackendConfig, resources: LexiconResources,
                 client: GenerationClient | None) -> list[str]:
    """Mask all tagged verbs jointly and substitute the fills rank by rank;
    the client answers at most top_k_fill ranks per mask."""
    if client is None:
        raise TextGenError("t5_cloze backend requires a fill-mask client")
    words, sites = _verb_sites(caption, resources, lambda core: ())
    masked = list(words)
    for s in sites:
        masked[s.index] = f"{s.prefix}{MASK_TOKEN}{s.suffix}"
    fills = client.fill(" ".join(masked), cfg.top_k_fill)
    if fills and len(fills) != len(sites):
        raise TextGenError(f"fill response has {len(fills)} slots for {len(sites)} masks")
    return [_substitute(words, sites, picks) for picks in zip(*fills)]


def generate_hard_negatives(
    caption: CaptionRecord,
    cfg: GenBackendConfig,
    resources: LexiconResources | None = None,
    client: GenerationClient | None = None,
) -> list[GeneratedCaption]:
    """The filtered hard negatives of one caption, cut at the backend's cap."""
    resources = resources or LexiconResources.default()
    cap = cfg.candidates_per_caption
    if cfg.backend == "llm_completion":
        prompt = HARD_NEGATIVE_PROMPT.render(caption.text, cfg.include_exemplars)
        raw = _completions(client, prompt, HARD_NEGATIVE_DECODE)
    elif cfg.backend == "t5_cloze":
        raw, cap = _cloze_fills(caption, cfg, resources, client), cfg.top_k_fill
    else:
        raw = _rule_rewrites(caption, cfg, resources)
    kept = filter_hard_negative_candidates(raw, caption, resources)
    return _records(caption, "hard_negative", cfg.backend, kept[:cap])


def generate_positives(
    caption: CaptionRecord,
    cfg: GenBackendConfig,
    resources: LexiconResources | None = None,
    client: GenerationClient | None = None,
) -> list[GeneratedCaption]:
    """Paraphrases with swapped verbs; kept when the surface form changed.

    Unlike the hard-negative filter, verb overlap with the parent is allowed:
    a multi-verb caption stays a paraphrase when only one verb moved to a
    synonym.
    """
    resources = resources or LexiconResources.default()
    prompt = POSITIVE_PROMPT.render(caption.text, cfg.include_exemplars)
    raw = _completions(client, prompt, POSITIVE_DECODE)
    if not raw:
        log.warning("no positive candidates for video %r", caption.video_id)
    kept = [(cand, resources.verb_phrases(tokens))
            for cand, tokens in _first_seen(raw, normalize_text(caption.text))]
    return _records(caption, "positive_paraphrase", "llm_completion",
                    kept[: cfg.candidates_per_caption])


def extract_verb_phrases(
    caption: CaptionRecord,
    backend: str = "rule_tagger",
    resources: LexiconResources | None = None,
    client: GenerationClient | None = None,
) -> tuple[VerbPhrase, ...]:
    """Verb phrases of a caption; an empty result is a valid outcome."""
    if backend not in EXTRACT_BACKENDS:
        raise ValueError(f"unknown extraction backend {backend!r}")
    if backend == "provided_labels":
        if not caption.verb_phrases:
            raise CaptionSkip(
                f"manifest has no verb-phrase labels for video {caption.video_id!r}"
            )
        return caption.verb_phrases
    if backend == "rule_tagger":
        resources = resources or LexiconResources.default()
        return rule_phrases(caption.text, resources)
    if client is None:
        raise TextGenError("llm_completion extraction requires a completion client")
    prompt = VERB_PHRASE_PROMPT.render(caption.text)
    completions = client.complete(prompt, EXTRACTION_DECODE)
    best = completions[0] if completions else ""
    return tuple(VerbPhrase(norm) for norm in map(normalize_text, parse_phrase_list(best)) if norm)


def generate_for_manifest(
    manifest: DatasetManifest,
    cfg: GenBackendConfig,
    resources: LexiconResources | None = None,
    client: GenerationClient | None = None,
) -> DatasetManifest:
    """Generate cfg.kinds for every train caption, appended to the manifest.

    Captions without verb phrases get them from cfg.extractor first. Captions
    the backend cannot handle are skipped with a log line.
    """
    resources = resources or LexiconResources.default()
    captions = []
    for c in manifest.captions:
        if not c.verb_phrases:
            try:
                phrases = extract_verb_phrases(c, cfg.extractor, resources, client)
                c = CaptionRecord(c.video_id, c.text, phrases)
            except CaptionSkip as e:
                log.info("extraction skipped: %s", e)
        captions.append(c)
    split_of = {v.video_id: v.split for v in manifest.videos}
    generations = list(manifest.generations)
    skipped = 0
    for c in captions:
        if split_of[c.video_id] != "train":
            continue
        try:
            if "hard_negative" in cfg.kinds:
                generations.extend(generate_hard_negatives(c, cfg, resources, client))
            if "positive_paraphrase" in cfg.kinds:
                generations.extend(generate_positives(c, cfg, resources, client))
        except CaptionSkip as e:
            skipped += 1
            log.info("generation skipped: %s", e)
    if skipped:
        log.info("generation skipped %d caption(s)", skipped)
    return DatasetManifest(manifest.videos, captions, generations, manifest.schema_version)
