"""Caption rewriting backends: completion prompts, cloze filling, rule edits.

Every backend funnels through the same post-processing: candidates are cut at
the first newline, deduplicated, and dropped when they still share a verb with
the parent caption. Hard negatives therefore never overlap the parent's
verb-phrase set; positive paraphrases only need to differ in surface form.
"""

from __future__ import annotations

import hashlib
import logging
import re
from dataclasses import dataclass, field

import numpy as np

from .clients import (
    DecodeParams,
    EXTRACTION_DECODE,
    GenerationClient,
    HARD_NEGATIVE_DECODE,
    POSITIVE_DECODE,
)
from .corpus import (GENERATION_BACKENDS, CaptionRecord, DatasetManifest, GeneratedCaption,
                     VerbPhrase)
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
    backend: str = "llm_completion"
    candidates_per_caption: int = 10
    decode: DecodeParams = field(default_factory=lambda: HARD_NEGATIVE_DECODE)
    top_k_fill: int = 50
    seed: int = 0
    include_exemplars: bool = True

    def __post_init__(self):
        if self.backend not in GENERATION_BACKENDS:
            raise ValueError(f"unknown generation backend {self.backend!r}")
        if self.candidates_per_caption < 1:
            raise ValueError("candidates_per_caption must be >= 1")
        if self.top_k_fill < 1:
            raise ValueError("top_k_fill must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
    return tuple(
        VerbPhrase(tok) for tok in resources.recognizer.verb_tokens(tokenize(text))
    )


def _verb_tokens(text: str, resources: LexiconResources) -> set[str]:
    return set(resources.recognizer.verb_tokens(tokenize(text)))


def _phrase_heads(phrases: tuple[VerbPhrase, ...]) -> set[str]:
    return {p.surface.split()[0] for p in phrases}


def filter_hard_negative_candidates(
    candidates: list[str], parent: CaptionRecord, resources: LexiconResources
) -> list[tuple[str, tuple[VerbPhrase, ...]]]:
    """Dedupe and drop candidates that still share a verb with the parent.

    Sharing is checked at both levels: whole normalized verb phrases, and the
    head verb token of each phrase plus any tagged verb in the texts.
    """
    parent_phrases = {p.surface for p in parent.verb_phrases}
    parent_heads = _phrase_heads(parent.verb_phrases) | _verb_tokens(parent.text, resources)
    seen: set[str] = set()
    out = []
    for cand in candidates:
        norm = normalize_text(cand)
        if not norm or norm in seen:
            continue
        seen.add(norm)
        phrases = rule_phrases(cand, resources)
        if {p.surface for p in phrases} & parent_phrases:
            continue
        # rule_phrases yields one single-token phrase per tagged verb, so the
        # phrase heads already are the candidate's tagged verbs.
        if _phrase_heads(phrases) & parent_heads:
            continue
        out.append((cand, phrases))
    return out


def postprocess(
    raw: str,
    parent: CaptionRecord,
    resources: LexiconResources | None = None,
    backend: str = "llm_completion",
) -> list[GeneratedCaption]:
    """Split one raw completion and filter it into hard-negative records."""
    resources = resources or LexiconResources.default()
    kept = filter_hard_negative_candidates(split_numbered(raw), parent, resources)
    return _hard_negatives(parent, backend, kept)


def _hard_negatives(parent: CaptionRecord, backend: str,
                    kept: list[tuple[str, tuple[VerbPhrase, ...]]]) -> list[GeneratedCaption]:
    """Hard-negative records for the filtered (text, phrases) pairs of a parent."""
    return [GeneratedCaption(parent.video_id, parent.text, text, "hard_negative", backend, phrases)
            for text, phrases in kept]


def _caption_rng(cfg: GenBackendConfig, caption: CaptionRecord) -> np.random.Generator:
    digest = hashlib.sha256(caption.text.encode("utf-8")).digest()
    return np.random.default_rng([cfg.seed, int.from_bytes(digest[:8], "big")])


_TOKEN_SHAPE = re.compile(r"^(\W*)(.*?)(\W*)$", re.DOTALL)


@dataclass(frozen=True)
class _VerbSite:
    index: int
    prefix: str
    core: str
    suffix: str
    options: tuple[str, ...]


def _verb_sites(
    caption: CaptionRecord, resources: LexiconResources, options_for
) -> tuple[list[str], list[_VerbSite]]:
    words = caption.text.split()
    sites = []
    for i, word in enumerate(words):
        m = _TOKEN_SHAPE.match(word)
        prefix, core, suffix = m.group(1), m.group(2), m.group(3)
        low = core.lower()
        if core and resources.recognizer.is_verb(low):
            sites.append(_VerbSite(i, prefix, low, suffix, tuple(options_for(low))))
    if not sites:
        raise CaptionSkip(f"no verb detected in caption for video {caption.video_id!r}")
    return words, sites


def _substitute(words: list[str], sites: list[_VerbSite], picks: list[str]) -> str:
    out = list(words)
    for site, pick in zip(sites, picks):
        original_core = _TOKEN_SHAPE.match(words[site.index]).group(2)
        if original_core[:1].isupper():
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
        def options_for(core: str) -> list[str]:
            antonyms = resources.antonym_map.get(core)
            if antonyms is None:
                analyzed = recognizer.analyze(core)
                if analyzed:
                    antonyms = resources.antonym_map.get(analyzed[0])
            if not antonyms:
                return []
            opts = {recognizer.inflect_like(a, core) for a in antonyms}
            opts.discard(core)
            return sorted(opts)

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


def generate_hard_negatives(
    caption: CaptionRecord,
    cfg: GenBackendConfig,
    resources: LexiconResources | None = None,
    client: GenerationClient | None = None,
) -> list[GeneratedCaption]:
    """Up to candidates_per_caption filtered hard negatives for one caption."""
    resources = resources or LexiconResources.default()
    if cfg.backend == "t5_cloze":
        return t5_cloze_generate(caption, cfg, resources, client)
    if cfg.backend == "llm_completion":
        if client is None:
            raise TextGenError("llm_completion backend requires a completion client")
        prompt = HARD_NEGATIVE_PROMPT.render(caption.text, cfg.include_exemplars)
        raw_candidates: list[str] = []
        for completion in client.complete(prompt, cfg.decode):
            raw_candidates.extend(split_numbered(completion))
    else:
        raw_candidates = _rule_rewrites(caption, cfg, resources)
    kept = filter_hard_negative_candidates(raw_candidates, caption, resources)
    return _hard_negatives(caption, cfg.backend, kept[: cfg.candidates_per_caption])


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
    if client is None:
        raise TextGenError("positive generation requires a completion client")
    prompt = POSITIVE_PROMPT.render(caption.text, cfg.include_exemplars)
    decode = cfg.decode if cfg.decode != HARD_NEGATIVE_DECODE else POSITIVE_DECODE
    raw_candidates: list[str] = []
    for completion in client.complete(prompt, decode):
        raw_candidates.extend(split_numbered(completion))
    if not raw_candidates:
        log.warning("no positive candidates for video %r", caption.video_id)
    parent_norm = normalize_text(caption.text)
    seen: set[str] = set()
    out = []
    for cand in raw_candidates:
        norm = normalize_text(cand)
        if not norm or norm == parent_norm or norm in seen:
            continue
        seen.add(norm)
        out.append(
            GeneratedCaption(
                parent_video_id=caption.video_id,
                parent_caption=caption.text,
                text=cand,
                kind="positive_paraphrase",
                backend="llm_completion",
                verb_phrases=rule_phrases(cand, resources),
            )
        )
        if len(out) == cfg.candidates_per_caption:
            break
    return out


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
    phrases = []
    for p in parse_phrase_list(best):
        norm = normalize_text(p)
        if norm:
            phrases.append(VerbPhrase(norm))
    return tuple(phrases)


def t5_cloze_generate(
    caption: CaptionRecord,
    cfg: GenBackendConfig,
    resources: LexiconResources | None = None,
    fill_client: GenerationClient | None = None,
) -> list[GeneratedCaption]:
    """Mask all tagged verbs jointly, take top-k fills, filter same-verb.

    Returns every surviving candidate; candidates_per_caption does not cap
    this path, the fill rank list does.
    """
    resources = resources or LexiconResources.default()
    if fill_client is None:
        raise TextGenError("t5_cloze backend requires a fill-mask client")
    words, sites = _verb_sites(caption, resources, lambda core: [])
    masked_words = list(words)
    for s in sites:
        masked_words[s.index] = f"{s.prefix}{MASK_TOKEN}{s.suffix}"
    masked = " ".join(masked_words)
    fills = fill_client.fill(masked, cfg.top_k_fill)
    if not fills:
        return []
    if len(fills) != len(sites):
        raise TextGenError(
            f"fill response has {len(fills)} slots for {len(sites)} masks"
        )
    n_cand = min(cfg.top_k_fill, min(len(f) for f in fills))
    candidates = [
        _substitute(words, sites, [fills[m][k] for m in range(len(sites))])
        for k in range(n_cand)
    ]
    return _hard_negatives(caption, "t5_cloze",
                           filter_hard_negative_candidates(candidates, caption, resources))


def generate_for_manifest(
    manifest: DatasetManifest,
    cfg: GenBackendConfig,
    resources: LexiconResources | None = None,
    client: GenerationClient | None = None,
    kinds: tuple[str, ...] = ("hard_negative",),
    extractor: str | None = None,
) -> DatasetManifest:
    """Run generation over every train caption, appending to the manifest.

    Captions the backend cannot handle are skipped with a log line. When an
    extractor is named, captions without verb phrases get them filled first.
    """
    resources = resources or LexiconResources.default()
    captions = []
    for c in manifest.captions:
        if extractor and not c.verb_phrases:
            try:
                phrases = extract_verb_phrases(c, extractor, resources, client)
                c = CaptionRecord(c.video_id, c.text, phrases)
            except CaptionSkip as e:
                log.info("extraction skipped: %s", e)
        captions.append(c)
    patched = DatasetManifest(
        manifest.videos, captions, list(manifest.generations), manifest.schema_version
    )
    split_of = {v.video_id: v.split for v in patched.videos}
    generations = list(patched.generations)
    skipped = 0
    for c in captions:
        if split_of[c.video_id] != "train":
            continue
        try:
            if "hard_negative" in kinds:
                generations.extend(generate_hard_negatives(c, cfg, resources, client))
            if "positive_paraphrase" in kinds:
                generations.extend(generate_positives(c, cfg, resources, client))
        except CaptionSkip as e:
            skipped += 1
            log.info("generation skipped: %s", e)
    if skipped:
        log.info("generation skipped %d caption(s)", skipped)
    return DatasetManifest(patched.videos, captions, generations, patched.schema_version)
