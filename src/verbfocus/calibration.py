"""Concept statistics, negative/positive usage ratio laws, and the filter
that balances generated negatives against caption occurrences.

S counts how often a verb phrase occurs across original train captions,
G how often across generated hard negatives. usage_weights is the one
source of the negative uses per occurrence (B-1 per caption occurrence; B,
1 or 0 per hard-negative occurrence), which compute_ratio and
trainer.UsageCounter both apply. Under a batch size B the expected
negative-to-positive usage ratio of a phrase is:

  baseline        (B-1)S/S        = B-1            (phrase-independent)
  hn              ((B-1)S + B*G)/S                 (every item sees all negatives)
  calibrated_hn   ((B-1)S + G)/S                   (own negatives only)

The filter discards generations until kept G <= S for every phrase, which
together with the own-negatives denominator makes the ratio approximately
phrase-independent again.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

from .corpus import DatasetManifest, set_kept_flags

RATIO_VARIANTS = ("baseline", "hn", "calibrated_hn")

# LossConfig.negative_variant value -> ratio-law variant name.
VARIANT_FROM_LOSS = {
    "none": "baseline",
    "hn_uncalibrated": "hn",
    "calibrated_hn": "calibrated_hn",
}


class RatioUndefined(ValueError):
    pass


@dataclass
class ConceptStats:
    concept: str
    s_count: int = 0
    g_count: int = 0


def count_concepts(manifest: DatasetManifest, kept_only: bool = False) -> dict[str, ConceptStats]:
    """Tally S over train captions and G over hard-negative generations.

    Multiplicity counts: a phrase listed twice on one record contributes two.
    With kept_only, only generations whose kept flag is set contribute to G.
    """
    s = Counter(ph.surface for cap in manifest.captions_for_split("train")
                for ph in cap.verb_phrases)
    g = Counter(ph.surface for gen in manifest.generations
                if gen.kind == "hard_negative" and (gen.kept or not kept_only)
                for ph in gen.verb_phrases)
    return {c: ConceptStats(c, s[c], g[c]) for c in s | g}


def usage_weights(variant: str, batch_size: int) -> tuple[int, int]:
    """Negative uses one phrase occurrence adds in a batch of batch_size:
    (per caption occurrence, per sampled hard-negative occurrence)."""
    if variant not in RATIO_VARIANTS:
        raise ValueError(f"unknown ratio variant {variant!r}")
    b = batch_size
    return b - 1, {"baseline": 0, "hn": b, "calibrated_hn": 1}[variant]


def compute_ratio(stats: ConceptStats, variant: str, batch_size: int) -> float:
    per_caption, per_negative = usage_weights(variant, batch_size)
    s, g = stats.s_count, stats.g_count
    if s <= 0:
        raise RatioUndefined(f"ratio undefined for {stats.concept!r}: no caption occurrences")
    return (per_caption * s + per_negative * g) / s


@dataclass
class ConceptRow:
    concept: str
    s_count: int
    g_before: int
    g_after: int


@dataclass
class CalibrationReport:
    concepts: list[ConceptRow]
    candidates_before: int
    kept: int
    discarded: int
    per_video_hist: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "candidates_before": self.candidates_before,
            "kept": self.kept,
            "discarded": self.discarded,
            "per_video_hist": {str(k): v for k, v in sorted(self.per_video_hist.items())},
            "concepts": [
                {"concept": c.concept, "s_count": c.s_count,
                 "g_before": c.g_before, "g_after": c.g_after}
                for c in self.concepts
            ],
        }

    def render(self, top_k: int = 10) -> str:
        """Table of the concepts with the largest pre-filter G/S imbalance."""
        def imbalance(row: ConceptRow) -> float:
            if row.s_count == 0:
                return float("inf") if row.g_before else 0.0
            return row.g_before / row.s_count

        ranked = sorted(self.concepts, key=lambda r: (-imbalance(r), r.concept))
        lines = [
            f"candidates {self.candidates_before}  kept {self.kept}  discarded {self.discarded}",
            f"{'concept':<28} {'S':>6} {'G before':>9} {'G after':>8}",
        ]
        for row in ranked[:top_k]:
            lines.append(
                f"{row.concept:<28} {row.s_count:>6} {row.g_before:>9} {row.g_after:>8}"
            )
        return "\n".join(lines)


_surface = attrgetter("surface")


def _candidate_sort_key(text: str):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def calibrate_filter(manifest: DatasetManifest) -> tuple[DatasetManifest, CalibrationReport]:
    """Discard generated negatives until kept G <= S for every phrase.

    A generation counts toward every phrase it lists and is kept only when
    all of them still have quota; keeping it decrements each. Selection is
    round-robin over parent captions, at most one keep per parent per pass,
    candidates within a parent ordered by a digest of their text. Candidates
    that fail the quota check when scanned are discarded for good, so a
    rerun over the surviving set keeps everything and the filter is
    idempotent. Phrase-free generations are kept vacuously. Paraphrase
    generations are out of scope and keep their flags.
    """
    before = count_concepts(manifest, kept_only=True)
    # Every candidate's phrases are in before: it is a kept hard negative.
    quotas = {c: st.s_count for c, st in before.items()}
    gens = manifest.generations

    candidates = manifest.negative_pools()

    caption_order = {}
    for pos, cap in enumerate(manifest.captions):
        caption_order.setdefault((cap.video_id, cap.text), pos)
    parents = sorted(
        candidates,
        key=lambda key: (caption_order.get(key, len(manifest.captions)),
                         min(candidates[key])),
    )

    pending = {key: iter(sorted(candidates[key], key=lambda i: (
        _candidate_sort_key(gens[i].text), i))) for key in parents}
    decisions: dict[int, bool] = {}
    kept_any = True
    # A pass that keeps nothing has scanned every queue to its end.
    while kept_any:
        kept_any = False
        for key in parents:
            for idx in pending[key]:
                # Spend one quota per listed phrase; a phrase listed twice
                # spends two. Kept iff no quota went below zero, else refunded.
                need = [*map(_surface, gens[idx].verb_phrases)]
                for ph in need:
                    quotas[ph] -= 1
                decisions[idx] = min(map(quotas.__getitem__, need), default=0) >= 0
                if decisions[idx]:
                    kept_any = True
                    break
                for ph in need:
                    quotas[ph] += 1

    filtered = set_kept_flags(manifest, decisions)
    # Every kept hard negative was a candidate and spent its quota.
    concept_rows = [
        ConceptRow(concept=c, s_count=st.s_count, g_before=st.g_count,
                   g_after=st.s_count - quotas[c])
        for c, st in sorted(before.items())
    ]

    kept_total = sum(decisions.values())
    per_video = Counter(manifest.generations[i].parent_video_id
                        for i, keep in decisions.items() if keep)
    train_videos = {cap.video_id for cap in filtered.captions_for_split("train")}
    hist = Counter(per_video[vid] for vid in train_videos)

    report = CalibrationReport(
        concepts=concept_rows,
        candidates_before=len(decisions),
        kept=kept_total,
        discarded=len(decisions) - kept_total,
        per_video_hist=dict(hist),
    )
    return filtered, report
