"""Concept statistics, negative/positive usage ratio laws, and the filter
that balances generated negatives against caption occurrences.

S counts how often a verb phrase occurs across original train captions,
G how often across generated hard negatives. Under a batch size B the
expected negative-to-positive usage ratio of a phrase is:

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
    stats: dict[str, ConceptStats] = {}

    def bump(surface: str, attr: str):
        st = stats.setdefault(surface, ConceptStats(surface))
        setattr(st, attr, getattr(st, attr) + 1)

    for cap in manifest.captions_for_split("train"):
        for ph in cap.verb_phrases:
            bump(ph.surface, "s_count")
    for gen in manifest.generations:
        if gen.kind != "hard_negative":
            continue
        if kept_only and not gen.kept:
            continue
        for ph in gen.verb_phrases:
            bump(ph.surface, "g_count")
    return stats


def compute_ratio(stats: ConceptStats, variant: str, batch_size: int) -> float:
    if variant not in RATIO_VARIANTS:
        raise ValueError(f"unknown ratio variant {variant!r}")
    s, g = stats.s_count, stats.g_count
    if s <= 0:
        raise RatioUndefined(f"ratio undefined for {stats.concept!r}: no caption occurrences")
    b = batch_size
    if variant == "baseline":
        return float(b - 1)
    if variant == "hn":
        return ((b - 1) * s + b * g) / s
    return ((b - 1) * s + g) / s


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
    quotas = Counter()
    for cap in manifest.captions_for_split("train"):
        for ph in cap.verb_phrases:
            quotas[ph.surface] += 1

    before = count_concepts(manifest, kept_only=True)

    candidates = manifest.negative_pools()

    caption_order = {}
    for pos, cap in enumerate(manifest.captions):
        caption_order.setdefault((cap.video_id, cap.text), pos)
    parents = sorted(
        candidates,
        key=lambda key: (caption_order.get(key, len(manifest.captions)),
                         min(candidates[key])),
    )

    pending = {key: sorted(candidates[key], key=lambda i: (
        _candidate_sort_key(manifest.generations[i].text), i)) for key in parents}
    decisions: dict[int, bool] = {}
    while True:
        kept_this_pass = 0
        for key in parents:
            queue = pending[key]
            while queue:
                idx = queue.pop(0)
                need = Counter(ph.surface for ph in manifest.generations[idx].verb_phrases)
                if all(quotas[ph] >= n for ph, n in need.items()):
                    quotas.subtract(need)
                    decisions[idx] = True
                    kept_this_pass += 1
                    break
                decisions[idx] = False
        if kept_this_pass == 0:
            break
    for queue in pending.values():
        for idx in queue:
            decisions[idx] = False

    filtered = set_kept_flags(manifest, decisions)
    after = count_concepts(filtered, kept_only=True)

    surfaces = sorted(set(before) | set(after))
    concept_rows = [
        ConceptRow(
            concept=s,
            s_count=before.get(s, after.get(s, ConceptStats(s))).s_count,
            g_before=before.get(s, ConceptStats(s)).g_count,
            g_after=after.get(s, ConceptStats(s)).g_count,
        )
        for s in surfaces
    ]

    kept_total = sum(1 for v in decisions.values() if v)
    hist = Counter()
    per_video = Counter()
    for gen in filtered.generations:
        if gen.kind == "hard_negative" and gen.kept:
            per_video[gen.parent_video_id] += 1
    train_videos = {cap.video_id for cap in filtered.captions_for_split("train")}
    for vid in train_videos:
        hist[per_video.get(vid, 0)] += 1

    report = CalibrationReport(
        concepts=concept_rows,
        candidates_before=sum(len(q) for q in candidates.values()),
        kept=kept_total,
        discarded=sum(len(q) for q in candidates.values()) - kept_total,
        per_video_hist=dict(hist),
    )
    return filtered, report
