"""Concept counting, ratio laws, and the negative-balancing filter."""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from verbfocus.calibration import (
    CalibrationReport,
    ConceptRow,
    ConceptStats,
    RatioUndefined,
    VARIANT_FROM_LOSS,
    _candidate_sort_key,
    calibrate_filter,
    compute_ratio,
    count_concepts,
    usage_weights,
)
from verbfocus.corpus import (
    CaptionRecord,
    DatasetManifest,
    GeneratedCaption,
    VerbPhrase,
    VideoRecord,
    set_kept_flags,
)

from conftest import random_manifest


def stats_manifest():
    videos = [VideoRecord("v1", "train"), VideoRecord("v2", "train"), VideoRecord("v3", "val")]
    captions = [
        # "sleeping" listed twice on one caption: multiplicity counts.
        CaptionRecord("v1", "sleeping while sleeping", (VerbPhrase("sleeping"), VerbPhrase("sleeping"))),
        CaptionRecord("v2", "a dog running", (VerbPhrase("running"),)),
        CaptionRecord("v3", "a bird flying", (VerbPhrase("flying"),)),
    ]
    gens = [
        GeneratedCaption("v1", "sleeping while sleeping", "running around",
                         "hard_negative", "llm_completion", (VerbPhrase("running"),)),
        GeneratedCaption("v1", "sleeping while sleeping", "still dozing",
                         "hard_negative", "llm_completion", (VerbPhrase("dozing"),), kept=False),
        GeneratedCaption("v2", "a dog running", "a dog trotting",
                         "positive_paraphrase", "llm_completion", (VerbPhrase("trotting"),)),
    ]
    return DatasetManifest(videos, captions, gens)


def test_count_concepts_multiplicity_and_splits():
    """S: train captions only, with multiplicity. G: hard negatives only.

    "sleeping" S=2 from one caption; "flying" absent (val); the paraphrase's
    "trotting" never reaches G.
    """
    stats = count_concepts(stats_manifest())
    assert stats["sleeping"].s_count == 2
    assert stats["sleeping"].g_count == 0
    assert stats["running"] == ConceptStats("running", s_count=1, g_count=1)
    assert stats["dozing"].g_count == 1
    assert "flying" not in stats
    assert "trotting" not in stats


def test_count_concepts_kept_only():
    stats = count_concepts(stats_manifest(), kept_only=True)
    assert "dozing" not in stats
    assert stats["running"].g_count == 1


def test_compute_ratio_pinned():
    """S=2, G=6, B=4: baseline 3, hn (3*2+4*6)/2 = 15, calibrated (3*2+6)/2 = 6."""
    st_ = ConceptStats("w", s_count=2, g_count=6)
    assert compute_ratio(st_, "baseline", 4) == 3.0
    assert compute_ratio(st_, "hn", 4) == 15.0
    assert compute_ratio(st_, "calibrated_hn", 4) == 6.0


def test_compute_ratio_errors():
    with pytest.raises(RatioUndefined):
        compute_ratio(ConceptStats("w", s_count=0, g_count=3), "hn", 4)
    with pytest.raises(ValueError):
        compute_ratio(ConceptStats("w", s_count=1), "annealed", 4)


def test_variant_from_loss_covers_all_negative_variants():
    assert VARIANT_FROM_LOSS == {
        "none": "baseline",
        "hn_uncalibrated": "hn",
        "calibrated_hn": "calibrated_hn",
    }


def test_usage_weights_per_variant():
    assert usage_weights("baseline", 4) == (3, 0)
    assert usage_weights("hn", 4) == (3, 4)
    assert usage_weights("calibrated_hn", 4) == (3, 1)
    with pytest.raises(ValueError, match="'annealed'"):
        usage_weights("annealed", 4)


@given(
    s=st.integers(min_value=1, max_value=1000),
    g=st.integers(min_value=0, max_value=1000),
    b=st.integers(min_value=2, max_value=512),
)
def test_ratio_ordering(s, g, b):
    """baseline is phrase-independent; hn >= calibrated >= baseline,
    equal exactly when G = 0."""
    stats = ConceptStats("w", s_count=s, g_count=g)
    baseline = compute_ratio(stats, "baseline", b)
    hn = compute_ratio(stats, "hn", b)
    cal = compute_ratio(stats, "calibrated_hn", b)
    assert baseline == b - 1
    assert hn >= cal >= baseline
    if g == 0:
        assert hn == cal == baseline
    else:
        assert cal > baseline


# ---------------------------------------------------------------------------
# calibrate_filter


def quota_manifest():
    """Two train captions; three negatives compete for quota.

    S: sleeping=1, running=1. The two "running"-phrase negatives under v1 can
    only keep one; the S=0 phrase "flying" can keep none.
    """
    videos = [VideoRecord("v1", "train"), VideoRecord("v2", "train")]
    captions = [
        CaptionRecord("v1", "a cat sleeping", (VerbPhrase("sleeping"),)),
        CaptionRecord("v2", "a dog running", (VerbPhrase("running"),)),
    ]
    gens = [
        GeneratedCaption("v1", "a cat sleeping", "a cat running",
                         "hard_negative", "llm_completion", (VerbPhrase("running"),)),
        GeneratedCaption("v1", "a cat sleeping", "a cat running fast",
                         "hard_negative", "llm_completion", (VerbPhrase("running"),)),
        GeneratedCaption("v2", "a dog running", "a dog flying",
                         "hard_negative", "llm_completion", (VerbPhrase("flying"),)),
        GeneratedCaption("v2", "a dog running", "a dog sleeping",
                         "hard_negative", "llm_completion", (VerbPhrase("sleeping"),)),
    ]
    return DatasetManifest(videos, captions, gens)


def test_calibrate_filter_enforces_quotas():
    filtered, report = calibrate_filter(quota_manifest())
    kept = [g for g in filtered.generations if g.kept]
    running_kept = [g for g in kept if g.verb_phrases == (VerbPhrase("running"),)]
    assert len(running_kept) == 1
    assert not any(g.verb_phrases == (VerbPhrase("flying"),) for g in kept)
    assert sum(1 for g in kept if g.verb_phrases == (VerbPhrase("sleeping"),)) == 1
    assert report.kept == 2
    assert report.discarded == 2
    assert report.candidates_before == 4


def test_calibrate_filter_report_rows():
    _, report = calibrate_filter(quota_manifest())
    rows = {r.concept: r for r in report.concepts}
    assert rows["running"].s_count == 1
    assert rows["running"].g_before == 2
    assert rows["running"].g_after == 1
    assert rows["flying"].s_count == 0
    assert rows["flying"].g_after == 0
    # Every train video lands in exactly one histogram bucket.
    assert sum(report.per_video_hist.values()) == 2
    assert report.per_video_hist == {1: 2}


def test_calibrate_filter_leaves_input_unchanged():
    m = quota_manifest()
    calibrate_filter(m)
    assert all(g.kept for g in m.generations)


def test_calibrate_filter_keeps_phrase_free_and_paraphrases():
    videos = [VideoRecord("v1", "train")]
    captions = [CaptionRecord("v1", "a cat sleeping", (VerbPhrase("sleeping"),))]
    gens = [
        GeneratedCaption("v1", "a cat sleeping", "something else entirely",
                         "hard_negative", "llm_completion", ()),
        GeneratedCaption("v1", "a cat sleeping", "a kitty asleep",
                         "positive_paraphrase", "llm_completion", (VerbPhrase("asleep"),), kept=False),
    ]
    filtered, report = calibrate_filter(DatasetManifest(videos, captions, gens))
    assert filtered.generations[0].kept
    # The paraphrase is out of scope: its pre-existing flag survives.
    assert not filtered.generations[1].kept
    assert report.candidates_before == 1


def test_calibrate_filter_render_smoke():
    _, report = calibrate_filter(quota_manifest())
    text = report.render(top_k=3)
    assert "kept 2" in text
    assert "running" in text
    d = report.to_dict()
    assert d["kept"] == 2
    assert d["per_video_hist"] == {"1": 2}


def test_calibrate_filter_randomized_postconditions():
    """kept G <= S everywhere, G = 0 where S = 0, and a rerun fixes nothing."""
    rng = np.random.default_rng(77)
    for _ in range(25):
        manifest = random_manifest(rng)
        filtered, _ = calibrate_filter(manifest)
        quotas = {}
        for cap in filtered.captions_for_split("train"):
            for ph in cap.verb_phrases:
                quotas[ph.surface] = quotas.get(ph.surface, 0) + 1
        stats = count_concepts(filtered, kept_only=True)
        for st_ in stats.values():
            assert st_.g_count <= quotas.get(st_.concept, 0)
        again, report2 = calibrate_filter(filtered)
        assert [g.kept for g in again.generations] == [g.kept for g in filtered.generations]
        assert report2.discarded == 0


def test_calibrate_filter_deterministic():
    rng = np.random.default_rng(5)
    manifest = random_manifest(rng)
    flags_a = [g.kept for g in calibrate_filter(manifest)[0].generations]
    flags_b = [g.kept for g in calibrate_filter(manifest)[0].generations]
    assert flags_a == flags_b


def repeated_phrase_manifest(running_captions: int):
    """A negative that lists "running" twice competes with a single-phrase one.

    The double negative sits under the first parent, so the round-robin scans
    it first; it needs two units of running's quota.
    """
    texts = ["a cat sleeping", "a dog sleeping", "a fox running", "a cow running"]
    texts = texts[:2 + running_captions]
    videos = [VideoRecord(f"v{i}", "train") for i in range(len(texts))]
    captions = [CaptionRecord(f"v{i}", t, (VerbPhrase(t.split()[-1]),))
                for i, t in enumerate(texts)]
    gens = [
        GeneratedCaption("v0", texts[0], "a cat running and running", "hard_negative",
                         "llm_completion", (VerbPhrase("running"), VerbPhrase("running"))),
        GeneratedCaption("v1", texts[1], "a dog running", "hard_negative",
                         "llm_completion", (VerbPhrase("running"),)),
    ]
    return DatasetManifest(videos, captions, gens)


def test_calibrate_filter_charges_a_repeated_phrase_per_occurrence():
    short, short_report = calibrate_filter(repeated_phrase_manifest(running_captions=1))
    assert [g.kept for g in short.generations] == [False, True]
    assert {r.concept: r.g_after for r in short_report.concepts}["running"] == 1

    enough, report = calibrate_filter(repeated_phrase_manifest(running_captions=2))
    # Kept at S=2, it uses both units, so the single-phrase negative has none left.
    assert [g.kept for g in enough.generations] == [True, False]
    rows = {r.concept: r for r in report.concepts}
    assert (rows["running"].s_count, rows["running"].g_before, rows["running"].g_after) == (2, 3, 2)


def test_calibrate_filter_pinned_digests():
    """Kept flags and reports over random_manifest seeds 0-9, pinned bit for bit."""
    flags, reports = [], []
    for seed in range(10):
        filtered, report = calibrate_filter(random_manifest(np.random.default_rng(seed)))
        flags.append([g.kept for g in filtered.generations])
        reports.append(report.to_dict())
    assert hashlib.sha256(json.dumps(flags).encode()).hexdigest() == (
        "544a6bc4c260adc07c9b77b438beae61b667f836a4b03b89f01cf74097cc51ac")
    assert hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest() == (
        "758931d119a3b1c7f1c5f389fa77cf5a6b4a1dcdb3fcac57d05f8a751e309289")


def reference_calibrate_filter(manifest):
    """calibrate_filter as it was written with one Counter of needs per
    scanned candidate, kept as the reference for its quota loop."""
    before = count_concepts(manifest, kept_only=True)
    quotas = Counter({c: st_.s_count for c, st_ in before.items()})
    candidates = manifest.negative_pools()
    caption_order = {}
    for pos, cap in enumerate(manifest.captions):
        caption_order.setdefault((cap.video_id, cap.text), pos)
    parents = sorted(candidates, key=lambda key: (
        caption_order.get(key, len(manifest.captions)), min(candidates[key])))
    pending = {key: iter(sorted(candidates[key], key=lambda i: (
        _candidate_sort_key(manifest.generations[i].text), i))) for key in parents}
    decisions = {}
    kept_any = True
    while kept_any:
        kept_any = False
        for key in parents:
            for idx in pending[key]:
                need = Counter(ph.surface for ph in manifest.generations[idx].verb_phrases)
                decisions[idx] = all(quotas[ph] >= n for ph, n in need.items())
                if decisions[idx]:
                    quotas.subtract(need)
                    kept_any = True
                    break
    filtered = set_kept_flags(manifest, decisions)
    rows = [ConceptRow(c, st_.s_count, st_.g_count, st_.s_count - quotas[c])
            for c, st_ in sorted(before.items())]
    kept_total = sum(decisions.values())
    per_video = Counter(manifest.generations[i].parent_video_id
                        for i, keep in decisions.items() if keep)
    train_videos = {cap.video_id for cap in filtered.captions_for_split("train")}
    hist = Counter(per_video[vid] for vid in train_videos)
    return filtered, CalibrationReport(rows, len(decisions), kept_total,
                                       len(decisions) - kept_total, dict(hist))


# Caption phrases p0-p2; g0 and g1 occur only in generations.
PHRASES = ("p0", "p1", "p2", "g0", "g1")


@st.composite
def quota_manifests(draw):
    n = draw(st.integers(1, 4))
    videos = [VideoRecord(f"v{i}", draw(st.sampled_from(("train", "train", "val"))))
              for i in range(n)]
    phrase_list = st.lists(st.sampled_from(PHRASES[:3]), max_size=3)
    captions = [CaptionRecord(f"v{i}", f"caption {i}", tuple(map(VerbPhrase, draw(phrase_list))))
                for i in range(n)]
    # Multi-phrase negatives, one phrase listed twice, G-only and phrase-free
    # ones, paraphrases, pre-cleared flags and a parent with no caption.
    gen_phrases = st.lists(st.sampled_from(PHRASES), max_size=3)
    generations = []
    for _ in range(draw(st.integers(0, 14))):
        i = draw(st.integers(0, n - 1))
        parent = draw(st.sampled_from((f"caption {i}", "no such caption")))
        generations.append(GeneratedCaption(
            f"v{i}", parent, f"negative {draw(st.integers(0, 5))}",
            draw(st.sampled_from(("hard_negative", "hard_negative", "positive_paraphrase"))),
            "random_verb", tuple(map(VerbPhrase, draw(gen_phrases))),
            draw(st.sampled_from((True, True, False)))))
    return DatasetManifest(videos, captions, generations)


@settings(max_examples=150, deadline=None)
@given(m=quota_manifests())
def test_calibrate_filter_matches_the_counter_reference(m):
    filtered, report = calibrate_filter(m)
    ref, ref_report = reference_calibrate_filter(m)
    assert [g.kept for g in filtered.generations] == [g.kept for g in ref.generations]
    assert report.to_dict() == ref_report.to_dict()
    again, _ = calibrate_filter(filtered)
    assert [g.kept for g in again.generations] == [g.kept for g in filtered.generations]
