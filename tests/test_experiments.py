"""Structure of the packaged experiment corpora and probes.

The long-running claims (ratio deviations, attraction shares, shortcut
accuracies) live in the acceptance suite; these tests pin the scaffolding
the claims stand on.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np

from verbfocus.calibration import count_concepts
from verbfocus.corpus import synth_verb_phrase
from verbfocus.experiments import (
    EXPERIMENT_NAMES,
    _structured_video_table,
    build_attraction_manifest,
    build_ratio_law_manifest,
    build_shortcut_manifest,
    build_shortcut_mc,
    run_attraction_point,
    run_ratio_law,
)

import pytest


def test_experiment_names():
    assert EXPERIMENT_NAMES == ("ratio_law", "attraction_point", "shortcut")


def test_ratio_law_manifest_counts():
    """25 contexts x 2 verbs, 20 captions per cell: S = 20 everywhere and
    G cycles 10, 20, 40 in concept order."""
    manifest = build_ratio_law_manifest(seed=0)
    stats = count_concepts(manifest, kept_only=True)
    g_cycle = (10, 20, 40)
    idx = 0
    for c in range(25):
        for k in range(2):
            st = stats[synth_verb_phrase(c, k)]
            assert st.s_count == 20
            assert st.g_count == g_cycle[idx % 3]
            idx += 1
    # Negatives hang off sibling-cell parents and keep the context tokens.
    by_text = {cap.text: cap for cap in manifest.captions}
    for gen in list(manifest.generations)[:50]:
        parent = by_text[gen.parent_caption]
        assert gen.kept
        assert parent.verb_phrases[0].surface != gen.verb_phrases[0].surface
        assert gen.text != gen.parent_caption


def test_ratio_law_batch_must_divide():
    with pytest.raises(ValueError):
        run_ratio_law(epochs=1, batch_size=7)


def test_attraction_manifest_starves_verb_zero():
    """Concept k=0 of every context never appears as a generated negative;
    every other concept appears copies times."""
    manifest = build_attraction_manifest(seed=0, n_contexts=4, verbs=3, cell=1, copies=5)
    stats = count_concepts(manifest, kept_only=True)
    for c in range(4):
        assert stats[synth_verb_phrase(c, 0)].g_count == 0
        for k in (1, 2):
            # cell=1: two sibling parents inject the concept, 5 copies each.
            assert stats[synth_verb_phrase(c, k)].g_count == 10
            assert stats[synth_verb_phrase(c, k)].s_count == 1


def test_shortcut_manifest_full_sibling_cross():
    manifest = build_shortcut_manifest(seed=0, n_contexts=6, verbs=4, cell=1)
    assert len(manifest.captions) == 24
    assert len(list(manifest.generations)) == 24 * 3
    stats = count_concepts(manifest, kept_only=True)
    for c in range(6):
        for k in range(4):
            st = stats[synth_verb_phrase(c, k)]
            assert st.s_count == 1
            assert st.g_count == 3
    # Each negative is the parent caption with only its phrase swapped.
    phrase_of = {cap.text: cap.verb_phrases[0].surface for cap in manifest.captions}
    for gen in list(manifest.generations)[:20]:
        old = phrase_of[gen.parent_caption]
        assert gen.text == gen.parent_caption.replace(old, gen.verb_phrases[0].surface)


def test_shortcut_mc_items():
    manifest = build_shortcut_manifest(seed=0, n_contexts=6, verbs=5, cell=1)
    verb_items, noun_items = build_shortcut_mc(manifest, seed=0, n_contexts=6, verbs=5)
    assert len(verb_items) == len(noun_items) == 30
    by_vid = {cap.video_id: cap for cap in manifest.captions}
    for item in verb_items:
        cap = by_vid[item.video_id]
        assert item.options[item.answer_index] == cap.text
        assert item.option_kinds.count("hard_verb_negative") == 4
        own_ctx = cap.verb_phrases[0].surface[:6]
        for j, opt in enumerate(item.options):
            if j != item.answer_index:
                # Sibling distractors: same context tokens, different verb.
                assert own_ctx in opt
                assert opt != cap.text
    for item in noun_items:
        cap = by_vid[item.video_id]
        assert item.options[item.answer_index] == cap.text
        assert item.option_kinds.count("random_negative") == 4
        own_ctx = cap.verb_phrases[0].surface[:6]
        for j, opt in enumerate(item.options):
            if j != item.answer_index:
                assert own_ctx not in opt


def test_shortcut_mc_is_seeded():
    manifest = build_shortcut_manifest(seed=0, n_contexts=6, verbs=5, cell=1)
    a_verb, a_noun = build_shortcut_mc(manifest, seed=0, n_contexts=6, verbs=5)
    b_verb, b_noun = build_shortcut_mc(manifest, seed=0, n_contexts=6, verbs=5)
    assert a_verb == b_verb and a_noun == b_noun
    c_verb, _ = build_shortcut_mc(manifest, seed=1, n_contexts=6, verbs=5)
    assert a_verb != c_verb


def test_structured_video_table_geometry():
    """Unit rows; same-phrase videos share a row; same-context rows nearly
    align; cross-context rows stay close to orthogonal."""
    manifest = build_shortcut_manifest(seed=0, n_contexts=4, verbs=2, cell=2)
    table = _structured_video_table(manifest, dim=32, seed=0, verb_weight=0.15)
    assert table.shape == (len(manifest.videos), 32)
    np.testing.assert_allclose(np.linalg.norm(table, axis=1), 1.0, atol=1e-12)

    phrase_of = {cap.video_id: cap.verb_phrases[0].surface for cap in manifest.captions}
    rows = {vid.video_id: table[i] for i, vid in enumerate(manifest.videos)}
    ids = [v.video_id for v in manifest.videos]
    for a in ids:
        for b in ids:
            if a >= b:
                continue
            dot = float(rows[a] @ rows[b])
            if phrase_of[a] == phrase_of[b]:
                assert np.array_equal(rows[a], rows[b])
            elif phrase_of[a][:6] == phrase_of[b][:6]:
                assert dot > 0.85
            else:
                assert abs(dot) < 0.6


def test_structured_video_table_is_seeded():
    manifest = build_shortcut_manifest(seed=0, n_contexts=3, verbs=2, cell=1)
    a = _structured_video_table(manifest, dim=16, seed=5, verb_weight=0.15)
    b = _structured_video_table(manifest, dim=16, seed=5, verb_weight=0.15)
    c = _structured_video_table(manifest, dim=16, seed=6, verb_weight=0.15)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("build, kwargs, digest", [
    (build_attraction_manifest, {},
     "f829539a24771988fd7381f3cfdc996bfe863d45d3177cf385134814bedbb438"),
    (build_attraction_manifest, {"n_contexts": 4, "verbs": 3, "copies": 5},
     "d2632581d747bf0caba3038bf82ed6c9ef2ca429a2bb72f30217a0ecd6f4d40f"),
    (build_attraction_manifest, {"seed": 3, "n_contexts": 3, "verbs": 4, "cell": 2, "copies": 2},
     "d20a364a97269669de2658fa04bdb3fc15b52143261ed056de70c2c54f051900"),
    (build_shortcut_manifest, {},
     "b807762af39205b3bb444f50f2d84b8f94fdb35acbc31c085cac7409ac52108f"),
    (build_shortcut_manifest, {"seed": 1, "n_contexts": 6, "verbs": 4, "cell": 2},
     "541a8445c6cf5dbae40eff3299885b441fa6edb074fa0023bb5ee541d0f7bb7c"),
    (build_shortcut_manifest, {"seed": 41, "n_contexts": 128, "verbs": 8},
     "aeac7d43052cdaaad55df6b88985d22d2c9a41f7f090e320c1499d4fa50df8bf"),
])
def test_swap_manifest_generations_are_pinned(build, kwargs, digest):
    """Generation contents and order, recorded before the two builders
    shared one loop."""
    assert _sha256([asdict(g) for g in build(**kwargs).generations]) == digest


@pytest.mark.parametrize("run, kwargs, digest", [
    (run_attraction_point, {"seed": 0},
     "11c397a415a55c777c6147b34d975f8d0c57cbee7b50e8a5fc87310efe053c8b"),
    (run_ratio_law, {"seed": 0, "epochs": 20},
     "ac4635cc29d528d53389a8893672d40e10b91f73e06abf5a71f7029784036bd6"),
])
def test_study_results_are_pinned(run, kwargs, digest):
    """Every field, its value and the key order of result.json, recorded
    while each result class still wrote its own dictionary."""
    assert _sha256(asdict(run(**kwargs))) == digest
