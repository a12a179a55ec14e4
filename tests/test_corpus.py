"""Manifest schema, JSONL round trips, and the synthetic corpus builder."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verbfocus import corpus
from verbfocus.corpus import (GENERATION_BACKENDS, GENERATION_KINDS, SPLITS, CaptionRecord,
                              CorpusError, DatasetManifest, GeneratedCaption, SynthSpec,
                              VerbPhrase, VideoRecord, load_manifest, make_synthetic_corpus,
                              save_manifest, set_kept_flags,
                              synth_context_tokens, synth_verb_phrase, write_jsonl)
from verbfocus.text import normalize_text

from conftest import random_manifest


def small_manifest():
    videos = [VideoRecord("v1", "train"), VideoRecord("v2", "val")]
    captions = [
        CaptionRecord("v1", "a cat sleeping on a mat", (VerbPhrase("sleeping"),)),
        CaptionRecord("v2", "a dog runs in a park", (VerbPhrase("runs"),)),
    ]
    gens = [
        GeneratedCaption("v1", "a cat sleeping on a mat", "a cat eating on a mat",
                         "hard_negative", "llm_completion", (VerbPhrase("eating"),)),
        GeneratedCaption("v1", "a cat sleeping on a mat", "a kitty asleep on a mat",
                         "positive_paraphrase", "llm_completion", (), kept=False),
    ]
    m = DatasetManifest(videos, captions, gens)
    m.validate()
    return m


def test_roundtrip(tmp_path):
    m = small_manifest()
    path = tmp_path / "m.jsonl"
    save_manifest(m, path)
    loaded = load_manifest(path)
    assert loaded.videos == m.videos
    assert loaded.captions == m.captions
    assert list(loaded.generations) == list(m.generations)
    assert loaded.schema_version == m.schema_version
    # Saving again produces identical bytes.
    path2 = tmp_path / "m2.jsonl"
    save_manifest(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_roundtrip_keeps_unicode_line_separators(tmp_path):
    # json.dumps leaves U+0085, U+2028 and U+2029 unescaped; they are not
    # line ends in JSONL.
    manifest = DatasetManifest(
        [VideoRecord("v0")],
        [CaptionRecord("v0", "a cat\u2028sleeping\x85 on a\u2029mat")])
    path = tmp_path / "m.jsonl"
    save_manifest(manifest, path)
    assert load_manifest(path) == manifest


def test_validate_rejects_duplicates_and_dangling_refs():
    m = small_manifest()
    m.videos.append(VideoRecord("v1", "train"))
    with pytest.raises(CorpusError, match="duplicate"):
        m.validate()
    m2 = small_manifest()
    m2.captions.append(CaptionRecord("ghost", "text here"))
    with pytest.raises(CorpusError, match="unknown video_id"):
        m2.validate()
    m3 = small_manifest()
    m3.generations.append(GeneratedCaption("ghost", "p", "t", "hard_negative",
                                           "llm_completion"))
    with pytest.raises(CorpusError, match="unknown video_id"):
        m3.validate()


def test_load_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"record": "header", "schema_version": 1}\nnot json\n')
    with pytest.raises(CorpusError, match="2"):
        load_manifest(path)


def test_load_rejects_texts_without_tokens(tmp_path):
    # "!!!" passes the record checks but normalizes to no tokens at all.
    videos = [VideoRecord(f"v{i}", "train") for i in range(4)]
    captions = [CaptionRecord(f"v{i}", f"a cat sleeping {i}", (VerbPhrase("sleeping"),))
                for i in range(3)]
    path = tmp_path / "m.jsonl"
    save_manifest(DatasetManifest(videos, captions + [CaptionRecord("v3", "!!!")]), path)
    with pytest.raises(CorpusError, match=r"m\.jsonl:9: caption text has no tokens"):
        load_manifest(path)
    gen = GeneratedCaption("v0", "a cat sleeping 0", "!!!", "hard_negative", "random_verb")
    save_manifest(DatasetManifest(videos, captions, [gen]), path)
    with pytest.raises(CorpusError, match=r"m\.jsonl:9: generation text has no tokens"):
        load_manifest(path)


def test_record_validation():
    with pytest.raises(CorpusError):
        VideoRecord("")
    with pytest.raises(CorpusError):
        VideoRecord("v", "holdout")
    with pytest.raises(CorpusError):
        CaptionRecord("v", "   ")
    with pytest.raises(CorpusError):
        GeneratedCaption("v", "p", "t", "weird_kind", "llm_completion")
    with pytest.raises(CorpusError):
        GeneratedCaption("v", "p", "t", "hard_negative", "weird_backend")


def test_verb_phrase_normalization():
    assert VerbPhrase.normalize("  Eating Grass! ").surface == "eating grass"
    with pytest.raises(CorpusError):
        VerbPhrase("Not Normalized")
    with pytest.raises(CorpusError):
        VerbPhrase.normalize("!!!")


def test_captions_for_split():
    m = small_manifest()
    assert [c.video_id for c in m.captions_for_split("train")] == ["v1"]
    assert [c.video_id for c in m.captions_for_split("val")] == ["v2"]


def test_set_kept_flags():
    m = small_manifest()
    out = set_kept_flags(m, {0: False})
    assert out.generations[0].kept is False
    assert out.generations[1].kept is False  # untouched flag survives
    assert m.generations[0].kept is True  # original unchanged


@pytest.mark.parametrize("seed", range(8))
def test_set_kept_flags_equals_replacing_every_generation(seed):
    """Same result as replace(g, kept=kept.get(i, g.kept)) over every
    generation, out-of-range keys ignored; unchanged records are shared."""
    rng = np.random.default_rng(seed)
    m = random_manifest(rng)
    n = len(m.generations)
    kept = {int(i): bool(rng.random() < 0.5)
            for i in rng.integers(-2, n + 3, size=int(rng.integers(0, n + 5)))}
    out = set_kept_flags(m, kept)
    old = [replace(g, kept=kept.get(i, g.kept)) for i, g in enumerate(m.generations)]
    assert out.generations == old
    assert repr(out.generations) == repr(old)
    for g, h in zip(m.generations, out.generations):
        assert (g is h) == (g.kept is h.kept)
    assert (out.videos, out.captions) == (m.videos, m.captions)


def test_load_validates_each_phrase_surface_once(tmp_path, monkeypatch):
    m = small_manifest()
    m.captions.append(CaptionRecord("v1", "a cat eating", (VerbPhrase("eating"),)))
    m.generations.extend(m.generations[:1] * 3)
    path = tmp_path / "m.jsonl"
    save_manifest(m, path)
    checked = []
    is_normalized = corpus.is_normalized
    monkeypatch.setattr(corpus, "is_normalized", lambda s: checked.append(s) or is_normalized(s))
    assert load_manifest(path) == m
    assert sorted(checked) == ["eating", "runs", "sleeping"]


def test_write_jsonl_lines_are_json_dumps(tmp_path):
    records = [{"record": "x", "text": "caf\u00e9 \u2028 \"q\"", "n": [1, 2.5, None, True]},
               {"nested": {"a": ["\u00fc", {"b": -0.0}]}, "e": 1e300}]
    path = tmp_path / "r.jsonl"
    write_jsonl(path, records)
    expected = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    assert path.read_bytes() == expected.encode("utf-8")


# Characters json escapes (quotes, backslashes, controls) or leaves as they
# are (line and paragraph separators, NEL, BOM, non-BMP), mixed into any text.
TRICKY = '"\\\x00\x01\x08\t\n\r\x1f\x7f\x85\u2028\u2029\ufeff\U0001f600\U00010428/'
any_text = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from(TRICKY),
                   max_size=8)
# A text with a token, as load_manifest requires of caption and generation texts.
token_text = st.tuples(any_text, st.sampled_from(["cat", "\u00e9t\u00e9", "\U00010428"]),
                       any_text).map("".join)
phrase_lists = st.lists(any_text.map(normalize_text).filter(bool).map(VerbPhrase), max_size=2)


@st.composite
def tricky_manifests(draw):
    ids = draw(st.lists(any_text.filter(bool), min_size=1, max_size=3, unique=True))
    videos = [VideoRecord(vid, draw(st.sampled_from(SPLITS))) for vid in ids]
    captions = [CaptionRecord(draw(st.sampled_from(ids)), draw(token_text),
                              tuple(draw(phrase_lists)))
                for _ in range(draw(st.integers(0, 3)))]
    generations = [GeneratedCaption(draw(st.sampled_from(ids)), draw(any_text), draw(token_text),
                                    draw(st.sampled_from(GENERATION_KINDS)),
                                    draw(st.sampled_from(GENERATION_BACKENDS)),
                                    tuple(draw(phrase_lists)), draw(st.booleans()))
                   for _ in range(draw(st.integers(0, 4)))]
    return DatasetManifest(videos, captions, generations)


def manifest_dicts(m: DatasetManifest) -> list[dict]:
    """The records of the manifest as dicts, in the documented line order."""
    split_of = {v.video_id: v.split for v in m.videos}
    return [{"record": "header", "schema_version": m.schema_version},
            *({"record": "video", "video_id": v.video_id, "split": v.split} for v in m.videos),
            *({"record": "caption", "video_id": c.video_id, "text": c.text,
               "split": split_of[c.video_id], "verb_phrases": [p.surface for p in c.verb_phrases]}
              for c in m.captions),
            *({"record": "generation", "parent_video_id": g.parent_video_id,
               "parent_caption": g.parent_caption, "text": g.text, "kind": g.kind,
               "backend": g.backend, "verb_phrases": [p.surface for p in g.verb_phrases],
               "kept": g.kept} for g in m.generations)]


@pytest.fixture(scope="module")
def module_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("manifests")


@settings(max_examples=100, deadline=None)
@given(m=tricky_manifests())
def test_save_manifest_lines_are_json_dumps_of_the_documented_records(module_dir, m):
    path = module_dir / "m.jsonl"
    save_manifest(m, path)
    expected = "".join(json.dumps(d, ensure_ascii=False) + "\n" for d in manifest_dicts(m))
    assert path.read_bytes() == expected.encode("utf-8")
    assert load_manifest(path) == m


def test_negative_pools_hold_kept_hard_negatives_in_generation_order():
    m = small_manifest()
    parent = ("v1", "a cat sleeping on a mat")
    extra = [
        GeneratedCaption(*parent, "a cat running on a mat", "hard_negative", "random_verb"),
        GeneratedCaption(*parent, "a cat hiding on a mat", "hard_negative", "random_verb",
                         kept=False),
        GeneratedCaption("v2", "a dog runs in a park", "a dog sits in a park",
                         "hard_negative", "random_verb"),
    ]
    m = DatasetManifest(m.videos, m.captions, m.generations + extra)
    # The paraphrase (1) and the discarded negative (3) are not in any pool.
    assert m.negative_pools() == {parent: [0, 2], ("v2", "a dog runs in a park"): [4]}


def test_synthetic_corpus_structure():
    spec = SynthSpec(n_contexts=3, verbs_per_context=2, captions_per_cell=4)
    m = make_synthetic_corpus(spec)
    assert len(m.captions) == 3 * 2 * 4
    assert all(v.split == "train" for v in m.videos)
    counts = {}
    for cap in m.captions:
        counts[cap.verb_phrases[0].surface] = counts.get(cap.verb_phrases[0].surface, 0) + 1
    assert set(counts.values()) == {4}
    assert synth_verb_phrase(0, 1) in counts
    # Captions embed their context tokens and the phrase.
    sample = next(c for c in m.captions
                  if c.verb_phrases[0].surface == synth_verb_phrase(2, 0))
    for tok in synth_context_tokens(2):
        assert tok in sample.text.split()


def test_synthetic_corpus_deterministic_and_skewed():
    spec = SynthSpec(n_contexts=2, verbs_per_context=3, captions_per_cell=2, seed=9)
    a = make_synthetic_corpus(spec)
    b = make_synthetic_corpus(spec)
    assert a.captions == b.captions
    skewed = make_synthetic_corpus(
        SynthSpec(n_contexts=1, verbs_per_context=3, captions_per_cell=4,
                  frequency_skew=1.0))
    counts = {}
    for cap in skewed.captions:
        key = cap.verb_phrases[0].surface
        counts[key] = counts.get(key, 0) + 1
    ordered = [counts[synth_verb_phrase(0, k)] for k in range(3)]
    assert ordered[0] > ordered[-1] >= 1


def test_synth_spec_validation():
    with pytest.raises(CorpusError):
        SynthSpec(n_contexts=0, verbs_per_context=1, captions_per_cell=1)
    with pytest.raises(CorpusError):
        SynthSpec(n_contexts=1, verbs_per_context=1, captions_per_cell=1,
                  frequency_skew=-0.5)
