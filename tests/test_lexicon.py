"""Inflection rules and the closed-class verb recognizer."""

import pytest

from verbfocus.lexicon import (LexiconResources, VerbRecognizer, inflect,
                               load_antonym_map, load_verb_corpus)
from verbfocus.text import tokenize


def test_inflect_regular_forms():
    assert inflect("walk", "third") == "walks"
    assert inflect("walk", "gerund") == "walking"
    assert inflect("walk", "past") == "walked"
    assert inflect("carry", "third") == "carries"
    assert inflect("carry", "past") == "carried"
    assert inflect("wash", "third") == "washes"
    assert inflect("sit", "gerund") == "sitting"
    assert inflect("bake", "gerund") == "baking"
    assert inflect("tie", "gerund") == "tying"
    assert inflect("dye", "gerund") == "dyeing"


def test_inflect_irregular_and_part():
    assert inflect("eat", "past") == "ate"
    assert inflect("eat", "part") == "eaten"
    assert inflect("run", "past") == "ran"
    assert inflect("cut", "past") == "cut"
    with pytest.raises(ValueError):
        inflect("walk", "subjunctive")


def test_recognizer_analyze():
    rec = VerbRecognizer.from_bases(["eat", "run", "dye"])
    assert rec.analyze("eating") == ("eat", "gerund")
    assert rec.analyze("ran") == ("run", "past")
    assert rec.analyze("dyeing") == ("dye", "gerund")
    assert rec.analyze("banana") is None
    assert rec.is_verb("eats")
    assert rec.verb_tokens(["i", "eat", "while", "running"]) == ["eat", "running"]


def test_recognizer_inflect_like():
    rec = VerbRecognizer.from_bases(["eat", "drink", "run"])
    assert rec.inflect_like("drink", "eating") == "drinking"
    assert rec.inflect_like("drinking", "ate") == "drank"
    assert rec.inflect_like("zzz", "eating") == "zzzing"
    assert rec.inflect_like("drink", "banana") == "drink"  # unknown template


def test_swap_options_equal_the_per_core_definition():
    """One table per inflection tag gives, for every core, the options that
    inflecting the whole corpus like that core gives: same words, same order."""
    res = LexiconResources.default()
    rec = res.recognizer
    for core in sorted(rec.table) + ["banana", "zzz"]:
        want = sorted({rec.inflect_like(e, core) for e in res.verb_corpus} - {core})
        assert list(res.swap_options(core)) == want, core


def test_default_resources_cover_common_verbs():
    rec = LexiconResources.default().recognizer
    for surface in ("eating", "drives", "swam", "braiding", "dying", "fishing",
                    "parking", "parked"):
        assert rec.is_verb(surface), surface
    assert not rec.is_verb("sandwich")
    assert not rec.is_verb("hair")
    # Noun homographs stay nouns: "in the park" carries no verb.
    assert rec.verb_tokens(tokenize("a person eating in the park")) == ["eating"]


def test_resources_from_manifest():
    from verbfocus.corpus import (CaptionRecord, DatasetManifest, VerbPhrase,
                                  VideoRecord)
    m = DatasetManifest(
        [VideoRecord("v1")],
        [CaptionRecord("v1", "a robot zorbles the lawn", (VerbPhrase("zorbles"),))],
    )
    rec = LexiconResources.from_manifest(m).recognizer
    assert rec.is_verb("zorbles")


def test_loaders_reject_garbage(tmp_path):
    p = tmp_path / "verbs.txt"
    p.write_text("eat\n# comment\n\nrun\n")
    assert load_verb_corpus(p) == ("eat", "run")
    a = tmp_path / "ant.tsv"
    a.write_text("open\tclose,shut\nrise\tfall\n")
    amap = load_antonym_map(a)
    assert amap["open"] == ("close", "shut")
    assert amap["rise"] == ("fall",)
    a.write_text("open close\n")
    with pytest.raises(ValueError, match="two tab-separated"):
        load_antonym_map(a)


def test_noun_homographs_stay_nouns_and_their_verb_forms_still_tag():
    rec = LexiconResources.default().recognizer
    sentence = "a person at the place near a point with a watch and a box by a plant on a bike"
    assert rec.verb_tokens(tokenize(sentence)) == []
    assert rec.verb_tokens(tokenize("a man watching tv")) == ["watching"]
    assert rec.verb_tokens(tokenize("a boy boxing")) == ["boxing"]
    assert rec.verb_tokens(tokenize("he points at the sky")) == ["points"]
    for surface in ("placing", "placed", "pointed", "watched", "planting", "biking", "biked"):
        assert rec.is_verb(surface), surface
