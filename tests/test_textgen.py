"""Caption rewriting backends and their shared post-processing."""

import hashlib
import json

import pytest

from verbfocus.clients import GenerationClient, ReplayTransport
from verbfocus.corpus import (CaptionRecord, DatasetManifest, SynthSpec, VerbPhrase,
                              VideoRecord, make_synthetic_corpus)
from verbfocus.lexicon import TAGS, LexiconResources, VerbRecognizer
from verbfocus.textgen import (
    CaptionSkip,
    GenBackendConfig,
    TextGenError,
    filter_hard_negative_candidates,
    generate_for_manifest,
    generate_hard_negatives,
    generate_positives,
    postprocess,
    split_numbered,
)


def tiny_resources(bases=("eat", "drink", "run", "walk", "sit"), antonyms=None):
    bases = tuple(sorted(bases))
    return LexiconResources(
        verb_corpus=bases,
        antonym_map=antonyms or {},
        recognizer=VerbRecognizer.from_bases(bases),
    )


def stub_completions(table):
    """A client replaying query caption -> candidate completions."""
    return GenerationClient(ReplayTransport({k: {"candidates": v} for k, v in table.items()}))


def stub_fills(table):
    """A client replaying masked text -> one ranked list per mask."""
    return GenerationClient(ReplayTransport({k: {"fills": v} for k, v in table.items()}))


# ---------------------------------------------------------------------------
# split_numbered


def test_split_numbered_cuts_each_item_at_newline():
    raw = "1. first item\ntrailing chatter\n2) second item\n3. third item"
    assert split_numbered(raw) == ["first item", "second item", "third item"]


def test_split_numbered_unnumbered_is_single_candidate():
    # No numbered prefix anywhere: the first line is the one candidate.
    assert split_numbered("a lone rewrite\nwith a note") == ["a lone rewrite"]
    assert split_numbered("   \n") == []


def test_split_numbered_skips_blank_items():
    assert split_numbered("1. \n2. kept one") == ["kept one"]


# ---------------------------------------------------------------------------
# the hard-negative filter


def test_filter_dedupes_on_normalized_text():
    parent = CaptionRecord("v", "a man is eating", (VerbPhrase("eating"),))
    cands = ["A man is running!", "a man is running", "a man is walking"]
    kept = filter_hard_negative_candidates(cands, parent, tiny_resources())
    assert [c for c, _ in kept] == ["A man is running!", "a man is walking"]


def test_filter_drops_parent_verb_surface():
    parent = CaptionRecord("v", "a man is eating", (VerbPhrase("eating"),))
    cands = ["a man is eating slowly", "a man is drinking"]
    kept = filter_hard_negative_candidates(cands, parent, tiny_resources())
    assert [c for c, _ in kept] == ["a man is drinking"]
    assert kept[0][1] == (VerbPhrase("drinking"),)


def test_filter_is_surface_level_not_lemma_level():
    # Matching is by normalized surface, so a different inflection of the
    # parent verb ("eats" vs "eating") survives the filter.
    parent = CaptionRecord("v", "a man is eating", (VerbPhrase("eating"),))
    kept = filter_hard_negative_candidates(["a man eats"], parent, tiny_resources())
    assert [c for c, _ in kept] == ["a man eats"]


def test_filter_checks_phrase_heads_of_multiword_phrases():
    # Parent phrase "eating quickly": its head token "eating" is what blocks.
    parent = CaptionRecord("v", "someone eating quickly", (VerbPhrase("eating quickly"),))
    cands = ["someone eating lunch", "someone sitting down"]
    kept = filter_hard_negative_candidates(cands, parent, tiny_resources())
    assert [c for c, _ in kept] == ["someone sitting down"]


# ---------------------------------------------------------------------------
# postprocess: one raw completion in, filtered records out


POSTPROCESS_PARENT = CaptionRecord(
    "vid042",
    "a man is eating a sandwich in the kitchen",
    (VerbPhrase("eating"),),
)

POSTPROCESS_RAW = (
    "1. A man is devouring a sandwich in the kitchen.\n"
    "and some trailing chatter that should be cut\n"
    "2) A man is cooking a sandwich in the kitchen.\n"
    "3. A man is eating a sandwich in the kitchen.\n"
    "4. A man is Devouring a sandwich in the kitchen!\n"
    "5. a man is throwing a sandwich in the kitchen\n"
    "6. A man eats a sandwich in the kitchen.\n"
    "7. A man is washing a sandwich in the kitchen.\n"
    "Extra: ignored\n"
    "8. A man is throwing a sandwich in the kitchen.\n"
)

# Item 3 repeats the parent verb, item 4 is a case/punctuation duplicate of
# item 1, item 8 a duplicate of item 5. Item 6 stays: "eats" is a different
# surface than "eating".
POSTPROCESS_EXPECTED = [
    "A man is devouring a sandwich in the kitchen.",
    "A man is cooking a sandwich in the kitchen.",
    "a man is throwing a sandwich in the kitchen",
    "A man eats a sandwich in the kitchen.",
    "A man is washing a sandwich in the kitchen.",
]


def test_postprocess_matches_expected_list_exactly():
    out = postprocess(POSTPROCESS_RAW, POSTPROCESS_PARENT)
    assert [g.text for g in out] == POSTPROCESS_EXPECTED
    for g in out:
        assert g.kind == "hard_negative"
        assert g.backend == "llm_completion"
        assert g.parent_video_id == "vid042"
        assert g.parent_caption == POSTPROCESS_PARENT.text
        assert g.kept


def test_postprocess_phrase_tags():
    """Tagged phrases of the survivors, via the packaged verb list.

    "devouring" is not in the packaged verb corpus so its record carries no
    phrases; that is a valid outcome, not an error.
    """
    out = postprocess(POSTPROCESS_RAW, POSTPROCESS_PARENT)
    phrases = [tuple(p.surface for p in g.verb_phrases) for g in out]
    assert phrases == [(), ("cooking",), ("throwing",), ("eats",), ("washing",)]


# ---------------------------------------------------------------------------
# config validation


def test_gen_backend_config_rejects_bad_values():
    with pytest.raises(ValueError):
        GenBackendConfig(backend="markov_chain")
    with pytest.raises(ValueError):
        GenBackendConfig(candidates_per_caption=0)
    with pytest.raises(ValueError):
        GenBackendConfig(top_k_fill=0)
    with pytest.raises(ValueError):
        GenBackendConfig(seed=-1)
    with pytest.raises(ValueError, match="candidates_per_caption must be an integer >= 1"):
        GenBackendConfig(candidates_per_caption=2.5)
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        GenBackendConfig(seed=True)
    with pytest.raises(ValueError, match="kinds must be a non-empty list"):
        GenBackendConfig(kinds=())
    with pytest.raises(ValueError, match="unknown extraction backend"):
        GenBackendConfig(extractor=None)


# ---------------------------------------------------------------------------
# rule backends


def test_random_verb_swaps_inflection_matched():
    res = tiny_resources(bases=("eat", "drink", "run"))
    cap = CaptionRecord("v", "a man is eating", (VerbPhrase("eating"),))
    cfg = GenBackendConfig(backend="random_verb", candidates_per_caption=8, seed=0)
    out = generate_hard_negatives(cap, cfg, res)
    assert out
    assert {g.text for g in out} <= {"a man is drinking", "a man is running"}
    for g in out:
        assert g.backend == "random_verb"


def test_random_verb_is_deterministic():
    res = tiny_resources()
    cap = CaptionRecord("v", "a man is eating", (VerbPhrase("eating"),))
    cfg = GenBackendConfig(backend="random_verb", candidates_per_caption=5, seed=3)
    a = generate_hard_negatives(cap, cfg, res)
    b = generate_hard_negatives(cap, cfg, res)
    assert [g.text for g in a] == [g.text for g in b]


def test_random_verb_preserves_capitalization_and_punctuation():
    res = tiny_resources(bases=("eat", "drink"))
    cap = CaptionRecord("v", "Eating, then napping.", (VerbPhrase("eating"),))
    cfg = GenBackendConfig(backend="random_verb", candidates_per_caption=1, seed=0)
    out = generate_hard_negatives(cap, cfg, res)
    assert [g.text for g in out] == ["Drinking, then napping."]


def test_random_verb_inflects_the_lexicon_once_per_tag(monkeypatch):
    """A manifest lexicon grows with the corpus. Swap options are built once
    per inflection tag, not per verb site, so the inflect_like calls stay
    within (len(TAGS) + 1) per lexicon verb however many captions there are."""
    calls = []
    inflect_like = VerbRecognizer.inflect_like

    def counted(self, *args):
        calls.append(args)
        return inflect_like(self, *args)

    monkeypatch.setattr(VerbRecognizer, "inflect_like", counted)
    cfg = GenBackendConfig(backend="random_verb", candidates_per_caption=3, seed=0)
    per_size = []
    for cell in (1, 4):
        source = make_synthetic_corpus(SynthSpec(n_contexts=10, verbs_per_context=4,
                                                 captions_per_cell=cell))
        res = LexiconResources.from_manifest(source)
        calls.clear()
        out = generate_for_manifest(source, cfg, res)
        assert len(out.generations) > len(source.captions)
        assert len(calls) <= (len(TAGS) + 1) * len(res.verb_corpus)
        per_size.append(len(calls))
    assert per_size[0] == per_size[1]


def test_rule_backend_skips_verbless_caption():
    cap = CaptionRecord("v", "the blue sky", ())
    cfg = GenBackendConfig(backend="random_verb")
    with pytest.raises(CaptionSkip):
        generate_hard_negatives(cap, cfg, tiny_resources())


def test_antonym_verb_inflects_the_antonym():
    res = tiny_resources(
        bases=("open", "close", "shut"), antonyms={"open": ("close", "shut")}
    )
    cap = CaptionRecord("v", "She opens the door.", (VerbPhrase("opens"),))
    cfg = GenBackendConfig(backend="antonym_verb", candidates_per_caption=6, seed=0)
    out = generate_hard_negatives(cap, cfg, res)
    assert out
    assert {g.text for g in out} <= {"She closes the door.", "She shuts the door."}


def test_antonym_verb_skips_without_map_entry():
    res = tiny_resources(bases=("run",))
    cap = CaptionRecord("v", "He runs fast.", (VerbPhrase("runs"),))
    cfg = GenBackendConfig(backend="antonym_verb")
    with pytest.raises(CaptionSkip):
        generate_hard_negatives(cap, cfg, res)


# ---------------------------------------------------------------------------
# llm_completion hard negatives through a stub transcript


def test_llm_completion_caps_at_candidates_per_caption():
    res = tiny_resources(bases=("eat", "munch", "devour"))
    cap = CaptionRecord("v9", "a man is eating a sandwich", (VerbPhrase("eating"),))
    stub = stub_completions(
        {
            cap.text: [
                "1. A man is munching a sandwich.\n"
                "2. A man is devouring a sandwich.\n"
                "3. A man is eating a sandwich again."
            ]
        }
    )
    cfg = GenBackendConfig(candidates_per_caption=1)
    out = generate_hard_negatives(cap, cfg, res, stub)
    assert [g.text for g in out] == ["A man is munching a sandwich."]
    assert out[0].verb_phrases == (VerbPhrase("munching"),)


def test_llm_completion_requires_client():
    cap = CaptionRecord("v", "a man is eating", (VerbPhrase("eating"),))
    with pytest.raises(TextGenError):
        generate_hard_negatives(cap, GenBackendConfig(), tiny_resources(), None)


# ---------------------------------------------------------------------------
# positives


def test_generate_positives_drops_parent_and_dupes_keeps_verb_overlap():
    res = tiny_resources(bases=("eat", "munch", "devour"))
    cap = CaptionRecord("v3", "a man is eating a sandwich", (VerbPhrase("eating"),))
    stub = stub_completions(
        {
            cap.text: [
                "1. A man is eating a sandwich.\n"
                "2. A man is eating a big sandwich.\n"
                "3. A guy is munching a sandwich.\n"
                "4. a man is EATING a big sandwich!\n"
                "5. A man is devouring a sandwich."
            ]
        }
    )
    cfg = GenBackendConfig(candidates_per_caption=10)
    out = generate_positives(cap, cfg, res, stub)
    # Item 1 normalizes to the parent, item 4 to item 2; verb overlap is fine.
    assert [g.text for g in out] == [
        "A man is eating a big sandwich.",
        "A guy is munching a sandwich.",
        "A man is devouring a sandwich.",
    ]
    assert out[0].verb_phrases == (VerbPhrase("eating"),)
    for g in out:
        assert g.kind == "positive_paraphrase"


def test_generate_positives_cap():
    res = tiny_resources(bases=("eat",))
    cap = CaptionRecord("v", "a man is eating", (VerbPhrase("eating"),))
    stub = stub_completions({cap.text: ["1. first one\n2. second one\n3. third one"]})
    out = generate_positives(cap, GenBackendConfig(candidates_per_caption=2), res, stub)
    assert [g.text for g in out] == ["first one", "second one"]


def test_generate_positives_requires_client():
    cap = CaptionRecord("v", "a man is eating", (VerbPhrase("eating"),))
    with pytest.raises(TextGenError):
        generate_positives(cap, GenBackendConfig(), tiny_resources(), None)


# ---------------------------------------------------------------------------
# t5 cloze


def test_t5_cloze_masks_all_verbs_jointly():
    res = tiny_resources()
    cap = CaptionRecord(
        "v5", "a man is eating and drinking", (VerbPhrase("eating"), VerbPhrase("drinking"))
    )
    masked = "a man is [MASK] and [MASK]"
    stub = stub_fills(
        {masked: [["running", "walking", "eating"], ["walking", "sitting", "drinking"]]}
    )
    cfg = GenBackendConfig(backend="t5_cloze", top_k_fill=3)
    out = generate_hard_negatives(cap, cfg, res, stub)
    # Rank 2 pairs the parent's own verbs back in and is filtered out.
    assert [g.text for g in out] == [
        "a man is running and walking",
        "a man is walking and sitting",
    ]
    assert stub.transport.calls[0]["text_with_masks"] == masked
    for g in out:
        assert g.backend == "t5_cloze"


def test_t5_cloze_top_k_truncates_ranks():
    res = tiny_resources()
    cap = CaptionRecord("v", "a man is eating", (VerbPhrase("eating"),))
    stub = stub_fills(
        {"a man is [MASK]": [["running", "walking", "sitting"]]}
    )
    cfg = GenBackendConfig(backend="t5_cloze", top_k_fill=2)
    out = generate_hard_negatives(cap, cfg, res, stub)
    assert [g.text for g in out] == ["a man is running", "a man is walking"]


def test_t5_cloze_slot_count_mismatch_is_an_error():
    res = tiny_resources()
    cap = CaptionRecord(
        "v", "a man is eating and drinking", (VerbPhrase("eating"), VerbPhrase("drinking"))
    )
    stub = stub_fills({"a man is [MASK] and [MASK]": [["running"]]})
    with pytest.raises(TextGenError):
        generate_hard_negatives(cap, GenBackendConfig(backend="t5_cloze"), res, stub)


def test_t5_cloze_empty_fills_yield_nothing():
    res = tiny_resources()
    cap = CaptionRecord("v", "a man is eating", (VerbPhrase("eating"),))
    stub = stub_fills({})
    assert generate_hard_negatives(cap, GenBackendConfig(backend="t5_cloze"), res, stub) == []


def test_t5_cloze_requires_client():
    cap = CaptionRecord("v", "a man is eating", (VerbPhrase("eating"),))
    with pytest.raises(TextGenError):
        generate_hard_negatives(cap, GenBackendConfig(backend="t5_cloze"), tiny_resources(), None)


# ---------------------------------------------------------------------------
# whole-manifest generation


def manifest_two_splits():
    videos = [VideoRecord("v1", "train"), VideoRecord("v2", "val")]
    captions = [
        CaptionRecord("v1", "a man is eating", (VerbPhrase("eating"),)),
        CaptionRecord("v2", "a man is drinking", (VerbPhrase("drinking"),)),
    ]
    return DatasetManifest(videos, captions, [])


def test_generate_for_manifest_only_touches_train():
    res = tiny_resources()
    cfg = GenBackendConfig(backend="random_verb", candidates_per_caption=3, seed=0)
    out = generate_for_manifest(manifest_two_splits(), cfg, res)
    assert out.generations
    assert {g.parent_video_id for g in out.generations} == {"v1"}
    out.validate()


def test_generate_for_manifest_patches_phrases_via_extractor():
    videos = [VideoRecord("v1", "train")]
    captions = [CaptionRecord("v1", "a man is eating")]
    manifest = DatasetManifest(videos, captions, [])
    res = tiny_resources()
    cfg = GenBackendConfig(backend="random_verb", candidates_per_caption=2, seed=0,
                           extractor="rule_tagger")
    out = generate_for_manifest(manifest, cfg, res)
    assert out.captions[0].verb_phrases == (VerbPhrase("eating"),)
    assert out.generations


def test_generate_for_manifest_skips_unhandled_captions():
    videos = [VideoRecord("v1", "train"), VideoRecord("v2", "train")]
    captions = [
        CaptionRecord("v1", "the blue sky", ()),
        CaptionRecord("v2", "a man is eating", (VerbPhrase("eating"),)),
    ]
    manifest = DatasetManifest(videos, captions, [])
    res = tiny_resources()
    cfg = GenBackendConfig(backend="random_verb", candidates_per_caption=2, seed=0)
    out = generate_for_manifest(manifest, cfg, res)
    # v1 has no verb to rewrite; it is skipped, not fatal.
    assert {g.parent_video_id for g in out.generations} == {"v2"}


# ---------------------------------------------------------------------------
# pinned generations and request bodies of every backend


DIGEST_CAPTIONS = [
    ("d0", "train", "A person is eating in the park.", ("eating",)),
    ("d1", "train", "she opens the door and sits down", ("opens", "sits")),
    ("d2", "train", "a man pushing a cart", ("pushing",)),
    ("d3", "train", "the kids laugh, then cry", ("laugh", "cry")),
    ("d4", "train", "a woman buys bread", ("buys",)),
    ("d5", "train", "the blue sky", ()),
    ("d6", "val", "a man is running", ("running",)),
    ("d7", "train", "Someone gives a gift and enters the room", ("gives", "enters")),
    ("d8", "train", "a dog sleeping on the sofa", ("sleeping",)),
]


def digest_manifest(with_phrases=True):
    videos = [VideoRecord(vid, split) for vid, split, _, _ in DIGEST_CAPTIONS]
    captions = [CaptionRecord(vid, text, tuple(VerbPhrase(p) for p in phrases)
                              if with_phrases else ())
                for vid, _, text, phrases in DIGEST_CAPTIONS]
    return DatasetManifest(videos, captions, [])


def digest_completions():
    """Each caption answers with an extraction list on its first line, then
    numbered rewrites: a swap, the parent, a case duplicate, two more swaps."""
    table = {}
    for _, _, text, phrases in DIGEST_CAPTIONS:
        verb = phrases[0] if phrases else "sky"
        swaps = [text.replace(verb, w) for w in ("cooking", "walks", "running")]
        items = [swaps[0], text, swaps[0].upper(), swaps[1], swaps[2]]
        listed = "[" + ", ".join(f"'{p}'" for p in phrases) + "]"
        table[text] = ["\n".join([listed] + [f"{i + 1}. {s}" for i, s in enumerate(items)])]
    return stub_completions(table)


class AnyFills(dict):
    """A fill transcript with an entry for every masked text: rank r of
    slot m is verb (r + 7 m) of a fixed 60-verb list, parent verbs first."""

    VERBS = ("eating", "opens", "sits", "cooking", "pushing") + tuple(
        f"verb{i:02d}ing" for i in range(55))

    def get(self, key, default=None):
        slots = key.count("[MASK]")
        return {"fills": [list(self.VERBS[7 * m:] + self.VERBS[:7 * m]) for m in range(slots)]}


def generated_digest(manifest, client):
    rows = [[c.video_id, c.text, [p.surface for p in c.verb_phrases]] for c in manifest.captions]
    rows += [[g.parent_video_id, g.parent_caption, g.text, g.kind, g.backend,
              [p.surface for p in g.verb_phrases], g.kept] for g in manifest.generations]
    calls = client.transport.calls if client else []
    return hashlib.sha256(json.dumps([rows, calls]).encode()).hexdigest()


def run_generation(manifest, client, kinds, extractor, **cfg):
    cfg = GenBackendConfig(kinds=kinds, extractor=extractor, **cfg)
    return generate_for_manifest(manifest, cfg, LexiconResources.default(), client)


HN = ("hard_negative",)
BOTH = ("hard_negative", "positive_paraphrase")

# id: (backend settings, kinds, extractor, captions keep their phrases, client)
DIGEST_CASES = {
    "random_verb_cap1": (dict(backend="random_verb", candidates_per_caption=1), HN,
                         "rule_tagger", True, None),
    "random_verb_cap3": (dict(backend="random_verb", candidates_per_caption=3, seed=4), HN,
                         "rule_tagger", True, None),
    "random_verb_cap8": (dict(backend="random_verb", candidates_per_caption=8), HN,
                         "rule_tagger", True, None),
    "antonym_verb_cap1": (dict(backend="antonym_verb", candidates_per_caption=1), HN,
                          "rule_tagger", True, None),
    "antonym_verb_cap3": (dict(backend="antonym_verb", candidates_per_caption=3, seed=3), HN,
                          "rule_tagger", True, None),
    "antonym_verb_cap8": (dict(backend="antonym_verb", candidates_per_caption=8, seed=2), HN,
                          "rule_tagger", True, None),
    "llm_exemplars_positives": (dict(backend="llm_completion", candidates_per_caption=2), BOTH,
                                "rule_tagger", True, digest_completions),
    "llm_no_exemplars_positives": (dict(backend="llm_completion", candidates_per_caption=10,
                                        include_exemplars=False), BOTH,
                                   "rule_tagger", True, digest_completions),
    "llm_extraction": (dict(backend="llm_completion", candidates_per_caption=3), BOTH,
                       "llm_completion", False, digest_completions),
    "rule_tagger_extraction": (dict(backend="random_verb", candidates_per_caption=3), HN,
                               "rule_tagger", False, None),
    "t5_cloze_top1": (dict(backend="t5_cloze", top_k_fill=1), HN, "rule_tagger", True,
                      lambda: GenerationClient(ReplayTransport(AnyFills()))),
    "t5_cloze_top3_cap2": (dict(backend="t5_cloze", top_k_fill=3, candidates_per_caption=2), HN,
                           "rule_tagger", True,
                           lambda: GenerationClient(ReplayTransport(AnyFills()))),
    "t5_cloze_top50_cap2": (dict(backend="t5_cloze", top_k_fill=50, candidates_per_caption=2),
                            HN, "rule_tagger", True,
                            lambda: GenerationClient(ReplayTransport(AnyFills()))),
}

DIGESTS = {
    "antonym_verb_cap1": "6c6b34b5362ce2eaf71a82ed42e550802f670e108dd2c8e57bee75c1e2b99c5b",
    "antonym_verb_cap3": "3ced25c4c714d01a05e670de281d2aa2e07bef497e2b07f5cea5e2302629e074",
    "antonym_verb_cap8": "ec286919f4d923d8801b5b84c61cb9fc08e54949433ef7ac23ebe05044bd0e8f",
    "llm_exemplars_positives": "c849ee988e6a659d8565f55acd35be8ffe2b064bb8985e80f9587ef88437af09",
    "llm_extraction": "8ed582d607577a12f9a8d896c4e3a5d86dfb8d644dd3619bfda2c84d02733f13",
    "llm_no_exemplars_positives":
        "339f2729f868c1f153fa75fe330d175cefa998b4fbf4fb54894e94b30ca5ed43",
    "random_verb_cap1": "98c3ea8818769a94ab4b968ebe7672790519807241551239a1ee3a5a4e664215",
    "random_verb_cap3": "3ad5d3be064d95225578caad9c13e43b7d8bfee378296186b3fa0821e6afbe0e",
    "random_verb_cap8": "d65b5e7b76516122136bb6046750e996869b473bad2f24a0fbc52bdab5530c5a",
    "rule_tagger_extraction": "41dc262298d36a19f13f8ed938ab30e1a953d38bfeb614a11de9bf7455ded7cd",
    "t5_cloze_top1": "ab21cc61b4afa1d71e246a0b30b18db3246bacf4dfedc78279e26313e59a38ee",
    "t5_cloze_top3_cap2": "ddf89a70ab5a6019456fbb8672ab84c0d5ca92cf5a2e55c0a8181ce7af2ccbde",
    "t5_cloze_top50_cap2": "b706161faa3fc2ce1b5bdf966e4fa5b0d7d0bfd6350e348ef93f28a1513ffd90",
}


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_generations_and_request_bodies_are_pinned(case):
    """sha256 over every field of the captions and generations and every
    posted request body, recorded before the backends shared one path."""
    settings, kinds, extractor, with_phrases, make_client = DIGEST_CASES[case]
    client = make_client() if make_client else None
    out = run_generation(digest_manifest(with_phrases), client, kinds, extractor, **settings)
    assert generated_digest(out, client) == DIGESTS[case]
