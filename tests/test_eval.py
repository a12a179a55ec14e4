"""Evaluation metrics checked against naive quadratic re-implementations."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verbfocus.encoders import DualEncoders, EncoderConfig
from verbfocus.evaluation import (
    ClassificationTask,
    EvalError,
    MultipleChoiceItem,
    build_verb_split,
    eval_multiple_choice,
    eval_pair_ap,
    eval_retrieval,
    _ranks,
    eval_zero_shot,
    load_classification_task,
    load_mc_items,
    load_retrieval_pairs,
    load_scored_pairs,
    save_classification_task,
    save_mc_items,
    subset_resample_protocol,
    verb_split_groups,
    write_confusion_csv,
)
from verbfocus.lexicon import STOPWORDS, VerbRecognizer

TOL = 1e-12


def token_encoders(n_videos, tokens, seed=0, video_table=None, token_table=None):
    """Encoders over single-token texts so embeddings are fully controlled."""
    cfg = EncoderConfig(dim=6, seed=seed)
    ids = [f"v{i}" for i in range(n_videos)]
    return DualEncoders(cfg, ids, list(tokens),
                        video_table=video_table, token_table=token_table)


# ---------------------------------------------------------------------------
# item validation


def test_mc_item_validation():
    ok = MultipleChoiceItem("v0", ("a", "b", "c", "d", "e"), 1,
                            ("random_negative", "positive", "random_negative",
                             "hard_verb_negative", "random_negative"))
    assert ok.answer_index == 1
    with pytest.raises(EvalError):
        MultipleChoiceItem("v0", ("a", "b", "c", "d"), 0,
                           ("positive",) + ("random_negative",) * 3)
    with pytest.raises(EvalError):
        MultipleChoiceItem("v0", ("a",) * 5, 0, ("positive",) * 5)
    with pytest.raises(EvalError):
        MultipleChoiceItem("v0", ("a",) * 5, 1,
                           ("positive",) + ("random_negative",) * 4)
    with pytest.raises(EvalError):
        MultipleChoiceItem("v0", ("a",) * 5, 0,
                           ("positive",) + ("weird_kind",) * 4)


def test_classification_task_validation():
    task = ClassificationTask(("a", "b"), (("v0", 0), ("v1", 1)), verb_split=(1, 0))
    assert task.verb_split == (0, 1)
    with pytest.raises(EvalError):
        ClassificationTask(("a", "a"), ())
    with pytest.raises(EvalError):
        ClassificationTask(("a",), (("v0", 3),))
    with pytest.raises(EvalError):
        ClassificationTask(("a",), (), verb_split=(5,))


# ---------------------------------------------------------------------------
# multiple choice


def mc_fixture():
    """20 videos, 12 tokens, 20 random items with assorted option kinds."""
    rng = np.random.default_rng(42)
    tokens = [f"tok{i}" for i in range(12)]
    enc = token_encoders(20, tokens,
                         video_table=rng.normal(size=(20, 6)),
                         token_table=rng.normal(size=(13, 6)))
    items = []
    for i in range(20):
        opts = tuple(rng.choice(tokens, size=5, replace=False))
        ans = int(rng.integers(5))
        kinds = ["random_negative" if rng.random() < 0.5 else "hard_verb_negative"
                 for _ in range(5)]
        kinds[ans] = "positive"
        items.append(MultipleChoiceItem(f"v{i}", opts, ans, tuple(kinds)))
    return enc, items


def bf_multiple_choice(enc, items):
    correct = 0
    picked = Counter()
    for item in items:
        v = enc.encode_video(item.video_id)
        sims = [float(enc.encode_text(o) @ v) for o in item.options]
        best = max(range(len(sims)), key=lambda j: (sims[j], -j))
        picked[item.option_kinds[best]] += 1
        correct += best == item.answer_index
    return correct / len(items), picked


def test_multiple_choice_matches_brute_force():
    enc, items = mc_fixture()
    report = eval_multiple_choice(enc, items)
    acc, picked = bf_multiple_choice(enc, items)
    assert abs(report.accuracy - acc) <= TOL
    assert report.n_items == 20
    assert {k: v for k, v in report.picked_kinds.items() if v} == dict(picked)
    assert report.hard_negative_rate == picked["hard_verb_negative"] / 20


def test_multiple_choice_tie_picks_lowest_index():
    # Tokens "a" and "b" share one embedding row value; argmax must take "a".
    table = np.ones((3, 6))
    table[2] = -1.0
    enc = token_encoders(1, ["a", "b"], video_table=np.ones((1, 6)), token_table=table)
    item = MultipleChoiceItem("v0", ("a", "b", "b", "b", "b"), 0,
                              ("positive",) + ("random_negative",) * 4)
    report = eval_multiple_choice(enc, [item])
    assert report.accuracy == 1.0
    assert report.picked_kinds["positive"] == 1


def test_multiple_choice_empty():
    enc, _ = mc_fixture()
    assert eval_multiple_choice(enc, []).accuracy == 0.0


# ---------------------------------------------------------------------------
# retrieval


def bf_recall(sims, k):
    n = sims.shape[0]
    hits = 0
    for i in range(n):
        rank = 1 + sum(
            1 for j in range(n)
            if sims[i, j] > sims[i, i] or (sims[i, j] == sims[i, i] and j < i)
        )
        hits += rank <= k
    return hits / n


def test_retrieval_matches_brute_force():
    rng = np.random.default_rng(3)
    n = 30
    tokens = [f"w{i}" for i in range(n)]
    enc = token_encoders(n, tokens,
                         video_table=rng.normal(size=(n, 6)),
                         token_table=rng.normal(size=(n + 1, 6)))
    pairs = [(f"v{i}", tokens[i]) for i in range(n)]
    out = eval_retrieval(enc, pairs, ks=(1, 5, 10))
    videos = enc.encode_videos([p[0] for p in pairs])
    texts = enc.encode_texts([p[1] for p in pairs])
    for k in (1, 5, 10):
        assert abs(out["t2v"][f"R@{k}"] - bf_recall(texts @ videos.T, k)) <= TOL
        assert abs(out["v2t"][f"R@{k}"] - bf_recall(videos @ texts.T, k)) <= TOL


def test_retrieval_tie_rule_through_duplicate_texts():
    """Three pairs share one text: v2t rows are constant, so the diagonal
    lands at rank i+1 and R@1 = 1/3, R@2 = 2/3, R@3 = 1."""
    rng = np.random.default_rng(0)
    enc = token_encoders(3, ["same"],
                         video_table=rng.normal(size=(3, 6)),
                         token_table=rng.normal(size=(2, 6)))
    pairs = [(f"v{i}", "same") for i in range(3)]
    out = eval_retrieval(enc, pairs, ks=(1, 2, 3))
    assert out["v2t"]["R@1"] == pytest.approx(1 / 3)
    assert out["v2t"]["R@2"] == pytest.approx(2 / 3)
    assert out["v2t"]["R@3"] == 1.0


def test_retrieval_empty_is_an_error():
    enc, _ = mc_fixture()
    with pytest.raises(EvalError):
        eval_retrieval(enc, [])


# ---------------------------------------------------------------------------
# zero shot


def zs_fixture(n_items=40, n_classes=7, seed=11):
    rng = np.random.default_rng(seed)
    labels = [f"cls{i}" for i in range(n_classes)]
    enc = token_encoders(n_items, labels,
                         video_table=rng.normal(size=(n_items, 6)),
                         token_table=rng.normal(size=(n_classes + 1, 6)))
    items = tuple((f"v{i}", int(rng.integers(n_classes))) for i in range(n_items))
    return enc, ClassificationTask(tuple(labels), items)


def bf_zero_shot(enc, task, subset):
    local = {g: l for l, g in enumerate(subset)}
    C = len(subset)
    label_vecs = [enc.encode_text(task.labels[g]) for g in subset]
    items = [(v, local[c]) for v, c in task.items if c in local]
    conf = np.zeros((C, C), dtype=int)
    top1 = top5 = 0
    for vid, y in items:
        v = enc.encode_video(vid)
        sims = [float(lv @ v) for lv in label_vecs]
        pred = max(range(C), key=lambda j: (sims[j], -j))
        conf[y, pred] += 1
        top1 += pred == y
        ranked = sorted(range(C), key=lambda j: (-sims[j], j))[:5]
        top5 += y in ranked
    n = len(items)
    return conf, top1 / n, top5 / n


def test_zero_shot_matches_brute_force():
    enc, task = zs_fixture()
    report = eval_zero_shot(enc, task)
    conf, top1, top5 = bf_zero_shot(enc, task, list(range(7)))
    np.testing.assert_array_equal(report.confusion, conf)
    assert abs(report.top1 - top1) <= TOL
    assert abs(report.top5 - top5) <= TOL
    assert abs(report.average - (top1 + top5) / 2) <= TOL
    counts = conf.sum(axis=1)
    per_class = np.where(counts > 0, np.diag(conf) / np.maximum(counts, 1), 0.0)
    np.testing.assert_allclose(report.per_class_accuracy, per_class, atol=TOL)
    assert abs(report.macro_accuracy - per_class[counts > 0].mean()) <= TOL
    np.testing.assert_allclose(report.prediction_shares, conf.sum(axis=0) / 40, atol=TOL)
    # Row-normalized confusion sums to one on populated rows.
    np.testing.assert_allclose(report.confusion_rows[counts > 0].sum(axis=1), 1.0, atol=TOL)


def test_zero_shot_subset_restricts_items_and_maps_indices():
    enc, task = zs_fixture()
    subset = [5, 2]
    report = eval_zero_shot(enc, task, class_subset=subset)
    assert report.class_indices == (2, 5)
    conf, top1, top5 = bf_zero_shot(enc, task, [2, 5])
    np.testing.assert_array_equal(report.confusion, conf)
    assert abs(report.top1 - top1) <= TOL
    assert report.confusion.shape == (2, 2)


def test_zero_shot_subset_errors():
    enc, task = zs_fixture()
    with pytest.raises(EvalError):
        eval_zero_shot(enc, task, class_subset=[99])
    with pytest.raises(EvalError):
        eval_zero_shot(enc, task, class_subset=[])


# ---------------------------------------------------------------------------
# tie rule: small integer similarities, so that exact ties are common


class ExactEncoders:
    """Stand-in encoders that pass a similarity matrix through exactly.

    Video ``v<i>`` is the unit vector e_i and text ``t<j>`` is row j of
    ``rows``, so text j scores rows[j, i] against video i.
    """

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)

    def encode_video(self, vid):
        return np.eye(self.rows.shape[1])[int(vid[1:])]

    def encode_videos(self, vids):
        return np.stack([self.encode_video(v) for v in vids])

    def encode_text(self, text):
        return self.rows[int(text[1:])]

    def encode_texts(self, texts):
        return np.stack([self.encode_text(t) for t in texts])


@st.composite
def int_matrices(draw, rows, cols=None):
    n = draw(rows)
    m = n if cols is None else draw(cols)
    cells = st.lists(st.integers(-2, 2), min_size=m, max_size=m)
    return np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64)


def lexsort_order(row):
    return np.lexsort((np.arange(row.size), -row))


def lexsort_rank(row, i):
    return int(np.flatnonzero(lexsort_order(row) == i)[0]) + 1


@settings(max_examples=300, deadline=None)
@given(sims=int_matrices(st.integers(1, 8)))
def test_ranks_and_retrieval_follow_the_lexsort_tie_rule(sims):
    n = sims.shape[0]
    want = np.array([lexsort_rank(sims[i], i) for i in range(n)])
    np.testing.assert_array_equal(_ranks(sims), want)
    # Text j against video i scores sims[j, i]: t2v ranks rows of sims,
    # v2t rows of its transpose.
    pairs = [(f"v{i}", f"t{i}") for i in range(n)]
    ks = tuple(range(1, n + 1))
    out = eval_retrieval(ExactEncoders(sims), pairs, ks=ks)
    for name, m in (("t2v", sims), ("v2t", sims.T)):
        ranks = np.array([lexsort_rank(m[i], i) for i in range(n)])
        assert out[name] == {f"R@{k}": float(np.mean(ranks <= k)) for k in ks}


@settings(max_examples=300, deadline=None)
@given(sims=int_matrices(st.integers(1, 6), cols=st.integers(1, 8)), data=st.data())
def test_zero_shot_follows_the_lexsort_tie_rule(sims, data):
    n_items, C = sims.shape
    labels = tuple(f"t{j}" for j in range(C))
    ys = data.draw(st.lists(st.integers(0, C - 1), min_size=n_items, max_size=n_items))
    task = ClassificationTask(labels, tuple((f"v{i}", y) for i, y in enumerate(ys)))
    # Label j scores sims[i, j] against video i.
    report = eval_zero_shot(ExactEncoders(sims.T), task)
    conf = np.zeros((C, C), dtype=int)
    top5 = 0
    for i, y in enumerate(ys):
        order = lexsort_order(sims[i])
        conf[y, order[0]] += 1
        top5 += y in order[:5]
    np.testing.assert_array_equal(report.confusion, conf)
    assert report.top1 == np.trace(conf) / n_items
    assert report.top5 == top5 / n_items


def test_subset_resample_protocol_is_seeded():
    enc, task = zs_fixture()
    a = subset_resample_protocol(enc, task, m=3, repeats=4, seed=9)
    b = subset_resample_protocol(enc, task, m=3, repeats=4, seed=9)
    assert a == b
    c = subset_resample_protocol(enc, task, m=3, repeats=4, seed=10)
    assert a != c
    full = subset_resample_protocol(enc, task, m=7, repeats=2, seed=0)
    whole = eval_zero_shot(enc, task)
    assert full["top1"] == pytest.approx(whole.top1, abs=TOL)
    with pytest.raises(EvalError):
        subset_resample_protocol(enc, task, m=0, repeats=1, seed=0)
    with pytest.raises(EvalError):
        subset_resample_protocol(enc, task, m=8, repeats=1, seed=0)


def test_subset_resample_protocol_averages_each_metric_on_its_own():
    """With m = C every subset is the whole task, so each mean is that metric."""
    enc, task = zs_fixture()
    whole = eval_zero_shot(enc, task)
    assert 0 < whole.top1 < whole.top5 < 1
    full = subset_resample_protocol(enc, task, m=7, repeats=3, seed=4)
    assert full == pytest.approx({"top1": whole.top1, "top5": whole.top5,
                                  "average": whole.average}, abs=TOL)


@pytest.mark.parametrize("m, repeats, message", [
    (3, 0, "subset repeats must be a positive integer"),
    (3, -1, "subset repeats must be a positive integer"),
    (3, 2.5, "subset repeats must be a positive integer"),
    (1.5, 2, "subset size must be an integer from 1 to 7"),
    ("1", 2, "subset size must be an integer from 1 to 7"),
])
def test_subset_resample_protocol_rejects_unusable_settings(m, repeats, message):
    enc, task = zs_fixture()
    with pytest.raises(EvalError, match=message):
        subset_resample_protocol(enc, task, m=m, repeats=repeats, seed=0)


@pytest.mark.parametrize("ks", [5, (0,), (1, 2.5), (True,), ["5"]])
def test_retrieval_rejects_ks_that_are_not_positive_integers(ks):
    enc = token_encoders(2, ["a", "b"])
    with pytest.raises(EvalError, match="ks must be a list of positive integers"):
        eval_retrieval(enc, [("v0", "a"), ("v1", "b")], ks=ks)


# ---------------------------------------------------------------------------
# verb split


def test_verb_split_groups_and_builder():
    assert "the" in STOPWORDS
    rec = VerbRecognizer.from_bases(("eat", "peel", "wash", "sleep"))
    labels = [
        "eating apples",       # 0: apples group, verb eat
        "peeling apples",      # 1: apples group, verb peel
        "eating pears",        # 2: pears group, verb eat
        "eating the pears",    # 3: pears group, verb eat (stopword dropped)
        "sleeping",            # 4: empty key
        "washing",             # 5: empty key
        "peeling oranges",     # 6: singleton group
    ]
    groups = verb_split_groups(labels, rec)
    assert groups[("apples",)] == [0, 1]
    assert groups[("pears",)] == [2, 3]
    assert groups[()] == [4, 5]
    assert groups[("oranges",)] == [6]
    # Only the apples group has two members with distinct verbs.
    assert build_verb_split(labels, rec) == (0, 1)


# ---------------------------------------------------------------------------
# pairwise AP


def ap_encoders(scores):
    """One video; one token per pair whose similarity is pinned via collinear
    embeddings scaled before normalization (all end up at +-1); instead give
    each token a vector at a controlled angle to the video."""
    n = len(scores)
    video = np.zeros((1, 6))
    video[0, 0] = 1.0
    table = np.zeros((n + 1, 6))
    for i, s in enumerate(scores):
        table[i, 0] = s
        table[i, 1] = np.sqrt(max(1 - s * s, 0.0))
    table[n, 2] = 1.0
    return token_encoders(1, [f"p{i}" for i in range(n)],
                          video_table=video, token_table=table)


def test_pair_ap_pinned():
    """Ranked pos, neg, pos, neg: AP = (1/1 + 2/3)/2 = 5/6."""
    enc = ap_encoders([0.9, 0.7, 0.5, 0.3])
    pairs = [("v0", "p0", "pos"), ("v0", "p1", "neg"),
             ("v0", "p2", "pos"), ("v0", "p3", "neg")]
    assert eval_pair_ap(enc, pairs) == pytest.approx(5 / 6, abs=TOL)


def test_pair_ap_ties_keep_input_order():
    # Equal similarities: the earlier pair ranks first. neg listed before pos
    # at the same score pushes the positive to rank 2.
    enc = ap_encoders([0.5, 0.5])
    assert eval_pair_ap(enc, [("v0", "p0", "neg"), ("v0", "p1", "pos")]) \
        == pytest.approx(1 / 2, abs=TOL)
    assert eval_pair_ap(enc, [("v0", "p0", "pos"), ("v0", "p1", "neg")]) \
        == pytest.approx(1.0, abs=TOL)


def bf_ap(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    precs = []
    for rank, i in enumerate(order, 1):
        if labels[i]:
            hits += 1
            precs.append(hits / rank)
    return sum(precs) / len(precs)


def test_pair_ap_matches_brute_force():
    rng = np.random.default_rng(8)
    raw = rng.uniform(-0.95, 0.95, size=40)
    enc = ap_encoders(raw)
    labs = [int(rng.random() < 0.4) for _ in range(40)]
    labs[0] = 1
    pairs = [("v0", f"p{i}", "pos" if labs[i] else "neg") for i in range(40)]
    scores = [float(enc.encode_video("v0") @ enc.encode_text(f"p{i}")) for i in range(40)]
    assert abs(eval_pair_ap(enc, pairs) - bf_ap(scores, labs)) <= TOL


def test_pair_ap_errors():
    enc = ap_encoders([0.5])
    with pytest.raises(EvalError):
        eval_pair_ap(enc, [])
    with pytest.raises(EvalError):
        eval_pair_ap(enc, [("v0", "p0", "neg")])


# ---------------------------------------------------------------------------
# task file I/O


def test_mc_items_roundtrip(tmp_path):
    _, items = mc_fixture()
    path = tmp_path / "mc.jsonl"
    save_mc_items(path, items)
    assert load_mc_items(path) == items


def test_mc_items_load_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"record": "pair"}\n')
    with pytest.raises(EvalError):
        load_mc_items(path)
    path.write_text("{not json\n")
    with pytest.raises(EvalError):
        load_mc_items(path)


def test_classification_task_roundtrip(tmp_path):
    task = ClassificationTask(("braiding hair", "washing hair"),
                              (("v0", 0), ("v1", 1)), verb_split=(0, 1))
    path = tmp_path / "task.jsonl"
    save_classification_task(path, task)
    assert load_classification_task(path) == task


def test_classification_task_requires_labels(tmp_path):
    path = tmp_path / "task.jsonl"
    path.write_text('{"record": "class_item", "video_id": "v0", "class_index": 0}\n')
    with pytest.raises(EvalError):
        load_classification_task(path)


def test_pair_loaders(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"record": "pair", "video_id": "v0", "text": "a caption"}\n\n')
    assert load_retrieval_pairs(path) == [("v0", "a caption")]
    scored = tmp_path / "scored.jsonl"
    scored.write_text('{"record": "scored_pair", "video_id": "v0", "text": "t", "label": "pos"}\n')
    assert load_scored_pairs(scored) == [("v0", "t", "pos")]
    scored.write_text('{"record": "scored_pair", "video_id": "v0", "text": "t", "label": "maybe"}\n')
    with pytest.raises(EvalError):
        load_scored_pairs(scored)


def test_write_confusion_csv(tmp_path):
    enc, task = zs_fixture(n_items=10, n_classes=3, seed=1)
    report = eval_zero_shot(enc, task)
    path = tmp_path / "conf.csv"
    write_confusion_csv(path, report, task.labels)
    lines = path.read_text().splitlines()
    assert lines[0] == "true\\pred,cls0,cls1,cls2"
    assert len(lines) == 4
    total = sum(int(x) for line in lines[1:] for x in line.split(",")[1:])
    assert total == 10
