"""Verb-focused evaluation harness over frozen encoders.

Multiple choice, retrieval recall, zero-shot classification with confusion
matrices and prediction shares, the verb-split builder, pairwise average
precision, and the class-subset resampling protocol. Every metric keeps a
deterministic tie rule: argmax picks the lowest index, rankings sort by
(-similarity, index), and AP ranks ties in input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import read_jsonl, write_atomic, write_jsonl
from .encoders import DualEncoders, row_dots
from .lexicon import STOPWORDS, VerbRecognizer
from .text import tokenize

OPTION_KINDS = ("positive", "random_negative", "hard_verb_negative")


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class MultipleChoiceItem:
    video_id: str
    options: tuple[str, ...]
    answer_index: int
    option_kinds: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "options", tuple(self.options))
        object.__setattr__(self, "option_kinds", tuple(self.option_kinds))
        if len(self.options) != 5:
            raise EvalError("multiple choice items need exactly 5 options")
        if len(self.option_kinds) != len(self.options):
            raise EvalError("one kind per option required")
        for kind in self.option_kinds:
            if kind not in OPTION_KINDS:
                raise EvalError(f"unknown option kind {kind!r}")
        if self.option_kinds.count("positive") != 1:
            raise EvalError("exactly one positive option required")
        if not 0 <= self.answer_index < len(self.options):
            raise EvalError("answer_index out of range")
        if self.option_kinds[self.answer_index] != "positive":
            raise EvalError("answer_index must point at the positive option")


@dataclass(frozen=True)
class ClassificationTask:
    labels: tuple[str, ...]
    items: tuple[tuple[str, int], ...]
    verb_split: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "items", tuple((v, int(c)) for v, c in self.items))
        if len(set(self.labels)) != len(self.labels):
            raise EvalError("class labels must be unique")
        for _, c in self.items:
            if not 0 <= c < len(self.labels):
                raise EvalError(f"class index {c} out of range")
        if self.verb_split is not None:
            vs = tuple(sorted(int(i) for i in self.verb_split))
            object.__setattr__(self, "verb_split", vs)
            for i in vs:
                if not 0 <= i < len(self.labels):
                    raise EvalError(f"verb_split index {i} out of range")


@dataclass
class MultipleChoiceReport:
    accuracy: float
    n_items: int
    picked_kinds: dict[str, int]

    @property
    def hard_negative_rate(self) -> float:
        if self.n_items == 0:
            return 0.0
        return self.picked_kinds.get("hard_verb_negative", 0) / self.n_items

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "n_items": self.n_items,
            "picked_kinds": dict(self.picked_kinds),
            "hard_negative_rate": self.hard_negative_rate,
        }


def _encode_distinct(encoders: DualEncoders, texts) -> tuple[np.ndarray, np.ndarray]:
    """Embed each distinct text once, in one call; returns the embeddings and
    each input text's row in them."""
    index: dict[str, int] = {}
    rows = np.array([index.setdefault(t, len(index)) for t in texts], dtype=np.int64)
    return encoders.encode_texts(list(index)), rows


def eval_multiple_choice(encoders: DualEncoders, items) -> MultipleChoiceReport:
    """Pick the option most similar to the video; report what got picked."""
    items = list(items)
    picked = {kind: 0 for kind in OPTION_KINDS}
    if not items:
        return MultipleChoiceReport(accuracy=0.0, n_items=0, picked_kinds=picked)
    # Items share option texts; embed each distinct text once.
    vecs, rows = _encode_distinct(encoders, [t for item in items for t in item.options])
    videos = encoders.encode_videos([item.video_id for item in items])
    sims = np.matmul(vecs[rows.reshape(len(items), -1)], videos[:, :, None])[..., 0]
    choices = np.argmax(sims, axis=1)
    correct = 0
    for item, choice in zip(items, choices.tolist()):
        picked[item.option_kinds[choice]] += 1
        correct += choice == item.answer_index
    return MultipleChoiceReport(accuracy=correct / len(items), n_items=len(items),
                                picked_kinds=picked)


def _ranks(sims: np.ndarray) -> np.ndarray:
    """1-based rank of the diagonal entry per row; ties favor lower index.

    The rank counts the entries sorted before the diagonal one by
    (-similarity, index): every larger entry, and every equal entry left of it.
    """
    diag = np.diag(sims)[:, None]
    return 1 + (sims > diag).sum(axis=1) + np.tril(sims == diag, -1).sum(axis=1)


def eval_retrieval(encoders: DualEncoders, pairs, ks=(1, 5, 10)) -> dict:
    """Recall at k in both directions over matched (video_id, text) pairs."""
    if not (isinstance(ks, (list, tuple))
            and all(isinstance(k, int) and not isinstance(k, bool) and k > 0 for k in ks)):
        raise EvalError(f"ks must be a list of positive integers, got {ks!r}")
    pairs = list(pairs)
    if not pairs:
        raise EvalError("no retrieval pairs")
    videos = encoders.encode_videos([p[0] for p in pairs])
    texts = encoders.encode_texts([p[1] for p in pairs])
    sims = texts @ videos.T
    t2v = _ranks(sims)
    v2t = _ranks(sims.T)
    return {
        "t2v": {f"R@{k}": float(np.mean(t2v <= k)) for k in ks},
        "v2t": {f"R@{k}": float(np.mean(v2t <= k)) for k in ks},
    }


@dataclass
class ZeroShotReport:
    class_indices: tuple[int, ...]
    top1: float
    top5: float
    average: float
    confusion: np.ndarray
    confusion_rows: np.ndarray
    prediction_shares: np.ndarray
    per_class_accuracy: np.ndarray
    class_counts: np.ndarray

    @property
    def macro_accuracy(self) -> float:
        have = self.class_counts > 0
        if not have.any():
            return 0.0
        return float(self.per_class_accuracy[have].mean())

    def to_dict(self) -> dict:
        return {
            "class_indices": list(self.class_indices),
            "top1": self.top1,
            "top5": self.top5,
            "average": self.average,
            "macro_accuracy": self.macro_accuracy,
            "confusion": self.confusion.tolist(),
            "confusion_rows": self.confusion_rows.tolist(),
            "prediction_shares": self.prediction_shares.tolist(),
            "per_class_accuracy": self.per_class_accuracy.tolist(),
            "class_counts": self.class_counts.tolist(),
        }


def eval_zero_shot(encoders: DualEncoders, task: ClassificationTask,
                   class_subset=None) -> ZeroShotReport:
    """Rank class label texts against each video, no prompt wrapping.

    With class_subset, both the candidate label set and the item list are
    restricted to those classes; indices in the report are positions within
    the subset, class_indices maps them back.
    """
    if class_subset is None:
        subset = list(range(len(task.labels)))
    else:
        subset = sorted(set(int(i) for i in class_subset))
        for i in subset:
            if not 0 <= i < len(task.labels):
                raise EvalError(f"class index {i} out of range")
    if not subset:
        raise EvalError("empty class subset")
    local = {g: l for l, g in enumerate(subset)}
    label_vecs = encoders.encode_texts([task.labels[g] for g in subset])
    items = [(vid, local[c]) for vid, c in task.items if c in local]
    C = len(subset)
    confusion = np.zeros((C, C), dtype=np.int64)
    top1_hits = 0
    top5_hits = 0
    videos = encoders.encode_videos([vid for vid, _ in items])
    for (_, y), video in zip(items, videos):
        sims = label_vecs @ video
        pred = int(np.argmax(sims))
        confusion[y, pred] += 1
        if pred == y:
            top1_hits += 1
        # Rank under (-similarity, index) without sorting: larger entries and
        # equal ones at lower indices come first.
        if (sims > sims[y]).sum() + (sims[:y] == sims[y]).sum() < 5:
            top5_hits += 1
    n = len(items)
    top1 = top1_hits / n if n else 0.0
    top5 = top5_hits / n if n else 0.0
    counts = confusion.sum(axis=1)
    rows = np.zeros_like(confusion, dtype=np.float64)
    nz = counts > 0
    rows[nz] = confusion[nz] / counts[nz, None]
    shares = confusion.sum(axis=0) / n if n else np.zeros(C)
    per_class = np.zeros(C)
    per_class[nz] = np.diag(confusion)[nz] / counts[nz]
    return ZeroShotReport(
        class_indices=tuple(subset),
        top1=top1,
        top5=top5,
        average=(top1 + top5) / 2.0,
        confusion=confusion,
        confusion_rows=rows,
        prediction_shares=np.asarray(shares, dtype=np.float64),
        per_class_accuracy=per_class,
        class_counts=counts,
    )


def verb_split_groups(labels, recognizer: VerbRecognizer) -> dict[tuple[str, ...], list[int]]:
    """Group class labels by their non-verb, non-stopword token sequence."""
    groups: dict[tuple[str, ...], list[int]] = {}
    for idx, label in enumerate(labels):
        toks = tokenize(label)
        key = tuple(t for t in toks if not recognizer.is_verb(t) and t not in STOPWORDS)
        groups.setdefault(key, []).append(idx)
    return groups


def build_verb_split(labels, recognizer: VerbRecognizer | None = None) -> tuple[int, ...]:
    """Classes distinguishable only by verb: same context tokens, different verbs."""
    if recognizer is None:
        from .lexicon import LexiconResources
        recognizer = LexiconResources.default().recognizer
    kept: list[int] = []
    for key, members in verb_split_groups(labels, recognizer).items():
        if not key or len(members) < 2:
            continue
        verb_sets = set()
        for idx in members:
            verbs = tuple(recognizer.analyze(t)[0] for t in tokenize(labels[idx])
                          if recognizer.is_verb(t))
            verb_sets.add(verbs)
        if len(verb_sets) >= 2:
            kept.extend(members)
    return tuple(sorted(kept))


def eval_pair_ap(encoders: DualEncoders, pairs) -> float:
    """Average precision over (video_id, text, label) pairs ranked by similarity.

    label is "pos" or "neg". The sort is stable, so equal similarities keep
    input order.
    """
    pairs = list(pairs)
    if not pairs:
        raise EvalError("no pairs")
    texts, rows = _encode_distinct(encoders, [text for _, text, _ in pairs])
    scores = row_dots(encoders.encode_videos([vid for vid, _, _ in pairs]), texts[rows])
    labels = np.array([1 if lab == "pos" else 0 for _, _, lab in pairs])
    if set(np.unique(labels)) - {0, 1}:
        raise EvalError("labels must be pos or neg")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    cum_pos = np.cumsum(ranked)
    positives = ranked == 1
    if not positives.any():
        raise EvalError("at least one positive pair required")
    precisions = cum_pos[positives] / (np.flatnonzero(positives) + 1)
    return float(precisions.mean())


def subset_resample_protocol(encoders: DualEncoders, task: ClassificationTask,
                             m: int, repeats: int, seed: int) -> dict:
    """Average zero-shot metrics over seeded random class subsets of size m."""
    C = len(task.labels)
    if not (isinstance(m, int) and 1 <= m <= C):
        raise EvalError(f"subset size must be an integer from 1 to {C}, got {m!r}")
    if not (isinstance(repeats, int) and repeats >= 1):
        raise EvalError(f"subset repeats must be a positive integer, got {repeats!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    sums = {"top1": 0.0, "top5": 0.0, "average": 0.0}
    for _ in range(repeats):
        subset = sorted(int(i) for i in rng.choice(C, size=m, replace=False))
        rep = eval_zero_shot(encoders, task, class_subset=subset)
        sums["top1"] += rep.top1
        sums["top5"] += rep.top5
        sums["average"] += rep.average
    return {k: v / repeats for k, v in sums.items()}


# -- task file I/O -------------------------------------------------------

def save_mc_items(path, items) -> None:
    write_jsonl(path, ({"record": "mc_item", "video_id": item.video_id,
                        "options": list(item.options), "answer_index": item.answer_index,
                        "option_kinds": list(item.option_kinds)} for item in items))


def _mc_item(obj) -> MultipleChoiceItem:
    return MultipleChoiceItem(obj["video_id"], obj["options"], int(obj["answer_index"]),
                              obj["option_kinds"])


def load_mc_items(path) -> list[MultipleChoiceItem]:
    return read_jsonl(path, {"mc_item": _mc_item}, EvalError)


def save_classification_task(path, task: ClassificationTask) -> None:
    split = [] if task.verb_split is None else [
        {"record": "verb_split", "indices": list(task.verb_split)}]
    write_jsonl(path, [{"record": "class_labels", "labels": list(task.labels)}, *split,
                       *({"record": "class_item", "video_id": vid, "class_index": c}
                         for vid, c in task.items)])


def load_classification_task(path) -> ClassificationTask:
    # Labels and split indices are checked on their own line; the task is
    # assembled once every line is read.
    labels = verb_split = None
    items = []

    def class_labels(obj):
        nonlocal labels
        labels = ClassificationTask(obj["labels"], ()).labels

    def split(obj):
        nonlocal verb_split
        verb_split = tuple(int(i) for i in obj["indices"])

    read_jsonl(path, {
        "class_labels": class_labels,
        "verb_split": split,
        "class_item": lambda obj: items.append((obj["video_id"], int(obj["class_index"]))),
    }, EvalError)
    if labels is None:
        raise EvalError(f"{Path(path).name}: missing class_labels record")
    try:
        return ClassificationTask(labels=labels, items=tuple(items), verb_split=verb_split)
    except EvalError as e:
        raise EvalError(f"{Path(path).name}: {e}") from None


def load_retrieval_pairs(path) -> list[tuple[str, str]]:
    return read_jsonl(path, {"pair": lambda obj: (obj["video_id"], obj["text"])}, EvalError)


def _scored_pair(obj) -> tuple[str, str, str]:
    if obj["label"] not in ("pos", "neg"):
        raise EvalError("label must be pos or neg")
    return obj["video_id"], obj["text"], obj["label"]


def load_scored_pairs(path) -> list[tuple[str, str, str]]:
    return read_jsonl(path, {"scored_pair": _scored_pair}, EvalError)


def write_confusion_csv(path, report: ZeroShotReport, labels) -> None:
    names = [labels[g] for g in report.class_indices]
    lines = ["true\\pred," + ",".join(names)]
    lines += [name + "," + ",".join(str(int(x)) for x in row)
              for name, row in zip(names, report.confusion)]
    write_atomic(path, "".join(line + "\n" for line in lines).encode("utf-8"))
