"""Every JSONL input file fails at load time with its own error and name:line.

The manifest raises CorpusError, the eval task files EvalError, the replay
transcripts and the metrics log ValueError; a line is named as
``<file name>:<line number>``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verbfocus.cli import ConfigError, cmd_report
from verbfocus.clients import ReplayTransport
from verbfocus.corpus import CorpusError, load_manifest
from verbfocus.evaluation import (EvalError, load_classification_task,
                                  load_mc_items, load_retrieval_pairs,
                                  load_scored_pairs)


def load_report_metrics(path):
    """cmd_report over a directory holding only the given metrics.jsonl."""
    return cmd_report({"out": str(path.parent)})


# loader, file name, the error classes it may raise
LOADERS = {
    "manifest": (load_manifest, "manifest.jsonl", (CorpusError,)),
    "mc_items": (load_mc_items, "mc.jsonl", (EvalError,)),
    "classification": (load_classification_task, "task.jsonl", (EvalError,)),
    "retrieval_pairs": (load_retrieval_pairs, "pairs.jsonl", (EvalError,)),
    "scored_pairs": (load_scored_pairs, "scored.jsonl", (EvalError,)),
    "completion_transcript": (ReplayTransport.from_file, "transcript.jsonl", (ValueError,)),
    "fill_transcript": (ReplayTransport.from_file, "fills.jsonl", (ValueError,)),
    # An empty log leaves report nothing to summarize: ConfigError.
    "report_metrics": (load_report_metrics, "metrics.jsonl", (ValueError, ConfigError)),
}


# -- regressions: a malformed record used to escape as a raw exception -----

ESCAPES = [
    ("mc_items",
     '{"record": "mc_item", "video_id": "v0", "answer_index": 0, '
     '"option_kinds": ["positive", "random_negative", "random_negative", '
     '"random_negative", "random_negative"]}\n',
     r"mc\.jsonl:1: missing field 'options'"),
    ("retrieval_pairs", '{"record": "pair", "video_id": "v0"}\n',
     r"pairs\.jsonl:1: missing field 'text'"),
    ("classification",
     '{"record": "class_labels", "labels": ["a", "b"]}\n'
     '{"record": "class_item", "video_id": "v0"}\n',
     r"task\.jsonl:2: missing field 'class_index'"),
    ("scored_pairs", '{"record": "scored_pair", "video_id": "v0", "text": "t"}\n',
     r"scored\.jsonl:1: missing field 'label'"),
    ("retrieval_pairs", "[1, 2]\n", r"pairs\.jsonl:1: expected a JSON object"),
    ("completion_transcript",
     '{"input": "a cat", "candidates": ["1. a dog"]}\nnot json\n',
     r"transcript\.jsonl:2: invalid JSON"),
]


@pytest.mark.parametrize("loader,body,message", ESCAPES)
def test_malformed_record_raises_the_loaders_error_with_its_line(tmp_path, loader, body,
                                                                 message):
    load, name, errors = LOADERS[loader]
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    with pytest.raises(errors[0], match=message) as excinfo:
        load(path)
    assert type(excinfo.value) is errors[0]


# Lines that are not one JSON value, or not an object: each names its line in
# json.loads's own words, whatever the loader.
NOT_ONE_OBJECT = [
    ('{"record": "pair"} {"record": "pair"}', "invalid JSON (Extra data)"),
    ('{"record": "pair"}x', "invalid JSON (Extra data)"),
    ("7 8", "invalid JSON (Extra data)"),
    ("7", "expected a JSON object"),
    ('"a bare string"', "expected a JSON object"),
    ("nope", "invalid JSON (Expecting value)"),
    ('{"record": "pair", "text": "unterminated}',
     "invalid JSON (Unterminated string starting at)"),
    ('{"record": "pair", "text": "a\tb"}', "invalid JSON (Invalid control character at)"),
    ('\ufeff{"record": "pair"}', "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
]


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("line,message", NOT_ONE_OBJECT)
def test_a_line_that_is_not_one_object_keeps_json_loads_wording(tmp_path, loader, line,
                                                                 message):
    try:
        json.loads(line)
    except json.JSONDecodeError as e:
        assert message == f"invalid JSON ({e.msg})"
    load, name, errors = LOADERS[loader]
    path = tmp_path / name
    path.write_text(json.dumps(VALID[loader][0]) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(errors[0]) as excinfo:
        load(path)
    assert str(excinfo.value) == f"{name}:2: {message}"


# The manifest line format holds ids and parent captions as strings, which
# save_manifest writes back; any other JSON value fails at its line.
NOT_A_STRING = [
    ('{"record": "video", "video_id": 7, "split": "train"}',
     "video_id must be a string, got 7"),
    ('{"record": "video", "video_id": "v0", "split": "train"}\n'
     '{"record": "generation", "parent_video_id": "v0", "parent_caption": null, '
     '"text": "a cat eating", "kind": "hard_negative", "backend": "random_verb", '
     '"verb_phrases": [], "kept": true}',
     "parent_caption must be a string, got None"),
]


@pytest.mark.parametrize("lines,message", NOT_A_STRING, ids=["video_id", "parent_caption"])
def test_a_manifest_id_or_parent_caption_that_is_not_a_string_fails_at_its_line(
        tmp_path, lines, message):
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"record": "header", "schema_version": 1}\n' + lines + "\n",
                    encoding="utf-8")
    with pytest.raises(CorpusError) as excinfo:
        load_manifest(path)
    assert str(excinfo.value) == f"manifest.jsonl:{lines.count(chr(10)) + 2}: {message}"


# A check over the whole file names the file, like the line-level errors.
FILE_LEVEL = [
    ("manifest",
     '{"record": "header", "schema_version": 1}\n'
     '{"record": "video", "video_id": "v0", "split": "train"}\n'
     '{"record": "video", "video_id": "v0", "split": "train"}\n',
     r"^manifest\.jsonl: duplicate video_id 'v0'$"),
    ("classification",
     '{"record": "class_labels", "labels": ["a", "b"]}\n'
     '{"record": "class_item", "video_id": "v0", "class_index": 5}\n',
     r"^task\.jsonl: class index 5 out of range$"),
    ("classification",
     '{"record": "class_labels", "labels": ["a", "b"]}\n'
     '{"record": "verb_split", "indices": [0, 2]}\n',
     r"^task\.jsonl: verb_split index 2 out of range$"),
]


@pytest.mark.parametrize("loader,body,message", FILE_LEVEL,
                         ids=["duplicate_video", "class_index", "verb_split_index"])
def test_file_level_error_names_the_file(tmp_path, loader, body, message):
    load, name, errors = LOADERS[loader]
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    with pytest.raises(errors[0], match=message) as excinfo:
        load(path)
    assert type(excinfo.value) is errors[0]


# -- fuzz: broken files only ever raise the loader's own error ------------

# One valid file per loader; the fuzz breaks it a line or a field at a time,
# so that the later lines and the file-level checks are reached too.
VALID = {
    "manifest": [
        {"record": "header", "schema_version": 1},
        {"record": "video", "video_id": "v0", "split": "train"},
        {"record": "video", "video_id": "v1", "split": "val"},
        {"record": "caption", "video_id": "v0", "text": "a cat sleeping",
         "split": "train", "verb_phrases": ["sleeping"]},
        {"record": "generation", "parent_video_id": "v0",
         "parent_caption": "a cat sleeping", "text": "a cat eating",
         "kind": "hard_negative", "backend": "random_verb",
         "verb_phrases": ["eating"], "kept": True},
    ],
    "mc_items": [
        {"record": "mc_item", "video_id": "v0", "options": ["a", "b", "c", "d", "e"],
         "answer_index": 0, "option_kinds": ["positive", "random_negative",
                                              "hard_verb_negative", "random_negative",
                                              "random_negative"]},
    ],
    "classification": [
        {"record": "class_labels", "labels": ["a cat", "a dog"]},
        {"record": "verb_split", "indices": [0, 1]},
        {"record": "class_item", "video_id": "v0", "class_index": 1},
    ],
    "retrieval_pairs": [{"record": "pair", "video_id": "v0", "text": "a cat"}],
    "scored_pairs": [{"record": "scored_pair", "video_id": "v0", "text": "a cat",
                      "label": "pos"}],
    "completion_transcript": [{"input": "a cat", "candidates": ["1. a dog"]}],
    "fill_transcript": [{"text_with_masks": "a [MASK]", "fills": [["cat", "dog"]]}],
    "report_metrics": [{"epoch": 0, "total": 1.5}],
}

scalars = st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=6)
json_values = (scalars | st.lists(scalars, max_size=6)
               | st.dictionaries(st.text(max_size=4), scalars, max_size=3)
               | st.lists(st.lists(scalars, max_size=2), max_size=3))
free_text = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\n"), max_size=40)
any_line = free_text | json_values.map(lambda v: json.dumps(v, ensure_ascii=False))


@st.composite
def broken_file(draw, valid):
    """The valid lines with one to three faults: a line replaced by arbitrary
    text or JSON, a field set to any JSON value, dropped or added, or a line
    repeated."""
    lines = [dict(obj) for obj in valid]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        obj = lines[i]
        fault = draw(st.sampled_from(("line", "value", "drop", "extra", "repeat")))
        if fault == "line" or not isinstance(obj, dict) or not obj:
            lines[i] = draw(any_line)
        elif fault == "value":
            obj[draw(st.sampled_from(sorted(obj)))] = draw(json_values)
        elif fault == "drop":
            del obj[draw(st.sampled_from(sorted(obj)))]
        elif fault == "extra":
            obj[draw(st.text(max_size=4))] = draw(json_values)
        else:
            lines.insert(i, dict(obj))
    return [x if isinstance(x, str) else json.dumps(x, ensure_ascii=False) for x in lines]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


BAD_VALUES = (None, True, 0, -1, 7, 1.5, float("nan"), "", "x", [], [[]], ["x"], [1], {},
              {"a": []})
BAD_LINES = ("not json", "[1, 2]", "null", "7", '"x"', "{}", '{"record": []}')


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_every_single_fault_raises_only_the_loaders_error(tmp_path, loader):
    """The valid file loads; then each of its lines in turn is replaced by a
    bad line, or has one of its fields dropped or set to each bad value."""
    load, name, errors = LOADERS[loader]
    valid = VALID[loader]
    path = tmp_path / name
    path.write_text("".join(json.dumps(obj) + "\n" for obj in valid), encoding="utf-8")
    load(path)

    def check(i, line):
        lines = [json.dumps(obj) for obj in valid]
        lines[i] = line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            load(path)
        except errors as exc:
            assert type(exc) in errors, (line, exc)

    for i, obj in enumerate(valid):
        for line in BAD_LINES:
            check(i, line)
        for key in obj:
            check(i, json.dumps({k: v for k, v in obj.items() if k != key}))
            for value in BAD_VALUES:
                check(i, json.dumps({**obj, key: value}))


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_broken_files_raise_only_the_loaders_error(fuzz_dir, loader, data):
    load, name, errors = LOADERS[loader]
    lines = data.draw(broken_file(VALID[loader]) | st.lists(free_text, max_size=6))
    path = fuzz_dir / loader / name
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        load(path)
    except errors as exc:
        assert type(exc) in errors, repr(exc)
