"""Every artifact is replaced atomically: a write cut after its temp file
leaves the previous file byte for byte and no temp file behind.

The rule is also held at the source: no module under src/verbfocus opens a
file for writing except the atomic writer and the streamed metrics log.
"""

import ast
import json
import os
from pathlib import Path

import pytest

from verbfocus import corpus
from verbfocus.cli import cmd_report
from verbfocus.clients import ResponseCache
from verbfocus.corpus import CaptionRecord, DatasetManifest, VideoRecord, save_manifest
from verbfocus.encoders import DualEncoders, EncoderConfig
from verbfocus.evaluation import ClassificationTask, save_classification_task
from verbfocus.trainer import TrainState, desk_config, save_train_checkpoint

SRC = Path(corpus.__file__).resolve().parent


def _manifest(text):
    return DatasetManifest([VideoRecord("v0", "train")], [CaptionRecord("v0", text)], [])


def _encoders(seed):
    return DualEncoders(EncoderConfig(dim=4, seed=seed), ["v0", "v1"], ["cat", "dog"])


def _manifest_writer(path, version):
    save_manifest(_manifest(f"a cat sleeping {version}"), path)


def _encoder_writer(path, version):
    _encoders(version).save_checkpoint(path)


def _train_writer(path, version):
    save_train_checkpoint(path, TrainState(_encoders(0), epoch=version, step=version),
                          desk_config())


def _task_writer(path, version):
    save_classification_task(path, ClassificationTask(
        labels=("cat", "dog"), items=(("v0", version % 2),), verb_split=(version % 2,)))


def _report_writer(path, version):
    # `report` merges gen_report.json into summary.json; the test targets the latter.
    (path.parent / "gen_report.json").write_text(json.dumps({"version": version}))
    cmd_report({"out": str(path.parent)})


def _cache_writer(path, version):
    ResponseCache(path.parent).put(path.stem, {"candidates": [f"answer {version}"]})


# artifact kind -> (file name, writer(path, version))
WRITERS = {
    "manifest": ("manifest_generated.jsonl", _manifest_writer),
    "encoder checkpoint": ("encoders.bin", _encoder_writer),
    "train checkpoint": ("checkpoint_final.bin", _train_writer),
    "cli report": ("summary.json", _report_writer),
    "jsonl task file": ("classification.jsonl", _task_writer),
    "cache entry": (f"{'0' * 64}.json", _cache_writer),
}


def _fail_replace(src, dst):
    raise OSError("injected: interrupted before the rename")


@pytest.mark.parametrize("kind", WRITERS)
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, capsys, kind):
    name, write = WRITERS[kind]
    path = tmp_path / name
    write(path, 1)
    before = path.read_bytes()
    files = sorted(os.listdir(tmp_path))
    monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError):
        write(path, 2)
    capsys.readouterr()
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == files
    monkeypatch.undo()
    write(path, 2)
    assert path.read_bytes() != before
    assert sorted(os.listdir(tmp_path)) == files


def test_interrupted_write_removes_its_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "result.json"
    corpus.write_atomic(path, b"old")

    def interrupt(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        corpus.write_atomic(path, b"new")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["result.json"]


# -- the rule at the source ---------------------------------------------------

# (module, function) pairs allowed to open a file for writing: the atomic
# writer itself, and train_loop's metrics log, which a resumed run appends to.
ALLOWED_WRITERS = {("corpus.py", "write_atomic"), ("trainer.py", "train_loop")}


def _write_mode(call: ast.Call, mode_pos: int) -> bool:
    """Whether an open() call may write: its mode is not a read-only constant."""
    mode = call.args[mode_pos] if len(call.args) > mode_pos else None
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in mode.value for c in "wax+")
    return True


def file_writes(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of every call that writes a file directly."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in ("write_text", "write_bytes"):
                found.append((func, node.lineno))
            elif isinstance(f, ast.Name) and f.id == "open" and _write_mode(node, 1):
                found.append((func, node.lineno))
            elif isinstance(f, ast.Attribute) and f.attr == "open" and _write_mode(node, 0):
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("snippet", [
    "def f(p):\n    p.write_text('x')\n",
    "def f(p):\n    p.write_bytes(b'x')\n",
    "def f(p):\n    open(p, 'w')\n",
    "def f(p):\n    open(p, mode='wb')\n",
    "def f(p, m):\n    open(p, m)\n",
    "def f(p):\n    p.open('a')\n",
])
def test_source_scan_flags_direct_writes(snippet):
    assert file_writes(snippet) == [("f", 2)]


def test_source_scan_passes_reads():
    assert file_writes("def f(p):\n    open(p)\n    open(p, 'rb')\n    p.open()\n") == []


def test_every_module_writes_through_the_atomic_writer():
    offenders = [
        f"{module.name}:{line} in {func}"
        for module in sorted(SRC.glob("*.py"))
        for func, line in file_writes(module.read_text(encoding="utf-8"))
        if (module.name, func) not in ALLOWED_WRITERS
    ]
    assert offenders == []
    # The allowance is used, so it cannot go stale unnoticed.
    for name, func in ALLOWED_WRITERS:
        assert func in {f for f, _ in file_writes((SRC / name).read_text(encoding="utf-8"))}
