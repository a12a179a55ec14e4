"""The comparison step of scripts/identity_check.py on two hand-made
artifact trees; no pipeline runs."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "identity_check.py"
spec = importlib.util.spec_from_file_location("identity_check", SCRIPT)
identity_check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity_check)


def write_tree(root: Path, out: str, wall_ms: float, checkpoint: bytes) -> None:
    (root / "demo" / "data").mkdir(parents=True)
    (root / "experiments").mkdir()
    for cfg in ("demo/config.json", "demo/data/config.json", "experiments/config.json"):
        (root / cfg).write_text(json.dumps({"out": out, "seed": 0}, indent=2) + "\n")
    (root / "demo" / "metrics.jsonl").write_text(
        json.dumps({"epoch": 0, "total": 1.5, "wall_ms": wall_ms}) + "\n"
        + json.dumps({"epoch": 1, "total": 0.5, "wall_ms": wall_ms}) + "\n")
    (root / "demo" / "summary.json").write_text(json.dumps(
        {"train": {"epochs": 2, "final": {"total": 0.5, "wall_ms": wall_ms}}}, indent=2))
    (root / "demo" / "checkpoint_final.bin").write_bytes(checkpoint)


def test_a_changed_artifact_is_flagged_and_volatile_fields_are_not(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_tree(a, "/somewhere/demo", 3.25, b"\x00\x01")
    write_tree(b, "elsewhere/demo", 9.75, b"\x00\x02")
    assert identity_check.differing(a, b) == (["demo/checkpoint_final.bin"], 6)


def test_a_missing_artifact_or_a_changed_field_is_flagged(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_tree(a, "x", 1.0, b"same")
    write_tree(b, "x", 1.0, b"same")
    assert identity_check.differing(a, b) == ([], 6)
    (b / "experiments" / "result.json").write_text("{}")
    (b / "demo" / "config.json").write_text(json.dumps({"out": "x", "seed": 1}))
    assert identity_check.differing(a, b) == (
        ["demo/config.json", "experiments/result.json"], 7)
