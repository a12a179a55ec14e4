"""scripts/identity_check.py: its comparison step on two hand-made artifact
trees, and its two gen runs against this checkout."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "identity_check.py"
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


def _records(path: Path, kind: str) -> list[dict]:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [row for row in rows if row["record"] == kind]


def test_the_gen_runs_cover_llm_completion_and_t5_cloze(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for work in (a, b):
        work.mkdir()
        identity_check.run_gen(ROOT, work, seed=0)
    assert identity_check.differing(a, b) == ([], 11)
    llm, cloze = (a / "gen" / name / "manifest_generated.jsonl" for name in ("llm", "cloze"))
    # LLM extraction filled in every caption's phrases, "[]" included.
    assert [c["verb_phrases"] for c in _records(llm, "caption")] == [
        ["eating"], ["opens", "sits down"], [], ["gives", "laughs"]]
    assert Counter((g["kind"], g["backend"]) for g in _records(llm, "generation")) == {
        ("hard_negative", "llm_completion"): 6, ("positive_paraphrase", "llm_completion"): 8}
    # top_k_fill, not candidates_per_caption (1), bounds t5_cloze.
    assert Counter(g["parent_video_id"] for g in _records(cloze, "generation")) == {
        "g0": 2, "g1": 2, "g2": 1, "g3": 1}
    assert {g["backend"] for g in _records(cloze, "generation")} == {"t5_cloze"}


@pytest.mark.parametrize("argv, seeds", [
    ([], [0]),
    (["--seed", "3"], [3]),
    (["--seeds", "0-2"], [0, 1, 2]),
    (["--seeds", "4,1"], [4, 1]),
], ids=["default", "one_seed", "range", "list"])
def test_each_seed_gets_a_summary_line_and_any_difference_exits_1(
        tmp_path, monkeypatch, capsys, argv, seeds):
    def fake_run(checkout, work, seed):
        # Seed 1 writes a different checkpoint on the change side.
        write_tree(work, "x", 1.0, b"%d" % (seed + (checkout.name == "change" and seed == 1)))

    monkeypatch.setattr(identity_check, "run_checkout", fake_run)
    status = identity_check.main(["--parent", str(tmp_path / "parent"),
                                  "--change", str(tmp_path / "change"), *argv])
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("seed")]
    assert lines == [f"seed {s}: {5 if s == 1 else 6} of 6 artifacts identical" for s in seeds]
    assert status == int(1 in seeds)
