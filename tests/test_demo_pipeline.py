"""scripts/demo_pipeline.py end to end, run twice into one output directory."""

import importlib.util
from pathlib import Path

from verbfocus import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "demo_pipeline.py"
ARTIFACTS = ("manifest_generated.jsonl", "manifest_calibrated.jsonl",
             "checkpoints/checkpoint_final.bin", "eval_report.json")


def load_demo():
    spec = importlib.util.spec_from_file_location("demo_pipeline", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_pipeline_rerun_into_the_same_out_is_idempotent(tmp_path, capsys):
    demo = load_demo()
    out = tmp_path / "demo"
    runs = []
    for _ in range(2):
        assert demo.main(["--out", str(out)]) == 0
        runs.append({name: (out / name).read_bytes() for name in ARTIFACTS})
    capsys.readouterr()
    assert runs[0] == runs[1]
    assert len((out / "metrics.jsonl").read_text().splitlines()) == 40


def documented_artifacts() -> set[str]:
    """The artifact names in the table of the cli docstring."""
    doc = cli.__doc__.split("Pipeline artifacts inside the output directory:\n\n")[1]
    return {line.split()[0] for line in doc.split("\n\n")[0].splitlines()}


def test_demo_pipeline_leaves_the_documented_artifacts(tmp_path, capsys):
    out = tmp_path / "demo"
    assert load_demo().main(["--out", str(out)]) == 0
    capsys.readouterr()
    written = [p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()]
    assert [name for name in written if name.endswith(".tmp")] == []
    # Top-level entries, a directory as "name/"; data/ holds the demo's own inputs.
    entries = {name.split("/")[0] + ("/" if "/" in name else "") for name in written}
    # The demo runs no experiment and configures no classification task.
    expected = documented_artifacts() - {"experiment_<name>/", "confusion.csv"}
    assert entries - {"data/"} == expected
