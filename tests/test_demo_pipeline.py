"""scripts/demo_pipeline.py end to end, run twice into one output directory."""

import importlib.util
from pathlib import Path

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
