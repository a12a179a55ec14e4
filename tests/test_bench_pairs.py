"""The summary step of scripts/bench_pairs.py on canned result lines; no
benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "items/s", "peak_rss_mib": "MiB"}
BETTER = {"setup_s": "lower", "wall_s": "lower", "items_per_s": "higher",
          "peak_rss_mib": "lower"}
BOUNDS = {"setup_s": 0.25, "wall_s": 0.25, "items_per_s": 0.25, "peak_rss_mib": 0.1}


def result_line(wall, setup=0.2, rss=55.0, correct=True, failed=0):
    metrics = {"setup_s": setup, "wall_s": wall, "items_per_s": 4096 / wall,
               "peak_rss_mib": rss}
    return json.loads(json.dumps({
        "correct": correct, "attempted": 32, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}))


def test_summary_has_inclusive_quartiles_and_rounded_runs():
    walls = [0.3, 0.1, 0.5, 0.2, 0.4]
    out = bench_pairs.summarize([result_line(w) for w in walls])
    assert set(out) == set(UNITS)
    wall = out["wall_s"]
    assert wall["unit"] == "s"
    assert (wall["q1"], wall["median"], wall["q3"]) == pytest.approx((0.2, 0.3, 0.4))
    assert wall["runs"] == walls
    assert out["items_per_s"]["median"] == pytest.approx(4096 / 0.3)
    assert out["items_per_s"]["runs"] == [round(4096 / w, 6) for w in walls]
    assert bench_pairs.summarize([result_line(0.25)])["wall_s"]["q1"] == 0.25


def test_bench_file_counts_pairs_won_and_failures():
    parent = [result_line(w) for w in (0.30, 0.32, 0.28)]
    change = [result_line(0.22), result_line(0.35, setup=0.1),
              result_line(0.21, correct=False, failed=2)]
    out = bench_pairs.bench_file("train_large_batch", 50, [41, 42, 43], {"cpu_count": 2},
                                 parent, change, BETTER, BOUNDS, 41, result_line(0.25))
    assert out["pairs_won"] == {"setup_s": 1, "wall_s": 2, "items_per_s": 2,
                                "peak_rss_mib": 0}
    assert out["failed"] == 2 and out["parent"]["failed"] == 0
    assert not out["all_correct"] and out["parent"]["all_correct"]
    assert out["untraced"]["wall_s"]["median"] == pytest.approx(0.22)
    assert out["parent"]["untraced"]["wall_s"]["median"] == pytest.approx(0.30)
    assert out["traced"] == {"seed": 41, "correct": True, "failed": 0,
                             "metrics": {k: v["value"] for k, v in
                                         result_line(0.25)["metrics"].items()}}
    assert out["command"].endswith("--seconds 50 --trace 0")
    # The keys of the committed BENCH files come first, in their order.
    assert list(out)[:10] == ["workload", "code", "command", "environment", "pairs", "seeds",
                              "all_correct", "failed", "untraced", "traced"]


def test_vs_parent_flags_only_what_is_worse_than_its_bound():
    """Medians: parent wall 0.30, setup 0.20, rss 50; change wall 0.39 (30 %
    slower, past the 25 % bound), setup 0.24 (20 % slower, within it), rss
    56 (12 % more, past the 10 % bound) and items/s 4096/0.39 (23 % fewer,
    within 25 %)."""
    parent = [result_line(w, rss=50.0) for w in (0.28, 0.30, 0.32)]
    change = [result_line(w, setup=0.24, rss=56.0) for w in (0.39, 0.38, 0.40)]
    out = bench_pairs.bench_file("corpus_to_eval", 50, [41, 42, 43], {}, parent, change,
                                 BETTER, BOUNDS, 41, result_line(0.39))
    vs = out["vs_parent"]
    assert set(vs) == set(UNITS)
    assert vs["wall_s"]["median_ratio"] == pytest.approx(1.3)
    assert vs["items_per_s"]["median_ratio"] == pytest.approx(0.30 / 0.39, abs=1e-6)
    assert {k: v["worse_than_bound"] for k, v in vs.items()} == {
        "setup_s": False, "wall_s": True, "items_per_s": False, "peak_rss_mib": True}
    assert vs["peak_rss_mib"]["bound"] == 0.1
    # Better than the parent is never a regression, however far.
    fast = [result_line(0.1, setup=0.05, rss=20.0)] * 3
    vs = bench_pairs.against_parent(bench_pairs.summarize(parent), bench_pairs.summarize(fast),
                                    BETTER, BOUNDS)
    assert not any(v["worse_than_bound"] for v in vs.values())


def test_seed_ranges():
    assert bench_pairs.parse_seeds("41-44") == [41, 42, 43, 44]
    assert bench_pairs.parse_seeds("1,2,7") == [1, 2, 7]
