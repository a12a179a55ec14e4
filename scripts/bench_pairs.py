#!/usr/bin/env python3
"""Alternated parent/change pairs of benchmark/run.py, summarized as BENCH files.

    python3 scripts/bench_pairs.py --parent ../parent --change . --number 9 \\
        --workload train_large_batch --workload corpus_to_eval --seeds 41-50

Pair i runs seed seeds[i] in both checkouts, the parent first when i is even
and the change first when i is odd, so that a drift of the machine's speed
over the session falls on both sides alike. Each run is one untraced
`benchmark/run.py` process started in its checkout's root. After the pairs,
the change runs once more traced (--trace 1) at the first seed.

For each workload the script writes BENCH_<number>_<workload>.json to
--out-dir: the change's untraced end-to-end metrics (median, quartiles and
the per-run values), the parent's in the same form, how many pairs the change
won on each metric, the change's median relative to the parent's with whether
that is worse than the metric's bound in BENCHMARK.json (the no-regression
rule), the environment the benchmark reported, and the traced run's
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

END_TO_END = ("setup_s", "wall_s", "items_per_s", "peak_rss_mib")
PAIRS = "sides alternated; pair i runs the parent first when i is even"


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The full record and the result line of one benchmark run."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarize(results: list[dict]) -> dict:
    """Median, inclusive quartiles and per-run values of each end-to-end
    metric over result lines ({"correct", "attempted", "failed", "metrics"})."""
    out = {}
    for name in END_TO_END:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "runs": [round(v, 6) for v in values]}
    return out


def pairs_won(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict[str, int]:
    """Per metric, the pairs in which the change is strictly better."""
    won = {}
    for name in END_TO_END:
        sign = 1 if better[name] == "higher" else -1
        won[name] = sum(sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
                        for p, c in zip(parent, change))
    return won


def against_parent(parent: dict, change: dict, better: dict[str, str],
                   bounds: dict[str, float]) -> dict[str, dict]:
    """Per metric, the change's median over the parent's (summaries as from
    summarize) and whether that is worse than the metric's relative bound."""
    out = {}
    for name in END_TO_END:
        ratio = change[name]["median"] / parent[name]["median"]
        worse = ratio - 1 if better[name] == "lower" else 1 - ratio
        out[name] = {"median_ratio": round(ratio, 6), "bound": bounds[name],
                     "worse_than_bound": worse > bounds[name]}
    return out


def bench_file(workload: str, seconds: float, seeds: list[int], environment: dict,
               parent: list[dict], change: list[dict], better: dict[str, str],
               bounds: dict[str, float], traced_seed: int, traced: dict) -> dict:
    untraced, parent_untraced = summarize(change), summarize(parent)
    return {
        "workload": workload,
        "code": "this change",
        "command": f"python3 benchmark/run.py --workload {workload} --seed N "
                   f"--seconds {seconds:g} --trace 0",
        "environment": environment,
        "pairs": PAIRS,
        "seeds": seeds,
        "all_correct": all(r["correct"] for r in change),
        "failed": sum(r["failed"] for r in change),
        "untraced": untraced,
        "traced": {"seed": traced_seed, "correct": traced["correct"], "failed": traced["failed"],
                   "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        "parent": {"all_correct": all(r["correct"] for r in parent),
                   "failed": sum(r["failed"] for r in parent),
                   "untraced": parent_untraced},
        "pairs_won": pairs_won(parent, change, better),
        "vs_parent": against_parent(parent_untraced, untraced, better, bounds),
    }


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--number", type=int, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("41-50"))
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload:
        sides = {"parent": [], "change": []}
        environment = None
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                record, result = run_once(checkout, workload, seed, args.seconds, 0)
                environment = environment or record["environment"]
                sides[side].append(result)
                print(f"{workload} seed {seed} {side}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
        _, traced = run_once(args.change, workload, args.seeds[0], args.seconds, 1)
        out = bench_file(workload, args.seconds, args.seeds, environment, sides["parent"],
                         sides["change"], better, bounds, args.seeds[0], traced)
        path = args.out_dir / f"BENCH_{args.number}_{workload}.json"
        path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
