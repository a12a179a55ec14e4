#!/usr/bin/env python3
"""List the demo and study artifacts on which two checkouts differ.

    python3 scripts/identity_check.py --parent ../parent --change . [--seed 0]

Runs scripts/demo_pipeline.py and scripts/run_experiments.py at --seed in
each checkout, against that checkout's own src/, then compares every
artifact the two runs wrote byte for byte. Three kinds of file change from
run to run, so they are compared with these fields dropped: `out` from both
config.json files, and `wall_ms` from metrics.jsonl and summary.json.

Prints one line per artifact that differs or exists on one side only, and
exits 1 if there is any; otherwise it prints how many artifacts matched and
exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

VOLATILE = {"config.json": "out", "metrics.jsonl": "wall_ms", "summary.json": "wall_ms"}


def run_checkout(checkout: Path, work: Path, seed: int) -> None:
    """Both scripts of checkout, writing under work/demo and work/experiments."""
    checkout = checkout.resolve()
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    for script, out in (("demo_pipeline.py", "demo"), ("run_experiments.py", "experiments")):
        subprocess.run([sys.executable, str(checkout / "scripts" / script),
                        "--seed", str(seed), "--out", out],
                       cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)


def _drop(obj, key: str):
    if isinstance(obj, dict):
        return {k: _drop(v, key) for k, v in obj.items() if k != key}
    if isinstance(obj, list):
        return [_drop(v, key) for v in obj]
    return obj


def normalized(path: Path):
    """The file's bytes, or for a volatile file its JSON without the volatile field."""
    key = VOLATILE.get(path.name)
    if key is None:
        return path.read_bytes()
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        return [_drop(json.loads(line), key) for line in text.splitlines()]
    return _drop(json.loads(text), key)


def differing(a: Path, b: Path) -> tuple[list[str], int]:
    """Relative paths of the artifacts that differ or exist on one side
    only, and how many artifacts the two trees hold in all."""
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    every = files[0] | files[1]
    diff = [str(rel) for rel in sorted(every)
            if rel not in files[0] or rel not in files[1]
            or normalized(a / rel) != normalized(b / rel)]
    return diff, len(every)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="identity_check_") as tmp:
        sides = {name: Path(tmp) / name for name in ("parent", "change")}
        for name, work in sides.items():
            work.mkdir()
            run_checkout(getattr(args, name), work, args.seed)
        diff, total = differing(sides["parent"], sides["change"])
    for rel in diff:
        print(f"differs: {rel}")
    print(f"seed {args.seed}: {total - len(diff)} of {total} artifacts identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
