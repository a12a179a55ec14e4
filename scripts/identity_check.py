#!/usr/bin/env python3
"""List the demo and study artifacts on which two checkouts differ.

    python3 scripts/identity_check.py --parent ../parent --change . [--seeds 0-2]

For each seed of --seeds (a range "0-2", a list "0,3,5" or one seed; default
0), runs scripts/demo_pipeline.py and scripts/run_experiments.py at that seed
in each checkout, against that checkout's own src/. Then it runs `gen` twice
over a four-caption corpus without verb phrases: once with llm_completion
(hard negatives, positives and LLM extraction) from a completion
transcript, once with t5_cloze from a fill transcript. It compares every
artifact the runs wrote byte for byte. Three kinds of file change from run
to run, so they are compared with these fields dropped: `out` from the
config.json files, and `wall_ms` from metrics.jsonl and summary.json.

Prints one line per artifact that differs or exists on one side only, then
one line per seed with how many artifacts matched, and exits 1 if any
artifact differs at any seed; otherwise it exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import parse_seeds  # noqa: E402

VOLATILE = {"config.json": "out", "metrics.jsonl": "wall_ms", "summary.json": "wall_ms"}


# caption; its completion: an extraction list, then numbered rewrites (verb
# swaps, the parent, a case duplicate, a paraphrase that keeps the verb);
# the caption with every tagged verb masked; the fills of each mask
GEN_CAPTIONS = (
    ("a person eating in the park",
     "['eating']\n1. a person cooking in the park\n2. a person eating in the park\n"
     "3. A PERSON COOKING IN THE PARK!\n4. a person eating on the grass\n"
     "5. a person running in the park",
     "a person [MASK] in the park", [["cooking", "eating", "running", "walking"]]),
    ("she opens the door and sits down",
     "['opens', 'sits down']\n1. she closes the door and stands up\n"
     "2. she opens the gate and sits down\n3. she shuts the door and sits down",
     "she [MASK] the door and [MASK] down",
     [["closes", "opens", "shuts"], ["stands", "sits", "falls"]]),
    ("a man pushing a cart near the lake",
     "[]\n1. a man pulling a cart near the lake\n2) a man dragging a cart near the lake",
     "a man [MASK] a cart near the lake", [["pulling", "pushing", "pulling", "dragging"]]),
    ("Someone gives a gift, then laughs.",
     "['gives', 'laughs']\n1. Someone takes a gift, then cries.\n"
     "2. Someone sells a gift, then laughs.",
     "Someone [MASK] a gift, then [MASK].", [["takes", "sells"], ["cries", "laughs"]]),
)


def write_gen_inputs(work: Path, seed: int) -> list[Path]:
    """The corpus, both transcripts and both gen configs under work/gen,
    with paths relative to work; returns the configs."""
    gen = work / "gen"
    gen.mkdir()
    lines = [{"record": "header", "schema_version": 1}]
    lines += [{"record": "video", "video_id": f"g{i}", "split": "train"}
              for i in range(len(GEN_CAPTIONS))]
    lines += [{"record": "caption", "video_id": f"g{i}", "text": text, "split": "train",
               "verb_phrases": []} for i, (text, *_) in enumerate(GEN_CAPTIONS)]
    files = {
        "manifest.jsonl": lines,
        "completions.jsonl": [{"input": text, "candidates": [completion]}
                              for text, completion, _, _ in GEN_CAPTIONS],
        "fills.jsonl": [{"text_with_masks": masked, "fills": fills}
                        for _, _, masked, fills in GEN_CAPTIONS],
    }
    for name, rows in files.items():
        (gen / name).write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    runs = {
        "llm": {"backend": "llm_completion", "candidates_per_caption": 2,
                "kinds": ["hard_negative", "positive_paraphrase"],
                "extractor": "llm_completion", "transcript": "gen/completions.jsonl"},
        "cloze": {"backend": "t5_cloze", "top_k_fill": 3, "candidates_per_caption": 1,
                  "fill_transcript": "gen/fills.jsonl"},
    }
    configs = []
    for name, section in runs.items():
        path = gen / f"config_{name}.json"
        path.write_text(json.dumps({"manifest": "gen/manifest.jsonl", "out": f"gen/{name}",
                                    "seed": seed, "gen": section}, indent=2) + "\n")
        configs.append(path)
    return configs


def run_checkout(checkout: Path, work: Path, seed: int) -> None:
    """Both scripts of checkout, writing under work/demo and work/experiments,
    and both gen runs, writing under work/gen."""
    for script, out in (("demo_pipeline.py", "demo"), ("run_experiments.py", "experiments")):
        run_python(checkout, work, str(checkout.resolve() / "scripts" / script),
                   "--seed", str(seed), "--out", out)
    run_gen(checkout, work, seed)


def run_gen(checkout: Path, work: Path, seed: int) -> None:
    """Both gen runs of checkout over the inputs of write_gen_inputs."""
    for config in write_gen_inputs(work, seed):
        run_python(checkout, work, "-m", "verbfocus.cli", "gen",
                   "--config", str(config.relative_to(work)))


def run_python(checkout: Path, work: Path, *args: str) -> None:
    """python *args in work, against checkout's own src/."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    subprocess.run([sys.executable, *args], cwd=work, env=env, check=True,
                   stdout=subprocess.DEVNULL)


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
    parser.add_argument("--seeds", "--seed", type=parse_seeds, default=[0])
    args = parser.parse_args(argv)
    status = 0
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(prefix="identity_check_") as tmp:
            sides = {name: Path(tmp) / name for name in ("parent", "change")}
            for name, work in sides.items():
                work.mkdir()
                run_checkout(getattr(args, name), work, seed)
            diff, total = differing(sides["parent"], sides["change"])
        for rel in diff:
            print(f"differs: {rel}")
        print(f"seed {seed}: {total - len(diff)} of {total} artifacts identical", flush=True)
        status = 1 if diff else status
    return status


if __name__ == "__main__":
    sys.exit(main())
