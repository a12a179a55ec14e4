#!/usr/bin/env python3
"""verbfocus benchmark: one workload, one run, one JSON result line.

    python3 benchmark/run.py --workload corpus_to_eval --seed 3 --seconds 50 --trace 0

Run from the repository root (any checkout holding src/verbfocus). The run
sets up the workload, then repeats whole rounds of the workload while that
brings the round time nearer to --seconds, checks every round's outputs and,
once, checks the first round against the independent oracles in oracles.py.
Set-up runs repeatedly before the first round until it has taken
SETUP_BURST_S, again after any round that ends SETUP_EVERY_S of round time
after the last set-up, and after the last round until it has taken twice
SETUP_BURST_S in all, so that the set-up samples (setup_s is their median)
span the run like the round samples do.
The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json under --trace 0 and its
per-layer metrics under --trace 1. The line before it is the full record:
environment, per-round samples, operation counts and any check failures.

The traced run spends half the budget on untraced rounds and half on rounds
with every traced layer wrapped (spans.py), and reports the overhead of the
second half against the first.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, so every run uses the same single BLAS thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BURST_S = 1.0
SETUP_EVERY_S = 5.0


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


class Runner:
    """Rounds of one workload with their checks and operation counts.

    The first round's outputs go through the oracle checks and leave a
    fingerprint that every later round must reproduce. Peak memory is read
    right after the first round: the first set-ups plus one round, before any
    oracle.
    Each set-up and round starts after a full garbage collection, so that
    no timing pays for garbage left by the checks or the previous round.
    """

    def __init__(self, workload):
        self.workload = workload
        self.ctx = None
        self.setup_times: list[float] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.ops = None
        self.fingerprint = None
        self.peak_rss_mib = None

    def setup(self) -> None:
        """Time one set-up; the first one's inputs serve every round."""
        gc.collect()
        t0 = time.perf_counter()
        ctx = self.workload.setup()
        self.setup_times.append(time.perf_counter() - t0)
        if self.ctx is None:
            self.ctx = ctx

    def setups(self, until_s: float) -> None:
        """Set up until the set-ups so far have taken `until_s` seconds."""
        while not self.setup_times or sum(self.setup_times) < until_s:
            self.setup()

    def rounds(self, budget: float, tracer=None) -> list[float]:
        """Whole rounds while one more brings the round time nearer to `budget`
        seconds (at least one). With a tracer, checks run on the restored
        program and no set-up runs between rounds."""
        samples = []
        since_setup = 0.0
        while not samples or sum(samples) + statistics.median(samples) / 2 <= budget:
            gc.collect()
            t0 = time.perf_counter()
            try:
                out = self.workload.run_round(self.ctx)
            except Exception as exc:  # a raising round is a failed round, not a crash
                self.errors.append(f"round raised {type(exc).__name__}: {exc}")
                self.attempted += 1
                self.failed += 1
                break
            samples.append(time.perf_counter() - t0)
            if self.peak_rss_mib is None:
                self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer:
                tracer.restore()
            self._check(out)
            if tracer:
                spans.install(tracer)
                continue
            since_setup += samples[-1]
            if since_setup >= SETUP_EVERY_S:
                self.setup()
                since_setup = 0.0
        return samples

    def _check(self, out) -> None:
        self.ops = self.workload.round_ops(self.ctx, out)
        self.attempted += self.ops.total
        failures = self.workload.check_round(self.ctx, out)
        fingerprint = self.workload.fingerprint(out)
        if self.fingerprint is None:
            self.fingerprint = fingerprint
            failures += self.workload.check_run(self.ctx, out)
        elif fingerprint != self.fingerprint:
            self.failed += self.ops.total
            self.errors.append("round: outputs differ from the first round")
        for f in failures:
            self.failed += f.count
            self.errors.append(f"{f.kind}: {'; '.join(f.messages)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "verbfocus" / "__init__.py").is_file():
        print(f"benchmark: no verbfocus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    work = ROOT / ".benchmark_work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        run = Runner(workload)
        run.setups(SETUP_BURST_S)
        budget = args.seconds / 2 if args.trace else args.seconds
        samples = run.rounds(budget)
        run.setups(2 * SETUP_BURST_S)
        traced = None
        if args.trace and samples:
            tracer = spans.Tracer()
            spans.install(tracer)
            workload.setup()
            setup_snap = tracer.snapshot()
            tracer.reset()
            traced_samples = run.rounds(budget, tracer)
            tracer.restore()
            if traced_samples:
                traced = {"samples": traced_samples,
                          "layers": spans.merge(setup_snap, tracer.snapshot(), len(traced_samples))}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if not samples:
        print(json.dumps({"errors": run.errors}), file=sys.stderr)
        return 1

    # The mean, not the median: where the CPU switches between a fast and a
    # slow state every few seconds, the median of a run's rounds jumps to
    # whichever state held more of them.
    wall = statistics.fmean(samples)
    measured = {
        "setup_s": statistics.median(run.setup_times),
        "wall_s": wall,
        "items_per_s": run.ops.items / wall,
        "peak_rss_mib": run.peak_rss_mib,
    }
    if traced:
        measured.update(spans.layer_metrics(traced["layers"]))
        measured["trace.overhead"] = statistics.fmean(traced["samples"]) / wall - 1.0
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace and not traced:
        run.errors.append("traced rounds did not complete")
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            run.errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "setup_s_samples": run.setup_times, "round_s_samples": samples,
        "ops_per_round": run.ops.attempted, "items_per_round": run.ops.items,
        "measured": measured, "errors": run.errors,
    }
    if traced:
        record["traced_round_s_samples"] = traced["samples"]
        record["layers"] = traced["layers"]
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
