"""The benchmark's two workloads over verbfocus's public functions.

Each workload has these parts:

  setup()         builds the inputs and encoders from the seed (timed as setup_s)
  run_round(ctx)  the timed unit; every round does the same work
  round_ops       the operations and items a round attempted
  check_round     cheap checks on every round's outputs
  fingerprint     a digest of a round's outputs; each round must reproduce
                  the first's bit for bit
  check_run       the oracle checks of oracles.py, on the first round

Program functions that the tracer wraps are looked up through their module
at call time (``calibration.calibrate_filter``, not a name bound at import),
so a traced run sees the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from verbfocus import (calibration, corpus, encoders, evaluation, experiments,
                       lexicon, losses, textgen, trainer)

import oracles


@dataclass
class Ops:
    """Operations one round attempts, by kind, and the items it handles."""

    attempted: dict[str, int] = field(default_factory=dict)
    items: int = 0

    @property
    def total(self) -> int:
        return sum(self.attempted.values())


@dataclass
class Failure:
    kind: str
    count: int
    messages: list[str]


def _seed_rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _copy_encoders(enc):
    return encoders.DualEncoders(enc.config, enc.video_ids, enc.vocab,
                                 video_table=enc.video_table.copy(),
                                 token_table=enc.token_table.copy())


def _step_checks(manifest, enc, cfg, rng, n_coords, label) -> list[str]:
    """Loss oracle and finite differences on the first batch of a train run."""
    record = trainer.sample_epoch(manifest, cfg, 0).records[0]
    oracle = oracles.BatchOracle(manifest, record, enc, cfg.loss)
    probe = _copy_encoders(enc)
    out = losses.combined_vfc(trainer.materialize_batch(manifest, probe, record), cfg.loss)
    fails = oracles.check_loss(oracle, enc, out, label)
    grads = encoders.EncoderGrads.zeros_for(probe)
    trainer.train_step(manifest, trainer.TrainState(encoders=probe), cfg, record, grads)
    fails += oracles.check_gradients(oracle, enc, grads, rng, n_coords, label)
    return fails


def _calibration_checks(before, after, report) -> Failure | None:
    again, report_again = calibration.calibrate_filter(after)
    bad, msgs = oracles.check_calibration(before, after, report, again, report_again)
    if msgs:
        return Failure("calibrated candidates", max(bad, 1), msgs)
    return None


# -- train_large_batch -----------------------------------------------------

LARGE_CONTEXTS = 128
LARGE_VERBS = 8
LARGE_BATCH = 256
LARGE_EPOCHS = 2


class TrainLargeBatch:
    """train_loop at B = 256 with n_hard_max = 5 on a sibling-swap corpus of
    1024 captions (128 scenes x 8 verbs, 7 swaps each): once with every
    negative in every row (hn_uncalibrated, no verb term), once calibrated
    with own negatives only and the verb term (calibrated_hn)."""

    name = "train_large_batch"

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self):
        manifest = experiments.build_shortcut_manifest(
            seed=self.seed, n_contexts=LARGE_CONTEXTS, verbs=LARGE_VERBS, cell=1)
        calibrated, report = calibration.calibrate_filter(manifest)
        runs = []
        for label, m, variant, lambda3 in (("hn_uncalibrated", manifest, "hn_uncalibrated", 0.0),
                                           ("calibrated_hn", calibrated, "calibrated_hn", 1.0)):
            cfg = trainer.desk_config(
                batch_size=LARGE_BATCH, epochs=LARGE_EPOCHS, seed=self.seed, n_hard_max=5,
                loss=losses.LossConfig(sigma=0.05, negative_variant=variant, lambda3=lambda3),
                encoder=encoders.EncoderConfig(seed=self.seed))
            enc = encoders.DualEncoders.from_manifest(m, cfg.encoder)
            runs.append((label, m, cfg, enc))
        return {"runs": runs, "source": manifest, "calibrated": calibrated, "report": report}

    def round_ops(self, ctx, out) -> Ops:
        steps = items = 0
        for _, m, cfg, _ in ctx["runs"]:
            n = len(oracles.train_split_captions(m))
            steps += cfg.epochs * len(oracles.epoch_batch_sizes(n, cfg.batch_size))
            items += cfg.epochs * sum(oracles.epoch_batch_sizes(n, cfg.batch_size))
        return Ops({"train steps": steps}, items)

    def run_round(self, ctx):
        out = []
        for label, m, cfg, enc in ctx["runs"]:
            state, metrics = trainer.train_loop(m, cfg, state=trainer.TrainState(_copy_encoders(enc)))
            out.append((label, state, metrics))
        return out

    def fingerprint(self, out):
        digest = hashlib.sha256()
        for _, state, metrics in out:
            digest.update(state.encoders.token_table.tobytes())
            digest.update(state.encoders.video_table.tobytes())
            digest.update(repr([(r["total"], r["t2v"], r["chn"], r["verb_phrase"])
                                for r in metrics]).encode())
        return digest.hexdigest()

    def check_round(self, ctx, out) -> list[Failure]:
        fails = []
        for (label, m, cfg, _), (_, state, metrics) in zip(ctx["runs"], out):
            n = len(oracles.train_split_captions(m))
            expected = cfg.epochs * len(oracles.epoch_batch_sizes(n, cfg.batch_size))
            msgs = oracles.check_training(metrics, expected, state.step, cfg.epochs, label)
            if msgs:
                fails.append(Failure("train steps", expected, msgs))
        return fails

    def check_run(self, ctx, out) -> list[Failure]:
        fails = []
        cal = _calibration_checks(ctx["source"], ctx["calibrated"], ctx["report"])
        if cal:
            fails.append(cal)
        rng = _seed_rng(self.seed, 911)
        for label, m, cfg, enc in ctx["runs"]:
            msgs = _step_checks(m, enc, cfg, rng, 3, label)
            if msgs:
                fails.append(Failure("train steps", 1, msgs))
        return fails


# -- corpus_to_eval --------------------------------------------------------

EVAL_CONTEXTS = 250
EVAL_VERBS = 8
GEN_CANDIDATES = 5
USAGE_EPOCHS = 4
VIDEO_NOISE = 1.5


def _scene(cap) -> str:
    """The scene of a synthetic caption: its phrase "actSSSxVV" up to the x."""
    return cap.verb_phrases[0].surface.split("x")[0]


def _eval_inputs(manifest, seed):
    """Retrieval pairs, MC items, a zero-shot task and AP pairs over the
    corpus's captions, which all have distinct texts."""
    rng = _seed_rng(seed, 202)
    caps = list(manifest.captions)
    by_context: dict[str, list] = {}
    for cap in caps:
        by_context.setdefault(_scene(cap), []).append(cap)
    pairs = [(c.video_id, c.text) for c in caps]
    contexts = sorted(by_context)
    mc = []
    for cap in caps:
        ctx = _scene(cap)
        siblings = [c.text for c in by_context[ctx] if c.text != cap.text]
        picks = [siblings[int(j)] for j in rng.choice(len(siblings), 4, replace=False)]
        others = [contexts[int(j)] for j in rng.choice(len(contexts), 5, replace=False)]
        others = [o for o in others if o != ctx][:4]
        randoms = [by_context[o][int(rng.integers(len(by_context[o])))].text for o in others]
        for negs, kind in ((picks, "hard_verb_negative"), (randoms, "random_negative")):
            pos = int(rng.integers(5))
            options = list(negs)
            options.insert(pos, cap.text)
            kinds = [kind] * 5
            kinds[pos] = "positive"
            mc.append(evaluation.MultipleChoiceItem(cap.video_id, tuple(options), pos,
                                                    tuple(kinds)))
    labels = [c.text for c in caps]
    order = rng.permutation(len(labels))
    labels = [labels[int(i)] for i in order]
    index = {t: i for i, t in enumerate(labels)}
    task = evaluation.ClassificationTask(
        labels=tuple(labels), items=tuple((c.video_id, index[c.text]) for c in caps))
    ap = []
    for cap in caps:
        ctx = _scene(cap)
        siblings = [c.text for c in by_context[ctx] if c.text != cap.text]
        ap.append((cap.video_id, cap.text, "pos"))
        ap.append((cap.video_id, siblings[int(rng.integers(len(siblings)))], "neg"))
    ap = [ap[int(i)] for i in rng.permutation(len(ap))]
    return {"pairs": pairs, "mc": mc, "task": task, "ap": ap}


class CorpusToEval:
    """No training: random_verb hard negatives for a 2000-caption synthetic
    corpus (250 scenes x 8 verbs, one caption each) with the manifest
    lexicon, written and reloaded as the gen command does, calibrate_filter,
    the calibrated manifest written and reloaded as the calibrate command
    does, simulate_usage on it, a seeded encoder checkpoint round trip, then
    retrieval, multiple choice, zero-shot and pair AP with the reloaded
    encoders.

    The encoders stand in for a trained model: each video row is its
    caption's embedding plus seeded noise, so every metric sits well away
    from 0 and 1 and a wrong rank or tie rule moves it."""

    name = "corpus_to_eval"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self):
        source = corpus.make_synthetic_corpus(corpus.SynthSpec(
            n_contexts=EVAL_CONTEXTS, verbs_per_context=EVAL_VERBS,
            captions_per_cell=1, seed=self.seed))
        resources = lexicon.LexiconResources.from_manifest(source)
        enc = encoders.DualEncoders.from_manifest(source, encoders.EncoderConfig(seed=self.seed))
        rng = _seed_rng(self.seed, 303)
        for cap in source.captions:
            row = enc.video_row(cap.video_id)
            noise = rng.normal(0.0, VIDEO_NOISE / np.sqrt(enc.config.dim), enc.config.dim)
            enc.video_table[row] = enc.encode_text(cap.text) + noise
        gen_cfg = textgen.GenBackendConfig(backend="random_verb",
                                           candidates_per_caption=GEN_CANDIDATES, seed=self.seed)
        usage_cfg = trainer.TrainConfig(batch_size=256, n_hard_max=GEN_CANDIDATES, seed=self.seed,
                                        loss=losses.LossConfig(negative_variant="calibrated_hn"))
        ctx = {"source": source, "resources": resources, "encoders": enc,
               "gen_cfg": gen_cfg, "usage_cfg": usage_cfg}
        ctx.update(_eval_inputs(source, self.seed))
        return ctx

    def round_ops(self, ctx, out) -> Ops:
        generated = len(out["generated"].generations) - len(ctx["source"].generations)
        candidates = out["report"].candidates_before
        evals = 2 * len(ctx["pairs"]) + len(ctx["mc"]) + len(ctx["task"].items) + len(ctx["ap"])
        return Ops({"generated captions": generated, "calibrated candidates": candidates,
                    "eval items": evals}, generated + candidates + evals)

    def run_round(self, ctx):
        self.work.mkdir(parents=True, exist_ok=True)
        generated_path = self.work / "manifest_generated.jsonl"
        calibrated_path = self.work / "manifest_calibrated.jsonl"
        ckpt_path = self.work / "encoders.bin"
        generated = textgen.generate_for_manifest(ctx["source"], ctx["gen_cfg"], ctx["resources"])
        corpus.save_manifest(generated, generated_path)
        loaded = corpus.load_manifest(generated_path)
        calibrated, report = calibration.calibrate_filter(loaded)
        corpus.save_manifest(calibrated, calibrated_path)
        reloaded = corpus.load_manifest(calibrated_path)
        usage = trainer.simulate_usage(reloaded, ctx["usage_cfg"], USAGE_EPOCHS)
        ctx["encoders"].save_checkpoint(ckpt_path)
        enc = encoders.DualEncoders.load_checkpoint(ckpt_path)
        results = {
            "retrieval": evaluation.eval_retrieval(enc, ctx["pairs"]),
            "mc": evaluation.eval_multiple_choice(enc, ctx["mc"]),
            "zero_shot": evaluation.eval_zero_shot(enc, ctx["task"]),
            "ap": evaluation.eval_pair_ap(enc, ctx["ap"]),
        }
        return {"generated": generated, "loaded": loaded, "calibrated": calibrated,
                "reloaded": reloaded, "report": report, "usage": usage, "encoders": enc,
                "results": results}

    def fingerprint(self, out):
        res = out["results"]
        key = (list(out["calibrated"].generations), sorted(out["usage"].neg.items()),
               res["retrieval"], res["mc"].to_dict(), res["zero_shot"].top1,
               res["zero_shot"].top5, res["zero_shot"].confusion.tobytes(), res["ap"])
        return hashlib.sha256(repr(key).encode()).hexdigest()

    def check_round(self, ctx, out) -> list[Failure]:
        fails = []
        for before, after in (("generated", "loaded"), ("calibrated", "reloaded")):
            msgs = oracles.check_manifest_equal(out[before], out[after], f"{before} manifest")
            if msgs:
                fails.append(Failure("generated captions", len(out[before].generations), msgs))
        src, enc = ctx["encoders"], out["encoders"]
        if not (np.array_equal(src.token_table, enc.token_table)
                and np.array_equal(src.video_table, enc.video_table)
                and (src.vocab, src.video_ids, src.config) == (enc.vocab, enc.video_ids, enc.config)):
            fails.append(Failure("eval items", 1, ["encoder checkpoint does not round-trip"]))
        return fails

    def check_run(self, ctx, out) -> list[Failure]:
        fails = []
        bad, msgs = oracles.check_generation(ctx["source"], out["generated"],
                                             ctx["gen_cfg"].candidates_per_caption)
        if msgs:
            fails.append(Failure("generated captions", bad, msgs))
        cal = _calibration_checks(out["loaded"], out["calibrated"], out["report"])
        if cal:
            fails.append(cal)
        msgs = oracles.check_usage(out["usage"], out["calibrated"], ctx["usage_cfg"], USAGE_EPOCHS)
        if msgs:
            fails.append(Failure("calibrated candidates", 1, msgs))
        enc, res = out["encoders"], out["results"]
        checks = (
            ("eval items", 2 * len(ctx["pairs"]), oracles.check_retrieval(enc, ctx["pairs"], res["retrieval"])),
            ("eval items", len(ctx["mc"]), oracles.check_multiple_choice(enc, ctx["mc"], res["mc"])),
            ("eval items", len(ctx["task"].items), oracles.check_zero_shot(enc, ctx["task"], res["zero_shot"])),
        )
        for kind, n, msgs in checks:
            if msgs:
                fails.append(Failure(kind, n, msgs))
        msgs = oracles.check_pair_ap(enc, ctx["ap"], res["ap"])
        if msgs:
            fails.append(Failure("eval items", len(ctx["ap"]), msgs))
        return fails


WORKLOADS = {w.name: w for w in (TrainLargeBatch, CorpusToEval)}
