"""Spans and call counts around verbfocus's public functions, for traced runs.

A Tracer replaces each traced function at every place a caller looks it up:
the module attribute of every loaded verbfocus module that holds it, or the
class attribute for methods. Restoring puts the original objects back, so an
untraced run executes the program untouched.

Spans are aggregated as they close rather than stored one by one (a training
run makes millions of encoder calls). For each layer the tracer keeps calls,
self time (duration minus the time covered by child spans) and outermost
inclusive time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.incl_s = Counter()
        self.counts = Counter()
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, observe=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                if outermost:
                    self.incl_s[name] += dt
                if stack:
                    stack[-1][1] += dt
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace(self, owner, attr, make):
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_function(self, fn, make):
        """Replace fn in every verbfocus module that binds it."""
        wrapped = make(fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("verbfocus"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def _wrap(self, target, make):
        """Wrap a module-level function object or an (owner class, attr) pair."""
        if isinstance(target, tuple):
            self._replace(*target, make)
        else:
            self._patch_function(target, make)

    def span(self, target, name, observe=None):
        self._wrap(target, lambda fn: self._span(name, fn, observe))

    def count(self, target, name):
        self._wrap(target, lambda fn: self._counter(name, fn))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self):
        for c in (self.calls, self.self_s, self.incl_s, self.counts):
            c.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
        }


# -- what each layer's spans and counts are ------------------------------

def _logit_entries(counts, args, kwargs, out):
    """Logits the batch's loss terms evaluate: t2v B*B, the negative term
    B*B (none), B*(B+sum n) (every negative in every row) or sum(B+n_i)
    (own negatives only), and M*M for the verb term."""
    batch, cfg = args[0], args[1]
    B = batch.batch_size
    n = batch.hard_counts()
    if cfg.negative_variant == "hn_uncalibrated":
        neg = B * (B + sum(n))
    elif cfg.negative_variant == "calibrated_hn":
        neg = sum(B + k for k in n)
    else:
        neg = B * B
    M = int(batch.verb_mask.sum()) if batch.verb is not None else 0
    counts["losses.logit_entries"] += B * B + neg + M * M


def _candidate_yield(counts, args, kwargs, out):
    cfg = args[1]
    counts["textgen.candidates_asked"] += cfg.candidates_per_caption
    counts["textgen.candidates_kept"] += len(out)


def _manifest_bytes(counts, args, kwargs, out):
    counts["corpus.manifest_bytes"] += Path(args[1]).stat().st_size


def _kept_ratio(counts, args, kwargs, out):
    report = out[1]
    counts["calibration.candidates"] += report.candidates_before
    counts["calibration.kept"] += report.kept


def _train_rows(counts, args, kwargs, out):
    record = args[3]
    counts["trainer.rows"] += len(record.caption_indices)
    counts["trainer.steps"] += 1


def _generated(counts, args, kwargs, out):
    counts["textgen.generated"] += len(out.generations) - len(args[0].generations)


def _eval_items(kind):
    def observe(counts, args, kwargs, out):
        n = len(args[1]) if kind != "zero_shot" else len(args[1].items)
        counts["evaluation.items"] += 2 * n if kind == "retrieval" else n
    return observe


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of verbfocus."""
    from verbfocus import (calibration, corpus, encoders, evaluation,
                           experiments, lexicon, losses, text, textgen,
                           trainer)
    enc = encoders.DualEncoders
    tracer.count(text.tokenize, "text.tokenize")
    tracer.count((lexicon.VerbRecognizer, "inflect_like"), "lexicon.inflect_like")
    for attr in ("encode_text", "encode_texts", "encode_video", "encode_videos"):
        tracer.span((enc, attr), "encoders.encode")
    for attr in ("backward_text", "backward_video"):
        tracer.span((enc, attr), "encoders.backward")
    tracer.span((enc, "apply_sgd"), "encoders.apply_sgd")
    tracer.span((enc, "from_manifest"), "encoders.from_manifest")
    tracer.span(losses.info_nce_t2v, "losses.t2v")
    for fn in (losses.info_nce_v2t, losses.loss_hn_uncalibrated, losses.loss_chn):
        tracer.span(fn, "losses.negative")
    tracer.span(losses.loss_verb_phrase, "losses.verb_phrase")
    tracer.span(losses.combined_vfc, "losses.combine", _logit_entries)
    tracer.span(trainer.sample_epoch, "trainer.sample_epoch")
    tracer.span(trainer.materialize_batch, "trainer.materialize_batch")
    tracer.span(trainer.train_step, "trainer.train_step", _train_rows)
    tracer.span(trainer.train_loop, "trainer.train_loop")
    tracer.span((trainer.UsageCounter, "observe"), "trainer.usage_observe")
    tracer.span(textgen.generate_hard_negatives, "textgen.generate", _candidate_yield)
    tracer.span(textgen.generate_for_manifest, "textgen.generate_for_manifest", _generated)
    tracer.span(corpus.save_manifest, "corpus.save_manifest", _manifest_bytes)
    tracer.span(corpus.load_manifest, "corpus.load_manifest")
    tracer.span(calibration.calibrate_filter, "calibration.calibrate_filter", _kept_ratio)
    for kind, fn in (("retrieval", evaluation.eval_retrieval),
                     ("multiple_choice", evaluation.eval_multiple_choice),
                     ("zero_shot", evaluation.eval_zero_shot),
                     ("pair_ap", evaluation.eval_pair_ap)):
        tracer.span(fn, f"evaluation.{kind}", _eval_items(kind))
    for fn in (experiments.build_shortcut_manifest, corpus.make_synthetic_corpus):
        tracer.span(fn, "experiments.build_manifest")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def merge(setup: dict, rounds: dict, n_rounds: int) -> dict:
    """One repetition: the traced set-up plus the mean traced round."""
    out = {}
    for key in ("calls", "self_s", "incl_s", "counts"):
        a, b = setup[key], rounds[key]
        out[key] = {k: a.get(k, 0) + b.get(k, 0) / n_rounds for k in set(a) | set(b)}
    return out


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer metrics of one repetition (see merge)."""
    s, incl, c = rep["self_s"], rep["incl_s"], rep["counts"]
    out = {}
    for layer in ("encoders.encode", "encoders.backward", "encoders.apply_sgd",
                  "encoders.from_manifest", "experiments.build_manifest",
                  "losses.t2v", "losses.negative", "losses.verb_phrase",
                  "losses.combine", "trainer.sample_epoch",
                  "trainer.materialize_batch", "trainer.train_step",
                  "trainer.usage_observe", "textgen.generate",
                  "corpus.save_manifest", "corpus.load_manifest",
                  "calibration.calibrate_filter", "evaluation.retrieval",
                  "evaluation.multiple_choice", "evaluation.zero_shot",
                  "evaluation.pair_ap"):
        out[f"{layer}.self_s"] = s.get(layer, 0.0)
    out["text.tokenize.calls"] = c.get("text.tokenize", 0)
    out["lexicon.inflect_like.calls"] = c.get("lexicon.inflect_like", 0)
    out["losses.logit_entries"] = c.get("losses.logit_entries", 0)
    out["trainer.steps"] = c.get("trainer.steps", 0)
    out["textgen.candidate_yield"] = _ratio(c.get("textgen.candidates_kept", 0),
                                            c.get("textgen.candidates_asked", 0))
    out["corpus.manifest_mib"] = c.get("corpus.manifest_bytes", 0) / 2 ** 20
    out["calibration.kept_ratio"] = _ratio(c.get("calibration.kept", 0),
                                           c.get("calibration.candidates", 0))
    out["train_items_per_s"] = _ratio(c.get("trainer.rows", 0),
                                      incl.get("trainer.train_loop", 0.0))
    out["gen_captions_per_s"] = _ratio(c.get("textgen.generated", 0),
                                       incl.get("textgen.generate_for_manifest", 0.0))
    out["calibrate_candidates_per_s"] = _ratio(c.get("calibration.candidates", 0),
                                               incl.get("calibration.calibrate_filter", 0.0))
    eval_s = sum(incl.get(f"evaluation.{k}", 0.0)
                 for k in ("retrieval", "multiple_choice", "zero_shot", "pair_ap"))
    out["eval_items_per_s"] = _ratio(c.get("evaluation.items", 0), eval_s)
    return out
