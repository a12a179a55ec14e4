"""Subcommand front-end wiring the pipeline end to end.

One JSON config file covers every stage; flags override the file, and the
effective merged config is echoed into the output directory so any run can
be reproduced from its artifacts alone. A flag is one row of _FLAGS, which
names the config keys it sets; defaults and stage configs are read off the
package dataclasses. train reads train.input, else manifest_calibrated.jsonl,
else manifest_generated.jsonl (not under calibrated_hn), else `manifest`.
Each command writes only inside the output directory. Exit codes: 0
success, 1 validation error, 2 runtime failure.

Pipeline artifacts inside the output directory:

  config.json                 every      merged config (all commands but report)
  manifest_generated.jsonl    gen        corpus plus generations
  gen_report.json             gen        generation counts, network calls, cache
  manifest_calibrated.jsonl   calibrate  generations with kept flags set
  calibration_report.json     calibrate  per-concept S and G before/after filtering
  checkpoints/                train      training checkpoints
  metrics.jsonl               train      one record per epoch
  eval_report.json            eval       metrics for the configured tasks
  confusion.csv               eval       zero-shot confusion (eval.classification)
  experiment_<name>/          experiment seeded scenario results
  summary.json                report     merged view of the above

Every artifact but metrics.jsonl is replaced atomically (corpus.write_atomic);
the log is streamed because a resumed run appends to it.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

from .calibration import calibrate_filter
from .clients import (ClientError, CompletionClientConfig, GenerationClient,
                      HttpTransport, ReplayTransport)
from .corpus import (GENERATION_BACKENDS, load_manifest, read_jsonl, save_manifest,
                     write_atomic)
from .encoders import manifest_vocab
from .evaluation import (build_verb_split, eval_multiple_choice, eval_pair_ap,
                         eval_retrieval, eval_zero_shot,
                         load_classification_task, load_mc_items,
                         load_retrieval_pairs, load_scored_pairs,
                         subset_resample_protocol, write_confusion_csv)
from .experiments import (EXPERIMENT_NAMES, run_attraction_point,
                          run_ratio_law, run_shortcut)
from .lexicon import LexiconResources
from .losses import NCE_MODES, NEGATIVE_VARIANTS
from .textgen import GenBackendConfig, TextGenError, generate_for_manifest
from .trainer import (TrainConfig, TrainerError, TrainState, desk_config,
                      load_train_checkpoint, train_loop)


class ConfigError(ValueError):
    pass


def _fields(config, *skip: str) -> dict:
    return {k: v for k, v in asdict(config).items() if k not in skip}


def _section(cls, section: dict, **extra):
    """A cls from the keys of a config section that name its fields."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in section.items() if k in names}, **extra)


_PRESET = desk_config()

DEFAULTS = {
    "manifest": None,
    "out": "runs/default",
    "seed": 0,
    # Read off the dataclasses so the two cannot drift: the generation
    # backend and the HTTP client, then the desk preset. The seed lives at
    # the top level; the encoder's init_scale stays None so it follows dim.
    "gen": {
        **_fields(GenBackendConfig(), "seed"),
        "lexicon": "default",
        "transcript": None,
        "fill_transcript": None,
        **asdict(CompletionClientConfig()),
        "cache_dir": None,
        "max_retries": 3,
    },
    "loss": asdict(_PRESET.loss),
    "encoder": {**_fields(_PRESET.encoder, "seed"), "init_scale": None},
    "train": {"input": None, "resume": None, **_fields(_PRESET, "seed", "loss", "encoder")},
    "eval": {
        "checkpoint": None,
        "mc_items": None,
        "retrieval_pairs": None,
        "classification": None,
        "pair_ap": None,
        "ks": [1, 5, 10],
        "verb_split": False,
        "subset_m": None,
        "subset_repeats": 3,
    },
    "experiment": {"name": "ratio_law", "epochs": None, "batch_size": None},
}


# (command taking it, or None for all; flag; the config keys it sets;
# argparse options). A flag counts as given when its value is not None.
_FLAGS = (
    (None, "--out", ("out",), {"help": "output directory for all artifacts"}),
    (None, "--seed", ("seed",), {"type": int, "help": "run seed"}),
    (None, "--backend", ("gen.backend",),
     {"choices": GENERATION_BACKENDS, "help": "generation backend"}),
    (None, "--loss-variant", ("loss.negative_variant",), {"choices": NEGATIVE_VARIANTS}),
    (None, "--nce-mode", ("loss.nce_mode",), {"choices": NCE_MODES}),
    (None, "--n-hard", ("train.n_hard_max",),
     {"type": int, "help": "max sampled hard negatives per item"}),
    (None, "--epochs", ("train.epochs", "experiment.epochs"), {"type": int}),
    (None, "--no-exemplars", ("gen.include_exemplars",),
     {"action": "store_const", "const": False, "help": "render prompts without in-context exemplars"}),
    (None, "--freeze-video", ("encoder.freeze_video",), {"action": "store_const", "const": True}),
    (None, "--freeze-text", ("encoder.freeze_text",), {"action": "store_const", "const": True}),
    ("train", "--resume", ("train.resume",), {
        "metavar": "CHECKPOINT", "help": "continue from a training checkpoint of this run"}),
    ("experiment", "name", ("experiment.name",), {"choices": EXPERIMENT_NAMES}),
)


def _check_keys(data: dict, schema: dict, path: str, prefix: str = "") -> None:
    for key, value in data.items():
        if key not in schema:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        if isinstance(schema[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: config key {prefix}{key} must be an object")
            _check_keys(value, schema[key], path, f"{prefix}{key}.")


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULTS)
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    _check_keys(data, DEFAULTS, path)
    cfg = copy.deepcopy(DEFAULTS)
    for key, value in data.items():
        if isinstance(cfg[key], dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def apply_flags(cfg: dict, args: argparse.Namespace) -> dict:
    """Set every config key of each flag given on the command line."""
    for _, flag, keys, _ in _FLAGS:
        value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        if value is not None:
            for key in keys:
                section, _, leaf = key.rpartition(".")
                (cfg[section] if section else cfg)[leaf] = value
    return cfg


def make_train_config(cfg: dict) -> TrainConfig:
    train = {k: v for k, v in cfg["train"].items() if k not in ("input", "resume")}
    try:
        return TrainConfig.from_dict({**train, "seed": cfg["seed"], "loss": cfg["loss"],
                                      "encoder": {**cfg["encoder"], "seed": cfg["seed"]}})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    write_atomic(path, (json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8"))


def _require_manifest(cfg: dict):
    path = cfg["manifest"]
    if not path:
        raise ConfigError("no input corpus: set `manifest` in the config or file")
    if not Path(path).exists():
        raise ConfigError(f"manifest not found: {path}")
    return load_manifest(path)


def _build_resources(cfg: dict, manifest):
    choice = cfg["gen"]["lexicon"]
    if choice == "default":
        return LexiconResources.default()
    if choice == "manifest":
        return LexiconResources.from_manifest(manifest)
    raise ConfigError(f"gen.lexicon must be 'default' or 'manifest', got {choice!r}")


def _build_client(gcfg: GenBackendConfig, gen: dict) -> GenerationClient | None:
    """The run's one generation client over its transcript or endpoint, or
    None: fills for t5_cloze, completions when the backend or the extractor
    is llm_completion or when positives are asked for."""
    completes = ("llm_completion" in (gcfg.backend, gcfg.extractor)
                 or "positive_paraphrase" in gcfg.kinds)
    if gcfg.backend == "t5_cloze":
        if completes:
            raise ConfigError("t5_cloze takes the run's one client for fills; it cannot "
                              "serve llm_completion extraction or positive_paraphrase too")
        needs, transcript = "t5_cloze fills", "fill_transcript"
    elif completes:
        needs, transcript = "completion requests", "transcript"
    else:
        return None
    if gen[transcript]:
        transport = ReplayTransport.from_file(gen[transcript])
    elif gen["endpoint"]:
        transport = HttpTransport(_section(CompletionClientConfig, gen))
    else:
        raise ConfigError(f"{needs} need gen.{transcript} or gen.endpoint")
    return GenerationClient(transport, gen["max_retries"], gen["cache_dir"])


def cmd_gen(cfg: dict) -> int:
    out = _out_dir(cfg)
    _write_json(out / "config.json", cfg)
    gen = cfg["gen"]
    gcfg = _section(GenBackendConfig, gen, seed=cfg["seed"])
    manifest = _require_manifest(cfg)
    resources = _build_resources(cfg, manifest)
    client = _build_client(gcfg, gen)
    before = len(manifest.generations)
    result = generate_for_manifest(manifest, gcfg, resources, client)
    save_manifest(result, out / "manifest_generated.jsonl")
    counts = dict(Counter(g.kind for g in result.generations[before:]))
    report = {
        "input_captions": len(manifest.captions),
        "generated": counts,
        "backend": gen["backend"],
        "network_calls": client.transport.network_calls if client else 0,
    }
    if client and client.cache is not None:
        report["cache"] = {"hits": client.hits, "misses": client.misses}
    _write_json(out / "gen_report.json", report)
    print(f"generated {sum(counts.values())} caption(s) -> {out / 'manifest_generated.jsonl'}")
    print(f"network calls: {report['network_calls']}")
    return 0


def cmd_calibrate(cfg: dict) -> int:
    out = _out_dir(cfg)
    _write_json(out / "config.json", cfg)
    gen_path = out / "manifest_generated.jsonl"
    if gen_path.exists():
        manifest = load_manifest(gen_path)
    elif cfg["manifest"] and Path(cfg["manifest"]).exists():
        manifest = load_manifest(cfg["manifest"])
    else:
        raise ConfigError(
            f"{gen_path} not found; run the gen command first")
    if not any(g.kind == "hard_negative" for g in manifest.generations):
        raise ConfigError(
            "manifest has no generated hard negatives; run the gen command first")
    filtered, report = calibrate_filter(manifest)
    save_manifest(filtered, out / "manifest_calibrated.jsonl")
    _write_json(out / "calibration_report.json", report.to_dict())
    print(report.render(top_k=10))
    print(f"wrote {out / 'manifest_calibrated.jsonl'}")
    return 0


def _resolve_train_input(cfg: dict, out: Path):
    """train.input, else out's calibrated manifest, else out's generated one
    (not under calibrated_hn), else the configured manifest."""
    explicit = cfg["train"]["input"]
    if explicit:
        if not Path(explicit).exists():
            raise ConfigError(f"train.input not found: {explicit}")
        return load_manifest(explicit)
    cal_path, gen_path = out / "manifest_calibrated.jsonl", out / "manifest_generated.jsonl"
    if cal_path.exists():
        return load_manifest(cal_path)
    if gen_path.exists():
        if cfg["loss"]["negative_variant"] == "calibrated_hn":
            raise ConfigError(f"{cal_path} not found; run the calibrate command first")
        return load_manifest(gen_path)
    return _require_manifest(cfg)


def _resume_state(path, manifest, tcfg: TrainConfig) -> TrainState | None:
    """The state saved in a training checkpoint, checked against this run:
    the same vocabulary and video ids as the manifest, and the same train
    config apart from epochs and checkpoint_every."""
    if not path:
        return None
    if not Path(path).exists():
        raise ConfigError(f"checkpoint not found: {path}")
    state, saved = load_train_checkpoint(path)
    name = Path(path).name
    if state.encoders.vocab != manifest_vocab(manifest):
        raise ConfigError(f"{name}: vocabulary does not match the training manifest")
    if state.encoders.video_ids != [v.video_id for v in manifest.videos]:
        raise ConfigError(f"{name}: video ids do not match the training manifest")
    ours, theirs = asdict(tcfg), asdict(saved)
    differ = [k for k in ours if k not in ("epochs", "checkpoint_every") and ours[k] != theirs[k]]
    if differ:
        raise ConfigError(f"{name}: saved with a different train config ({', '.join(differ)})")
    if state.epoch > tcfg.epochs:
        raise ConfigError(f"{name}: saved at epoch {state.epoch}, past train.epochs {tcfg.epochs}")
    return state


def cmd_train(cfg: dict) -> int:
    out = _out_dir(cfg)
    _write_json(out / "config.json", cfg)
    manifest = _resolve_train_input(cfg, out)
    tcfg = make_train_config(cfg)
    if tcfg.loss.negative_variant != "none" and not manifest.negative_pools():
        raise ConfigError("no kept hard negatives in the training manifest; "
                          "run the gen and calibrate commands first")
    state = _resume_state(cfg["train"]["resume"], manifest, tcfg)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    state, metrics = train_loop(
        manifest, tcfg, state=state, log_path=out / "metrics.jsonl", checkpoint_dir=str(ckpt_dir))
    final = metrics[-1] if metrics else {}
    print(f"trained {state.epoch} epoch(s), {state.step} step(s)")
    if final:
        print(f"final loss {final['total']:.6f} "
              f"(t2v {final['t2v']:.4f} chn {final['chn']:.4f} "
              f"verb {final['verb_phrase']:.4f})")
    print(f"checkpoint: {ckpt_dir / 'checkpoint_final.bin'}")
    return 0


def cmd_eval(cfg: dict) -> int:
    out = _out_dir(cfg)
    _write_json(out / "config.json", cfg)
    ev = cfg["eval"]
    ckpt = ev["checkpoint"] or out / "checkpoints" / "checkpoint_final.bin"
    if not Path(ckpt).exists():
        raise ConfigError(f"checkpoint not found: {ckpt}; run the train command first")
    state, _tcfg = load_train_checkpoint(ckpt)
    enc = state.encoders
    report: dict = {}
    if ev["mc_items"]:
        items = load_mc_items(ev["mc_items"])
        report["multiple_choice"] = eval_multiple_choice(enc, items).to_dict()
    if ev["retrieval_pairs"]:
        pairs = load_retrieval_pairs(ev["retrieval_pairs"])
        report["retrieval"] = eval_retrieval(enc, pairs, ks=ev["ks"])
    if ev["classification"]:
        task = load_classification_task(ev["classification"])
        zs = eval_zero_shot(enc, task)
        report["zero_shot"] = zs.to_dict()
        write_confusion_csv(out / "confusion.csv", zs, task.labels)
        split = task.verb_split
        if ev["verb_split"] and split is None:
            split = build_verb_split(task.labels)
        if split:
            report["verb_split"] = eval_zero_shot(enc, task, class_subset=split).to_dict()
        if ev["subset_m"]:
            report["subset_resample"] = subset_resample_protocol(
                enc, task, m=ev["subset_m"], repeats=ev["subset_repeats"],
                seed=cfg["seed"])
    if ev["pair_ap"]:
        report["pair_ap"] = eval_pair_ap(enc, load_scored_pairs(ev["pair_ap"]))
    if not report:
        raise ConfigError("no eval tasks configured: set eval.mc_items, "
                          "eval.retrieval_pairs, eval.classification, or eval.pair_ap")
    _write_json(out / "eval_report.json", report)
    for task_name, metrics in report.items():
        if isinstance(metrics, dict):
            keys = [k for k in ("accuracy", "top1", "top5", "average") if k in metrics]
            shown = {k: metrics[k] for k in keys} if keys else ""
            print(f"{task_name}: {shown if shown else 'written'}")
        else:
            print(f"{task_name}: {metrics}")
    print(f"wrote {out / 'eval_report.json'}")
    return 0


def cmd_report(cfg: dict) -> int:
    out = _out_dir(cfg)
    summary: dict = {}
    for name in ("gen_report", "calibration_report", "eval_report"):
        path = out / f"{name}.json"
        if path.exists():
            summary[name] = json.loads(path.read_text(encoding="utf-8"))
    metrics_path = out / "metrics.jsonl"
    if metrics_path.exists():
        rows = read_jsonl(metrics_path, lambda row: row, ValueError)
        if rows:
            summary["train"] = {"epochs": len(rows), "first": rows[0], "last": rows[-1]}
    for exp_dir in sorted(out.glob("experiment_*")):
        result = exp_dir / "result.json"
        if result.exists():
            summary[exp_dir.name] = json.loads(result.read_text(encoding="utf-8"))
    if not summary:
        raise ConfigError(f"nothing to report in {out}; run other commands first")
    _write_json(out / "summary.json", summary)
    print(f"sections: {', '.join(sorted(summary))}")
    print(f"wrote {out / 'summary.json'}")
    return 0


def _show_ratio_law(result) -> None:
    worst = max(result.max_rel_err.values())
    print(f"ratio law: max relative deviation {worst:.3e} over "
          f"{len(result.per_variant['baseline'])} concepts, "
          f"{result.epochs} epochs, B={result.batch_size}")
    for variant, err in sorted(result.max_rel_err.items()):
        print(f"  {variant}: max rel err {err:.3e}")


def _show_attraction_point(result) -> None:
    print(f"attraction point: magnet {result.magnet_label!r}")
    print(f"  uncalibrated magnet share ratio "
          f"{result.magnet_share_ratio_uncalibrated:.2f}x prevalence")
    print(f"  calibrated max share ratio "
          f"{result.max_share_ratio_calibrated:.2f}x prevalence")
    print(f"  group macro accuracy: uncalibrated "
          f"{result.group_macro_uncalibrated:.3f} vs calibrated "
          f"{result.group_macro_calibrated:.3f}")


def _show_shortcut(result) -> None:
    print(f"shortcut: verb-hard MC baseline {result.baseline_verb_mc:.3f} "
          f"vs VFC {result.vfc_verb_mc:.3f}")
    print(f"  context MC baseline {result.baseline_noun_mc:.3f} "
          f"vs VFC {result.vfc_noun_mc:.3f}")


# name -> (runner, checkpoint subdirectories, printer)
_EXPERIMENTS = {
    "ratio_law": (run_ratio_law, (), _show_ratio_law),
    "attraction_point": (run_attraction_point, ("uncalibrated", "calibrated"),
                         _show_attraction_point),
    "shortcut": (run_shortcut, ("baseline", "vfc"), _show_shortcut),
}


def cmd_experiment(cfg: dict) -> int:
    name = cfg["experiment"]["name"]
    run, subdirs, show = _EXPERIMENTS[name]
    out = _out_dir(cfg)
    _write_json(out / "config.json", cfg)
    exp_dir = out / f"experiment_{name}"
    exp_dir.mkdir(exist_ok=True)
    kwargs = {"seed": cfg["seed"]}
    for key in ("epochs", "batch_size"):
        if cfg["experiment"][key] is not None:
            kwargs[key] = cfg["experiment"][key]
    if subdirs:
        for d in subdirs:
            (exp_dir / d).mkdir(exist_ok=True)
        kwargs["checkpoint_dirs"] = tuple(str(exp_dir / d) for d in subdirs)
    result = run(**kwargs)
    show(result)
    _write_json(exp_dir / "result.json", asdict(result))
    print(f"wrote {exp_dir / 'result.json'}")
    return 0


# name -> (handler, help)
_COMMANDS = {
    "gen": (cmd_gen, "generate captions and phrases"),
    "calibrate": (cmd_calibrate, "filter generated negatives"),
    "train": (cmd_train, "train the dual encoders"),
    "eval": (cmd_eval, "evaluate a checkpoint"),
    "report": (cmd_report, "merge run artifacts"),
    "experiment": (cmd_experiment, "run a packaged seeded experiment"),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    parser = argparse.ArgumentParser(
        prog="verbfocus",
        description="verb-focused contrastive training pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name, parents=[common], help=help)
            for name, (_, help) in _COMMANDS.items()}
    for command, flag, _, options in _FLAGS:
        for name in [command] if command else subs:
            subs[name].add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](apply_flags(load_config(args.config), args))
    except ValueError as exc:  # ConfigError, CorpusError, EvalError, bad transcripts
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TextGenError, TrainerError, ClientError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
