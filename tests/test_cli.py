"""End-to-end command flow: gen, calibrate, train, eval, report."""

import argparse
import hashlib
import json

import pytest

from verbfocus.cli import (_FLAGS, ConfigError, DEFAULTS, build_parser, load_config, main,
                           make_train_config)
from verbfocus.corpus import (GENERATION_BACKENDS, CaptionRecord, DatasetManifest,
                              GeneratedCaption, VerbPhrase, VideoRecord, save_manifest)
from verbfocus.losses import NCE_MODES, NEGATIVE_VARIANTS
from verbfocus.evaluation import MultipleChoiceItem, save_mc_items
from verbfocus.trainer import desk_config


def write_corpus(path):
    texts = [
        ("v0", "a person eating in the park", "eating"),
        ("v1", "a person running in the park", "running"),
        ("v2", "a person walking near the lake", "walking"),
        ("v3", "a person swimming near the lake", "swimming"),
        ("v4", "a person sleeping at home", "sleeping"),
        ("v5", "a person cooking at home", "cooking"),
    ]
    videos = [VideoRecord(vid, "train") for vid, _, _ in texts]
    videos.append(VideoRecord("v6", "val"))
    captions = [CaptionRecord(vid, text, (VerbPhrase(verb),)) for vid, text, verb in texts]
    captions.append(CaptionRecord("v6", "a person reading at home", (VerbPhrase("reading"),)))
    manifest = DatasetManifest(videos, captions, [])
    save_manifest(manifest, path)
    return manifest


def write_corpus_with_negatives(path):
    """write_corpus plus one kept verb-swapped hard negative per train caption."""
    manifest = write_corpus(path)
    train = [c for c in manifest.captions if c.video_id != "v6"]
    for cap, other in zip(train, train[1:] + train[:1]):
        verb, swap = cap.verb_phrases[0].surface, other.verb_phrases[0].surface
        manifest.generations.append(GeneratedCaption(
            cap.video_id, cap.text, cap.text.replace(verb, swap), "hard_negative",
            "random_verb", (VerbPhrase(swap),)))
    save_manifest(manifest, path)
    return manifest


def write_config(path, manifest_path, out_dir, **sections):
    cfg = {
        "manifest": str(manifest_path),
        "out": str(out_dir),
        "loss": {"sigma": 0.05},
        "train": {"batch_size": 4, "epochs": 3, "learning_rate": 0.05},
        "encoder": {"dim": 8},
    }
    for key, value in sections.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_load_config_defaults_and_merge(tmp_path):
    assert load_config(None) == DEFAULTS
    p = tmp_path / "c.json"
    p.write_text('{"seed": 5, "train": {"epochs": 7}}')
    cfg = load_config(str(p))
    assert cfg["seed"] == 5
    assert cfg["train"]["epochs"] == 7
    assert cfg["train"]["batch_size"] == DEFAULTS["train"]["batch_size"]


def test_default_config_is_pinned():
    """The defaults as they were written out by hand, before they were read
    off the dataclasses."""
    blob = json.dumps(load_config(None), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "bea43650d6c045d2606ca8d7027d10d111b937599a1ab8d12dd3b808d2fdd0a5"


@pytest.mark.parametrize("section", [k for k, v in DEFAULTS.items() if isinstance(v, dict)])
def test_config_section_that_is_not_an_object_names_the_file(tmp_path, capsys, section):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({section: 5}))
    with pytest.raises(ConfigError, match=f"c.json: config key {section} must be an object$"):
        load_config(str(p))
    assert main(["train", "--config", str(p)]) == 1
    assert capsys.readouterr().err == f"error: {p}: config key {section} must be an object\n"


def test_default_config_is_the_desk_preset():
    assert make_train_config(load_config(None)) == desk_config()


def test_parser_choices_are_the_package_constants():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        choices = {a.dest: a.choices for a in parser._actions if a.choices is not None}
        assert choices["backend"] == GENERATION_BACKENDS, command
        assert choices["loss_variant"] == NEGATIVE_VARIANTS, command
        assert choices["nce_mode"] == NCE_MODES, command


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(str(p))
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(p))
    p.write_text('{"trai": {}}')
    with pytest.raises(ConfigError, match="unknown config key: trai"):
        load_config(str(p))
    p.write_text('{"train": {"learning_rat": 0.1}}')
    with pytest.raises(ConfigError, match="train.learning_rat"):
        load_config(str(p))


def test_pipeline_gen_calibrate_train_eval_report(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus(manifest_path)
    out = tmp_path / "run"
    cfg_path = write_config(
        tmp_path / "cfg.json", manifest_path, out,
        gen={"backend": "random_verb", "candidates_per_caption": 3,
             "lexicon": "manifest"},
        eval={"mc_items": str(tmp_path / "mc.jsonl"),
              "retrieval_pairs": str(tmp_path / "pairs.jsonl"),
              "classification": str(tmp_path / "task.jsonl"),
              "pair_ap": str(tmp_path / "scored.jsonl"),
              "verb_split": True,
              "subset_m": 3},
    )

    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert (out / "manifest_generated.jsonl").exists()
    gen_report = json.loads((out / "gen_report.json").read_text())
    assert gen_report["backend"] == "random_verb"
    assert gen_report["network_calls"] == 0
    assert gen_report["generated"]["hard_negative"] > 0
    assert (out / "config.json").exists()

    assert main(["calibrate", "--config", str(cfg_path)]) == 0
    cal_report = json.loads((out / "calibration_report.json").read_text())
    assert cal_report["kept"] > 0
    assert (out / "manifest_calibrated.jsonl").exists()

    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (out / "checkpoints" / "checkpoint_final.bin").exists()
    rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert [r["epoch"] for r in rows] == [0, 1, 2]

    # Eval task files reference the trained corpus.
    items = [
        MultipleChoiceItem("v0", (
            "a person eating in the park",
            "a person running in the park",
            "a person walking near the lake",
            "a person swimming near the lake",
            "a person sleeping at home",
        ), 0, ("positive", "hard_verb_negative", "random_negative",
               "random_negative", "random_negative")),
    ]
    save_mc_items(tmp_path / "mc.jsonl", items)
    with open(tmp_path / "pairs.jsonl", "w") as fh:
        for vid, text in [("v0", "a person eating in the park"),
                          ("v1", "a person running in the park"),
                          ("v2", "a person walking near the lake")]:
            fh.write(json.dumps({"record": "pair", "video_id": vid, "text": text}) + "\n")
    with open(tmp_path / "task.jsonl", "w") as fh:
        labels = ["person eating", "person running", "person walking",
                  "person swimming", "person sleeping", "person cooking"]
        fh.write(json.dumps({"record": "class_labels", "labels": labels}) + "\n")
        for i in range(6):
            fh.write(json.dumps({"record": "class_item", "video_id": f"v{i}",
                                 "class_index": i}) + "\n")
    with open(tmp_path / "scored.jsonl", "w") as fh:
        fh.write(json.dumps({"record": "scored_pair", "video_id": "v0",
                             "text": "a person eating in the park", "label": "pos"}) + "\n")
        fh.write(json.dumps({"record": "scored_pair", "video_id": "v0",
                             "text": "a person running in the park", "label": "neg"}) + "\n")

    assert main(["eval", "--config", str(cfg_path)]) == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert set(report) == {"multiple_choice", "retrieval", "zero_shot",
                           "verb_split", "subset_resample", "pair_ap"}
    # All six labels share the context token "person", so the verb split
    # covers every class.
    assert report["verb_split"]["class_indices"] == [0, 1, 2, 3, 4, 5]
    assert (out / "confusion.csv").exists()

    assert main(["report", "--config", str(cfg_path)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert {"gen_report", "calibration_report", "eval_report", "train"} <= set(summary)
    capsys.readouterr()


def test_report_summarizes_the_first_and_the_last_metrics_row(tmp_path, capsys):
    rows = [{"epoch": e, "total": 3.0 - e} for e in range(3)]
    (tmp_path / "metrics.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["report", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary == {"train": {"epochs": 3, "first": rows[0], "last": rows[-1]}}
    capsys.readouterr()


def test_missing_artifact_errors(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus(manifest_path)
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, out,
                            gen={"backend": "random_verb"})

    assert main(["calibrate", "--config", str(cfg_path)]) == 1
    assert "run the gen command first" in capsys.readouterr().err

    assert main(["eval", "--config", str(cfg_path)]) == 1
    assert "run the train command first" in capsys.readouterr().err

    assert main(["gen", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    # calibrated_hn training demands the calibrate step in between.
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "run the calibrate command first" in capsys.readouterr().err

    assert main(["report", "--out", str(tmp_path / "empty")]) == 1
    assert "run other commands first" in capsys.readouterr().err


def test_gen_without_manifest_fails(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "o"),
                               "gen": {"backend": "random_verb"}}))
    assert main(["gen", "--config", str(cfg)]) == 1
    assert "no input corpus" in capsys.readouterr().err


def test_train_baseline_variant_needs_no_generation(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus(manifest_path)
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, out)
    assert main(["train", "--config", str(cfg_path), "--loss-variant", "none"]) == 0
    assert (out / "checkpoints" / "checkpoint_final.bin").exists()
    capsys.readouterr()


def test_train_negative_variants_need_kept_hard_negatives(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus(manifest_path)
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, tmp_path / "run",
                            train={"input": str(manifest_path)})
    for variant in ("hn_uncalibrated", "calibrated_hn"):
        assert main(["train", "--config", str(cfg_path), "--loss-variant", variant]) == 1
        assert "no kept hard negatives" in capsys.readouterr().err


def test_flag_overrides_reach_the_artifacts(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus(manifest_path)
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, out)
    assert main(["train", "--config", str(cfg_path), "--loss-variant", "none",
                 "--epochs", "2", "--seed", "11"]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["train"]["epochs"] == 2
    assert echoed["seed"] == 11
    assert echoed["loss"]["negative_variant"] == "none"
    rows = (out / "metrics.jsonl").read_text().splitlines()
    assert len(rows) == 2
    capsys.readouterr()


def test_gen_transcript_cache_round(tmp_path, capsys):
    """Second generation run against a warm cache never touches the client."""
    manifest_path = tmp_path / "manifest.jsonl"
    manifest = DatasetManifest(
        [VideoRecord("v0", "train"), VideoRecord("v1", "train")],
        [CaptionRecord("v0", "a person eating in the park"),
         CaptionRecord("v1", "a person running in the park")],
        [])
    save_manifest(manifest, manifest_path)
    transcript = tmp_path / "transcript.jsonl"
    with open(transcript, "w") as fh:
        fh.write(json.dumps({
            "input": "a person eating in the park",
            "candidates": ["1. a person cooking in the park\n2. a person walking in the park"],
        }) + "\n")
        fh.write(json.dumps({
            "input": "a person running in the park",
            "candidates": ["1. a person swimming in the park"],
        }) + "\n")
    cache_dir = tmp_path / "cache"

    def cfg_for(out):
        return write_config(
            tmp_path / f"cfg_{out.name}.json", manifest_path, out,
            gen={"backend": "llm_completion", "transcript": str(transcript),
                 "cache_dir": str(cache_dir), "candidates_per_caption": 3},
        )

    out_a = tmp_path / "run_a"
    assert main(["gen", "--config", str(cfg_for(out_a))]) == 0
    report_a = json.loads((out_a / "gen_report.json").read_text())
    assert report_a["cache"] == {"hits": 0, "misses": 2}
    assert report_a["network_calls"] == 0

    out_b = tmp_path / "run_b"
    assert main(["gen", "--config", str(cfg_for(out_b))]) == 0
    report_b = json.loads((out_b / "gen_report.json").read_text())
    assert report_b["cache"] == {"hits": 2, "misses": 0}
    assert report_b["network_calls"] == 0
    assert report_a["generated"] == report_b["generated"] == {"hard_negative": 3}
    assert (out_a / "manifest_generated.jsonl").read_bytes() == \
        (out_b / "manifest_generated.jsonl").read_bytes()
    capsys.readouterr()


def test_gen_t5_cloze_stub_and_slot_mismatch(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.jsonl"
    manifest = DatasetManifest(
        [VideoRecord("v0", "train")],
        [CaptionRecord("v0", "a person eating and drinking at home")],
        [])
    save_manifest(manifest, manifest_path)
    masked = "a person [MASK] and [MASK] at home"

    good = tmp_path / "fills.jsonl"
    good.write_text(json.dumps({
        "text_with_masks": masked,
        "fills": [["cooking", "walking"], ["reading", "sleeping"]],
    }) + "\n")
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, out,
                            gen={"backend": "t5_cloze", "fill_transcript": str(good)})
    assert main(["gen", "--config", str(cfg_path)]) == 0
    report = json.loads((out / "gen_report.json").read_text())
    assert report["generated"]["hard_negative"] == 2

    bad = tmp_path / "bad_fills.jsonl"
    bad.write_text(json.dumps({"text_with_masks": masked, "fills": [["cooking"]]}) + "\n")
    cfg_bad = write_config(tmp_path / "cfg_bad.json", manifest_path, tmp_path / "run_bad",
                           gen={"backend": "t5_cloze", "fill_transcript": str(bad)})
    assert main(["gen", "--config", str(cfg_bad)]) == 2
    assert "runtime failure" in capsys.readouterr().err


def test_gen_llm_completion_needs_transcript_or_endpoint(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus(manifest_path)
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, tmp_path / "run")
    assert main(["gen", "--config", str(cfg_path)]) == 1
    assert "gen.transcript or gen.endpoint" in capsys.readouterr().err


@pytest.mark.parametrize("gen, message", [
    ({"backend": "random_verb", "kinds": ["hard_negatives"]}, "kinds must be a non-empty list"),
    ({"backend": "random_verb", "extractor": "nonsense"}, "unknown extraction backend 'nonsense'"),
    ({"backend": "random_verb", "candidates_per_caption": "3"},
     "candidates_per_caption must be an integer >= 1, got '3'"),
    ({"backend": "random_verb", "top_k_fill": 2.5}, "top_k_fill must be an integer >= 1, got 2.5"),
    ({"backend": "random_verb", "kinds": ["hard_negative", "positive_paraphrase"]},
     "completion requests need gen.transcript or gen.endpoint"),
    ({"backend": "t5_cloze", "extractor": "llm_completion"}, "t5_cloze takes the run's one client"),
    ({"backend": "t5_cloze", "kinds": ["positive_paraphrase"]},
     "t5_cloze takes the run's one client"),
], ids=["unknown_kind", "unknown_extractor", "count_not_a_number", "count_not_an_integer",
        "positives_without_client", "t5_cloze_with_llm_extraction", "t5_cloze_with_positives"])
def test_gen_config_that_cannot_run_exits_1(tmp_path, capsys, gen, message):
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus(manifest_path)
    fills = tmp_path / "fills.jsonl"
    fills.write_text(json.dumps({"text_with_masks": "a person [MASK] in the park",
                                 "fills": [["cooking"]]}) + "\n")
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, tmp_path / "run",
                            gen={"fill_transcript": str(fills), **gen})
    assert main(["gen", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "run" / "manifest_generated.jsonl").exists()


# (config key, its wrong-typed value, the command that reads it, the message)
WRONG_TYPES = [
    ("train.batch_size", 4.5, "train", "batch_size must be an integer >= 2, got 4.5"),
    ("train.epochs", 2.5, "train", "epochs must be an integer >= 0, got 2.5"),
    ("train.epochs", True, "train", "epochs must be an integer >= 0, got True"),
    ("train.n_hard_max", 1.5, "train", "n_hard_max must be an integer >= 0, got 1.5"),
    ("encoder.dim", 16.0, "train", "dim must be an integer >= 2, got 16.0"),
    ("train.learning_rate", "0.1", "train", "learning_rate must be a number, got '0.1'"),
    ("encoder.freeze_video", "false", "train",
     "freeze_video must be true or false, got 'false'"),
    ("loss.normalize_by_uniform", "no", "train",
     "normalize_by_uniform must be true or false, got 'no'"),
    ("gen.include_exemplars", "false", "gen",
     "include_exemplars must be true or false, got 'false'"),
]


@pytest.mark.parametrize("key, value, command, message", WRONG_TYPES,
                         ids=[f"{c[0]}={c[1]!r}" for c in WRONG_TYPES])
def test_a_config_value_of_the_wrong_type_exits_1_before_the_run(
        tmp_path, capsys, key, value, command, message):
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus(manifest_path)
    out = tmp_path / "run"
    section, leaf = key.split(".")
    sections = {"gen": {"backend": "random_verb"}}
    sections.setdefault(section, {})[leaf] = value
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, out, **sections)
    out.mkdir()
    (out / "metrics.jsonl").write_text("kept\n")
    assert main([command, "--config", str(cfg_path), "--loss-variant", "none"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert (out / "metrics.jsonl").read_text() == "kept\n"
    assert not (out / "manifest_generated.jsonl").exists()


def test_missing_transcript_file_is_a_runtime_failure(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus(manifest_path)
    cfg_path = write_config(
        tmp_path / "cfg.json", manifest_path, tmp_path / "run",
        gen={"transcript": str(tmp_path / "nope.jsonl")})
    assert main(["gen", "--config", str(cfg_path)]) == 2
    assert "runtime failure" in capsys.readouterr().err


def test_eval_on_a_malformed_task_file_names_its_line(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus(manifest_path)
    out = tmp_path / "run"
    bad = tmp_path / "mc_bad.jsonl"
    bad.write_text('{"record": "mc_item", "video_id": "v0", "answer_index": 0}\n')
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, out,
                            eval={"mc_items": str(bad)})
    assert main(["train", "--config", str(cfg_path), "--loss-variant", "none"]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error: mc_bad.jsonl:1: missing field")


def _trained_run(tmp_path, capsys):
    """A trained run over write_corpus, with a retrieval and a zero-shot task file."""
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus(manifest_path)
    out = tmp_path / "run"
    pairs, task = tmp_path / "pairs.jsonl", tmp_path / "task.jsonl"
    pairs.write_text("".join(json.dumps({"record": "pair", "video_id": f"v{i}",
                                         "text": f"person {verb}"}) + "\n"
                             for i, verb in enumerate(("eating", "running", "walking"))))
    task.write_text(json.dumps({"record": "class_labels", "labels": ["eating", "running"]})
                    + "\n" + "".join(json.dumps({"record": "class_item", "video_id": f"v{i}",
                                                 "class_index": i}) + "\n" for i in (0, 1)))
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, out,
                            eval={"retrieval_pairs": str(pairs)})
    assert main(["train", "--config", str(cfg_path), "--loss-variant", "none"]) == 0
    capsys.readouterr()
    return manifest_path, out, pairs, task


@pytest.mark.parametrize("name, corrupt", [
    ("trunc.bin", lambda line, payload: line + b"\n" + payload[:-8]),
    ("nocfg.bin", lambda line, payload: json.dumps(
        {k: v for k, v in json.loads(line).items() if k != "train_config"}).encode()
        + b"\n" + payload),
    ("notjson.bin", lambda line, payload: b"{not json\n" + payload),
], ids=["truncated_payload", "no_train_config", "header_not_json"])
def test_eval_on_a_malformed_checkpoint_exits_1(tmp_path, capsys, name, corrupt):
    manifest_path, out, pairs, _ = _trained_run(tmp_path, capsys)
    line, payload = (out / "checkpoints" / "checkpoint_final.bin").read_bytes().split(b"\n", 1)
    bad = tmp_path / name
    bad.write_bytes(corrupt(line, payload))
    cfg_path = write_config(tmp_path / "bad.json", manifest_path, out,
                            eval={"retrieval_pairs": str(pairs), "checkpoint": str(bad)})
    assert main(["eval", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name}: ")


@pytest.mark.parametrize("setting, message", [
    ({"subset_m": 1, "subset_repeats": 0}, "subset repeats must be a positive integer"),
    ({"subset_m": 1, "subset_repeats": -1}, "subset repeats must be a positive integer"),
    ({"ks": 5}, "ks must be a list of positive integers"),
], ids=["zero_repeats", "negative_repeats", "ks_not_a_list"])
def test_eval_rejects_settings_it_cannot_use(tmp_path, capsys, setting, message):
    manifest_path, out, pairs, task = _trained_run(tmp_path, capsys)
    cfg_path = write_config(tmp_path / "bad.json", manifest_path, out,
                            eval={"retrieval_pairs": str(pairs),
                                  "classification": str(task), **setting})
    assert main(["eval", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def _metrics_without_wall(path):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


def test_train_resume_matches_a_straight_run(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus(manifest_path)
    prep = tmp_path / "prep"
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, prep,
                            gen={"backend": "random_verb", "candidates_per_caption": 3,
                                 "lexicon": "manifest"},
                            train={"input": str(prep / "manifest_calibrated.jsonl")})
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["calibrate", "--config", str(cfg_path)]) == 0
    straight, stopped = tmp_path / "straight", tmp_path / "stopped"
    train = ["train", "--config", str(cfg_path)]
    assert main(train + ["--out", str(straight), "--epochs", "4"]) == 0
    assert main(train + ["--out", str(stopped), "--epochs", "2"]) == 0
    ckpt = stopped / "checkpoints" / "checkpoint_final.bin"
    assert main(train + ["--out", str(stopped), "--epochs", "4", "--resume", str(ckpt)]) == 0
    final = "checkpoints/checkpoint_final.bin"
    assert (stopped / final).read_bytes() == (straight / final).read_bytes()
    assert (_metrics_without_wall(stopped / "metrics.jsonl")
            == _metrics_without_wall(straight / "metrics.jsonl"))
    assert [r["epoch"] for r in _metrics_without_wall(stopped / "metrics.jsonl")] == [0, 1, 2, 3]
    capsys.readouterr()

    assert main(train + ["--out", str(stopped), "--seed", "3", "--resume", str(ckpt)]) == 1
    assert "checkpoint_final.bin: saved with a different train config" in capsys.readouterr().err


@pytest.mark.parametrize("epoch", ["x", -3], ids=["string", "negative"])
def test_train_resume_on_a_bad_epoch_exits_1_and_keeps_the_log(tmp_path, capsys, epoch):
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus(manifest_path)
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, out)
    train = ["train", "--config", str(cfg_path), "--loss-variant", "none"]
    assert main(train) == 0
    log = (out / "metrics.jsonl").read_bytes()
    line, payload = (out / "checkpoints" / "checkpoint_final.bin").read_bytes().split(b"\n", 1)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(json.dumps({**json.loads(line), "epoch": epoch}).encode() + b"\n" + payload)
    capsys.readouterr()
    assert main(train + ["--resume", str(bad)]) == 1
    assert capsys.readouterr().err == \
        "error: bad.bin: header field 'epoch' is not a non-negative integer\n"
    assert (out / "metrics.jsonl").read_bytes() == log


def test_train_resume_rejects_a_checkpoint_of_another_manifest(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.jsonl"
    manifest = write_corpus(manifest_path)
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, out)
    assert main(["train", "--config", str(cfg_path), "--loss-variant", "none"]) == 0
    ckpt = tmp_path / "other.bin"
    ckpt.write_bytes((out / "checkpoints" / "checkpoint_final.bin").read_bytes())

    more_videos = tmp_path / "more_videos.jsonl"
    save_manifest(DatasetManifest([*manifest.videos, VideoRecord("v7", "val")],
                                  manifest.captions, []), more_videos)
    other_words = tmp_path / "other_words.jsonl"
    save_manifest(DatasetManifest(manifest.videos, [
        *manifest.captions, CaptionRecord("v6", "a person singing", (VerbPhrase("singing"),))],
        []), other_words)
    for path, error in ((more_videos, "video ids do not match"),
                        (other_words, "vocabulary does not match")):
        capsys.readouterr()
        other_cfg = write_config(tmp_path / "other.json", path, out)
        assert main(["train", "--config", str(other_cfg), "--loss-variant", "none",
                     "--resume", str(ckpt)]) == 1
        assert f"other.bin: {error} the training manifest" in capsys.readouterr().err
    assert main(["train", "--config", str(cfg_path), "--loss-variant", "none",
                 "--resume", str(tmp_path / "missing.bin")]) == 1


def test_hn_uncalibrated_trains_on_the_configured_manifest(tmp_path, capsys):
    """With no artifact in --out, every variant trains on `manifest`."""
    manifest_path = tmp_path / "manifest.jsonl"
    assert write_corpus_with_negatives(manifest_path).negative_pools()
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, tmp_path / "unused")
    for variant in NEGATIVE_VARIANTS:
        out = tmp_path / f"run_{variant}"
        assert main(["train", "--config", str(cfg_path), "--out", str(out),
                     "--loss-variant", variant]) == 0, capsys.readouterr().err
        assert (out / "checkpoints" / "checkpoint_final.bin").exists()
    capsys.readouterr()


def test_experiment_runs_the_named_study_for_the_given_epochs(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["experiment", "attraction_point", "--epochs", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["experiment"] == {"name": "attraction_point", "epochs": 0, "batch_size": None}
    for run in ("uncalibrated", "calibrated"):
        ckpt = out / "experiment_attraction_point" / run / "checkpoint_final.bin"
        assert json.loads(ckpt.read_bytes().split(b"\n", 1)[0])["epoch"] == 0


# Per common flag: its arguments, with "{out}" standing for the run's output
# directory, and the value config.json must then hold under each of its keys.
FLAG_CASES = {
    "--out": (["{out}"], "{out}"),
    "--seed": (["3"], 3),
    "--backend": (["antonym_verb"], "antonym_verb"),
    "--loss-variant": (["none"], "none"),
    "--nce-mode": (["hardneg_nce"], "hardneg_nce"),
    "--n-hard": (["2"], 2),
    "--epochs": (["2"], 2),
    "--no-exemplars": ([], False),
    "--freeze-video": ([], True),
    "--freeze-text": ([], True),
}
COMMON_FLAGS = {flag: keys for command, flag, keys, _ in _FLAGS if command is None}


def test_every_common_flag_has_a_case():
    assert list(COMMON_FLAGS) == list(FLAG_CASES)


@pytest.mark.parametrize("flag", list(COMMON_FLAGS))
def test_common_flag_reaches_config_json_under_every_key(tmp_path, capsys, flag):
    manifest_path = tmp_path / "manifest.jsonl"
    write_corpus_with_negatives(manifest_path)
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "cfg.json", manifest_path, tmp_path / "from_file")
    from_file = load_config(str(cfg_path))
    args, expected = FLAG_CASES[flag]
    argv = [flag, *(a.format(out=out) for a in args)]
    if flag != "--out":
        argv += ["--out", str(out)]
    if isinstance(expected, str):
        expected = expected.format(out=out)
    assert main(["train", "--config", str(cfg_path), *argv]) == 0, capsys.readouterr().err
    capsys.readouterr()
    echoed = json.loads((out / "config.json").read_text())
    for key in COMMON_FLAGS[flag]:
        section, _, leaf = key.rpartition(".")
        assert (echoed[section] if section else echoed)[leaf] == expected, key
        assert (from_file[section] if section else from_file)[leaf] != expected, key
