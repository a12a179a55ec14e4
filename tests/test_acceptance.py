"""Release gate for the whole package.

Each test here pins one property the package must keep: analytic gradients
against finite differences, loss and metric values against brute-force
oracles, the uniform-normalization identity, the closed-form usage ratios,
calibration post-conditions, the two seeded corpus studies, bit-exact text
postprocessing, the noun-group verb split, and bit-reproducible runs.
Tolerances are deliberately written out as literals so a change to any of
them shows up in review. Wall-clock budgets are asserted where a property
is only worth having if it stays cheap to check.
"""

import json
import time
from importlib import resources as importlib_resources

import numpy as np

from conftest import (fd_check, naive_chn, naive_combined, naive_hn,
                      naive_t2v, naive_v2t, naive_verb, random_batch,
                      random_manifest, rel_err)
# Brute-force metric oracles and the frozen postprocess transcript live next
# to the per-module suites; the gate reruns them rather than fork a copy.
from test_eval import (ap_encoders, bf_ap, bf_multiple_choice, bf_recall,
                       bf_zero_shot, mc_fixture, token_encoders, zs_fixture)
from test_textgen import (POSTPROCESS_EXPECTED, POSTPROCESS_PARENT,
                          POSTPROCESS_RAW)
from verbfocus.calibration import calibrate_filter, count_concepts
from verbfocus.cli import main
from verbfocus.corpus import (CaptionRecord, DatasetManifest, VideoRecord,
                              save_manifest)
from verbfocus.evaluation import (build_verb_split, eval_multiple_choice,
                                  eval_pair_ap, eval_retrieval,
                                  eval_zero_shot, verb_split_groups)
from verbfocus.experiments import (run_attraction_point, run_ratio_law,
                                   run_shortcut)
from verbfocus.lexicon import LexiconResources
from verbfocus.losses import (BatchTensors, LossConfig, combined_vfc,
                              info_nce_t2v, info_nce_v2t, loss_chn,
                              loss_hn_uncalibrated, loss_verb_phrase)
from verbfocus.textgen import postprocess

GRAD_TOL = 1e-5
ORACLE_TOL = 1e-12
UNIFORM_TOL = 1e-9

# One config per objective the trainer can run. Lambda weights isolate the
# single-term entries so a wrong gradient cannot hide behind the other terms.
GRADIENT_CONFIGS = [
    ("t2v", LossConfig(sigma=0.2, lambda2=0.0, lambda3=0.0,
                       negative_variant="none")),
    ("v2t", LossConfig(sigma=0.2, lambda1=0.0, lambda3=0.0,
                       negative_variant="none")),
    ("hn_uncalibrated", LossConfig(sigma=0.2, lambda1=0.0, lambda3=0.0,
                                   negative_variant="hn_uncalibrated")),
    ("calibrated_hn", LossConfig(sigma=0.2, lambda1=0.0, lambda3=0.0,
                                 negative_variant="calibrated_hn")),
    ("verb_phrase", LossConfig(sigma=0.2, lambda1=0.0, lambda2=0.0)),
    ("hardneg_nce", LossConfig(sigma=0.2, nce_mode="hardneg_nce",
                               alpha=1.0, beta=0.2)),
    ("combined", LossConfig(sigma=0.2, verb_phrase_direction="both")),
]


def _grad_batch(rng, B, d):
    mask = np.ones(B, dtype=bool)
    mask[0] = B <= 2  # keep one verb slot masked once the batch allows it
    return random_batch(rng, B, d, hard_counts=[(i % 3) for i in range(B)],
                        with_verb=True, mask=mask)


def test_every_gradient_matches_central_finite_differences(rng):
    """All objectives, B in {2,4,8}, dim in {3,8}: rel err <= 1e-5, < 10 s."""
    start = time.perf_counter()
    for name, cfg in GRADIENT_CONFIGS:
        for B in (2, 4, 8):
            for d in (3, 8):
                worst = fd_check(_grad_batch(rng, B, d), cfg)
                assert worst <= GRAD_TOL, (name, B, d, worst)
    assert time.perf_counter() - start < 10.0


def test_loss_values_match_extended_precision_oracles(rng):
    for B in (2, 3, 5, 8):
        batch = _grad_batch(rng, B, 7)
        cfg = LossConfig(sigma=0.2)
        assert rel_err(info_nce_t2v(batch, cfg).total, naive_t2v(batch, cfg)) <= ORACLE_TOL
        assert rel_err(info_nce_v2t(batch, cfg).total, naive_v2t(batch, cfg)) <= ORACLE_TOL
        assert rel_err(loss_hn_uncalibrated(batch, cfg).total, naive_hn(batch, cfg)) <= ORACLE_TOL
        assert rel_err(loss_chn(batch, cfg).total, naive_chn(batch, cfg)) <= ORACLE_TOL
        assert rel_err(loss_verb_phrase(batch, cfg).total, naive_verb(batch, cfg)) <= ORACLE_TOL
        weighted = LossConfig(sigma=0.2, nce_mode="hardneg_nce", alpha=1.0, beta=0.1)
        assert rel_err(loss_chn(batch, weighted).total, naive_chn(batch, weighted)) <= ORACLE_TOL
        for variant in ("none", "hn_uncalibrated", "calibrated_hn"):
            vcfg = LossConfig(sigma=0.2, negative_variant=variant)
            assert rel_err(combined_vfc(batch, vcfg).total,
                           naive_combined(batch, vcfg)) <= ORACLE_TOL


def test_eval_metrics_match_quadratic_brute_force():
    """Accuracy, recall, top-k, confusion, and AP on <= 50-item instances."""
    enc, items = mc_fixture()
    report = eval_multiple_choice(enc, items)
    acc, picked = bf_multiple_choice(enc, items)
    assert abs(report.accuracy - acc) <= ORACLE_TOL
    assert {k: v for k, v in report.picked_kinds.items() if v} == dict(picked)

    rng = np.random.default_rng(17)
    n = 30
    tokens = [f"w{i}" for i in range(n)]
    renc = token_encoders(n, tokens,
                          video_table=rng.normal(size=(n, 6)),
                          token_table=rng.normal(size=(n + 1, 6)))
    pairs = [(f"v{i}", tokens[i]) for i in range(n)]
    out = eval_retrieval(renc, pairs, ks=(1, 5, 10))
    videos = renc.encode_videos([p[0] for p in pairs])
    texts = renc.encode_texts([p[1] for p in pairs])
    for k in (1, 5, 10):
        assert abs(out["t2v"][f"R@{k}"] - bf_recall(texts @ videos.T, k)) <= ORACLE_TOL
        assert abs(out["v2t"][f"R@{k}"] - bf_recall(videos @ texts.T, k)) <= ORACLE_TOL

    zenc, task = zs_fixture()
    zreport = eval_zero_shot(zenc, task)
    conf, top1, top5 = bf_zero_shot(zenc, task, list(range(len(task.labels))))
    np.testing.assert_array_equal(zreport.confusion, conf)
    assert abs(zreport.top1 - top1) <= ORACLE_TOL
    assert abs(zreport.top5 - top5) <= ORACLE_TOL
    assert abs(zreport.average - (top1 + top5) / 2) <= ORACLE_TOL

    raw = np.random.default_rng(23).uniform(-0.95, 0.95, size=40)
    aenc = ap_encoders(raw)
    labs = [int(x > 0) for x in raw]
    labs[0] = 1
    appairs = [("v0", f"p{i}", "pos" if labs[i] else "neg") for i in range(40)]
    scores = [float(aenc.encode_video("v0") @ aenc.encode_text(f"p{i}"))
              for i in range(40)]
    assert abs(eval_pair_ap(aenc, appairs) - bf_ap(scores, labs)) <= ORACLE_TOL


def test_uniform_batches_normalize_every_term_to_one():
    """All-equal embeddings score exactly 1.0 per normalized term."""
    for B in (2, 5):
        u = np.tile([0.6, 0.8, 0.0], (B, 1))
        batch = BatchTensors(video=u, caption=u.copy(),
                             hard=[u[: i % 3].copy() for i in range(B)],
                             verb=u.copy())
        for variant in ("none", "hn_uncalibrated", "calibrated_hn"):
            for mode in ("standard", "hardneg_nce"):
                for direction in ("v2t_only", "both"):
                    cfg = LossConfig(sigma=0.3, negative_variant=variant,
                                     nce_mode=mode, beta=0.2,
                                     verb_phrase_direction=direction)
                    out = combined_vfc(batch, cfg)
                    for term, value in out.terms.items():
                        assert abs(value - 1.0) <= UNIFORM_TOL, (term, variant, mode)
                    expect = cfg.lambda1 + cfg.lambda2 + cfg.lambda3
                    assert abs(out.total - expect) <= UNIFORM_TOL * expect


def test_usage_ratios_match_their_closed_forms():
    """Instrumented training reproduces (B-1), ((B-1)S+BG)/S, ((B-1)S+G)/S.

    50 concepts with S=20 each, 200 epochs, B=8; every per-concept empirical
    ratio must land within 5% relative of the formula. Runs in well under
    the two-minute budget."""
    start = time.perf_counter()
    result = run_ratio_law(seed=0, epochs=200, batch_size=8)
    elapsed = time.perf_counter() - start
    B = result.batch_size
    assert result.epochs >= 200
    assert len(result.per_variant["baseline"]) >= 50
    forms = {
        "baseline": lambda s, g: B - 1.0,
        "hn": lambda s, g: ((B - 1) * s + B * g) / s,
        "calibrated_hn": lambda s, g: ((B - 1) * s + g) / s,
    }
    for variant, form in forms.items():
        rows = result.per_variant[variant]
        for concept, row in rows.items():
            assert row["s"] >= 20, concept
            expect = form(row["s"], row["g"])
            assert abs(row["empirical"] - expect) / expect <= 0.05, (variant, concept)
    assert elapsed < 120.0


def test_calibration_postconditions_hold_on_randomized_manifests():
    """Kept G <= S everywhere, G = 0 when S = 0, and a second pass is a no-op,
    across 100 randomized manifests."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        manifest = random_manifest(rng)
        out, _report = calibrate_filter(manifest)
        stats = count_concepts(out, kept_only=True)
        for concept, st in stats.items():
            assert st.g_count <= st.s_count, concept
            if st.s_count == 0:
                assert st.g_count == 0, concept
        again, second = calibrate_filter(out)
        assert second.discarded == 0
        assert [g.kept for g in again.generations] == [g.kept for g in out.generations]


def test_uncalibrated_negatives_create_an_attraction_point():
    """The starved concept soaks up predictions without calibration.

    Uncalibrated: some concept's prediction share reaches at least twice its
    prevalence. Calibrated: every share stays under 1.3x prevalence and the
    macro accuracy over the affected group strictly improves."""
    start = time.perf_counter()
    result = run_attraction_point(seed=0)
    elapsed = time.perf_counter() - start
    assert result.magnet_share_ratio_uncalibrated >= 2.0
    assert result.max_share_ratio_calibrated <= 1.3
    assert result.group_macro_calibrated > result.group_macro_uncalibrated
    assert elapsed < 120.0


def test_verb_focus_beats_the_context_shortcut():
    """Baseline stays near the 20% chance floor on verb-hard multiple choice;
    the full objective gains at least 20 points without giving up more than
    2 points of context-only accuracy."""
    start = time.perf_counter()
    result = run_shortcut(seed=0)
    elapsed = time.perf_counter() - start
    assert abs(result.baseline_verb_mc - 0.2) <= 0.10
    assert result.vfc_verb_mc - result.baseline_verb_mc >= 0.20
    assert result.baseline_noun_mc - result.vfc_noun_mc <= 0.02
    assert elapsed < 300.0


def test_postprocess_output_is_bit_exact():
    """The frozen completion transcript keeps producing the frozen caption
    list: newline truncation, dedup, and same-verb filtering included."""
    out = postprocess(POSTPROCESS_RAW, POSTPROCESS_PARENT)
    assert [g.text for g in out] == POSTPROCESS_EXPECTED


HAIR_GROUP = ["braiding hair", "brushing hair", "curling hair", "dying hair",
              "fixing hair", "getting a hair cut", "washing hair"]
NAILS_GROUP = ["cutting nails", "doing nails"]
BASKETBALL_GROUP = ["dribbling basketball", "dunking basketball",
                    "playing basketball", "shooting basketball"]


def test_verb_split_recovers_the_packaged_noun_groups():
    path = importlib_resources.files("verbfocus").joinpath(
        "data", "verb_noun_classes.txt")
    labels = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()
              if ln.strip() and not ln.startswith("#")]
    assert len(labels) == 97
    groups = verb_split_groups(labels, LexiconResources.default().recognizer)
    by_key = {key: sorted(labels[i] for i in idxs) for key, idxs in groups.items()}
    assert by_key[("hair",)] == HAIR_GROUP
    assert by_key[("nails",)] == NAILS_GROUP
    assert by_key[("basketball",)] == BASKETBALL_GROUP
    kept = set(build_verb_split(labels))
    for label in HAIR_GROUP + NAILS_GROUP + BASKETBALL_GROUP:
        assert labels.index(label) in kept, label


def test_experiment_command_reruns_bit_identically(tmp_path, capsys):
    """Same seed, two output dirs: every checkpoint and report byte-equal."""
    def run(out):
        assert main(["experiment", "attraction_point",
                     "--out", str(out), "--seed", "7"]) == 0
        exp = out / "experiment_attraction_point"
        return {str(p.relative_to(exp)): p.read_bytes()
                for p in sorted(exp.rglob("*")) if p.is_file()}

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    capsys.readouterr()
    assert set(first) == set(second)
    assert {"result.json", "uncalibrated/checkpoint_final.bin",
            "calibrated/checkpoint_final.bin"} <= set(first)
    for name in first:
        assert first[name] == second[name], name


def test_warm_cache_generation_makes_zero_network_calls(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.jsonl"
    save_manifest(DatasetManifest(
        [VideoRecord("v0", "train"), VideoRecord("v1", "train")],
        [CaptionRecord("v0", "a person eating in the park"),
         CaptionRecord("v1", "a person running in the park")],
        []), manifest_path)
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

    def run(out):
        cfg = {"manifest": str(manifest_path), "out": str(out),
               "gen": {"backend": "llm_completion",
                       "transcript": str(transcript),
                       "cache_dir": str(tmp_path / "cache")}}
        cfg_path = tmp_path / f"cfg_{out.name}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["gen", "--config", str(cfg_path)]) == 0
        return json.loads((out / "gen_report.json").read_text())

    cold = run(tmp_path / "cold")
    warm = run(tmp_path / "warm")
    capsys.readouterr()
    assert cold["generated"] == warm["generated"] == {"hard_negative": 3}
    assert cold["cache"] == {"hits": 0, "misses": 2}
    assert warm["cache"] == {"hits": 2, "misses": 0}
    assert warm["network_calls"] == 0
    assert (tmp_path / "cold" / "manifest_generated.jsonl").read_bytes() == \
        (tmp_path / "warm" / "manifest_generated.jsonl").read_bytes()
