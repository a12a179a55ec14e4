"""Packaged seeded experiments demonstrating the training phenomena.

Three scenarios, each on a synthetic corpus whose captions are context
tokens plus a verb phrase, so verb information is the only within-context
signal:

  ratio_law        instrumented sampling reproduces the closed-form
                   negative/positive usage ratios per variant
  attraction_point a concept starved of generated negatives dominates
                   zero-shot predictions unless calibration is applied
  shortcut         plain InfoNCE solves the contrastive task from context
                   alone and stays at chance on verb-hard multiple choice;
                   calibrated negatives plus the verb-phrase term fix it

Generated negatives here are constructed directly by swapping a caption's
phrase for a sibling phrase of the same context (tagged backend
"random_verb"); no language model is involved, so runs are fully
deterministic and offline. Results carry no timing fields: equal seeds
must produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import VARIANT_FROM_LOSS, calibrate_filter, compute_ratio, count_concepts
from .corpus import (DatasetManifest, GeneratedCaption, SynthSpec, VerbPhrase,
                     make_synthetic_corpus, synth_verb_phrase)
from .encoders import DualEncoders, EncoderConfig
from .evaluation import (ClassificationTask, MultipleChoiceItem,
                         eval_multiple_choice, eval_zero_shot)
from .losses import LossConfig
from .trainer import TrainConfig, TrainState, desk_config, simulate_usage, train_loop

EXPERIMENT_NAMES = ("ratio_law", "attraction_point", "shortcut")


def _caption_cells(manifest: DatasetManifest):
    """Map each phrase surface to its train captions, in manifest order."""
    cells: dict[str, list] = {}
    for cap in manifest.captions_for_split("train"):
        if not cap.verb_phrases:
            continue
        cells.setdefault(cap.verb_phrases[0].surface, []).append(cap)
    return cells


def _swap_negative(cap, phrase: str) -> GeneratedCaption:
    """Parent caption with its phrase replaced by a sibling phrase."""
    old = cap.verb_phrases[0].surface
    text = cap.text.replace(old, phrase)
    return GeneratedCaption(
        parent_video_id=cap.video_id,
        parent_caption=cap.text,
        text=text,
        kind="hard_negative",
        backend="random_verb",
        verb_phrases=(VerbPhrase(phrase),),
        kept=True,
    )


def _swap_manifest(seed: int, n_contexts: int, verbs: int, cell: int,
                   targets) -> DatasetManifest:
    """The synthetic corpus plus swapped negatives: each train caption of
    verb k gets one per entry of targets(k), that sibling verb of its own
    context swapped in.  Generations run context, verb, caption, target."""
    spec = SynthSpec(n_contexts=n_contexts, verbs_per_context=verbs,
                     captions_per_cell=cell, seed=seed)
    manifest = make_synthetic_corpus(spec)
    cells = _caption_cells(manifest)
    generations = tuple(_swap_negative(cap, synth_verb_phrase(c, k2))
                        for c in range(n_contexts) for k in range(verbs)
                        for cap in cells[synth_verb_phrase(c, k)] for k2 in targets(k))
    manifest = DatasetManifest(videos=manifest.videos, captions=manifest.captions,
                               generations=generations)
    manifest.validate()
    return manifest


# -- ratio law -----------------------------------------------------------

@dataclass
class RatioLawResult:
    batch_size: int
    epochs: int
    max_rel_err: dict[str, float]
    per_variant: dict[str, dict[str, dict]]


def build_ratio_law_manifest(seed: int = 0, n_contexts: int = 25,
                             captions_per_cell: int = 20) -> DatasetManifest:
    """Two verbs per context, varied G per concept, pools small enough that
    every kept negative is sampled each epoch (counts become exact)."""
    spec = SynthSpec(n_contexts=n_contexts, verbs_per_context=2,
                     captions_per_cell=captions_per_cell, seed=seed)
    manifest = make_synthetic_corpus(spec)
    cells = _caption_cells(manifest)
    g_cycle = (10, 20, 40)
    generations = []
    concept_idx = 0
    for c in range(n_contexts):
        for k in range(2):
            phrase = synth_verb_phrase(c, k)
            parents = cells[synth_verb_phrase(c, 1 - k)]
            g_target = g_cycle[concept_idx % len(g_cycle)]
            for j in range(g_target):
                generations.append(_swap_negative(parents[j % len(parents)], phrase))
            concept_idx += 1
    manifest = DatasetManifest(
        videos=manifest.videos,
        captions=manifest.captions,
        generations=tuple(generations),
    )
    manifest.validate()
    return manifest


def run_ratio_law(seed: int = 0, epochs: int = 200, batch_size: int = 8) -> RatioLawResult:
    manifest = build_ratio_law_manifest(seed=seed)
    n_captions = len(manifest.captions)
    if n_captions % batch_size:
        raise ValueError("batch size must divide the caption count for exact counts")
    stats = count_concepts(manifest, kept_only=True)
    per_variant: dict[str, dict[str, dict]] = {}
    max_err: dict[str, float] = {}
    for loss_variant, variant in VARIANT_FROM_LOSS.items():
        cfg = TrainConfig(batch_size=batch_size, seed=seed, n_hard_max=5,
                          loss=LossConfig(negative_variant=loss_variant))
        counter = simulate_usage(manifest, cfg, epochs=epochs, variant=variant)
        empirical = counter.ratios()
        rows = {}
        worst = 0.0
        for concept, st in sorted(stats.items()):
            if st.s_count <= 0:
                continue
            formula = compute_ratio(st, variant, batch_size)
            emp = empirical.get(concept, 0.0)
            rel = abs(emp - formula) / formula
            worst = max(worst, rel)
            rows[concept] = {"s": st.s_count, "g": st.g_count,
                             "empirical": emp, "formula": formula, "rel_err": rel}
        per_variant[variant] = rows
        max_err[variant] = worst
    return RatioLawResult(batch_size=batch_size, epochs=epochs,
                          per_variant=per_variant, max_rel_err=max_err)


# -- attraction point ----------------------------------------------------

@dataclass
class AttractionPointResult:
    magnet_label: str
    prevalence: dict[str, float]
    shares_uncalibrated: dict[str, float]
    shares_calibrated: dict[str, float]
    magnet_share_ratio_uncalibrated: float
    max_share_ratio_calibrated: float
    group_labels: list[str]
    group_macro_uncalibrated: float
    group_macro_calibrated: float


def build_attraction_manifest(seed: int = 0, n_contexts: int = 10, verbs: int = 2,
                              cell: int = 1, copies: int = 8) -> DatasetManifest:
    """Skewed-generation corpus: verb 0 of every context never occurs in a
    generated negative, every other concept occurs `copies` times per
    eligible parent.  The starved concepts are candidate attraction points."""
    return _swap_manifest(seed, n_contexts, verbs, cell, lambda k: [
        k2 for k2 in range(1, verbs) if k2 != k for _ in range(copies)])


def _zero_shot_task(manifest: DatasetManifest) -> ClassificationTask:
    """One class per distinct caption text, items over all train videos."""
    labels: list[str] = []
    index: dict[str, int] = {}
    items = []
    for cap in manifest.captions_for_split("train"):
        if cap.text not in index:
            index[cap.text] = len(labels)
            labels.append(cap.text)
        items.append((cap.video_id, index[cap.text]))
    return ClassificationTask(labels=tuple(labels), items=tuple(items))


def run_attraction_point(seed: int = 0, epochs: int = 45,
                         batch_size: int = 14,
                         checkpoint_dirs: tuple | None = None) -> AttractionPointResult:
    """Train the skewed corpus both ways and locate the attraction point.

    The video tower stays frozen so all learning flows through the shared
    token table; the starved concepts then soak up their siblings'
    predictions under uncalibrated hard negatives.  The attracted concept
    is found empirically (largest share/prevalence ratio among the starved
    ones) and the affected group is that concept plus every class that
    loses items to it."""
    manifest = build_attraction_manifest(seed=seed)
    task = _zero_shot_task(manifest)

    def run(variant: str, train_manifest: DatasetManifest, ckpt) -> "tuple":
        cfg = TrainConfig(batch_size=batch_size, epochs=epochs, seed=seed,
                          learning_rate=0.05, n_hard_max=8,
                          loss=LossConfig(sigma=0.2, negative_variant=variant,
                                          lambda1=1.0, lambda2=2.0, lambda3=0.0),
                          encoder=EncoderConfig(seed=seed, freeze_video=True))
        state, _ = train_loop(train_manifest, cfg, checkpoint_dir=ckpt)
        return eval_zero_shot(state.encoders, task)

    ck_un, ck_cal = (checkpoint_dirs or (None, None))
    uncal = run("hn_uncalibrated", manifest, ck_un)
    calibrated_manifest, _report = calibrate_filter(manifest)
    cal = run("calibrated_hn", calibrated_manifest, ck_cal)

    prevalence = dict(zip(task.labels, (uncal.class_counts / len(task.items)).tolist()))
    sh_un = dict(zip(task.labels, uncal.prediction_shares.tolist()))
    sh_cal = dict(zip(task.labels, cal.prediction_shares.tolist()))
    starved = [lab for lab in task.labels if lab.split()[-1].endswith("x00")]
    magnet_label = max(starved, key=lambda lab: sh_un[lab] / prevalence[lab])
    magnet_idx = task.labels.index(magnet_label)
    victims = [t for t in range(len(task.labels))
               if t != magnet_idx and uncal.confusion[t][magnet_idx] > 0]
    group = [magnet_idx] + victims
    magnet_ratio = sh_un[magnet_label] / prevalence[magnet_label]
    max_cal_ratio = max(sh_cal[lab] / prevalence[lab] for lab in task.labels)

    def group_macro(report) -> float:
        accs = [report.per_class_accuracy[g] for g in group]
        return float(np.mean(accs))

    return AttractionPointResult(
        magnet_label=magnet_label,
        prevalence=prevalence,
        shares_uncalibrated=sh_un,
        shares_calibrated=sh_cal,
        magnet_share_ratio_uncalibrated=float(magnet_ratio),
        max_share_ratio_calibrated=float(max_cal_ratio),
        group_labels=[task.labels[g] for g in group],
        group_macro_uncalibrated=group_macro(uncal),
        group_macro_calibrated=group_macro(cal),
    )


# -- shortcut ------------------------------------------------------------

@dataclass
class ShortcutResult:
    baseline_verb_mc: float
    vfc_verb_mc: float
    baseline_noun_mc: float
    vfc_noun_mc: float
    baseline_hard_pick_rate: float
    vfc_hard_pick_rate: float


def build_shortcut_manifest(seed: int = 0, n_contexts: int = 50, verbs: int = 5,
                            cell: int = 1) -> DatasetManifest:
    """Full sibling cross: every caption gets one negative per other verb
    of its context."""
    return _swap_manifest(seed, n_contexts, verbs, cell,
                          lambda k: [k2 for k2 in range(verbs) if k2 != k])


def build_shortcut_mc(manifest: DatasetManifest, seed: int,
                      n_contexts: int = 50, verbs: int = 5):
    """Verb-hard items (options are same-context siblings) and context items
    (options from other contexts); positive positions are seeded draws."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    by_phrase = _caption_cells(manifest)
    context_of = {}
    for c in range(n_contexts):
        for k in range(verbs):
            context_of[synth_verb_phrase(c, k)] = (c, k)
    verb_items = []
    noun_items = []
    for cap in manifest.captions_for_split("train"):
        phrase = cap.verb_phrases[0].surface
        c, k = context_of[phrase]
        siblings = [synth_verb_phrase(c, k2) for k2 in range(verbs) if k2 != k]
        options = [by_phrase[p][0].text for p in siblings]
        pos = int(rng.integers(5))
        options.insert(pos, cap.text)
        kinds = ["hard_verb_negative"] * 5
        kinds[pos] = "positive"
        verb_items.append(MultipleChoiceItem(
            video_id=cap.video_id, options=tuple(options),
            answer_index=pos, option_kinds=tuple(kinds)))

        others = [c2 for c2 in range(n_contexts) if c2 != c]
        picks = rng.choice(len(others), size=4, replace=False)
        distract = [by_phrase[synth_verb_phrase(others[int(j)], k)][0].text
                    for j in picks]
        pos = int(rng.integers(5))
        distract.insert(pos, cap.text)
        kinds = ["random_negative"] * 5
        kinds[pos] = "positive"
        noun_items.append(MultipleChoiceItem(
            video_id=cap.video_id, options=tuple(distract),
            answer_index=pos, option_kinds=tuple(kinds)))
    return verb_items, noun_items


def _structured_video_table(manifest: DatasetManifest, dim: int, seed: int,
                            verb_weight: float) -> np.ndarray:
    """Frozen video vectors u_context + verb_weight * w_verb, unit norm.

    Context carries most of the signal and the verb only a sliver, so a
    contrastive objective can match video to caption without ever reading
    the verb direction.  u and w are drawn orthogonal-ish at random."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    phrase_of = {}
    for cap in manifest.captions:
        phrase_of[cap.video_id] = cap.verb_phrases[0].surface
    context_dirs: dict[str, np.ndarray] = {}
    verb_dirs: dict[str, np.ndarray] = {}
    rows = []
    for vid in manifest.videos:
        phrase = phrase_of[vid.video_id]
        ctx = phrase[:6]
        if ctx not in context_dirs:
            u = rng.normal(size=dim)
            context_dirs[ctx] = u / np.linalg.norm(u)
        if phrase not in verb_dirs:
            w = rng.normal(size=dim)
            verb_dirs[phrase] = w / np.linalg.norm(w)
        vec = context_dirs[ctx] + verb_weight * verb_dirs[phrase]
        rows.append(vec / np.linalg.norm(vec))
    return np.asarray(rows)


def run_shortcut(seed: int = 0, epochs: int = 160, batch_size: int = 8,
                 checkpoint_dirs: tuple | None = None) -> ShortcutResult:
    """Verb information is present but weak in the frozen video vectors
    (a context direction plus a small verb direction).  Plain InfoNCE
    saturates its margin on the context part and never extracts the verb
    sliver; calibrated same-context negatives tie on context, so the VFC
    run must separate captions along the verb direction to reduce its
    loss.  The text tower is the only trainable part in both runs.

    Token init is deliberately loud (init_scale 0.6): the residual init
    noise after decay swamps the small verb-direction drift that plain
    InfoNCE picks up in passing, while the calibrated margins are driven
    far past it.  The verb-phrase term is doubled for the same reason."""
    manifest = build_shortcut_manifest(seed=seed)
    verb_items, noun_items = build_shortcut_mc(manifest, seed=seed)
    enc_cfg = EncoderConfig(seed=seed, freeze_video=True, init_scale=0.6)

    def frozen_state(train_manifest: DatasetManifest) -> TrainState:
        enc = DualEncoders.from_manifest(train_manifest, enc_cfg)
        enc.video_table[:] = _structured_video_table(
            train_manifest, enc_cfg.dim, seed, verb_weight=0.15)
        return TrainState(encoders=enc)

    ck_base, ck_vfc = (checkpoint_dirs or (None, None))
    base_cfg = desk_config(
        batch_size=batch_size, epochs=epochs, seed=seed,
        loss=LossConfig(sigma=0.03, lambda1=1.0, lambda2=1.0, lambda3=0.0,
                        negative_variant="none"),
        encoder=enc_cfg)
    baseline = train_loop(manifest, base_cfg, state=frozen_state(manifest),
                          checkpoint_dir=ck_base)[0]

    calibrated, _report = calibrate_filter(manifest)
    vfc_cfg = desk_config(
        batch_size=batch_size, epochs=epochs, seed=seed,
        loss=LossConfig(sigma=0.03, lambda3=2.0, negative_variant="calibrated_hn"),
        encoder=enc_cfg)
    vfc = train_loop(calibrated, vfc_cfg, state=frozen_state(calibrated),
                     checkpoint_dir=ck_vfc)[0]

    b_verb = eval_multiple_choice(baseline.encoders, verb_items)
    v_verb = eval_multiple_choice(vfc.encoders, verb_items)
    b_noun = eval_multiple_choice(baseline.encoders, noun_items)
    v_noun = eval_multiple_choice(vfc.encoders, noun_items)
    return ShortcutResult(
        baseline_verb_mc=b_verb.accuracy,
        vfc_verb_mc=v_verb.accuracy,
        baseline_noun_mc=b_noun.accuracy,
        vfc_noun_mc=v_noun.accuracy,
        baseline_hard_pick_rate=b_verb.hard_negative_rate,
        vfc_hard_pick_rate=v_verb.hard_negative_rate,
    )
