"""Batch sampling, SGD stepping, usage accounting, resume semantics."""

import hashlib
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from verbfocus.calibration import calibrate_filter
from verbfocus.corpus import CaptionRecord, DatasetManifest, VerbPhrase, VideoRecord
from verbfocus import encoders as encoders_module
from verbfocus.encoders import DualEncoders, EncoderConfig, EncoderError, EncoderGrads
from verbfocus.experiments import build_shortcut_manifest
from verbfocus.losses import LossConfig, combined_vfc
from verbfocus.trainer import (
    BatchIndexRecord,
    TrainConfig,
    TrainState,
    TrainerError,
    UsageCounter,
    compile_manifest,
    desk_config,
    load_train_checkpoint,
    materialize_batch,
    reference_config,
    sample_epoch,
    save_train_checkpoint,
    simulate_usage,
    train_loop,
    train_step,
)

from conftest import crossed_manifest


def tiny_cfg(**overrides):
    overrides.setdefault("batch_size", 4)
    overrides.setdefault("epochs", 2)
    overrides.setdefault("encoder", EncoderConfig(dim=6))
    return desk_config(**overrides)


def test_train_config_validation_and_roundtrip():
    cfg = tiny_cfg()
    assert TrainConfig.from_dict(asdict(cfg)) == cfg
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(n_hard_max=-1)
    with pytest.raises(ValueError):
        TrainConfig(checkpoint_every=-1)


def test_presets():
    """desk: lr 0.05 / sigma 0.05. reference: lr 1e-7 / sigma 5e-3, wd 1e-2."""
    desk = desk_config()
    assert desk.learning_rate == 0.05
    assert desk.loss.sigma == 0.05
    ref = reference_config()
    assert ref.learning_rate == 1e-7
    assert ref.loss.sigma == 5e-3
    assert ref.weight_decay == 1e-2
    override = desk_config(learning_rate=0.2)
    assert override.learning_rate == 0.2


def test_sample_epoch_partitions_train_captions():
    manifest = crossed_manifest(n_contexts=3, verbs=2, cell=2)
    cfg = tiny_cfg(batch_size=5)
    plan = sample_epoch(manifest, cfg, epoch=0)
    seen = [i for r in plan.records for i in r.caption_indices]
    # 12 captions at batch size 5: two full batches and a final pair.
    assert sorted(seen) == list(range(12))
    assert [len(r.caption_indices) for r in plan.records] == [5, 5, 2]


def test_sample_epoch_drops_short_tail():
    manifest = crossed_manifest(n_contexts=3, verbs=1, cell=1)
    plan = sample_epoch(manifest, tiny_cfg(batch_size=2), epoch=0)
    # 3 captions at batch size 2: the lone trailing item cannot form a batch.
    assert [len(r.caption_indices) for r in plan.records] == [2]


def test_sample_epoch_deterministic_and_epoch_varying():
    manifest = crossed_manifest(n_contexts=4, verbs=2, cell=1)
    cfg = tiny_cfg()
    a = sample_epoch(manifest, cfg, epoch=0)
    b = sample_epoch(manifest, cfg, epoch=0)
    assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]
    c = sample_epoch(manifest, cfg, epoch=1)
    assert [r.caption_indices for r in a.records] != [r.caption_indices for r in c.records]


def test_sample_epoch_caps_hard_negatives():
    manifest = crossed_manifest(n_contexts=2, verbs=2, cell=1, copies=4)
    cfg = tiny_cfg(n_hard_max=3)
    plan = sample_epoch(manifest, cfg, epoch=0)
    pools = {}
    for idx, g in enumerate(manifest.generations):
        pools.setdefault((g.parent_video_id, g.parent_caption), []).append(idx)
    for record in plan.records:
        for ci, hidx in zip(record.caption_indices, record.hard_indices):
            cap = manifest.captions[ci]
            pool = pools.get((cap.video_id, cap.text), [])
            assert len(hidx) == min(len(pool), 3)
            assert set(hidx) <= set(pool)
            assert len(set(hidx)) == len(hidx)


def test_sample_epoch_empty_train_split_is_an_error():
    videos = [VideoRecord("v1", "val")]
    captions = [CaptionRecord("v1", "a cat sleeping", (VerbPhrase("sleeping"),))]
    manifest = DatasetManifest(videos, captions, [])
    with pytest.raises(TrainerError):
        sample_epoch(manifest, tiny_cfg(), epoch=0)


def test_phrase_choices_mark_phrase_free_captions():
    videos = [VideoRecord("v1", "train"), VideoRecord("v2", "train")]
    captions = [
        CaptionRecord("v1", "a plain scene"),
        CaptionRecord("v2", "a dog running", (VerbPhrase("running"),)),
    ]
    manifest = DatasetManifest(videos, captions, [])
    plan = sample_epoch(manifest, tiny_cfg(batch_size=2), epoch=0)
    record = plan.records[0]
    choice_by_caption = dict(zip(record.caption_indices, record.phrase_choices))
    assert choice_by_caption[0] == -1
    assert choice_by_caption[1] == 0


def test_materialize_batch_shapes_and_mask():
    manifest = crossed_manifest(n_contexts=2, verbs=2, cell=1, copies=2)
    cfg = tiny_cfg(batch_size=4, n_hard_max=2)
    enc = DualEncoders.from_manifest(manifest, cfg.encoder)
    record = sample_epoch(manifest, cfg, epoch=0).records[0]
    batch = materialize_batch(manifest, enc, record)
    B = len(record.caption_indices)
    assert batch.video.shape == (B, 6)
    assert batch.caption.shape == (B, 6)
    assert len(batch.hard) == B
    assert batch.verb is not None and batch.verb_mask.all()
    for i, ci in enumerate(record.caption_indices):
        np.testing.assert_array_equal(
            batch.video[i], enc.encode_video(manifest.captions[ci].video_id))
        np.testing.assert_array_equal(
            batch.caption[i], enc.encode_text(manifest.captions[ci].text))


def test_materialize_batch_rejects_a_generation_the_sampler_cannot_draw():
    manifest = crossed_manifest(n_contexts=2, verbs=2, cell=1)
    manifest.generations[0] = replace(manifest.generations[0], kept=False)
    enc = DualEncoders.from_manifest(manifest, EncoderConfig(dim=6))
    record = BatchIndexRecord(0, 0, [0, 1], [[0], []], [0, 0])
    with pytest.raises(TrainerError, match="not a kept hard negative"):
        materialize_batch(manifest, enc, record)


def test_train_step_descends_on_tiny_manifest():
    manifest = crossed_manifest(n_contexts=3, verbs=2, cell=1, copies=1)
    cfg = tiny_cfg(batch_size=6, epochs=30, seed=1)
    state, metrics = train_loop(manifest, cfg)
    assert state.epoch == 30
    assert metrics[-1]["total"] < metrics[0]["total"]
    for key in ("epoch", "total", "t2v", "chn", "verb_phrase", "wall_ms"):
        assert key in metrics[0]


def test_no_negative_variant_skips_the_hard_negatives(monkeypatch):
    """Under "none" the loss never reads the sampled negatives: 12 captions
    and 12 verb phrases go back through the text tower, not the 12
    generations as well. Sampling still draws them, so the RNG stream holds."""
    manifest = crossed_manifest(n_contexts=3, verbs=2, cell=2)
    rows = []
    backward_ids = DualEncoders.backward_ids

    def counted(self, tokens, upstream, grads, forward=None):
        rows.append(len(tokens))
        return backward_ids(self, tokens, upstream, grads, forward)

    monkeypatch.setattr(DualEncoders, "backward_ids", counted)
    for variant, expected in (("none", 24), ("hn_uncalibrated", 36)):
        cfg = tiny_cfg(batch_size=4, epochs=1,
                       loss=LossConfig(sigma=0.05, negative_variant=variant))
        assert any(sample_epoch(manifest, cfg, 0).records[0].hard_indices)
        rows.clear()
        train_loop(manifest, cfg)
        assert len(rows) == 3
        assert sum(rows) == expected


def test_training_tokenizes_each_compiled_string_once(monkeypatch):
    """Steps read the compiled token ids, so tokenize runs at most once per
    compiled string and the count does not grow with the epochs."""
    manifest = crossed_manifest(n_contexts=3, verbs=2, cell=2)
    cfg = tiny_cfg(batch_size=4, epochs=1)
    encoders = [DualEncoders.from_manifest(manifest, cfg.encoder) for _ in range(2)]
    n_strings = len(compile_manifest(manifest, encoders[0]).text)
    calls = []
    tokenize = encoders_module.tokenize
    monkeypatch.setattr(encoders_module, "tokenize",
                        lambda raw: calls.append(raw) or tokenize(raw))
    counts = []
    for enc, epochs in zip(encoders, (1, 3)):
        calls.clear()
        train_loop(manifest, tiny_cfg(batch_size=4, epochs=epochs), state=TrainState(enc))
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert 0 < counts[0] <= n_strings


@pytest.mark.parametrize("variant", ["none", "hn_uncalibrated", "calibrated_hn"])
def test_train_step_gradients_match_finite_differences(variant):
    """The batched backward sends each loss gradient to its own string: the
    token and video gradients of a step match central differences of the
    step's loss over every table entry."""
    manifest = crossed_manifest(n_contexts=2, verbs=2, cell=1, copies=2)
    cfg = tiny_cfg(batch_size=4, n_hard_max=2, encoder=EncoderConfig(dim=3, seed=5),
                   loss=LossConfig(sigma=0.5, negative_variant=variant))
    record = sample_epoch(manifest, cfg, 0).records[0]
    compiled = compile_manifest(manifest, DualEncoders.from_manifest(manifest, cfg.encoder))
    enc = DualEncoders.from_manifest(manifest, cfg.encoder)
    grads = EncoderGrads.zeros_for(enc)
    train_step(compiled, TrainState(DualEncoders.from_manifest(manifest, cfg.encoder)),
               cfg, record, grads)

    def loss():
        return combined_vfc(materialize_batch(compiled, enc, record), cfg.loss).total

    h = 1e-6
    for table, grad in ((enc.token_table, grads.token), (enc.video_table, grads.video)):
        for idx in np.ndindex(*table.shape):
            keep = table[idx]
            table[idx] = keep + h
            up = loss()
            table[idx] = keep - h
            dn = loss()
            table[idx] = keep
            assert abs((up - dn) / (2 * h) - grad[idx]) <= 1e-6 * max(1.0, abs(grad[idx]))


def test_train_loop_writes_metrics_log(tmp_path):
    manifest = crossed_manifest(n_contexts=2, verbs=2, cell=1)
    cfg = tiny_cfg(batch_size=4, epochs=3)
    log = tmp_path / "metrics.jsonl"
    train_loop(manifest, cfg, log_path=log)
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["epoch"] for r in rows] == [0, 1, 2]


def test_fresh_run_rewrites_metrics_log_and_resume_appends(tmp_path):
    manifest = crossed_manifest(n_contexts=2, verbs=2, cell=1)
    cfg = tiny_cfg(batch_size=4, epochs=3)
    log = tmp_path / "metrics.jsonl"

    def logged_epochs():
        return [json.loads(line)["epoch"] for line in log.read_text().splitlines()]

    train_loop(manifest, cfg, log_path=log)
    train_loop(manifest, cfg, log_path=log)
    assert logged_epochs() == list(range(cfg.epochs))
    half, _ = train_loop(manifest, tiny_cfg(batch_size=4, epochs=2), log_path=log)
    assert logged_epochs() == [0, 1]
    train_loop(manifest, cfg, state=half, log_path=log)
    assert logged_epochs() == [0, 1, 2]


def test_resume_is_bit_exact(tmp_path):
    manifest = crossed_manifest(n_contexts=3, verbs=2, cell=1, copies=1)
    straight_cfg = tiny_cfg(batch_size=4, epochs=6, seed=7)
    straight, _ = train_loop(manifest, straight_cfg)

    half_cfg = tiny_cfg(batch_size=4, epochs=3, seed=7)
    half, _ = train_loop(manifest, half_cfg)
    ckpt = tmp_path / "half.bin"
    save_train_checkpoint(ckpt, half, half_cfg)
    resumed_state, _ = load_train_checkpoint(ckpt)
    assert resumed_state.epoch == 3
    resumed, _ = train_loop(manifest, straight_cfg, state=resumed_state)

    assert np.array_equal(resumed.encoders.video_table, straight.encoders.video_table)
    assert np.array_equal(resumed.encoders.token_table, straight.encoders.token_table)
    assert resumed.step == straight.step


def test_checkpoint_header_is_timing_free(tmp_path):
    manifest = crossed_manifest(n_contexts=2, verbs=2, cell=1)
    cfg = tiny_cfg(batch_size=4, epochs=1)
    state, _ = train_loop(manifest, cfg)
    path = tmp_path / "ckpt.bin"
    save_train_checkpoint(path, state, cfg)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert set(header) == {"format", "version", "train_config", "epoch", "step"}


@pytest.mark.parametrize("cut", [1, 8 * 6])
def test_truncated_checkpoint_names_the_file(tmp_path, cut):
    """A file cut by one byte or by one whole token row (dim 6) fails with
    the file's name instead of inside numpy."""
    manifest = crossed_manifest(n_contexts=2, verbs=2, cell=1)
    cfg = tiny_cfg(batch_size=4, epochs=1)
    assert cfg.encoder.dim == 6
    state, _ = train_loop(manifest, cfg)
    path = tmp_path / "ckpt.bin"
    save_train_checkpoint(path, state, cfg)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(EncoderError, match=r"^ckpt\.bin: checkpoint payload is"):
        load_train_checkpoint(path)
    path.write_bytes(b'{"format": "other"}\n')
    with pytest.raises(EncoderError, match=r"^ckpt\.bin: not a training checkpoint"):
        load_train_checkpoint(path)


def test_train_config_from_dict_names_an_unknown_key():
    d = asdict(tiny_cfg())
    for broken, key in (({**d, "bogus": 1}, "bogus"),
                        ({**d, "loss": {**d["loss"], "sigmaa": 1.0}}, "loss.sigmaa"),
                        ({**d, "encoder": {**d["encoder"], "depth": 2}}, "encoder.depth")):
        with pytest.raises(ValueError, match=f"unknown train config key: {key}$"):
            TrainConfig.from_dict(broken)


def _line(obj) -> bytes:
    return json.dumps(obj).encode() + b"\n"


# epoch and step values that are not non-negative integers, by id
_BAD_COUNTS = {f"{key}_{kind}": (key, value) for key in ("epoch", "step")
               for kind, value in (("string", "x"), ("negative", -3), ("bool", True),
                                   ("float", 1.5))}


@pytest.mark.parametrize("corrupt, message", [
    (lambda h, p: _line({k: v for k, v in h.items() if k != "train_config"}) + p,
     "header has no 'train_config' field"),
    (lambda h, p: _line({**h, "train_config": {**h["train_config"], "bogus": 1}}) + p,
     "unknown train config key: bogus"),
    (lambda h, p: _line(h), "header line is not JSON"),
    (lambda h, p: _line(h) + _line([1]), "header line is not a JSON object"),
    *((lambda h, p, key=key, value=value: _line({**h, key: value}) + p,
       f"header field '{key}' is not a non-negative integer$")
      for key, value in _BAD_COUNTS.values()),
], ids=["no_train_config", "unknown_key", "no_encoder_payload", "encoder_header_not_an_object",
        *_BAD_COUNTS])
def test_malformed_checkpoint_header_names_the_file(tmp_path, corrupt, message):
    manifest = crossed_manifest(n_contexts=2, verbs=2, cell=1)
    cfg = tiny_cfg(batch_size=4, epochs=1)
    state, _ = train_loop(manifest, cfg)
    path = tmp_path / "ckpt.bin"
    save_train_checkpoint(path, state, cfg)
    line, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(corrupt(json.loads(line), payload))
    with pytest.raises(EncoderError, match=rf"^ckpt\.bin: {message}"):
        load_train_checkpoint(path)


def test_periodic_checkpoints(tmp_path):
    manifest = crossed_manifest(n_contexts=2, verbs=2, cell=1)
    cfg = tiny_cfg(batch_size=4, epochs=5, checkpoint_every=2)
    train_loop(manifest, cfg, checkpoint_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "checkpoint_epoch00002.bin",
        "checkpoint_epoch00004.bin",
        "checkpoint_final.bin",
    ]


def test_frozen_video_tower_stays_fixed():
    manifest = crossed_manifest(n_contexts=2, verbs=2, cell=1)
    cfg = tiny_cfg(batch_size=4, epochs=2,
                   encoder=EncoderConfig(dim=6, freeze_video=True))
    enc = DualEncoders.from_manifest(manifest, cfg.encoder)
    before = enc.video_table.copy()
    state, _ = train_loop(manifest, cfg, state=TrainState(encoders=enc))
    np.testing.assert_array_equal(state.encoders.video_table, before)
    assert not np.array_equal(state.encoders.token_table,
                              DualEncoders.from_manifest(manifest, cfg.encoder).token_table)


def test_usage_counter_accounting():
    """One batch of 3 with known phrases and negatives, tallied by hand."""
    videos = [VideoRecord(f"v{i}", "train") for i in range(3)]
    captions = [
        CaptionRecord("v0", "cap zero", (VerbPhrase("alpha"),)),
        CaptionRecord("v1", "cap one", (VerbPhrase("alpha"),)),
        CaptionRecord("v2", "cap two", (VerbPhrase("beta"),)),
    ]
    manifest = DatasetManifest(videos, captions, [])

    record = BatchIndexRecord(0, 0, [0, 1, 2], [[], [], []], [0, 0, 0])
    for variant, expected_alpha in (("baseline", 4 / 2), ("hn", 4 / 2), ("calibrated_hn", 4 / 2)):
        counter = UsageCounter(variant)
        counter.observe(manifest, record)
        # alpha: 2 positives, each with B-1 = 2 negative uses.
        assert counter.ratios()["alpha"] == expected_alpha

    gen_manifest = crossed_manifest(n_contexts=2, verbs=2, cell=1, copies=1)
    cfg = tiny_cfg(batch_size=4, loss=LossConfig(sigma=0.05, negative_variant="hn_uncalibrated"))
    hn = simulate_usage(gen_manifest, cfg, epochs=2)
    cal = simulate_usage(gen_manifest, cfg, epochs=2, variant="calibrated_hn")
    # Uncalibrated counts each sampled negative B times, calibrated once.
    assert all(hn.neg[c] >= cal.neg[c] for c in hn.neg)
    assert hn.pos == cal.pos


def test_usage_counter_accepts_loss_variant_names():
    assert UsageCounter("none").variant == "baseline"
    assert UsageCounter("hn_uncalibrated").variant == "hn"
    assert UsageCounter("calibrated_hn").variant == "calibrated_hn"


def test_usage_counter_rejects_an_unknown_variant_by_name():
    with pytest.raises(ValueError, match="'bogus'"):
        UsageCounter("bogus")


# -- pinned bits -------------------------------------------------------------

def _trained_digests(variant: str) -> list[str]:
    """sha256 of the token table, the video table and the metric rows (all
    but wall_ms) after 2 epochs on a small shortcut manifest."""
    manifest = build_shortcut_manifest(seed=3, n_contexts=6, verbs=6)
    if variant == "calibrated_hn":
        manifest, _ = calibrate_filter(manifest)
    cfg = desk_config(batch_size=16, epochs=2, seed=3, n_hard_max=3,
                      loss=LossConfig(sigma=0.05, negative_variant=variant, lambda3=1.0),
                      encoder=EncoderConfig(dim=8, seed=3))
    state, metrics = train_loop(manifest, cfg)
    rows = [(r["total"], r["t2v"], r["chn"], r["verb_phrase"]) for r in metrics]
    blobs = (state.encoders.token_table.tobytes(), state.encoders.video_table.tobytes(),
             repr(rows).encode())
    return [hashlib.sha256(b).hexdigest() for b in blobs]


# Recorded before the stacked hard negatives, the reused forward activations
# and the bincount scatter-add: each of them must leave every bit in place.
PINNED_DIGESTS = {
    "hn_uncalibrated": [
        "aea9e209cd4c42b655f019ee0b9e875d96daed5ae805592e0057696b65c764ad",
        "92561e108aea925415910b3cd05e07f50f15d8630c599c0d7d9f219d40dae5d2",
        "7f54284272090945f0299722c1e48b201be947769edd4660cabbf08275e9e097",
    ],
    "calibrated_hn": [
        "7c130082b620a760814ad572f081e6fd0329da48e36fb5bb2ab8f605a5d609e1",
        "7a69bcc971dbf51ef35dce17bebda6c0a620b7c4fc1a600cae2178653fa88acf",
        "374a5e615215b92a8e3cd3f8ed2fbb033681ace3d4506c365415286cbeab7558",
    ],
}


@pytest.mark.parametrize("variant", sorted(PINNED_DIGESTS))
def test_training_reproduces_the_pinned_bits(variant):
    assert _trained_digests(variant) == PINNED_DIGESTS[variant]
