"""Lookup-table dual encoders: forward, backward, SGD, checkpoints."""

import io
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verbfocus.corpus import CaptionRecord, DatasetManifest, GeneratedCaption, VerbPhrase, VideoRecord
from verbfocus.encoders import (DualEncoders, EncoderConfig, EncoderError, EncoderGrads,
                                TokenIds, row_dots)


def small_encoders(**cfg_kwargs):
    cfg = EncoderConfig(dim=cfg_kwargs.pop("dim", 4), **cfg_kwargs)
    return DualEncoders(cfg, ["v1", "v2", "v3"], ["cat", "dog", "runs", "sleeps"])


def test_config_defaults_and_validation():
    cfg = EncoderConfig(dim=16)
    assert cfg.init_scale == 1.0 / math.sqrt(16)
    assert EncoderConfig(**asdict(cfg)) == cfg
    with pytest.raises(ValueError):
        EncoderConfig(dim=1)
    with pytest.raises(ValueError):
        EncoderConfig(init_scale=0.0)


def test_duplicate_ids_rejected():
    cfg = EncoderConfig(dim=4)
    with pytest.raises(EncoderError):
        DualEncoders(cfg, ["v1", "v1"], ["a"])
    with pytest.raises(EncoderError):
        DualEncoders(cfg, ["v1"], ["a", "a"])


def test_table_shapes():
    enc = small_encoders()
    assert enc.video_table.shape == (3, 4)
    # One extra row shared by out-of-vocabulary tokens.
    assert enc.token_table.shape == (5, 4)
    assert enc.unknown_row == 4
    with pytest.raises(EncoderError):
        DualEncoders(EncoderConfig(dim=4), ["v1"], ["a"], video_table=np.zeros((2, 4)),
                     token_table=np.zeros((2, 4)))


def test_init_is_seed_deterministic():
    a = small_encoders(seed=9)
    b = small_encoders(seed=9)
    c = small_encoders(seed=10)
    assert np.array_equal(a.video_table, b.video_table)
    assert np.array_equal(a.token_table, b.token_table)
    assert not np.array_equal(a.video_table, c.video_table)


def test_from_manifest_vocab_and_order():
    videos = [VideoRecord("vb", "train"), VideoRecord("va", "train")]
    captions = [CaptionRecord("vb", "Dogs bark!", (VerbPhrase("bark"),))]
    gens = [GeneratedCaption("vb", "Dogs bark!", "Dogs yip",
                             "hard_negative", "llm_completion", (VerbPhrase("yip"),))]
    enc = DualEncoders.from_manifest(DatasetManifest(videos, captions, gens),
                                     EncoderConfig(dim=4))
    # Video rows follow manifest order; vocab is the sorted token union.
    assert enc.video_ids == ["vb", "va"]
    assert enc.vocab == ["bark", "dogs", "yip"]


def test_encode_text_is_normalized_token_mean():
    enc = small_encoders()
    expected = enc.token_table[[0, 2]].mean(axis=0)
    expected = expected / np.linalg.norm(expected)
    np.testing.assert_allclose(enc.encode_text("Cat runs."), expected, rtol=0, atol=1e-15)


def test_encode_is_unit_norm_and_order_invariant():
    enc = small_encoders()
    assert np.linalg.norm(enc.encode_video("v2")) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(enc.encode_text("cat dog"), enc.encode_text("dog cat"))


def test_unknown_tokens_share_the_last_row():
    enc = small_encoders()
    assert enc.token_rows("zebra quagga") == [4, 4]
    np.testing.assert_array_equal(enc.encode_text("zebra"), enc.encode_text("quagga"))


def test_encode_errors():
    enc = small_encoders()
    with pytest.raises(EncoderError):
        enc.encode_video("v99")
    with pytest.raises(EncoderError):
        enc.encode_text("!!!")
    zero = DualEncoders(EncoderConfig(dim=4), ["v1"], ["a"],
                        video_table=np.zeros((1, 4)), token_table=np.ones((2, 4)))
    with pytest.raises(EncoderError):
        zero.encode_video("v1")


def test_backward_matches_finite_differences():
    """Scalar probe w . encode(x), gradients differenced at h=1e-6."""
    enc = small_encoders(seed=2)
    rng = np.random.default_rng(0)
    w = rng.normal(size=4)
    text = "cat runs zebra"

    grads = EncoderGrads.zeros_for(enc)
    enc.backward_text(text, w, grads)
    enc.backward_video("v1", w, grads)

    h = 1e-6
    for table, gbuf in ((enc.token_table, grads.token), (enc.video_table, grads.video)):
        for row in range(table.shape[0]):
            for col in range(table.shape[1]):
                orig = table[row, col]
                table[row, col] = orig + h
                hi = float(w @ enc.encode_text(text)) + float(w @ enc.encode_video("v1"))
                table[row, col] = orig - h
                lo = float(w @ enc.encode_text(text)) + float(w @ enc.encode_video("v1"))
                table[row, col] = orig
                fd = (hi - lo) / (2 * h)
                assert abs(fd - gbuf[row, col]) < 1e-7


def test_backward_accumulates():
    enc = small_encoders()
    grads = EncoderGrads.zeros_for(enc)
    up = np.ones(4)
    enc.backward_video("v1", up, grads)
    once = grads.video.copy()
    enc.backward_video("v1", up, grads)
    np.testing.assert_array_equal(grads.video, 2 * once)
    grads.clear()
    assert not grads.video.any() and not grads.token.any()


def test_frozen_towers_get_no_gradient_and_no_update():
    enc = small_encoders(freeze_video=True, freeze_text=True)
    v0, t0 = enc.video_table.copy(), enc.token_table.copy()
    grads = EncoderGrads.zeros_for(enc)
    enc.backward_video("v1", np.ones(4), grads)
    enc.backward_text("cat", np.ones(4), grads)
    assert not grads.video.any() and not grads.token.any()
    grads.video[:] = 1.0
    grads.token[:] = 1.0
    enc.apply_sgd(grads, lr=0.1, weight_decay=0.5)
    np.testing.assert_array_equal(enc.video_table, v0)
    np.testing.assert_array_equal(enc.token_table, t0)


def test_apply_sgd_formula():
    """theta 1.0, grad 0.5, lr 0.1, wd 0.2: new theta = 1 - 0.1*(0.5+0.2) = 0.93."""
    enc = DualEncoders(EncoderConfig(dim=2), ["v1"], ["a"],
                       video_table=np.ones((1, 2)), token_table=np.ones((2, 2)))
    grads = EncoderGrads.zeros_for(enc)
    grads.video[:] = 0.5
    grads.token[:] = 0.5
    enc.apply_sgd(grads, lr=0.1, weight_decay=0.2)
    np.testing.assert_allclose(enc.video_table, 0.93)
    np.testing.assert_allclose(enc.token_table, 0.93)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    enc = small_encoders(seed=4)
    path = tmp_path / "enc.ckpt"
    enc.save_checkpoint(path)
    loaded = DualEncoders.load_checkpoint(path)
    assert np.array_equal(loaded.video_table, enc.video_table)
    assert np.array_equal(loaded.token_table, enc.token_table)
    assert loaded.config == enc.config
    assert loaded.video_ids == enc.video_ids
    assert loaded.vocab == enc.vocab
    # Saving the loaded model reproduces the file byte for byte.
    path2 = tmp_path / "enc2.ckpt"
    loaded.save_checkpoint(path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("cut", ["one byte", "one token row", "one byte added"])
def test_checkpoint_with_wrong_payload_size_names_the_file(tmp_path, cut):
    enc = small_encoders()
    path = tmp_path / "enc.ckpt"
    enc.save_checkpoint(path)
    raw = path.read_bytes()
    row = 8 * enc.config.dim
    path.write_bytes({"one byte": raw[:-1], "one token row": raw[:-row],
                      "one byte added": raw + b"\0"}[cut])
    with pytest.raises(EncoderError, match=r"^enc\.ckpt: checkpoint payload is \d+ bytes, "
                                           r"expected 256 for tables \[3, 4\] and \[5, 4\]$"):
        DualEncoders.load_checkpoint(path)


@pytest.mark.parametrize("header, message", [
    (b"[1]\n", "header line is not a JSON object"),
    (None, "header has no 'config' field"),
    (b"", "header line is not JSON"),
], ids=["header_not_an_object", "no_config", "empty_file"])
def test_malformed_checkpoint_header_names_the_file(tmp_path, header, message):
    enc = small_encoders()
    line, payload = enc.to_bytes().split(b"\n", 1)
    if header is None:
        no_config = {k: v for k, v in json.loads(line).items() if k != "config"}
        header = json.dumps(no_config).encode() + b"\n" + payload
    path = tmp_path / "enc.ckpt"
    path.write_bytes(header)
    with pytest.raises(EncoderError, match=f"^enc\\.ckpt: {message}"):
        DualEncoders.load_checkpoint(path)


def test_checkpoint_rejects_foreign_headers():
    enc = small_encoders()
    raw = enc.to_bytes()
    header, rest = raw.split(b"\n", 1)
    bad_format = json.loads(header)
    bad_format["format"] = "something-else"
    with pytest.raises(EncoderError):
        DualEncoders.load_from(io.BytesIO(json.dumps(bad_format).encode() + b"\n" + rest))
    bad_version = json.loads(header)
    bad_version["version"] = 99
    with pytest.raises(EncoderError):
        DualEncoders.load_from(io.BytesIO(json.dumps(bad_version).encode() + b"\n" + rest))


# -- batched text kernels ---------------------------------------------------

KERNEL_VOCAB = ["cat", "dog", "runs", "sleeps", "a", "the"]
# "zebra" and "quagga" are out of vocabulary: both read the shared last row.
kernel_strings = st.lists(st.sampled_from(KERNEL_VOCAB + ["zebra", "quagga"]),
                          min_size=1, max_size=7).map(" ".join)


def _longdouble_embedding(enc, text):
    x = enc.token_table[enc.token_rows(text)].astype(np.longdouble).mean(axis=0)
    return x / np.sqrt((x * x).sum())


@settings(max_examples=80, deadline=None)
@given(texts=st.lists(kernel_strings, min_size=1, max_size=10), data=st.data())
def test_batched_text_kernels_match_per_string_calls(texts, data):
    """Any subset and order of strings, with repeated and unknown tokens: a
    batch row is its string's encode_text bit for bit, within 1e-15 of a
    long-double mean; the batched backward is the per-string backwards."""
    seed = data.draw(st.integers(0, 2 ** 16))
    enc = DualEncoders(EncoderConfig(dim=5, seed=seed), ["v1"], KERNEL_VOCAB)
    tokens = enc.text_ids(texts)
    emb = enc.encode_ids(tokens)
    for i, text in enumerate(texts):
        assert np.array_equal(emb[i], enc.encode_text(text))
        assert np.max(np.abs(emb[i] - _longdouble_embedding(enc, text))) <= 1e-15
    picks = data.draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=12))
    assert np.array_equal(enc.encode_ids(tokens.take(picks)), emb[picks])

    upstream = np.random.default_rng(seed).normal(size=emb.shape)
    batched = EncoderGrads.zeros_for(enc)
    enc.backward_ids(tokens, upstream, batched)
    single = EncoderGrads.zeros_for(enc)
    for text, up in zip(texts, upstream):
        enc.backward_text(text, up, single)
    # One scatter-add in input order adds the same terms in the same order
    # as the per-string calls do.
    assert np.array_equal(batched.token, single.token)

    # Central differences of sum(upstream * encode_ids(tokens)).
    h = 1e-6
    table = enc.token_table
    for row, col in np.ndindex(*table.shape):
        keep = table[row, col]
        table[row, col] = keep + h
        up = float((upstream * enc.encode_ids(tokens)).sum())
        table[row, col] = keep - h
        dn = float((upstream * enc.encode_ids(tokens)).sum())
        table[row, col] = keep
        g = batched.token[row, col]
        assert abs((up - dn) / (2 * h) - g) <= 1e-6 * max(1.0, abs(g))


def test_batched_video_backward_adds_repeated_rows():
    enc = small_encoders(seed=3)
    up = np.random.default_rng(1).normal(size=(3, 4))
    batched = EncoderGrads.zeros_for(enc)
    enc.backward_video_rows([1, 0, 1], up, batched)
    single = EncoderGrads.zeros_for(enc)
    for vid, u in zip(["v2", "v1", "v2"], up):
        enc.backward_video(vid, u, single)
    assert np.array_equal(batched.video, single.video)
    np.testing.assert_array_equal(enc.encode_video_rows([1, 0, 1]),
                                  enc.encode_videos(["v2", "v1", "v2"]))


def _through_normalization(forward, upstream):
    u, norms = forward
    return (upstream - row_dots(u, upstream)[:, None] * u) / norms[:, None]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       lengths=st.lists(st.integers(1, 6), min_size=1, max_size=12),
       vocab=st.integers(1, 6), data=st.data())
def test_scatter_add_equals_add_at_on_a_filled_buffer(seed, lengths, vocab, data):
    """Random id streams with repeats, into gradient buffers that already
    hold values: backward_ids and backward_video_rows equal np.add.at of
    each occurrence's share, in input order, bit for bit."""
    rng = np.random.default_rng(seed)
    enc = DualEncoders(EncoderConfig(dim=3, seed=seed), ["v0", "v1", "v2"],
                       [f"w{i}" for i in range(vocab)])
    rows = data.draw(st.lists(st.integers(0, vocab), min_size=sum(lengths),
                              max_size=sum(lengths)))
    tokens = TokenIds(np.cumsum([0, *lengths]), np.array(rows, dtype=np.int64))
    upstream = rng.normal(size=(len(lengths), 3))
    grads = EncoderGrads(rng.normal(size=enc.video_table.shape) * 1e3,
                         rng.normal(size=enc.token_table.shape) * 1e3)
    ref = grads.token.copy()
    g = _through_normalization(enc.forward_ids(tokens), upstream)
    n = tokens.lengths()[:, None]
    np.add.at(ref, tokens.ids, np.repeat(g / n, tokens.lengths(), axis=0))
    enc.backward_ids(tokens, upstream, grads)
    assert np.array_equal(grads.token, ref)

    videos = np.array(data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=8)))
    upstream = rng.normal(size=(videos.size, 3))
    ref = grads.video.copy()
    np.add.at(ref, videos, _through_normalization(enc.forward_video_rows(videos), upstream))
    enc.backward_video_rows(videos, upstream, grads)
    assert np.array_equal(grads.video, ref)
