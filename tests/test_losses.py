"""Loss values against extended-precision oracles, gradients against finite
differences, and the uniform-normalization identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (fd_check, naive_chn, naive_combined, naive_hn, naive_t2v,
                      naive_v2t, naive_verb, random_batch, rel_err, unit_rows)
from verbfocus import losses
from verbfocus.losses import (NEGATIVE_VARIANTS, BatchTensors, LossConfig, StackedRows,
                              combined_vfc, hardneg_nce_weights, info_nce_t2v, info_nce_v2t,
                              loss_chn, loss_hn_uncalibrated, loss_verb_phrase)

ORACLE_TOL = 1e-12

# Every (implementation, oracle, config) pairing the gradient and oracle
# suites sweep. Configs use moderate sigma so finite differences stay stable.
VARIANT_CASES = [
    ("t2v", info_nce_t2v, naive_t2v, LossConfig(sigma=0.2)),
    ("v2t", info_nce_v2t, naive_v2t, LossConfig(sigma=0.2)),
    ("hn", loss_hn_uncalibrated, naive_hn,
     LossConfig(sigma=0.2, negative_variant="hn_uncalibrated")),
    ("chn", loss_chn, naive_chn, LossConfig(sigma=0.2)),
    ("verb", loss_verb_phrase, naive_verb, LossConfig(sigma=0.2)),
    ("hardneg", loss_chn, naive_chn,
     LossConfig(sigma=0.2, nce_mode="hardneg_nce", alpha=1.0, beta=0.1)),
    ("hardneg_hn", loss_hn_uncalibrated, naive_hn,
     LossConfig(sigma=0.2, negative_variant="hn_uncalibrated",
                nce_mode="hardneg_nce", alpha=0.7, beta=0.3)),
    ("hardneg_t2v", info_nce_t2v, naive_t2v,
     LossConfig(sigma=0.2, nce_mode="hardneg_nce", alpha=1.5, beta=0.2)),
]


def _batch_for(name, rng, B, d):
    if name == "verb":
        mask = np.ones(B, dtype=bool)
        mask[0] = B <= 2  # one masked item once the batch allows it
        return random_batch(rng, B, d, with_verb=True, mask=mask)
    counts = [(i % 3) for i in range(B)]
    return random_batch(rng, B, d, hard_counts=counts)


@pytest.mark.parametrize("name,fn,oracle,cfg", VARIANT_CASES,
                         ids=[c[0] for c in VARIANT_CASES])
@pytest.mark.parametrize("B", [2, 4, 8])
def test_loss_matches_naive_oracle(name, fn, oracle, cfg, B, rng):
    batch = _batch_for(name, rng, B, d=8)
    out = fn(batch, cfg)
    assert rel_err(out.total, oracle(batch, cfg)) <= ORACLE_TOL


@pytest.mark.parametrize("B", [2, 4, 8])
@pytest.mark.parametrize("variant", ["none", "hn_uncalibrated", "calibrated_hn"])
def test_combined_matches_naive_oracle(B, variant, rng):
    cfg = LossConfig(sigma=0.2, negative_variant=variant)
    batch = random_batch(rng, B, 8, hard_counts=[(i % 3) for i in range(B)],
                         with_verb=True)
    out = combined_vfc(batch, cfg)
    assert rel_err(out.total, naive_combined(batch, cfg)) <= ORACLE_TOL


def test_combined_oracle_small_sigma(rng):
    # Published-scale sigma exercises the log-sum-exp shift path hard.
    cfg = LossConfig(sigma=5e-3)
    batch = random_batch(rng, 4, 8, hard_counts=[1, 0, 2, 1], with_verb=True)
    assert rel_err(combined_vfc(batch, cfg).total, naive_combined(batch, cfg)) <= 1e-9


@pytest.mark.parametrize("name,fn,oracle,cfg", VARIANT_CASES,
                         ids=[c[0] for c in VARIANT_CASES])
@pytest.mark.parametrize("B,d", [(2, 3), (4, 8)])
def test_gradients_match_finite_differences(name, fn, oracle, cfg, B, d, rng):
    # fd_check differentiates combined_vfc, which runs the case's variant.
    batch = _batch_for(name, rng, B, d)
    assert fd_check(batch, cfg) <= 1e-5


def test_gradients_verb_both_direction(rng):
    cfg = LossConfig(sigma=0.2, verb_phrase_direction="both")
    mask = np.array([True, True, False, True])
    batch = random_batch(rng, 4, 5, hard_counts=[1, 0, 2, 0],
                         with_verb=True, mask=mask)
    assert fd_check(batch, cfg) <= 1e-5


# -- pinned values --------------------------------------------------------

def test_t2v_pinned_two_by_two():
    """Positives 0.9, negatives 0.1 at sigma 1: both rows log(1 + e^-0.8)."""
    batch = BatchTensors(video=np.array([[1.0, 0.0], [0.0, 1.0]]),
                         caption=np.array([[0.9, 0.1], [0.1, 0.9]]))
    out = info_nce_t2v(batch, LossConfig(sigma=1.0))
    assert out.total == pytest.approx(0.3711006659477777, abs=1e-15)


def test_uniform_pinned_log3_log4():
    u = np.array([[0.6, 0.8], [0.6, 0.8]])
    batch = BatchTensors(video=u, caption=u.copy(),
                         hard=[u[:1].copy(), u[:1].copy()])
    cfg = LossConfig(sigma=0.5, normalize_by_uniform=False)
    assert loss_chn(batch, cfg).total == pytest.approx(np.log(3.0), abs=1e-12)
    assert loss_hn_uncalibrated(batch, cfg).total == pytest.approx(np.log(4.0), abs=1e-12)


# -- uniform-normalization identity ---------------------------------------

@pytest.mark.parametrize("B", [2, 4, 8])
@pytest.mark.parametrize("variant", ["none", "hn_uncalibrated", "calibrated_hn"])
@pytest.mark.parametrize("n_hard", [0, 1, 3])
def test_uniform_batch_normalizes_to_one(B, variant, n_hard):
    u = np.tile([0.6, 0.8, 0.0], (B, 1))
    batch = BatchTensors(video=u, caption=u.copy(),
                         hard=[u[:n_hard].copy() for _ in range(B)],
                         verb=u.copy())
    cfg = LossConfig(sigma=0.3, negative_variant=variant)
    out = combined_vfc(batch, cfg)
    for term, value in out.terms.items():
        assert value == pytest.approx(1.0, abs=1e-9), (term, value)
    expect = cfg.lambda1 + cfg.lambda2 + cfg.lambda3
    assert out.total == pytest.approx(expect, abs=1e-9)


def test_uniform_identity_both_direction_and_hardneg_mode():
    B = 4
    u = np.tile([0.0, 1.0, 0.0], (B, 1))
    batch = BatchTensors(video=u, caption=u.copy(),
                         hard=[u[:2].copy() for _ in range(B)],
                         verb=u.copy())
    for cfg in (LossConfig(sigma=0.2, verb_phrase_direction="both"),
                LossConfig(sigma=0.2, nce_mode="hardneg_nce", beta=0.3)):
        out = combined_vfc(batch, cfg)
        for term, value in out.terms.items():
            assert value == pytest.approx(1.0, abs=1e-9), (term, cfg.nce_mode)


# (term, batch size, hard-negative counts, verb members, verb direction,
# the term's uniform value); verb members None means a batch without verbs
UNIFORM_CASES = [
    (info_nce_t2v, 8, None, None, "v2t_only", np.log(8)),
    (info_nce_v2t, 5, None, None, "v2t_only", np.log(5)),
    (loss_hn_uncalibrated, 4, [1, 2, 0, 1], None, "v2t_only", np.log(8)),
    (loss_chn, 4, [1, 2, 0, 1], None, "v2t_only", np.mean([np.log(4 + n) for n in (1, 2, 0, 1)])),
    # All-zero counts keep the mean of B copies of log B, not log B itself.
    (loss_chn, 4, [0, 0, 0, 0], None, "v2t_only", np.mean(np.log(np.full(4, 4)))),
    (loss_verb_phrase, 4, None, 3, "v2t_only", np.log(3)),
    (loss_verb_phrase, 4, None, 0, "v2t_only", 1.0),
    (loss_verb_phrase, 4, None, 1, "v2t_only", 1.0),
    (loss_verb_phrase, 4, None, 2, "v2t_only", np.log(2)),
    (loss_verb_phrase, 4, None, 0, "both", 1.0),
    (loss_verb_phrase, 4, None, 1, "both", 1.0),
    (loss_verb_phrase, 4, None, 2, "both", 0.5 * (np.log(2) + np.log(4))),
]


@pytest.mark.parametrize("fn,B,counts,members,direction,expected", UNIFORM_CASES,
                         ids=["t2v", "v2t", "hn", "chn", "chn_no_negatives", "verb_3",
                              "verb_0", "verb_1", "verb_2", "both_0", "both_1", "both_2"])
def test_each_term_carries_its_uniform_value(fn, B, counts, members, direction, expected, rng):
    if members is None:
        batch = random_batch(rng, B, 4, hard_counts=counts)
    else:
        batch = random_batch(rng, B, 4, with_verb=True, mask=np.arange(B) < members)
    out = fn(batch, LossConfig(sigma=0.2, verb_phrase_direction=direction))
    assert out.uniform == expected


def test_combined_looks_each_term_up_at_call_time(monkeypatch, rng):
    """combined_vfc calls the term functions through the module, so a
    wrapper set on the module attribute (as a tracer does) sees each call."""
    called = []
    for name in ("info_nce_t2v", "info_nce_v2t", "loss_hn_uncalibrated", "loss_chn",
                 "loss_verb_phrase"):
        def wrapper(batch, cfg, _name=name, _fn=getattr(losses, name)):
            called.append(_name)
            return _fn(batch, cfg)
        monkeypatch.setattr(losses, name, wrapper)
    batch = random_batch(rng, 4, 4, hard_counts=[1, 0, 2, 1], with_verb=True)
    for variant in NEGATIVE_VARIANTS:
        combined_vfc(batch, LossConfig(sigma=0.2, negative_variant=variant))
    assert called == ["info_nce_t2v", "info_nce_v2t", "loss_verb_phrase",
                      "info_nce_t2v", "loss_hn_uncalibrated", "loss_verb_phrase",
                      "info_nce_t2v", "loss_chn", "loss_verb_phrase"]


# -- structural properties ------------------------------------------------

def test_zero_negative_delegation_is_bit_exact(rng):
    """With no hard negatives both hn variants ARE the v2t baseline."""
    batch = random_batch(rng, 5, 6)
    cfg = LossConfig(sigma=0.1)
    base = info_nce_v2t(batch, cfg)
    for fn in (loss_hn_uncalibrated, loss_chn):
        out = fn(batch, cfg)
        assert out.total == base.total
        assert np.array_equal(out.grads.video, base.grads.video)
        assert np.array_equal(out.grads.caption, base.grads.caption)


def test_verb_loss_requires_verb_embeddings(rng):
    batch = random_batch(rng, 3, 4)
    with pytest.raises(ValueError):
        loss_verb_phrase(batch, LossConfig(sigma=0.1))


def test_all_masked_verb_term_is_zero(rng):
    batch = random_batch(rng, 3, 4, with_verb=True,
                         mask=np.zeros(3, dtype=bool))
    out = loss_verb_phrase(batch, LossConfig(sigma=0.1))
    assert out.total == 0.0
    assert not out.grads.video.any()


def test_hardneg_weights_sum_to_count(rng):
    cfg = LossConfig(sigma=0.05, beta=0.4)
    sims = rng.uniform(-1, 1, size=7)
    w = hardneg_nce_weights(sims, cfg)
    assert w.sum() == pytest.approx(7.0)
    assert (w > 0).all()
    # Higher-similarity negatives get at least as much weight.
    order = np.argsort(sims)
    assert (np.diff(w[order]) >= -1e-12).all()
    assert hardneg_nce_weights(np.zeros(0), cfg).size == 0


def test_hardneg_beta_zero_is_uniform(rng):
    w = hardneg_nce_weights(rng.uniform(-1, 1, 5),
                            LossConfig(sigma=0.1, beta=0.0))
    assert np.allclose(w, 1.0, atol=1e-12)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(sigma=0.0)
    with pytest.raises(ValueError):
        LossConfig(negative_variant="nope")
    with pytest.raises(ValueError):
        LossConfig(nce_mode="nope")
    with pytest.raises(ValueError):
        LossConfig(alpha=0.0)
    with pytest.raises(ValueError):
        LossConfig(beta=-0.1)
    with pytest.raises(ValueError):
        LossConfig(verb_phrase_direction="sideways")


def test_batch_validation(rng):
    with pytest.raises(ValueError):
        BatchTensors(video=unit_rows(rng, 1, 4), caption=unit_rows(rng, 1, 4))
    with pytest.raises(ValueError):
        BatchTensors(video=unit_rows(rng, 3, 4), caption=unit_rows(rng, 3, 5))
    with pytest.raises(ValueError):
        BatchTensors(video=unit_rows(rng, 3, 4), caption=unit_rows(rng, 3, 4),
                     hard=[np.zeros((0, 4))])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), B=st.integers(2, 6))
def test_losses_nonnegative_and_permutation_equivariant(seed, B):
    """InfoNCE rows include the positive in the denominator, so every loss
    is >= 0; permuting the batch permutes gradients and keeps the value."""
    rng = np.random.default_rng(seed)
    batch = random_batch(rng, B, 5, hard_counts=[int(rng.integers(3)) for _ in range(B)])
    cfg = LossConfig(sigma=0.3)
    out = combined_vfc(batch, cfg)
    assert out.total >= -1e-12
    perm = rng.permutation(B)
    shuffled = BatchTensors(video=batch.video[perm], caption=batch.caption[perm],
                            hard=[batch.hard[i] for i in perm])
    out2 = combined_vfc(shuffled, cfg)
    assert out2.total == pytest.approx(out.total, rel=1e-12)
    assert np.allclose(out2.grads.video, out.grads.video[perm], atol=1e-12)
    assert np.allclose(out2.grads.caption, out.grads.caption[perm], atol=1e-12)


@pytest.mark.parametrize("variant", ["none", "hn_uncalibrated", "calibrated_hn"])
@pytest.mark.parametrize("mode", ["standard", "hardneg_nce"])
def test_stacked_and_per_item_negatives_give_the_same_bits(variant, mode, rng):
    """A batch built from a per-item list and one built from the stacked
    array give equal totals, terms and gradients bit for bit; the stacked
    gradient indexes per item."""
    counts = [2, 0, 3, 1, 0]
    listed = random_batch(rng, 5, 4, hard_counts=counts, with_verb=True)
    blocks = [listed.hard[i].copy() for i in range(5)]
    listed = BatchTensors(listed.video, listed.caption, blocks, listed.verb, listed.verb_mask)
    offsets = np.cumsum([0, *counts])
    stacked = BatchTensors(listed.video, listed.caption,
                           StackedRows(np.concatenate(blocks), offsets),
                           listed.verb, listed.verb_mask)
    cfg = LossConfig(sigma=0.2, negative_variant=variant, nce_mode=mode)
    a, b = combined_vfc(listed, cfg), combined_vfc(stacked, cfg)
    assert a.total == b.total and a.terms == b.terms
    for name in ("video", "caption", "verb"):
        assert np.array_equal(getattr(a.grads, name), getattr(b.grads, name))
    assert np.array_equal(a.grads.hard.rows, b.grads.hard.rows)
    assert stacked.hard_counts() == listed.hard_counts() == counts
    for i, n in enumerate(counts):
        assert np.array_equal(stacked.hard[i], blocks[i])
        assert b.grads.hard[i].shape == (n, 4)
        assert np.array_equal(b.grads.hard[i], b.grads.hard.rows[offsets[i]:offsets[i + 1]])
    assert [h.shape[0] for h in b.grads.hard] == counts
