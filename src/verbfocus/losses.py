"""Contrastive losses over paired unit embeddings, with analytic gradients.

Every term is one masked InfoNCE over a similarity matrix of anchor rows
against candidate columns at temperature sigma: row i scores its positive
column against the columns its negative mask switches on, evaluated with a
max-subtracted log-sum-exp. The terms differ only in candidates and mask:

  t2v          caption anchors over the batch videos; off-diagonal
  v2t          video anchors over the batch captions; off-diagonal
  hn           v2t over [captions; all negatives]; every negative column on
  chn          the same candidates; only the row's own negatives on
  verb_phrase  member videos over member phrases; off-diagonal ("both" adds
               member phrases over all batch videos; every other video on)

The batch's hard negatives are one stacked (sum n_i, d) array with item
offsets (StackedRows); the negative terms append it to the caption columns
as it is and return its gradient in the same layout. The optional
hard-negative weighting reweights negative denominator terms by
softmax(beta * sim / sigma), scaled to sum to the negative count, with the
positive scaled by alpha; gradients flow through the weights. Reductions
are means over contributing rows, so values compare across batch sizes.
Each term also returns its value under a uniform prediction
(LossOutput.uniform), worked out next to its mask; combined_vfc divides by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import check_fields

NEGATIVE_VARIANTS = ("none", "hn_uncalibrated", "calibrated_hn")
NCE_MODES = ("standard", "hardneg_nce")
VERB_DIRECTIONS = ("v2t_only", "both")


@dataclass(frozen=True)
class LossConfig:
    sigma: float = 5e-3
    lambda1: float = 2.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    negative_variant: str = "calibrated_hn"
    nce_mode: str = "standard"
    alpha: float = 1.0
    beta: float = 0.1
    normalize_by_uniform: bool = True
    verb_phrase_direction: str = "v2t_only"

    def __post_init__(self):
        check_fields(self, beta=0)
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.negative_variant not in NEGATIVE_VARIANTS:
            raise ValueError(f"unknown negative_variant {self.negative_variant!r}")
        if self.nce_mode not in NCE_MODES:
            raise ValueError(f"unknown nce_mode {self.nce_mode!r}")
        if self.verb_phrase_direction not in VERB_DIRECTIONS:
            raise ValueError(f"unknown verb_phrase_direction {self.verb_phrase_direction!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass
class StackedRows:
    """Per-item blocks of rows stacked into one (sum n_i, d) array: item i's
    block is rows[offsets[i]:offsets[i + 1]], and indexing by item returns
    that block as a view into rows."""

    rows: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of_blocks(cls, blocks, d: int) -> "StackedRows":
        blocks = [np.asarray(b, dtype=np.float64).reshape(-1, d) for b in blocks]
        offsets = np.cumsum([0, *(b.shape[0] for b in blocks)], dtype=np.int64)
        return cls(np.concatenate(blocks) if blocks else np.zeros((0, d)), offsets)

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[i]
        return self.rows[self.offsets[i]:self.offsets[i + 1]]


@dataclass
class BatchTensors:
    """One training batch of f64 embeddings. video, caption: (B, d). hard:
    each item's sampled hard-negative caption embeddings as StackedRows,
    given as that or as a length-B list of (n_i, d) arrays. verb: optional
    (B, d) verb-phrase embeddings with verb_mask marking items that have one."""

    video: np.ndarray
    caption: np.ndarray
    hard: StackedRows | list = field(default_factory=list)
    verb: np.ndarray | None = None
    verb_mask: np.ndarray | None = None

    def __post_init__(self):
        self.video = np.asarray(self.video, dtype=np.float64)
        self.caption = np.asarray(self.caption, dtype=np.float64)
        B, d = self.video.shape
        if B < 2:
            raise ValueError("batch size must be at least 2")
        if self.caption.shape != (B, d):
            raise ValueError("caption shape must match video shape")
        if not isinstance(self.hard, StackedRows):
            self.hard = StackedRows.of_blocks(self.hard or [()] * B, d)
        if len(self.hard) != B:
            raise ValueError("hard negatives must have one block per batch item")
        self.hard.rows = np.asarray(self.hard.rows, dtype=np.float64).reshape(-1, d)
        if self.verb is not None:
            self.verb = np.asarray(self.verb, dtype=np.float64)
            if self.verb.shape != (B, d):
                raise ValueError("verb shape must match video shape")
            mask = np.ones(B, dtype=bool) if self.verb_mask is None else self.verb_mask
            self.verb_mask = np.asarray(mask, dtype=bool)
            if self.verb_mask.shape != (B,):
                raise ValueError("verb_mask must have one flag per item")

    @property
    def batch_size(self) -> int:
        return self.video.shape[0]

    def hard_counts(self) -> list[int]:
        return self.hard.counts().tolist()


@dataclass
class LossGrads:
    """Gradients with respect to the batch tensors. hard is in the batch's
    StackedRows blocks, or None for a term that does not reach the hard
    negatives; verb is None when the term has no verb gradient."""

    video: np.ndarray
    caption: np.ndarray
    hard: StackedRows | None = None
    verb: np.ndarray | None = None


@dataclass
class LossOutput:
    """A mean loss, its named parts, its gradients, and uniform: the mean over
    the anchor rows of log(the number of candidates in the row's denominator);
    1.0 for a term with at most one anchor row and for the combined objective."""

    total: float
    terms: dict[str, float]
    grads: LossGrads
    uniform: float = 1.0


def hardneg_nce_weights(neg_sims: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """Per-negative weights: n * softmax(beta * sims / sigma); sum equals n."""
    s = np.asarray(neg_sims, dtype=np.float64)
    if s.size == 0:
        return np.zeros(0)
    logits = cfg.beta * s / cfg.sigma
    m = logits.max()
    ex = np.exp(logits - m)
    return s.size * ex / ex.sum()


def _softmax_rows(x: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Row softmax of x in place with the off entries left out (they get 0);
    returns each row's log-sum-exp as a column."""
    np.copyto(x, -np.inf, where=off)
    m = x.max(axis=1, keepdims=True)
    x -= m
    np.exp(x, out=x)
    z = x.sum(axis=1, keepdims=True)
    x /= z
    return m + np.log(z)


def _masked_nce(sims: np.ndarray, pos: np.ndarray, negs: np.ndarray,
                cfg: LossConfig, nce_mode: str) -> np.ndarray:
    """Per-row losses -p/sigma + log(denominator); sims becomes d/dsims.

    Row r's positive is column pos[r] and its negatives are the columns where
    negs[r] is set (never the positive). Works in place on sims, so a call
    allocates no other matrix of its size, the hard-negative weights aside.
    Under hardneg_nce every row needs at least one negative.
    """
    rows = np.arange(sims.shape[0])
    off = ~negs
    sims /= cfg.sigma
    p = sims[rows, pos]
    hardneg = nce_mode == "hardneg_nce"
    if hardneg:
        # Negative j enters as n * r_j * e^{s_j/sigma}, r = softmax(beta*s/sigma).
        r = cfg.beta * sims
        log_rz = _softmax_rows(r, off)
        sims *= 1.0 + cfg.beta
        sims += np.log(np.count_nonzero(negs, axis=1, keepdims=True)) - log_rz
        sims[rows, pos] = np.log(cfg.alpha) + p
    off[rows, pos] = False
    loss = _softmax_rows(sims, off)[:, 0] - p
    if hardneg:
        # Through the weights: ((1+beta) q_j - beta * Q * r_j) with Q = sum q.
        post_pos = sims[rows, pos]
        sims[rows, pos] = 0.0
        r *= cfg.beta * sims.sum(axis=1, keepdims=True)
        sims *= 1.0 + cfg.beta
        sims -= r
        sims[rows, pos] = post_pos
    sims[rows, pos] -= 1.0
    sims /= cfg.sigma
    return loss


def _contrast(anchors, candidates, pos, negs, cfg: LossConfig, nce_mode: str):
    """Mean masked InfoNCE of the anchor rows with d/danchors, d/dcandidates,
    under nce_mode with cfg's sigma, alpha and beta."""
    dsims = anchors @ candidates.T
    loss = _masked_nce(dsims, pos, negs, cfg, nce_mode).mean()
    dsims /= anchors.shape[0]
    return float(loss), dsims @ candidates, dsims.T @ anchors


def _in_batch(anchors, candidates, cfg: LossConfig, nce_mode: str):
    """_contrast with row i's positive at column i, every other column on."""
    n = anchors.shape[0]
    return _contrast(anchors, candidates, np.arange(n), ~np.eye(n, dtype=bool), cfg, nce_mode)


def info_nce_t2v(batch: BatchTensors, cfg: LossConfig) -> LossOutput:
    """Caption anchors against the batch videos."""
    total, gc, gv = _in_batch(batch.caption, batch.video, cfg, cfg.nce_mode)
    return LossOutput(total, {"t2v": total}, LossGrads(gv, gc), float(np.log(batch.batch_size)))


def info_nce_v2t(batch: BatchTensors, cfg: LossConfig) -> LossOutput:
    """Video anchors against the batch captions."""
    total, gv, gc = _in_batch(batch.video, batch.caption, cfg, cfg.nce_mode)
    return LossOutput(total, {"v2t": total}, LossGrads(gv, gc), float(np.log(batch.batch_size)))


def _v2t_with_negatives(batch: BatchTensors, cfg: LossConfig, term: str,
                        own_only: bool) -> LossOutput:
    """v2t over [captions; stacked negatives], all or only own negatives on.
    With no negatives this is info_nce_v2t, bit for bit."""
    B = batch.batch_size
    idx = np.arange(B)
    counts = batch.hard.counts()
    candidates = np.vstack([batch.caption, batch.hard.rows])
    negs = np.ones((B, candidates.shape[0]), dtype=bool)
    negs[idx, idx] = False
    if own_only:
        negs[:, B:] = np.repeat(idx, counts) == idx[:, None]
    uniform = np.mean(np.log(B + counts)) if own_only else np.log(B + counts.sum())
    total, gv, gc = _contrast(batch.video, candidates, idx, negs, cfg, cfg.nce_mode)
    hard = StackedRows(gc[B:], batch.hard.offsets)
    return LossOutput(total, {term: total}, LossGrads(gv, gc[:B], hard), float(uniform))


def loss_hn_uncalibrated(batch: BatchTensors, cfg: LossConfig) -> LossOutput:
    """v2t with every item's hard negatives in every row's denominator."""
    return _v2t_with_negatives(batch, cfg, "hn_uncalibrated", own_only=False)


def loss_chn(batch: BatchTensors, cfg: LossConfig) -> LossOutput:
    """v2t where each row sees only its own hard negatives (calibrated form)."""
    return _v2t_with_negatives(batch, cfg, "chn", own_only=True)


def loss_verb_phrase(batch: BatchTensors, cfg: LossConfig) -> LossOutput:
    """Video against per-item verb phrases; masked items contribute nothing.

    A masked item is excluded both as an anchor row and as a denominator
    column. Always plain InfoNCE: the hard-negative weighting applies to the
    caption-side terms only. With direction "both" the phrase-anchored
    direction (over all batch videos) is averaged in.
    """
    if batch.verb is None:
        raise ValueError("batch has no verb-phrase embeddings")
    grads = LossGrads(np.zeros_like(batch.video), np.zeros_like(batch.caption),
                      verb=np.zeros_like(batch.verb))
    members = np.flatnonzero(batch.verb_mask)
    M = members.size
    if M == 0:
        return LossOutput(0.0, {"verb_phrase": 0.0}, grads)
    both = cfg.verb_phrase_direction == "both"
    scale = 0.5 if both else 1.0
    V = batch.video[members]
    T = batch.verb[members]
    total, gv, gt = _in_batch(V, T, cfg, "standard")
    grads.video[members] = scale * gv
    grads.verb[members] = scale * gt
    total *= scale
    if both:
        negs = np.ones((M, batch.batch_size), dtype=bool)
        negs[np.arange(M), members] = False
        total2, gt2, gv2 = _contrast(T, batch.video, members, negs, cfg, "standard")
        grads.verb[members] += scale * gt2
        grads.video += scale * gv2
        total += scale * total2
    uniform = 0.5 * (np.log(M) + np.log(batch.batch_size)) if both else np.log(M)
    return LossOutput(total, {"verb_phrase": total}, grads, float(uniform) if M > 1 else 1.0)


def combined_vfc(batch: BatchTensors, cfg: LossConfig) -> LossOutput:
    """Weighted sum of t2v, the configured negative variant, and verb terms.

    The ``chn`` entry in ``terms`` holds whichever negative variant the
    config selects (plain v2t when negative_variant is "none"). With
    normalize_by_uniform, each stored term value is the raw mean divided by
    the term's uniform value, so a uniform batch scores 1.0 per term.
    """
    t2v = info_nce_t2v(batch, cfg)
    if cfg.negative_variant == "none":
        mid = info_nce_v2t(batch, cfg)
    elif cfg.negative_variant == "hn_uncalibrated":
        mid = loss_hn_uncalibrated(batch, cfg)
    else:
        mid = loss_chn(batch, cfg)
    verb = None if batch.verb is None else loss_verb_phrase(batch, cfg)
    members = verb is not None and bool(batch.verb_mask.any())

    div1, div2, div3 = (out.uniform if cfg.normalize_by_uniform and out is not None else 1.0
                        for out in (t2v, mid, verb))
    s1, s2, s3 = cfg.lambda1 / div1, cfg.lambda2 / div2, cfg.lambda3 / div3
    term1 = t2v.total / div1
    term2 = mid.total / div2
    term3 = verb.total / div3 if members else 0.0
    total = cfg.lambda1 * term1 + cfg.lambda2 * term2 + cfg.lambda3 * term3
    # Only the negative term reaches the hard negatives: scale its stacked
    # gradient, or give zeros when it has none.
    hard = mid.grads.hard
    grads = LossGrads(
        video=s1 * t2v.grads.video + s2 * mid.grads.video,
        caption=s1 * t2v.grads.caption + s2 * mid.grads.caption,
        hard=StackedRows(np.zeros_like(batch.hard.rows) if hard is None else s2 * hard.rows,
                         batch.hard.offsets),
        verb=None if verb is None else s3 * verb.grads.verb,
    )
    if members:
        grads.video += s3 * verb.grads.video
    terms = {"t2v": float(term1), "chn": float(term2), "verb_phrase": float(term3)}
    return LossOutput(float(total), terms, grads)
