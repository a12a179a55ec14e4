"""Reference computations made apart from verbfocus, used by the checks.

Nothing here calls the package's compute code. Embeddings are recomputed from
the encoder tables by the documented recipe (lowercase, punctuation to spaces,
whitespace split, mean of token rows with one shared unknown row, L2
normalize) in long double. Losses follow their definitions with plain,
unshifted exponential sums. Metrics are brute force with the documented tie
rules: argmax and rankings favour the lower index, AP keeps input order.

Every check returns a list of failure messages; an empty list is a pass.
Comparisons that a float64 rounding could flip (two similarities within
NEAR of each other that are not exactly equal) widen the accepted range
instead of failing, so a check only fails on a real disagreement.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

L = np.longdouble
NEAR = 1e-12
LOSS_RTOL = 1e-9
FD_STEP = 1e-6
FD_ATOL = 1e-6
FD_RTOL = 1e-5
METRIC_TOL = 1e-12

_PUNCT = re.compile(r"[^\w\s]+")


def tokens(text: str) -> list[str]:
    return _PUNCT.sub(" ", text.lower()).split()


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt((x * x).sum(axis=1))[:, None]


class TextRows:
    """Token rows of a fixed list of texts, for embedding them from any table."""

    def __init__(self, vocab, texts):
        index = {t: i for i, t in enumerate(vocab)}
        unknown = len(vocab)
        flat, starts, counts = [], [], []
        for text in texts:
            toks = tokens(text)
            if not toks:
                raise ValueError(f"text has no tokens: {text!r}")
            starts.append(len(flat))
            counts.append(len(toks))
            flat.extend(index.get(t, unknown) for t in toks)
        self.flat = np.asarray(flat, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)

    def embed(self, token_table: np.ndarray) -> np.ndarray:
        sums = np.add.reduceat(token_table[self.flat], self.starts, axis=0)
        return _normalize_rows(sums / self.counts[:, None].astype(L))


def embed_videos(video_ids, all_ids, video_table: np.ndarray) -> np.ndarray:
    row = {v: i for i, v in enumerate(all_ids)}
    return _normalize_rows(video_table[[row[v] for v in video_ids]])


def ld_tables(enc) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(enc.token_table, dtype=L), np.asarray(enc.video_table, dtype=L)


# -- losses ----------------------------------------------------------------

def _nce(anchors, candidates, mask, sigma) -> np.longdouble:
    """Mean over rows of -s_ii/sigma + log sum_{j in mask_i} exp(s_ij/sigma).

    Row i's positive is candidate column i; mask must include it.
    """
    s = anchors @ candidates.T / L(sigma)
    n = anchors.shape[0]
    rows = -s[np.arange(n), np.arange(n)] + np.log((np.exp(s) * mask).sum(axis=1))
    return rows.mean()


class BatchOracle:
    """The combined VFC objective of one sampled batch, from the definitions.

    Built from a manifest and a batch index record (caption rows, each row's
    hard-negative generation rows, each row's verb-phrase choice).
    """

    def __init__(self, manifest, record, enc, loss_cfg):
        self.cfg = loss_cfg
        caps = [manifest.captions[i] for i in record.caption_indices]
        self.B = len(caps)
        self.video_ids = [c.video_id for c in caps]
        self.all_video_ids = list(enc.video_ids)
        hard = [[manifest.generations[int(g)].text for g in gl] for gl in record.hard_indices]
        self.hard_counts = np.array([len(h) for h in hard], dtype=np.int64)
        choices = [int(p) for p in record.phrase_choices]
        self.members = np.array([i for i, p in enumerate(choices) if p >= 0], dtype=np.int64)
        verbs = [caps[i].verb_phrases[choices[i]].surface for i in self.members]
        texts = [c.text for c in caps] + [t for h in hard for t in h] + verbs
        self.rows = TextRows(enc.vocab, texts)
        self.token_rows_used = np.unique(self.rows.flat)
        self.video_rows_used = np.unique([self.all_video_ids.index(v) for v in self.video_ids])

    def supported(self) -> str | None:
        if self.cfg.nce_mode != "standard":
            return f"no oracle for nce_mode {self.cfg.nce_mode!r}"
        if self.cfg.verb_phrase_direction != "v2t_only":
            return f"no oracle for verb direction {self.cfg.verb_phrase_direction!r}"
        return None

    def terms(self, token_table, video_table) -> dict[str, np.longdouble]:
        """Normalized t2v, negative and verb terms plus the weighted total."""
        cfg, B = self.cfg, self.B
        text = self.rows.embed(token_table)
        V = embed_videos(self.video_ids, self.all_video_ids, video_table)
        n_hard = int(self.hard_counts.sum())
        C = text[:B]
        H = text[B:B + n_hard]
        P = text[B + n_hard:]
        t2v = _nce(C, V, np.ones((B, B)), cfg.sigma)
        div1 = np.log(L(B))
        if cfg.negative_variant == "none" or n_hard == 0:
            neg = _nce(V, C, np.ones((B, B)), cfg.sigma)
        else:
            cand = np.vstack([C, H])
            mask = np.ones((B, B + n_hard))
            if cfg.negative_variant == "calibrated_hn":
                owner = np.repeat(np.arange(B), self.hard_counts)
                mask[:, B:] = owner[None, :] == np.arange(B)[:, None]
            neg = _nce(V, cand, mask, cfg.sigma)
        if cfg.negative_variant == "hn_uncalibrated":
            div2 = np.log(L(B + n_hard))
        elif cfg.negative_variant == "calibrated_hn":
            div2 = np.log(L(B) + self.hard_counts.astype(L)).mean()
        else:
            div2 = np.log(L(B))
        M = self.members.size
        verb = L(0)
        if M:
            verb = _nce(V[self.members], P, np.ones((M, M)), cfg.sigma)
        div3 = np.log(L(M)) if M > 1 else L(1)
        if not cfg.normalize_by_uniform:
            div1 = div2 = div3 = L(1)
        out = {"t2v": t2v / div1, "chn": neg / div2, "verb_phrase": verb / div3}
        out["total"] = (L(cfg.lambda1) * out["t2v"] + L(cfg.lambda2) * out["chn"]
                        + L(cfg.lambda3) * out["verb_phrase"])
        return out


def _rel(a, b) -> float:
    return abs(float(a) - float(b)) / max(1.0, abs(float(b)))


def check_loss(oracle: BatchOracle, enc, program_out, label: str) -> list[str]:
    """Program loss value and terms on one batch against the oracle."""
    why = oracle.supported()
    if why:
        return [f"{label}: {why}"]
    ref = oracle.terms(*ld_tables(enc))
    fails = []
    if _rel(program_out.total, ref["total"]) > LOSS_RTOL:
        fails.append(f"{label}: loss {program_out.total!r} vs oracle {float(ref['total'])!r}")
    for key in ("t2v", "chn", "verb_phrase"):
        got = program_out.terms.get(key)
        if got is None or _rel(got, ref[key]) > LOSS_RTOL:
            fails.append(f"{label}: term {key} {got!r} vs oracle {float(ref[key])!r}")
    return fails


def check_gradients(oracle: BatchOracle, enc, grads, rng, n_coords: int,
                    label: str) -> list[str]:
    """Central differences of the oracle loss at sampled table coordinates.

    Rows are drawn from those the batch touches, columns at random. A frozen
    tower must report an exactly zero gradient.
    """
    why = oracle.supported()
    if why:
        return [f"{label}: {why}"]
    token, video = ld_tables(enc)
    fails = []
    probes = (("token", token, grads.token, oracle.token_rows_used, enc.config.freeze_text),
              ("video", video, grads.video, oracle.video_rows_used, enc.config.freeze_video))
    for name, table, analytic, rows, frozen in probes:
        if frozen:
            if np.any(analytic != 0.0):
                fails.append(f"{label}: frozen {name} tower has a nonzero gradient")
            continue
        for _ in range(n_coords):
            r = int(rows[rng.integers(rows.size)])
            c = int(rng.integers(table.shape[1]))
            keep = table[r, c]
            h = L(FD_STEP)
            table[r, c] = keep + h
            up = oracle.terms(token, video)["total"]
            table[r, c] = keep - h
            dn = oracle.terms(token, video)["total"]
            table[r, c] = keep
            fd = float((up - dn) / (2 * h))
            g = float(analytic[r, c])
            if abs(fd - g) > FD_ATOL + FD_RTOL * abs(g):
                fails.append(f"{label}: d/d{name}[{r},{c}] analytic {g!r} vs central difference {fd!r}")
    return fails


def check_training(metrics, expected_steps: int, steps: int, epochs: int,
                   label: str) -> list[str]:
    """Finite epoch losses, the expected epoch and step counts, and descent."""
    fails = []
    if len(metrics) != epochs:
        fails.append(f"{label}: {len(metrics)} epoch rows, expected {epochs}")
    for row in metrics:
        for key in ("total", "t2v", "chn", "verb_phrase"):
            if not np.isfinite(row[key]):
                fails.append(f"{label}: epoch {row['epoch']} {key} is {row[key]!r}")
    if steps != expected_steps:
        fails.append(f"{label}: {steps} steps, expected {expected_steps}")
    if metrics and not metrics[-1]["total"] < metrics[0]["total"]:
        fails.append(f"{label}: last-epoch loss {metrics[-1]['total']!r} not below "
                     f"first {metrics[0]['total']!r}")
    return fails


def epoch_batch_sizes(n_train: int, batch_size: int) -> list[int]:
    """Batch sizes of one epoch: chunks of batch_size, dropping a final chunk below 2."""
    bs = min(batch_size, n_train)
    full, tail = divmod(n_train, bs)
    return [bs] * full + ([tail] if tail >= 2 else [])


# -- corpus and generation -------------------------------------------------

def train_split_captions(manifest):
    split = {v.video_id: v.split for v in manifest.videos}
    return [c for c in manifest.captions if split[c.video_id] == "train"]


def check_manifest_equal(a, b, label: str) -> list[str]:
    fails = []
    for part in ("videos", "captions", "generations"):
        x, y = list(getattr(a, part)), list(getattr(b, part))
        if x != y:
            n = sum(1 for p, q in zip(x, y) if p != q) + abs(len(x) - len(y))
            fails.append(f"{label}: {n} {part} records differ after the round trip")
    if a.schema_version != b.schema_version:
        fails.append(f"{label}: schema version differs after the round trip")
    return fails


def check_generation(source, generated, candidates_per_caption: int) -> tuple[int, list[str]]:
    """Hard negatives share no verb with their parent; at most the cap per parent.

    The verb class is the head token of every phrase in the source manifest,
    which is the manifest lexicon's documented definition. Returns the
    number of offending generations and the messages.
    """
    heads = {p.surface.split()[0] for c in source.captions for p in c.verb_phrases}
    heads |= {p.surface.split()[0] for g in source.generations for p in g.verb_phrases}
    parents = {(c.video_id, c.text): c for c in source.captions}
    new = list(generated.generations)[len(source.generations):]
    per_parent = Counter()
    bad = 0
    fails = []
    for g in new:
        key = (g.parent_video_id, g.parent_caption)
        per_parent[key] += 1
        parent = parents.get(key)
        if parent is None or g.kind != "hard_negative":
            bad += 1
            fails.append(f"generation {g.text!r}: no such parent caption or wrong kind")
            continue
        p_verbs = {t for t in tokens(parent.text) if t in heads}
        p_verbs |= {p.surface.split()[0] for p in parent.verb_phrases}
        g_verbs = {t for t in tokens(g.text) if t in heads}
        g_verbs |= {p.surface.split()[0] for p in g.verb_phrases}
        shared = p_verbs & g_verbs
        shared_phrases = {p.surface for p in g.verb_phrases} & {p.surface for p in parent.verb_phrases}
        if shared or shared_phrases:
            bad += 1
            fails.append(f"generation {g.text!r} shares {sorted(shared | shared_phrases)} "
                         f"with its parent")
    for key, n in per_parent.items():
        if n > candidates_per_caption:
            bad += n - candidates_per_caption
            fails.append(f"parent {key[1]!r} got {n} hard negatives, cap {candidates_per_caption}")
    return bad, fails[:10]


# -- calibration -----------------------------------------------------------

def _phrase_counts(records) -> Counter:
    out = Counter()
    for r in records:
        for p in r.verb_phrases:
            out[p.surface] += 1
    return out


def _kept_negatives(manifest):
    return [g for g in manifest.generations if g.kind == "hard_negative" and g.kept]


def check_calibration(before, after, report, again, report_again) -> tuple[int, list[str]]:
    """Kept G_w <= S_w for every phrase, a subset of the input, idempotent.

    `again` is the filter applied to `after`; it must keep every candidate.
    Returns the number of offending candidates and the messages.
    """
    fails = []
    bad = 0
    S = _phrase_counts(train_split_captions(before))
    G = _phrase_counts(_kept_negatives(after))
    over = {w: (g, S.get(w, 0)) for w, g in G.items() if g > S.get(w, 0)}
    if over:
        bad += sum(g - s for g, s in over.values())
        w = sorted(over)[0]
        fails.append(f"{len(over)} phrases keep G > S, e.g. {w!r} G={over[w][0]} S={over[w][1]}")
    b_gens, a_gens = list(before.generations), list(after.generations)
    if len(b_gens) != len(a_gens):
        return bad + abs(len(b_gens) - len(a_gens)), fails + ["generation count changed"]
    for g0, g1 in zip(b_gens, a_gens):
        if g1.kept and not g0.kept:
            bad += 1
            fails.append(f"{g1.text!r} kept after but not before")
        if (g0.parent_video_id, g0.parent_caption, g0.text, g0.kind, g0.verb_phrases) != \
                (g1.parent_video_id, g1.parent_caption, g1.text, g1.kind, g1.verb_phrases):
            bad += 1
            fails.append(f"{g0.text!r} changed beyond its kept flag")
        if g0.kind != "hard_negative" and g0.kept != g1.kept:
            bad += 1
            fails.append(f"paraphrase {g0.text!r} changed its kept flag")
    candidates = sum(1 for g in b_gens if g.kind == "hard_negative" and g.kept)
    kept = len(_kept_negatives(after))
    if (report.candidates_before, report.kept) != (candidates, kept):
        fails.append(f"report says {report.kept}/{report.candidates_before} kept, "
                     f"recount {kept}/{candidates}")
    flips = sum(1 for g1, g2 in zip(a_gens, again.generations) if g1.kept != g2.kept)
    if flips or report_again.discarded:
        bad += flips
        fails.append(f"second calibration changed {flips} flags, discarded {report_again.discarded}")
    return bad, fails[:10]


def check_usage(counter, calibrated, cfg, epochs: int) -> list[str]:
    """Exact usage totals over `epochs` sampled epochs.

    Every train caption is a positive once per epoch; a caption's phrase is
    a negative B_b - 1 times in its batch of size B_b; a sampled own negative
    adds one use under the calibrated variant, and every pool no larger than
    n_hard_max is sampled whole. Valid for one phrase per record, which the
    caller's corpus guarantees.
    """
    fails = []
    caps = train_split_captions(calibrated)
    if any(len(c.verb_phrases) != 1 for c in caps):
        return ["usage check needs one phrase per caption"]
    if len(caps) % min(cfg.batch_size, len(caps)) == 1:
        return ["usage check needs no dropped tail caption"]
    S = _phrase_counts(caps)
    pos = {w: n for w, n in counter.pos.items() if n}
    want_pos = {w: epochs * n for w, n in S.items()}
    if pos != want_pos:
        fails.append("positive usage counts differ from epochs x S_w")
    pools = Counter((g.parent_video_id, g.parent_caption) for g in _kept_negatives(calibrated))
    if any(len(g.verb_phrases) != 1 for g in _kept_negatives(calibrated)):
        return fails + ["usage check needs one phrase per generation"]
    if max(pools.values(), default=0) > cfg.n_hard_max:
        return fails + ["usage check needs pools within n_hard_max"]
    in_batch = sum(b * (b - 1) for b in epoch_batch_sizes(len(caps), cfg.batch_size))
    want_neg = epochs * (in_batch + sum(pools.values()))
    got_neg = sum(counter.neg.values())
    if got_neg != want_neg:
        fails.append(f"negative usage total {got_neg}, expected {want_neg}")
    return fails


# -- evaluation ------------------------------------------------------------

def _rank_bounds(anchors: np.ndarray, candidates: np.ndarray, target: np.ndarray,
                 block: int = 256):
    """1-based rank bounds of candidate target[i] for anchor i, ties to the
    lower index, over similarity rows anchors @ candidates.T.

    Exactly equal entries follow the tie rule; entries within NEAR that are
    not exactly equal could fall either way in float64 and widen the range.
    Rows are done in blocks to bound memory.
    """
    lo, hi = [], []
    cols = np.arange(candidates.shape[0])[None, :]
    for start in range(0, anchors.shape[0], block):
        sims = anchors[start:start + block] @ candidates.T
        t = target[start:start + block][:, None]
        p = np.take_along_axis(sims, t, axis=1)
        other = cols != t
        above = (sims > p + NEAR) & other
        exact_before = (sims == p) & other & (cols < t)
        near = (np.abs(sims - p) <= NEAR) & (sims != p) & other
        r = 1 + above.sum(axis=1) + exact_before.sum(axis=1)
        lo.append(r)
        hi.append(r + near.sum(axis=1))
    return np.concatenate(lo), np.concatenate(hi)


def _in_range(value, lo, hi) -> bool:
    return lo - METRIC_TOL <= value <= hi + METRIC_TOL


def check_retrieval(enc, pairs, report, ks=(1, 5, 10)) -> list[str]:
    token, video = ld_tables(enc)
    V = embed_videos([p[0] for p in pairs], enc.video_ids, video)
    T = TextRows(enc.vocab, [p[1] for p in pairs]).embed(token)
    n = len(pairs)
    fails = []
    for direction, anchors, cands in (("t2v", T, V), ("v2t", V, T)):
        lo, hi = _rank_bounds(anchors, cands, np.arange(n))
        for k in ks:
            got = report[direction][f"R@{k}"]
            if not _in_range(got, float(np.mean(hi <= k)), float(np.mean(lo <= k))):
                fails.append(f"retrieval {direction} R@{k} {got!r} vs brute force "
                             f"[{float(np.mean(hi <= k))!r}, {float(np.mean(lo <= k))!r}]")
    return fails


def check_multiple_choice(enc, items, report) -> list[str]:
    token, video = ld_tables(enc)
    V = embed_videos([it.video_id for it in items], enc.video_ids, video)
    O = TextRows(enc.vocab, [o for it in items for o in it.options]).embed(token)
    sims = np.einsum("nkd,nd->nk", O.reshape(len(items), 5, -1), V)
    answer = np.array([it.answer_index for it in items])[:, None]
    p = np.take_along_axis(sims, answer, axis=1)
    other = np.arange(5)[None, :] != answer
    before = np.arange(5)[None, :] < answer
    beaten = ((sims > p + NEAR) & other).any(axis=1) | ((sims == p) & other & before).any(axis=1)
    near = ((np.abs(sims - p) <= NEAR) & (sims != p) & other).any(axis=1)
    acc_lo, acc_hi = float(np.mean(~beaten & ~near)), float(np.mean(~beaten))
    fails = []
    if report.n_items != len(items) or not _in_range(report.accuracy, acc_lo, acc_hi):
        fails.append(f"multiple choice accuracy {report.accuracy!r} over {report.n_items} "
                     f"items vs brute force [{acc_lo!r}, {acc_hi!r}] over {len(items)}")
    return fails


def check_zero_shot(enc, task, report) -> list[str]:
    token, video = ld_tables(enc)
    labels = TextRows(enc.vocab, task.labels).embed(token)
    V = embed_videos([v for v, _ in task.items], enc.video_ids, video)
    lo, hi = _rank_bounds(V, labels, np.array([c for _, c in task.items]))
    fails = []
    for name, k in (("top1", 1), ("top5", 5)):
        got = getattr(report, name)
        if not _in_range(got, float(np.mean(hi <= k)), float(np.mean(lo <= k))):
            fails.append(f"zero-shot {name} {got!r} vs brute force "
                         f"[{float(np.mean(hi <= k))!r}, {float(np.mean(lo <= k))!r}]")
    return fails


def check_pair_ap(enc, pairs, ap) -> list[str]:
    """AP with ties in input order. Skipped when a positive and a negative
    score are too close to order in float64."""
    token, video = ld_tables(enc)
    V = embed_videos([p[0] for p in pairs], enc.video_ids, video)
    T = TextRows(enc.vocab, [p[1] for p in pairs]).embed(token)
    scores = (V * T).sum(axis=1)
    labels = np.array([p[2] == "pos" for p in pairs])
    order = sorted(range(len(pairs)), key=lambda i: (-scores[i], i))
    s_sorted = scores[order]
    lab_sorted = labels[order]
    gaps = np.abs(np.diff(s_sorted))
    if np.any((gaps <= NEAR) & (gaps > 0) & (lab_sorted[1:] != lab_sorted[:-1])):
        return []
    hits = np.cumsum(lab_sorted)
    ranks = np.flatnonzero(lab_sorted) + 1
    ref = float(np.mean(hits[lab_sorted] / ranks))
    if abs(ap - ref) > METRIC_TOL:
        return [f"pair AP {ap!r} vs brute force {ref!r}"]
    return []
