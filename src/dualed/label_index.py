"""Cached label-embedding store: refresh, write-back, search, mining.

The cache holds one embedding row per label in the full label set.
During training it goes stale as the label encoder moves, so it is
fully re-encoded at intervals and patched on-the-fly for labels a
training step just embedded. ``encode_labels`` computes label
embeddings for a refresh and for a training step alike, in one
``encoder.encode_spans`` call over the labels' title ranges, so every
row has the bits of encoding and pooling its label alone.

Search and mining are exact: every result (row and score bits) is the
one a full per-row ``similarity_to_matrix`` scan of the cache would
give, with ties broken toward the lowest row index. ``top_rows`` is the
one search: prediction scores all of a window's anchors with one call,
over every row or over the rows ``allowed_rows`` resolves, and a
training step mines the hard negatives of all its anchors with one
call that excludes each anchor's gold row (``gold``). A call takes the
anchors in blocks of 64. Dot and cosine keep one matrix-vector product
per anchor. Euclidean search shortlists a block's rows from one GEMM of
the quadratic form q = ||a||^2 + ||r||^2 - 2 a.r, whose computed value
lies within E = 2 gamma_{p+2} (||a||^2 + max ||r||^2) of the exact
squared distance (gamma_n = n u / (1 - n u), u the float64 unit
roundoff, p the width).
The shortlist threshold adds E on both sides of the best computed q and
widens it by the per-row formula's own relative error, so it holds every
row the scan could rank first, ties included. All (anchor, row) pairs of
a block's shortlists are rescored at once with the scan's own per-row
formula, and one lexsort by (anchor, -score, row) picks each anchor's
best rows. An anchor whose inputs are not finite, or whose norms
overflow, is scanned in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import (
    POOLING_METHODS,
    EncoderParams,
    TokenSequence,
    encode_spans,
    pooled_width,
    token_range,
    tokenize,
)
from .errors import ValidationError
from .losses import (
    COSINE,
    EUCLIDEAN,
    SimilaritySpec,
    _negated_norms,
    similarity_to_matrix,
)
from .verbalizer import Verbalization


@dataclass
class LabelCache:
    ids: list[str]
    matrix: np.ndarray             # (|E|, p)
    pooling: str
    sim_spec: SimilaritySpec
    dirty_writes: int = 0          # on-the-fly writes since the last full refresh
    row_of: dict[str, int] = field(init=False)

    def __post_init__(self):
        if not self.ids:
            raise ValidationError("empty label set: a label cache needs at least one label")
        self.row_of = {label_id: i for i, label_id in enumerate(self.ids)}
        if len(self.row_of) != len(self.ids):
            raise ValidationError("duplicate label ids in cache")
        if self.matrix.shape[0] != len(self.ids):
            raise ValidationError("cache matrix row count does not match ids")

    @classmethod
    def empty(
        cls, ids: list[str], dim: int, pooling: str, sim_spec: SimilaritySpec
    ) -> "LabelCache":
        if pooling not in POOLING_METHODS:
            raise ValidationError(f"unknown pooling method {pooling!r}")
        return cls(
            ids=list(ids),
            matrix=np.zeros((len(ids), pooled_width(dim, pooling))),
            pooling=pooling,
            sim_spec=sim_spec,
        )


@dataclass(frozen=True)
class LabelTokens:
    """Label verbalizations tokenized once, for one vocab size.

    The texts never change during training, so the trainer and the CLI
    tokenize them once and every refresh and fresh label encode reuses
    the sequences and title token ranges.
    """

    vocab_size: int
    seqs: dict[str, TokenSequence]
    title_spans: dict[str, tuple[int, int]]   # token range [lo, hi) of the title


def tokenize_labels(
    verbalizations: dict[str, Verbalization], vocab_size: int
) -> LabelTokens:
    """Tokenize every verbalization and locate its title tokens."""
    seqs: dict[str, TokenSequence] = {}
    title_spans: dict[str, tuple[int, int]] = {}
    for label_id, verb in verbalizations.items():
        seq = tokenize(verb.text, vocab_size)
        seqs[label_id] = seq
        title_spans[label_id] = token_range(seq, verb.title_char_span)
    return LabelTokens(vocab_size=vocab_size, seqs=seqs, title_spans=title_spans)


def encode_labels(
    label_params: EncoderParams,
    label_tokens: LabelTokens,
    label_ids: list[str],
    pooling: str,
) -> np.ndarray:
    """Pooled title embeddings of the labels, row i for ``label_ids[i]``.

    One ``encode_spans`` call: each row has the bits of encoding its
    label alone and pooling its title span.
    """
    if label_tokens.vocab_size != label_params.vocab_size:
        raise ValidationError(
            f"label tokens were built for vocab size {label_tokens.vocab_size}, "
            f"the label encoder has {label_params.vocab_size}"
        )
    return encode_spans(
        [label_tokens.seqs[i] for i in label_ids],
        [[label_tokens.title_spans[i]] for i in label_ids],
        label_params,
        pooling,
    )


def full_refresh(
    cache: LabelCache,
    label_params: EncoderParams,
    label_tokens: LabelTokens,
) -> LabelCache:
    """Re-encode every cached row from its tokens with the current label encoder.

    The rows are those ``encode_labels`` gives. Resets the staleness
    bookkeeping.
    """
    missing = [i for i in cache.ids if i not in label_tokens.seqs]
    if missing:
        raise ValidationError(f"missing verbalizations for {len(missing)} labels, "
                              f"first: {missing[0]!r}")
    cache.matrix[...] = encode_labels(label_params, label_tokens, cache.ids, cache.pooling)
    cache.dirty_writes = 0
    return cache


def build_cache(
    ids: list[str],
    label_params: EncoderParams,
    label_tokens: LabelTokens,
    pooling: str,
    sim_spec: SimilaritySpec,
) -> LabelCache:
    """A freshly encoded cache for inference, outside any refresh schedule."""
    cache = LabelCache.empty(ids, label_params.dim, pooling, sim_spec)
    return full_refresh(cache, label_params, label_tokens)


def write_back(cache: LabelCache, label_id: str, fresh: np.ndarray) -> LabelCache:
    """Patch one row with a freshly computed embedding (on-the-fly update)."""
    if label_id not in cache.row_of:
        raise ValidationError(f"unknown label id {label_id!r}")
    if fresh.shape != (cache.matrix.shape[1],):
        raise ValidationError(
            f"embedding width {fresh.shape} does not match cache width "
            f"{cache.matrix.shape[1]}"
        )
    cache.matrix[cache.row_of[label_id]] = fresh
    cache.dirty_writes += 1
    return cache


def sample_in_batch_negatives(
    batch_gold_ids: list[str], gold_id: str, k: int, rng: np.random.Generator
) -> list[str]:
    """Up to k distinct other-mention gold ids, sampled without replacement.

    Returns an empty list when no other gold id exists in the batch (the
    trainer then skips the mention's loss term).
    """
    eligible = sorted(set(batch_gold_ids) - {gold_id})
    if not eligible:
        return []
    take = min(k, len(eligible))
    picked = rng.choice(len(eligible), size=take, replace=False)
    return [eligible[i] for i in picked]


def allowed_rows(cache: LabelCache, allowed_ids: set[str] | None) -> np.ndarray | None:
    """Ascending cache rows of an allowed-id set, for ``top_rows``; None
    (every row) stays None."""
    if allowed_ids is None:
        return None
    if not allowed_ids:
        raise ValidationError("allowed_ids must be non-empty")
    unknown = [i for i in allowed_ids if i not in cache.row_of]
    if unknown:
        raise ValidationError(f"allowed id {unknown[0]!r} not in cache")
    return np.array(sorted(cache.row_of[i] for i in allowed_ids))


_ANCHOR_BLOCK = 64  # anchors per top_rows search block
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), the bound on n rounding errors."""
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def top_rows(
    cache: LabelCache,
    anchors: np.ndarray,
    allowed: np.ndarray | None = None,
    gold: np.ndarray | None = None,
    k: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Best cache rows and their scores for anchors of shape (M, p).

    Without ``gold``: each anchor's most similar row among the ascending
    rows ``allowed`` (every row when None), as (M, 1) row and score
    arrays. With ``gold`` (one row per anchor; exclusive with
    ``allowed``): the min(k, N-1) most similar rows other than the gold,
    best first, as (M, t) arrays: the hard negatives. Ties break toward
    the lowest row, and every row and score bit equals that of a full
    per-anchor ``similarity_to_matrix`` scan (see the module docstring).
    The rows' norms are computed once per call and the anchors are taken
    ``_ANCHOR_BLOCK`` (64) at a time, so the search's temporaries hold
    at most 64 x N values; no result depends on the block.

    A ``ValidationError`` names the value when a gold or allowed row is not
    an integer in [0, N), the gold rows are not one per anchor, the allowed
    rows are empty or not strictly ascending, or ``k < 1`` with ``gold``.
    """
    matrix, spec = cache.matrix, cache.sim_spec
    if anchors.ndim != 2 or anchors.shape[1] != matrix.shape[1]:
        raise ValidationError(
            f"width mismatch: anchors {anchors.shape} vs matrix {matrix.shape}"
        )
    if allowed is not None and gold is not None:
        raise ValidationError("allowed and gold rows are exclusive")
    n = matrix.shape[0]
    if gold is not None:
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise ValidationError(f"k must be an integer >= 1, got {k!r}")
        gold = _cache_rows("gold", gold, n)
        if len(gold) != len(anchors):
            raise ValidationError(f"{len(gold)} gold rows for {len(anchors)} anchors")
    if allowed is not None:
        allowed = _cache_rows("allowed", allowed, n)
        if not len(allowed):
            raise ValidationError("allowed rows must be non-empty")
        down = np.flatnonzero(np.diff(allowed) <= 0)
        if len(down):
            raise ValidationError(f"allowed rows must be strictly ascending, but row "
                                  f"{allowed[down[0] + 1]} follows row {allowed[down[0]]}")
    take = 1 if gold is None else min(k, n - 1)
    out_rows = np.zeros((len(anchors), take), dtype=np.int64)
    out_scores = np.zeros((len(anchors), take))
    if take < 1:
        return out_rows, out_scores
    scan = range(len(anchors))  # anchors scored by the per-anchor scan
    if spec.kind == EUCLIDEAN:
        with np.errstate(over="ignore", invalid="ignore"):  # such anchors are scanned
            row_sq = np.einsum("ij,ij->i", matrix, matrix)
        scan = []
        for start in range(0, len(anchors), _ANCHOR_BLOCK):
            stop = min(start + _ANCHOR_BLOCK, len(anchors))
            owners, rows, block_scan = _euclidean_shortlist(
                matrix, row_sq, anchors[start:stop], allowed,
                None if gold is None else gold[start:stop], take,
            )
            sims = _negated_norms(matrix[rows] - anchors[start + owners])
            # per anchor, descending similarity, ties to the lowest row
            order = np.lexsort((rows, -sims, owners))
            live = np.setdiff1d(np.arange(stop - start), block_scan, assume_unique=True)
            firsts = np.searchsorted(owners, live)[:, None] + np.arange(take)
            out_rows[start + live] = rows[order[firsts]]
            out_scores[start + live] = sims[order[firsts]]
            scan.extend((start + block_scan).tolist())
    row_norms = np.linalg.norm(matrix, axis=1) if spec.kind == COSINE else None
    for i in scan:
        sims = similarity_to_matrix(anchors[i], matrix, spec, row_norms)
        rows = allowed
        if rows is not None:
            sims = sims[rows]
        elif gold is not None:
            sims[gold[i]] = -np.inf
        if gold is None:
            best = np.argmax(sims, keepdims=True)
        else:
            best = np.argsort(-sims, kind="stable")[:take]
        out_rows[i] = best if rows is None else rows[best]
        out_scores[i] = sims[best]
    return out_rows, out_scores


def _cache_rows(what: str, rows, n: int) -> np.ndarray:
    """``rows`` as a 1-D integer array, each row in [0, n)."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValidationError(f"{what} rows must be a 1-D integer array, got shape "
                              f"{rows.shape} of {rows.dtype}")
    outside = rows[(rows < 0) | (rows >= n)]
    if len(outside):
        raise ValidationError(f"{what} row {outside[0]} is outside the cache's rows [0, {n})")
    return rows


def _euclidean_shortlist(
    matrix: np.ndarray,
    row_sq: np.ndarray,
    anchors: np.ndarray,
    allowed: np.ndarray | None,
    gold: np.ndarray | None,
    take: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (anchor, row) pairs a full scan could rank in an anchor's first ``take``.

    ``row_sq`` holds the rows' squared norms. Returns ``(owners, rows,
    scan)``: the pairs, ascending by anchor and then by row, and the
    anchors to scan in full instead. With m the take-th smallest
    computed q (gold excluded) and E the GEMM bound, the take-th
    smallest exact squared distance is at most m + E. The
    per-row formula computes the squared distance with relative error
    gamma_{p+2}, and the square root merges values up to a factor 1 + 4u
    apart, so each row that the scan can rank in place ``take`` or better
    has an exact squared distance of at most (m + E)(1 + 4 gamma_{p+4})
    and a computed q at most E above that. The threshold adds 2E, not E,
    and the factor 4 leaves room over the 2.5 the bound needs, so the
    rounding of the threshold itself cannot cut such a row. A non-finite
    threshold means a non-finite input or an overflowing norm: that
    anchor gets no pairs and is scanned.
    """
    p = matrix.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # such anchors are scanned
        anchor_sq = np.einsum("ij,ij->i", anchors, anchors)
        gram = anchors @ matrix.T
        gram *= 2.0
        quad = anchor_sq[:, None] + row_sq
        quad -= gram
        if allowed is not None:
            quad = quad[:, allowed]
        if gold is not None:
            quad[np.arange(len(anchors)), gold] = np.inf
        if take == 1:
            best = quad.min(axis=1)
        else:
            best = np.partition(quad, take - 1, axis=1)[:, take - 1]
        err = 2.0 * _gamma(p + 2) * (anchor_sq + row_sq.max())
        limit = (best + err) * (1.0 + 4.0 * _gamma(p + 4)) + 2.0 * err
        scan = np.flatnonzero(~np.isfinite(limit))
        limit[scan] = np.nan  # no q compares true
        owners, cols = np.nonzero(quad <= limit[:, None])
    return owners, cols if allowed is None else allowed[cols], scan
