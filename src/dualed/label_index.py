"""Cached label-embedding store: refresh, write-back, search, mining.

The cache holds one embedding row per label in the full label set.
During training it goes stale as the label encoder moves, so it is
fully re-encoded at intervals and patched on-the-fly for labels a
training step just embedded. Search is an exact linear scan — at the
pool sizes this package targets that is both affordable and its own
ground truth; ties always break toward the lowest row index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import (
    POOLING_METHODS,
    EncoderParams,
    TokenSequence,
    encode,
    pool_span,
    pooled_width,
    token_range,
    tokenize,
)
from .errors import ValidationError
from .losses import SimilaritySpec, similarity_to_matrix
from .verbalizer import Verbalization


@dataclass
class LabelCache:
    ids: list[str]
    matrix: np.ndarray             # (|E|, p)
    pooling: str
    sim_spec: SimilaritySpec
    last_full_refresh: int = 0     # span-counter value at the last full refresh
    dirty_writes: int = 0          # on-the-fly writes since the last full refresh
    row_of: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.row_of:
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

    def embedding(self, label_id: str) -> np.ndarray:
        return self.matrix[self.row_of[label_id]]


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


def full_refresh(
    cache: LabelCache,
    label_params: EncoderParams,
    label_tokens: LabelTokens,
    span_count: int | None = None,
) -> LabelCache:
    """Re-encode every cached row from its tokens with the current label encoder.

    Labels are encoded one at a time, in row order. Resets the staleness
    bookkeeping.
    """
    if label_tokens.vocab_size != label_params.vocab_size:
        raise ValidationError(
            f"label tokens were built for vocab size {label_tokens.vocab_size}, "
            f"the label encoder has {label_params.vocab_size}"
        )
    missing = [i for i in cache.ids if i not in label_tokens.seqs]
    if missing:
        raise ValidationError(f"missing verbalizations for {len(missing)} labels, "
                              f"first: {missing[0]!r}")
    for row, label_id in enumerate(cache.ids):
        vectors = encode(label_tokens.seqs[label_id], label_params)
        cache.matrix[row] = pool_span(
            vectors, label_tokens.title_spans[label_id], cache.pooling
        )
    cache.dirty_writes = 0
    if span_count is not None:
        cache.last_full_refresh = span_count
    return cache


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


def mine_hard_negatives(
    cache: LabelCache, anchor: np.ndarray, gold_id: str, k: int
) -> list[tuple[str, float]]:
    """The k non-gold labels most similar to the anchor, per cached rows.

    Descending similarity; ties break by ascending row index. Asking for
    more than |E|-1 negatives returns all non-gold labels.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if gold_id not in cache.row_of:
        raise ValidationError(f"gold id {gold_id!r} not in cache")
    sims = similarity_to_matrix(anchor, cache.matrix, cache.sim_spec)
    sims[cache.row_of[gold_id]] = -np.inf
    order = np.argsort(-sims, kind="stable")[: min(k, len(cache.ids) - 1)]
    return [(cache.ids[i], float(sims[i])) for i in order]


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


def nearest_label(
    cache: LabelCache, anchor: np.ndarray, allowed_ids: set[str] | None = None
) -> tuple[str, float]:
    """Most similar label over the allowed set (full set when absent)."""
    sims = similarity_to_matrix(anchor, cache.matrix, cache.sim_spec)
    if allowed_ids is not None:
        if not allowed_ids:
            raise ValidationError("allowed_ids must be non-empty")
        unknown = [i for i in allowed_ids if i not in cache.row_of]
        if unknown:
            raise ValidationError(f"allowed id {unknown[0]!r} not in cache")
        rows = np.array(sorted(cache.row_of[i] for i in allowed_ids))
        best = rows[np.argmax(sims[rows])]
    else:
        best = int(np.argmax(sims))
    return cache.ids[best], float(sims[best])
