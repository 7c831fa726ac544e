#!/usr/bin/env python3
"""Encode mentions and labels into one space and search it exactly.

Builds both encoders, fills a label cache, embeds a mention with the
batch span encoder (one row per token range), and compares the package's
block search (``top_rows``, one row of results per anchor; with ``gold``,
each anchor's hard negatives) against a hand-rolled scan.
"""

import numpy as np

from dualed import (
    EncoderParams,
    EntityRecord,
    LabelCache,
    SimilaritySpec,
    allowed_rows,
    encode_spans,
    full_refresh,
    token_range,
    tokenize,
    tokenize_labels,
    top_rows,
)
from dualed.verbalizer import verbalize_all

records = {
    "Italy": EntityRecord(id="Italy", title="Italy",
                          description="country in Southern Europe"),
    "Italy_rugby": EntityRecord(id="Italy_rugby", title="Italy rugby team",
                                description="national rugby union side"),
    "Italy_football": EntityRecord(id="Italy_football", title="Italy football team",
                                   description="national association football side"),
    "Wembley": EntityRecord(id="Wembley", title="Wembley Stadium",
                            description="football stadium in London"),
}

dim, vocab = 16, 1 << 12
mention_encoder = EncoderParams.init(vocab, dim, window=4, seed=0)
label_encoder = EncoderParams.init(vocab, dim, window=4, seed=1)

# the cache holds one pooled embedding per label, refreshed from the
# label encoder over the verbalization text (title tokens pooled, the
# description acting as context); each text is tokenized once up front
verbs = verbalize_all(records, "title_desc")
cache = LabelCache.empty(sorted(records), dim, "first_last",
                         SimilaritySpec(kind="euclidean"))
full_refresh(cache, label_encoder, tokenize_labels(verbs, vocab))
print(f"cache: {len(cache.ids)} labels x {cache.matrix.shape[1]} dims\n")

text = "Italy beat England at rugby in Rome"
seq = tokenize(text, vocab)
# one sequence with one token range: a (1, 2 * dim) block of anchors
anchors = encode_spans([seq], [[token_range(seq, (0, 5))]], mention_encoder, "first_last")
anchor = anchors[0]

rows, scores = top_rows(cache, anchors)
label_id, score = cache.ids[rows[0, 0]], scores[0, 0]
print(f"mention 'Italy' in {text!r}")
print(f"  nearest label: {label_id}  (similarity {score:.4f})")

print("\nhard negatives for gold 'Italy_rugby' (most confusable first):")
# the same search with one gold row per anchor: its k best other rows
rows, scores = top_rows(cache, anchors, gold=np.array([cache.row_of["Italy_rugby"]]), k=3)
for row, neg_score in zip(rows[0], scores[0]):
    print(f"  {cache.ids[row]:<16} {neg_score:.4f}")

print("\nthe exact scan doubles as its own oracle:")
by_hand = max(
    ((i, -float(np.linalg.norm(anchor - cache.matrix[i])))  # negated euclidean
     for i in range(len(cache.ids))),
    key=lambda t: t[1],
)
print(f"  hand-rolled argmax: {cache.ids[by_hand[0]]}  (similarity {by_hand[1]:.4f})")
assert cache.ids[by_hand[0]] == label_id

print("\nrestricting the allowed set changes the answer deterministically:")
rows, scores = top_rows(cache, anchors, allowed_rows(cache, {"Wembley"}))
restricted, r_score = cache.ids[rows[0, 0]], scores[0, 0]
print(f"  allowed={{Wembley}} -> {restricted}  (similarity {r_score:.4f})")
