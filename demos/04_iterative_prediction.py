#!/usr/bin/env python3
"""Iterative prediction: insert confident labels, re-predict the rest.

Constructs a two-mention document where the second mention is ambiguous
on its own. Once the first mention's description is inserted into the
text, the extra context flips the second prediction. The one-shot and
iterative calls (``predict_chunks``, ``iterate_chunks``) take a batch of
documents; here the batch holds one.
"""

import numpy as np

from dualed import (
    EncoderParams,
    EntityRecord,
    LabelCache,
    SimilaritySpec,
    encode_spans,
    iterate_chunks,
    predict_chunks,
    token_range,
    tokenize,
)
from dualed.corpus import Document, Mention

vocab = 256
text = "aaa likes bbb"
doc = Document(
    id="demo",
    text=text,
    mentions=[
        Mention(0, 3, "Label_A", "aaa"),
        Mention(10, 13, "Label_Two", "bbb"),
    ],
)
records = {
    "Label_A": EntityRecord(id="Label_A", title="Label A", description="shift"),
    "Label_One": EntityRecord(id="Label_One", title="Label One"),
    "Label_Two": EntityRecord(id="Label_Two", title="Label Two"),
}

# a handcrafted encoder: the context mean flows straight into each token
table = np.zeros((vocab, 2))
tok = lambda w: int(tokenize(w, vocab).token_ids[0])
table[tok("aaa")] = [1.0, 0.0]
table[tok("bbb")] = [0.0, 1.0]
table[tok("shift")] = [8.0, 8.0]
params = EncoderParams(table=table, w_self=np.eye(2), w_ctx=np.eye(2),
                       bias=np.zeros(2), window=8)

# cache rows engineered from the two context states of mention "bbb"
seq = tokenize(text, vocab)
seq2 = tokenize("aaa (shift) likes bbb", vocab)
anchor_a, anchor_b_plain, anchor_b_enriched = encode_spans(
    [seq, seq2],
    [[token_range(seq, (0, 3)), token_range(seq, (10, 13))],
     [token_range(seq2, (18, 21))]],
    params, "mean",
)
cache = LabelCache(
    ids=["Label_A", "Label_One", "Label_Two"],
    matrix=np.vstack([anchor_a, anchor_b_plain + [0.05, 0.0], anchor_b_enriched]),
    pooling="mean",
    sim_spec=SimilaritySpec(kind="euclidean"),
)

print(f"document: {text!r}\n")
print("one-shot predictions:")
# both prediction calls take a batch of documents and return one result each
[one_shot] = predict_chunks([doc], params, cache)
for pred in one_shot:
    print(f"  {pred.mention.surface!r} -> {pred.predicted_id}  "
          f"(score {pred.score:.3f})")

[result] = iterate_chunks([doc], params, cache, records)
# the state keeps the document's own text and each mention's insertion;
# render() builds the enriched text and the mentions' spans in it
enriched, spans = result.state.render()
print(f"\niterative run, {result.iterations} rounds:")
print(f"  enriched text: {enriched!r}")
for first, final in zip(result.first_pass, result.predictions):
    arrow = "==" if first.predicted_id == final.predicted_id else "->"
    print(f"  {final.mention.surface!r}: {first.predicted_id} {arrow} "
          f"{final.predicted_id}  (score {first.score:.3f} -> {final.score:.3f})")

print(f"\nmention spans in the enriched text: {spans}")
