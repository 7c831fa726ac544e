"""Independent reference implementations that the tests compare against.

These are the straightforward forms the library no longer runs: the
per-sequence encoder forward and backward, the token-range scan, the
working text spliced one insertion at a time, hard-negative mining by a
full scan, the training step that mines one anchor and encodes one label
at a time, prediction one chunk and one mention at a time, the scalar
similarity and the forward-only losses. Library results must match them
bit for bit (encoder, token range, working text, mining, training step,
prediction) or to the stated tolerance (similarities, loss values).
"""

import math
from types import SimpleNamespace

import numpy as np

from dualed import trainer as tm
from dualed.corpus import chunk_document
from dualed.encoder import EncoderGrads, pool_span, pool_span_backward, tokenize
from dualed.errors import ValidationError
from dualed.label_index import allowed_rows, sample_in_batch_negatives, write_back
from dualed.losses import (
    DOT,
    EUCLIDEAN,
    TRIPLET,
    _EPSILON,
    _check_triplet_inputs,
    loss_gradients,
    similarity_to_matrix,
)
from dualed.predictor import (
    CorpusPredictions,
    DocumentPrediction,
    MentionPrediction,
    PredictionState,
    insertion_text,
)

# ── the encoder, one sequence at a time ──────────────────────────────────────


def window_counts(n, w):
    t = np.arange(n)
    lo = np.maximum(t - w, 0)
    hi = np.minimum(t + w, n - 1)
    return (hi - lo + 1).astype(np.float64)


def window_sums(rows, w):
    """Row t gets the sum of rows max(0, t-w) .. min(n-1, t+w)."""
    n = rows.shape[0]
    csum = np.vstack([np.zeros((1, rows.shape[1])), np.cumsum(rows, axis=0)])
    t = np.arange(n)
    lo = np.maximum(t - w, 0)
    hi = np.minimum(t + w, n - 1)
    return csum[hi + 1] - csum[lo]


def encode_one(seq, params):
    """Contextual vectors (T, d) of one sequence, as 2-D matmuls."""
    if len(seq) == 0:
        raise ValidationError("cannot encode an empty token sequence")
    emb = params.table[seq.token_ids]
    counts = window_counts(len(seq), params.window)
    ctx = window_sums(emb, params.window) / counts[:, None]
    return emb @ params.w_self.T + ctx @ params.w_ctx.T + params.bias


def encoder_backward_one(seq, params, upstream):
    """Row-sparse gradients of ``encode_one`` for one sequence."""
    emb = params.table[seq.token_ids]
    counts = window_counts(len(seq), params.window)
    ctx = window_sums(emb, params.window) / counts[:, None]

    d_emb = upstream @ params.w_self
    d_ctx_scaled = (upstream @ params.w_ctx) / counts[:, None]
    d_emb = d_emb + window_sums(d_ctx_scaled, params.window)
    rows, inverse = np.unique(seq.token_ids, return_inverse=True)
    table = np.zeros((len(rows), params.dim))
    np.add.at(table, inverse, d_emb)
    return EncoderGrads(
        table=table,
        w_self=upstream.T @ emb,
        w_ctx=upstream.T @ ctx,
        bias=upstream.sum(axis=0),
        rows=rows,
    )


def token_range_scan(seq, char_span):
    """Token range [lo, hi) overlapping a char span, by scanning every token."""
    s, e = char_span
    lo = hi = None
    for i, (ts, te) in enumerate(seq.char_spans):
        if ts < e and te > s:
            if lo is None:
                lo = i
            hi = i + 1
    if lo is None:
        raise ValidationError(f"span ({s}, {e}) covers no tokens in {seq.source!r:.60}")
    return lo, hi


# ── the working text, spliced one insertion at a time ───────────────────────


class SplicedText:
    """A chunk's working text, spliced in place at each insertion: every
    mention span and earlier insertion at or after the splice point shifts
    by the inserted length."""

    def __init__(self, text, mentions):
        self.text = text
        self.spans = [(m.start, m.end) for m in mentions]
        self.inserted = []  # (start, length) of each insertion in self.text

    def insert(self, index, text):
        """Splice " (text)" right after mention ``index``."""
        inserted = f" ({text})"
        pos = self.spans[index][1]
        self.text = self.text[:pos] + inserted + self.text[pos:]
        shift = len(inserted)
        self.spans = [(s + shift, e + shift) if s >= pos else (s, e) for s, e in self.spans]
        self.inserted = [(s + shift, n) if s >= pos else (s, n) for s, n in self.inserted]
        self.inserted.append((pos, shift))

    def strip(self):
        """The working text with every insertion cut out again."""
        out, pos = [], 0
        for s, length in sorted(self.inserted):
            out.append(self.text[pos:s])
            pos = s + length
        out.append(self.text[pos:])
        return "".join(out)


def spliced(state):
    """``state``'s insertions spliced, in slot order, into its own text."""
    text = SplicedText(state.text, [slot.mention for slot in state.slots])
    for i, slot in enumerate(state.slots):
        if slot.inserted is not None:
            text.insert(i, slot.inserted)
    return text


# ── the training step, one label at a time ───────────────────────────────────


def zero_grads(params):
    """Dense zero gradients: a whole (V, d) table."""
    return SimpleNamespace(**{name: np.zeros_like(getattr(params, name))
                              for name in ("table", "w_self", "w_ctx", "bias")})


def accumulate(into, grads):
    """Add one backward call's row-sparse gradients into dense ones."""
    into.table[grads.rows] += grads.table
    for name in ("w_self", "w_ctx", "bias"):
        getattr(into, name)[...] += getattr(grads, name)


def scale(grads, factor):
    for name in ("table", "w_self", "w_ctx", "bias"):
        getattr(grads, name)[...] *= factor


def clip_global_norm(a, b, max_norm):
    total = 0.0
    for g in (a, b):
        for t in (g.table, g.w_self, g.w_ctx, g.bias):
            total += float(np.sum(t * t))
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        scale(a, max_norm / norm)
        scale(b, max_norm / norm)


def apply_update(params, grads, lr):
    for name in ("table", "w_self", "w_ctx", "bias"):
        getattr(params, name)[...] -= lr * getattr(grads, name)


def scan_negatives(cache, anchor, gold_id, k):
    """Hard negatives by the per-row reference: a full scan, the gold set
    to -inf, a stable descending sort. (label id, score hex) pairs, best
    first."""
    sims = similarity_to_matrix(anchor, cache.matrix, cache.sim_spec)
    sims[cache.row_of[gold_id]] = -np.inf
    order = np.argsort(-sims, kind="stable")[: min(k, len(cache.ids) - 1)]
    return [(cache.ids[i], float(sims[i]).hex()) for i in order]


def train_step_per_label(trainer, batch):
    """``Trainer.train_step`` with each anchor's negatives mined by its own
    full scan, every label encoded and back-propagated on its own, at its
    first use, by the per-sequence oracles above, and the dense step:
    zero (V, d) tables, accumulate, scale, np.sum clip, update."""
    config = trainer.config
    batch_mentions = sum(len(c.mentions) for c in batch)
    if config.iterative and batch_mentions:
        states = tm.apply_iterative_insertions(
            batch, trainer.records, config, trainer.processed_spans, trainer.rng,
            lambda chunks: [predict_document_one(c, trainer.mention_params, trainer.cache)
                            for c in chunks],
        )
    else:
        states = [PredictionState.for_document(c) for c in batch]
    prepared = [spliced(state) for state in states]
    excluded = {(ci, mi) for ci, state in enumerate(states)
                for mi, slot in enumerate(state.slots) if slot.inserted is not None}
    if config.neg_count == tm.DYNAMIC:
        k = tm.dynamic_negative_count(max(batch_mentions, 1), config.neg_budget)
    else:
        k = int(config.neg_count)
    batch_golds = [m.gold_label for c in batch for m in c.mentions
                   if m.gold_label in trainer.records]

    mention_grads = zero_grads(trainer.mention_params)
    label_grads = zero_grads(trainer.label_params)
    label_forward, label_upstream = {}, {}
    negatives_used = []
    total_loss, n_terms, skipped = 0.0, 0, 0

    def fresh(label_id):
        if label_id not in label_forward:
            seq = trainer.label_tokens.seqs[label_id]
            span = trainer.label_tokens.title_spans[label_id]
            emb = pool_span(encode_one(seq, trainer.label_params), span, config.pooling)
            label_forward[label_id] = (seq, span, emb)
            label_upstream[label_id] = np.zeros(trainer.cache.matrix.shape[1])
        return label_forward[label_id][2]

    for ci, (chunk, prep) in enumerate(zip(batch, prepared)):
        if not chunk.mentions:
            continue
        seq = tokenize(prep.text, trainer.mention_params.vocab_size)
        vectors = encode_one(seq, trainer.mention_params)
        chunk_upstream = np.zeros_like(vectors)
        touched = False
        for mi, mention in enumerate(chunk.mentions):
            if mention.gold_label not in trainer.records:
                skipped += 1
                continue
            if (ci, mi) in excluded:
                continue
            span = token_range_scan(seq, prep.spans[mi])
            anchor = pool_span(vectors, span, config.pooling)
            if config.neg_mode == tm.HARD:
                mined = scan_negatives(trainer.cache, anchor, mention.gold_label, k)
                neg_ids = [nid for nid, _ in mined]
            else:
                neg_ids = sample_in_batch_negatives(
                    batch_golds, mention.gold_label, k, trainer.rng)
            if not neg_ids:
                continue
            positive = fresh(mention.gold_label)
            neg_embs = [fresh(n) for n in neg_ids]
            loss, grads = loss_gradients(
                anchor, positive, neg_embs, config.loss_spec, config.sim_spec)
            total_loss += loss
            n_terms += 1
            negatives_used.extend(neg_ids)
            chunk_upstream += pool_span_backward(
                grads.anchor, span, config.pooling, len(seq), config.dim)
            touched = True
            label_upstream[mention.gold_label] += grads.positive
            for nid, g in zip(neg_ids, grads.negatives):
                label_upstream[nid] += g
        if touched:
            accumulate(mention_grads,
                       encoder_backward_one(seq, trainer.mention_params, chunk_upstream))
    for label_id, (seq, span, _) in label_forward.items():
        upstream = pool_span_backward(
            label_upstream[label_id], span, config.pooling, len(seq), config.dim)
        accumulate(label_grads, encoder_backward_one(seq, trainer.label_params, upstream))

    if n_terms:
        scale(mention_grads, 1.0 / n_terms)
        scale(label_grads, 1.0 / n_terms)
        clip_global_norm(mention_grads, label_grads, config.clip_norm)
        apply_update(trainer.mention_params, mention_grads, config.lr)
        apply_update(trainer.label_params, label_grads, config.lr)
    write_log = []
    if config.on_the_fly:
        for label_id in sorted(label_forward):
            write_back(trainer.cache, label_id, label_forward[label_id][2])
            write_log.append(label_id)
    before = trainer.processed_spans
    trainer.processed_spans += batch_mentions
    fires = trainer._interval_refreshes(before, trainer.processed_spans)
    return tm.StepStats(
        loss=total_loss / n_terms if n_terms else 0.0, loss_terms=n_terms,
        spans=batch_mentions, refreshes=fires, skipped_unlinkable=skipped,
        write_log=write_log, negatives_used=negatives_used, excluded=excluded,
    )


# ── prediction, one chunk and one mention at a time ─────────────────────────


def nearest_labels_one(text, spans, mention_params, cache, rows):
    """Encode one text alone, then scan the whole cache for each span alone."""
    seq = tokenize(text, mention_params.vocab_size)
    vectors = encode_one(seq, mention_params)
    candidates = np.arange(len(cache.ids)) if rows is None else rows
    out = []
    for span in spans:
        anchor = pool_span(vectors, token_range_scan(seq, span), cache.pooling)
        sims = similarity_to_matrix(anchor, cache.matrix, cache.sim_spec)
        best = candidates[np.argmax(sims[candidates])]
        out.append((cache.ids[best], float(sims[best])))
    return out


def predict_document_one(doc, mention_params, cache, rows=None):
    """One-shot prediction of one chunk by the per-mention scan, over the
    ascending cache ``rows`` (every row when None)."""
    if not doc.mentions:
        return []
    spans = [(m.start, m.end) for m in doc.mentions]
    predictions = nearest_labels_one(doc.text, spans, mention_params, cache, rows)
    return [MentionPrediction(m, label_id, score)
            for m, (label_id, score) in zip(doc.mentions, predictions)]


def predict_iterative_one(doc, mention_params, cache, records, rows=None):
    """Insert-and-repredict of one chunk on its own, round by round, over
    the ascending cache ``rows`` (every row when None). The working text
    is spliced at each insertion, and the result's ``state`` is that
    ``SplicedText``."""
    text = SplicedText(doc.text, doc.mentions)
    total = len(doc.mentions)
    if total == 0:
        return DocumentPrediction([], [], 0, text)
    per_round = math.ceil(total / 3)
    picks = [(None, -math.inf)] * total
    resolved = [False] * total
    first_pass = []
    iterations = 0
    while True:
        iterations += 1
        predictions = nearest_labels_one(text.text, text.spans, mention_params, cache, rows)
        picks = [new if new[1] > old[1] else old for old, new in zip(picks, predictions)]
        if iterations == 1:
            first_pass = [MentionPrediction(m, *pick) for m, pick in zip(doc.mentions, picks)]
        unresolved = [i for i in range(total) if not resolved[i]]
        if not unresolved:
            break
        unresolved.sort(key=lambda i: (-picks[i][1], i))
        for i in sorted(unresolved[:per_round]):
            text.insert(i, insertion_text(records[picks[i][0]]))
            resolved[i] = True
        if all(resolved):
            break
    final = [MentionPrediction(m, *pick) for m, pick in zip(doc.mentions, picks)]
    return DocumentPrediction(final, first_pass, iterations, text)


def predict_corpus_one(docs, mention_params, cache, records=None, limits=(100, 2800),
                       iterative=False, allowed_ids=None):
    """``predict_corpus`` as a loop over chunks, each predicted alone."""
    rows = allowed_rows(cache, allowed_ids)
    final, iterations = {}, {}
    for doc in docs:
        for chunk in chunk_document(doc, *limits):
            if not chunk.mentions:
                continue
            if iterative:
                result = predict_iterative_one(chunk, mention_params, cache, records, rows)
                preds, rounds = result.predictions, result.iterations
            else:
                preds, rounds = predict_document_one(chunk, mention_params, cache, rows), 1
            for pred in preds:
                m = pred.mention
                key = (doc.id, m.start + chunk.parent_offset, m.end + chunk.parent_offset)
                final[key] = pred
                iterations[key] = rounds
    return CorpusPredictions(final=final, iterations=iterations)


# ── the scalar similarity and forward-only losses ────────────────────────────


def similarity(a, b, spec):
    """One pair's similarity under ``spec``, with the library's cosine floor."""
    if a.shape != b.shape:
        raise ValidationError(f"width mismatch: {a.shape} vs {b.shape}")
    if spec.kind == DOT:
        return float(a @ b)
    if spec.kind == EUCLIDEAN:
        return -float(np.linalg.norm(a - b))
    denom = max(float(np.linalg.norm(a)) * float(np.linalg.norm(b)), _EPSILON)
    return float(a @ b) / denom


def triplet_loss(anchor, positive, negatives, spec, margin):
    _check_triplet_inputs(anchor, positive, negatives)
    s_pos = similarity(anchor, positive, spec)
    hinges = [
        max(0.0, margin - s_pos + similarity(anchor, n, spec)) for n in negatives
    ]
    return float(np.mean(hinges))


def cross_entropy_loss(anchor, positive, negatives, spec):
    _check_triplet_inputs(anchor, positive, negatives)
    logits = np.array(
        [similarity(anchor, positive, spec)]
        + [similarity(anchor, n, spec) for n in negatives]
    )
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[0])


def loss_value(anchor, positive, negatives, loss_spec, sim_spec):
    if loss_spec.kind == TRIPLET:
        return triplet_loss(
            anchor, positive, negatives, sim_spec, loss_spec.resolve_margin(sim_spec)
        )
    return cross_entropy_loss(anchor, positive, negatives, sim_spec)
