"""One-shot inference and the iterative insert-and-repredict loop.

One-shot prediction embeds every mention and picks the nearest cached
label. The iterative variant enriches the document between rounds: the
most confident predictions get their label's description (or title)
inserted in parentheses right after the mention, the modified text is
re-encoded, and everything is re-predicted — stored predictions are
only overwritten by a strictly higher score. Each round commits
ceil(total_mentions / 3) of the mentions still without an insertion, so
the loop always terminates. The working text is never stored:
``PredictionState.render`` builds it from the chunk's text and the
insertions its slots record, here and in iterative training alike.

Both modes take a batch of chunks: ``predict_chunks`` (one-shot) and
``iterate_chunks`` (iterative, the rounds of all chunks in lockstep)
encode the chunks' mentions in one ``encoder.encode_spans`` call per
round and score them in blocks of anchors. A restricted search passes
the ascending cache rows ``label_index.allowed_rows`` resolved.
``predict_corpus`` feeds them windows of chunks. Every result has the
bits of predicting each chunk, and each of its mentions, alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import Chunk, Document, EntityRecord, Mention, chunk_document
from .encoder import EncoderParams, encode_spans, token_range, tokenize
from .errors import ValidationError
from .evaluator import MentionKey
from .label_index import LabelCache, allowed_rows, top_rows


def insertion_text(record: EntityRecord) -> str:
    """What goes inside the inserted parenthetical: description, else title."""
    return record.description or record.title


@dataclass
class MentionSlot:
    mention: Mention
    predicted_id: str | None = None
    score: float = -math.inf
    inserted: str | None = None    # the text inside the parenthetical after the mention


@dataclass
class PredictionState:
    """A chunk's own text and one slot per mention, in mention order (the
    mentions ascending and not overlapping, as ``chunk_document`` gives
    them); ``render`` builds the working text from them."""

    text: str
    slots: list[MentionSlot]

    @classmethod
    def for_document(cls, doc: Document | Chunk) -> "PredictionState":
        return cls(text=doc.text, slots=[MentionSlot(mention=m) for m in doc.mentions])

    def render(self) -> tuple[str, list[tuple[int, int]]]:
        """The working text, with " (inserted)" right after every mention
        that has an insertion, and every mention's span in it, in slot order."""
        parts, spans = [], []
        pos = shift = 0  # text[:pos] is in parts, followed by shift inserted characters
        for slot in self.slots:
            m = slot.mention
            spans.append((m.start + shift, m.end + shift))
            if slot.inserted is not None:
                inserted = f" ({slot.inserted})"
                parts += (self.text[pos:m.end], inserted)
                pos = m.end
                shift += len(inserted)
        parts.append(self.text[pos:])
        return "".join(parts), spans


def insert_verbalization(
    state: PredictionState, slot_index: int, text: str
) -> PredictionState:
    """Record " (text)" as inserted right after a mention; ``render`` places
    it. Inserting twice on one mention is an error."""
    slot = state.slots[slot_index]
    if slot.inserted is not None:
        raise ValidationError(
            f"mention ({slot.mention.start}, {slot.mention.end}) already has an insertion"
        )
    slot.inserted = text
    return state


@dataclass
class MentionPrediction:
    mention: Mention
    predicted_id: str
    score: float


@dataclass
class DocumentPrediction:
    predictions: list[MentionPrediction]
    first_pass: list[MentionPrediction]
    iterations: int
    state: PredictionState | None = None  # text and final insertions, iterative mode


# Mentions per window of chunks that prediction encodes and scores at once.
# It bounds the memory a window holds; results do not depend on it.
_WINDOW = 256


def _score_spans(
    texts: Sequence[str],
    spans: Sequence[list[tuple[int, int]]],
    mention_params: EncoderParams,
    cache: LabelCache,
    rows: np.ndarray | None,
) -> list[tuple[str, float]]:
    """Nearest cached label of every span, text by text in span order.

    The texts' spans are encoded in one ``encode_spans`` call and scored
    in one ``top_rows`` call. Every anchor, and so every pick, has the
    bits of encoding its text alone and scanning the cache for it alone.
    """
    seqs = [tokenize(text, mention_params.vocab_size) for text in texts]
    ranges = [[token_range(seq, span) for span in text_spans]
              for seq, text_spans in zip(seqs, spans)]
    anchors = encode_spans(seqs, ranges, mention_params, cache.pooling)
    best, scores = top_rows(cache, anchors, rows)
    return [(cache.ids[r], s) for r, s in zip(best[:, 0].tolist(), scores[:, 0].tolist())]


def predict_chunks(
    chunks: list[Document | Chunk],
    mention_params: EncoderParams,
    cache: LabelCache,
    rows: np.ndarray | None = None,
) -> list[list[MentionPrediction]]:
    """Nearest cached label of every mention, a list per chunk in mention order.

    ``rows`` restricts the search to those ascending cache rows (every
    row when None). A chunk without mentions gets ``[]`` and is not
    encoded.
    """
    live = [c for c in chunks if c.mentions]
    picks = iter(_score_spans(
        [c.text for c in live], [[(m.start, m.end) for m in c.mentions] for c in live],
        mention_params, cache, rows,
    ))
    return [[MentionPrediction(m, *next(picks)) for m in c.mentions] for c in chunks]


def iterate_chunks(
    chunks: list[Document | Chunk],
    mention_params: EncoderParams,
    cache: LabelCache,
    records: dict[str, EntityRecord],
    rows: np.ndarray | None = None,
) -> list[DocumentPrediction]:
    """Insert-and-repredict every chunk until each mention carries an insertion.

    Per round: re-encode the working text, re-predict every mention
    (those with an insertion too, since their context has changed)
    keeping the higher-scoring prediction, then insert verbalizations for
    the top-scoring third of the mentions among those still without one.
    ``rows`` is as for ``predict_chunks``. The rounds of all chunks run in
    lockstep: each round re-encodes and re-scores every chunk still
    active in one ``_score_spans`` pass, then each chunk updates its slots
    and makes its insertions as it would alone, so its predictions and
    round count do not depend on the other chunks.
    """
    states = [PredictionState.for_document(c) for c in chunks]
    first_pass: list[list[MentionPrediction]] = [[] for _ in chunks]
    iterations = [0] * len(chunks)
    active = [i for i, state in enumerate(states) if state.slots]
    while active:
        texts, spans = zip(*(states[i].render() for i in active))
        picks = iter(_score_spans(texts, spans, mention_params, cache, rows))
        still_active = []
        for i in active:
            state = states[i]
            iterations[i] += 1
            for slot in state.slots:
                label_id, score = next(picks)
                if score > slot.score:
                    slot.predicted_id, slot.score = label_id, score
            if iterations[i] == 1:
                first_pass[i] = [
                    MentionPrediction(s.mention, s.predicted_id, s.score)
                    for s in state.slots
                ]
            if _insert_round(state, records):
                still_active.append(i)
        active = still_active
    return [
        DocumentPrediction(
            [MentionPrediction(s.mention, s.predicted_id, s.score) for s in state.slots],
            first, rounds, state,
        )
        for state, first, rounds in zip(states, first_pass, iterations)
    ]


def _insert_round(state: PredictionState, records: dict[str, EntityRecord]) -> bool:
    """Insert verbalizations for the top-scoring ceil(n/3) mentions that
    have none yet.

    Order is descending score, ties to the earlier mention; insertions
    are made left to right. Returns whether a mention without one is left.
    """
    unresolved = [i for i, s in enumerate(state.slots) if s.inserted is None]
    if not unresolved:
        return False
    per_round = math.ceil(len(state.slots) / 3)
    unresolved.sort(key=lambda i: (-state.slots[i].score, i))
    for i in sorted(unresolved[:per_round]):
        slot = state.slots[i]
        insert_verbalization(state, i, insertion_text(records[slot.predicted_id]))
    return any(s.inserted is None for s in state.slots)


@dataclass
class CorpusPredictions:
    """Predictions for a whole corpus, keyed by global mention offsets."""

    final: dict[MentionKey, MentionPrediction]
    iterations: dict[MentionKey, int]


def _windows(docs: list[Document], limits: tuple[int, int]) -> Iterator[list[Chunk]]:
    """Every chunk with mentions, in corpus order, grouped in windows of at
    least _WINDOW mentions (the last may hold fewer)."""
    window: list[Chunk] = []
    mentions = 0
    for doc in docs:
        for chunk in chunk_document(doc, *limits):
            if not chunk.mentions:
                continue
            window.append(chunk)
            mentions += len(chunk.mentions)
            if mentions >= _WINDOW:
                yield window
                window, mentions = [], 0
    if window:
        yield window


def predict_corpus(
    docs: list[Document],
    mention_params: EncoderParams,
    cache: LabelCache,
    records: dict[str, EntityRecord] | None = None,
    *,
    limits: tuple[int, int],
    iterative: bool = False,
    allowed_ids: set[str] | None = None,
) -> CorpusPredictions:
    """Chunk every document and predict all mentions, one-shot or iterative.

    Chunks are predicted a window at a time (``predict_chunks``,
    ``iterate_chunks``); each chunk's results are those of predicting
    it alone. Keys carry the original document offsets (chunk-local
    offsets are translated back via the chunk's parent offset).
    """
    if iterative and records is None:
        raise ValidationError("iterative prediction needs the entity records")
    rows = allowed_rows(cache, allowed_ids)
    final: dict[MentionKey, MentionPrediction] = {}
    iterations: dict[MentionKey, int] = {}
    for chunks in _windows(docs, limits):
        if iterative:
            results = [
                (r.predictions, r.iterations)
                for r in iterate_chunks(chunks, mention_params, cache, records, rows)
            ]
        else:
            results = [(p, 1) for p in predict_chunks(chunks, mention_params, cache, rows)]
        for chunk, (preds, rounds) in zip(chunks, results):
            for pred in preds:
                m = pred.mention
                key = (chunk.parent_doc, m.start + chunk.parent_offset,
                       m.end + chunk.parent_offset)
                final[key] = pred
                iterations[key] = rounds
    return CorpusPredictions(final=final, iterations=iterations)


def target_label_set(docs: list[Document], cache: LabelCache) -> set[str]:
    """Gold labels of a corpus that exist in the cache (restricted inference)."""
    golds = {m.gold_label for doc in docs for m in doc.mentions}
    allowed = golds & set(cache.row_of)
    if not allowed:
        raise ValidationError("no corpus gold label is present in the label set")
    return allowed
