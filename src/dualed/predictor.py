"""One-shot inference and the iterative insert-and-repredict loop.

One-shot prediction embeds every mention and picks the nearest cached
label. The iterative variant enriches the document between rounds: the
most confident predictions get their label's description (or title)
inserted in parentheses right after the mention, the modified text is
re-encoded, and everything is re-predicted — stored predictions are
only overwritten by a strictly higher score. Each round commits
ceil(total_mentions / 3) of the still-unresolved mentions, so the loop
always terminates.

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
from collections.abc import Iterator
from dataclasses import dataclass, field

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
    span: tuple[int, int]          # current offsets into working_text
    predicted_id: str | None = None
    score: float = -math.inf
    resolved: bool = False


@dataclass
class PredictionState:
    """Per-document working text with insertion and offset bookkeeping."""

    working_text: str
    slots: list[MentionSlot]
    inserted_spans: list[tuple[int, int]] = field(default_factory=list)

    @classmethod
    def for_document(cls, doc: Document | Chunk) -> "PredictionState":
        return cls(
            working_text=doc.text,
            slots=[MentionSlot(mention=m, span=(m.start, m.end)) for m in doc.mentions],
        )

    def strip_insertions(self) -> str:
        """Working text with every inserted parenthetical removed."""
        out = []
        pos = 0
        for s, length in sorted(self.inserted_spans):
            out.append(self.working_text[pos:s])
            pos = s + length
        out.append(self.working_text[pos:])
        return "".join(out)


def insert_verbalization(
    state: PredictionState, slot_index: int, text: str
) -> PredictionState:
    """Insert " (text)" right after a mention and mark it resolved.

    All downstream offsets (mention spans and earlier insertions) shift
    by the insertion length. Inserting twice on one mention is an error.
    """
    slot = state.slots[slot_index]
    if slot.resolved:
        raise ValidationError(
            f"mention ({slot.mention.start}, {slot.mention.end}) already has an insertion"
        )
    inserted = f" ({text})"
    pos = slot.span[1]
    state.working_text = state.working_text[:pos] + inserted + state.working_text[pos:]
    shift = len(inserted)
    for other in state.slots:
        if other.span[0] >= pos:
            other.span = (other.span[0] + shift, other.span[1] + shift)
    state.inserted_spans = [
        (s + shift, n) if s >= pos else (s, n) for s, n in state.inserted_spans
    ]
    state.inserted_spans.append((pos, shift))
    slot.resolved = True
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
    state: PredictionState | None = None  # final working text, iterative mode


# Mentions per window of chunks that prediction encodes and scores at once,
# and anchors per scoring block. They bound the memory a window holds;
# results do not depend on them.
_WINDOW = 256
_SCORE_BLOCK = 64


def _score_spans(
    texts: list[str],
    spans: list[list[tuple[int, int]]],
    mention_params: EncoderParams,
    cache: LabelCache,
    rows: np.ndarray | None,
) -> list[tuple[str, float]]:
    """Nearest cached label of every span, text by text in span order.

    The texts' spans are encoded in one ``encode_spans`` call, and the
    anchors are scored ``_SCORE_BLOCK`` at a time. Every anchor, and so
    every pick, has the bits of encoding its text alone and scanning the
    cache for it alone.
    """
    seqs = [tokenize(text, mention_params.vocab_size) for text in texts]
    ranges = [[token_range(seq, span) for span in text_spans]
              for seq, text_spans in zip(seqs, spans)]
    anchors = encode_spans(seqs, ranges, mention_params, cache.pooling)
    out: list[tuple[str, float]] = []
    for start in range(0, len(anchors), _SCORE_BLOCK):
        best, scores = top_rows(cache, anchors[start:start + _SCORE_BLOCK], rows)
        out.extend((cache.ids[r], s) for r, s in zip(best[:, 0].tolist(),
                                                     scores[:, 0].tolist()))
    return out


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
    (resolved ones too, since their context has changed) keeping the
    higher-scoring prediction, then insert verbalizations for the
    top-scoring third of the mentions among those still unresolved.
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
        picks = iter(_score_spans(
            [states[i].working_text for i in active],
            [[slot.span for slot in states[i].slots] for i in active],
            mention_params, cache, rows,
        ))
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
    """Insert verbalizations for the top-scoring ceil(n/3) unresolved mentions.

    Order is descending score, ties to the earlier mention; insertions
    are made left to right. Returns whether an unresolved mention is left.
    """
    unresolved = [i for i, s in enumerate(state.slots) if not s.resolved]
    if not unresolved:
        return False
    per_round = math.ceil(len(state.slots) / 3)
    unresolved.sort(key=lambda i: (-state.slots[i].score, i))
    for i in sorted(unresolved[:per_round]):
        slot = state.slots[i]
        insert_verbalization(state, i, insertion_text(records[slot.predicted_id]))
    return not all(s.resolved for s in state.slots)


@dataclass
class CorpusPredictions:
    """Predictions for a whole corpus, keyed by global mention offsets."""

    final: dict[MentionKey, MentionPrediction]
    iterations: dict[MentionKey, int]


def _windows(
    docs: list[Document], limits: tuple[int, int]
) -> Iterator[list[tuple[str, Chunk]]]:
    """(document id, chunk) of every chunk with mentions, in corpus order,
    grouped in windows of at least _WINDOW mentions (the last may hold fewer)."""
    window: list[tuple[str, Chunk]] = []
    mentions = 0
    for doc in docs:
        for chunk in chunk_document(doc, *limits):
            if not chunk.mentions:
                continue
            window.append((doc.id, chunk))
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
    for window in _windows(docs, limits):
        chunks = [chunk for _, chunk in window]
        if iterative:
            results = [
                (r.predictions, r.iterations)
                for r in iterate_chunks(chunks, mention_params, cache, records, rows)
            ]
        else:
            results = [(p, 1) for p in predict_chunks(chunks, mention_params, cache, rows)]
        for (doc_id, chunk), (preds, rounds) in zip(window, results):
            for pred in preds:
                m = pred.mention
                key = (doc_id, m.start + chunk.parent_offset, m.end + chunk.parent_offset)
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
