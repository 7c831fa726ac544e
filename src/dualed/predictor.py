"""One-shot inference and the iterative insert-and-repredict loop.

One-shot prediction embeds every mention and picks the nearest cached
label. The iterative variant enriches the document between rounds: the
most confident predictions get their label's description (or title)
inserted in parentheses right after the mention, the modified text is
re-encoded, and everything is re-predicted — stored predictions are
only overwritten by a strictly higher score. Each round commits
ceil(total_mentions / 3) of the still-unresolved mentions, so the loop
always terminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .corpus import Chunk, Document, EntityRecord, Mention, chunk_document
from .encoder import EncoderParams, encode, pool_span, token_range, tokenize
from .errors import ValidationError
from .evaluator import MentionKey
from .label_index import LabelCache, nearest_label


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

    original_text: str
    working_text: str
    slots: list[MentionSlot]
    inserted_spans: list[tuple[int, int]] = field(default_factory=list)

    @classmethod
    def for_document(cls, doc: Document | Chunk) -> "PredictionState":
        return cls(
            original_text=doc.text,
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
    doc_id: str
    predictions: list[MentionPrediction]
    first_pass: list[MentionPrediction]
    iterations: int
    state: PredictionState | None = None  # final working text, iterative mode


def predict_document(
    doc: Document | Chunk,
    mention_params: EncoderParams,
    cache: LabelCache,
    allowed_ids: set[str] | None = None,
) -> list[MentionPrediction]:
    """Nearest cached label for every mention, in mention order."""
    if not doc.mentions:
        return []
    seq = tokenize(doc.text, mention_params.vocab_size)
    vectors = encode(seq, mention_params)
    out = []
    for m in doc.mentions:
        anchor = pool_span(vectors, token_range(seq, (m.start, m.end)), cache.pooling)
        label_id, score = nearest_label(cache, anchor, allowed_ids)
        out.append(MentionPrediction(mention=m, predicted_id=label_id, score=score))
    return out


def predict_iterative(
    doc: Document | Chunk,
    mention_params: EncoderParams,
    cache: LabelCache,
    records: dict[str, EntityRecord],
    allowed_ids: set[str] | None = None,
) -> DocumentPrediction:
    """Insert-and-repredict until every mention carries an insertion.

    Per round: re-encode the working text, re-predict every mention
    (resolved ones too, since their context has changed) keeping the
    higher-scoring prediction, then insert verbalizations for the
    top-scoring third of the mentions among those still unresolved.
    """
    doc_id = doc.id if isinstance(doc, Document) else doc.parent_doc
    state = PredictionState.for_document(doc)
    total = len(state.slots)
    if total == 0:
        return DocumentPrediction(doc_id, [], [], 0, state)
    per_round = math.ceil(total / 3)

    first_pass: list[MentionPrediction] = []
    iterations = 0
    while True:
        iterations += 1
        seq = tokenize(state.working_text, mention_params.vocab_size)
        vectors = encode(seq, mention_params)
        for slot in state.slots:
            anchor = pool_span(vectors, token_range(seq, slot.span), cache.pooling)
            label_id, score = nearest_label(cache, anchor, allowed_ids)
            if score > slot.score:
                slot.predicted_id, slot.score = label_id, score
        if iterations == 1:
            first_pass = [
                MentionPrediction(s.mention, s.predicted_id, s.score)
                for s in state.slots
            ]

        unresolved = [i for i, s in enumerate(state.slots) if not s.resolved]
        if not unresolved:
            break
        unresolved.sort(key=lambda i: (-state.slots[i].score, i))
        for i in sorted(unresolved[:per_round]):
            slot = state.slots[i]
            insert_verbalization(state, i, insertion_text(records[slot.predicted_id]))
        if all(s.resolved for s in state.slots):
            break

    final = [
        MentionPrediction(s.mention, s.predicted_id, s.score) for s in state.slots
    ]
    return DocumentPrediction(doc_id, final, first_pass, iterations, state)


@dataclass
class CorpusPredictions:
    """Predictions for a whole corpus, keyed by global mention offsets."""

    final: dict[MentionKey, MentionPrediction]
    first: dict[MentionKey, MentionPrediction]
    iterations: dict[MentionKey, int]


def predict_corpus(
    docs: list[Document],
    mention_params: EncoderParams,
    cache: LabelCache,
    records: dict[str, EntityRecord] | None = None,
    limits: tuple[int, int] = (100, 2800),
    iterative: bool = False,
    allowed_ids: set[str] | None = None,
) -> CorpusPredictions:
    """Chunk every document and predict all mentions, one-shot or iterative.

    Keys carry the original document offsets (chunk-local offsets are
    translated back via the chunk's parent offset).
    """
    if iterative and records is None:
        raise ValidationError("iterative prediction needs the entity records")
    final: dict[MentionKey, MentionPrediction] = {}
    first: dict[MentionKey, MentionPrediction] = {}
    iterations: dict[MentionKey, int] = {}
    for doc in docs:
        for chunk in chunk_document(doc, *limits):
            if not chunk.mentions:
                continue
            if iterative:
                result = predict_iterative(
                    chunk, mention_params, cache, records, allowed_ids
                )
                rounds = result.iterations
                first_preds = result.first_pass
                preds = result.predictions
            else:
                preds = predict_document(chunk, mention_params, cache, allowed_ids)
                first_preds = preds
                rounds = 1
            for pred, first_pred in zip(preds, first_preds):
                m = pred.mention
                key = (
                    doc.id,
                    m.start + chunk.parent_offset,
                    m.end + chunk.parent_offset,
                )
                final[key] = pred
                first[key] = first_pred
                iterations[key] = rounds
    return CorpusPredictions(final=final, first=first, iterations=iterations)


def target_label_set(docs: list[Document], cache: LabelCache) -> set[str]:
    """Gold labels of a corpus that exist in the cache (restricted inference)."""
    golds = {m.gold_label for doc in docs for m in doc.mentions}
    allowed = golds & set(cache.row_of)
    if not allowed:
        raise ValidationError("no corpus gold label is present in the label set")
    return allowed
