"""Scoring over gold mentions and first-vs-final change analysis.

Every gold mention receives exactly one prediction, so micro accuracy
(correct / mentions) coincides with micro-F1; reports carry the raw
counts. For iterative runs, mentions are partitioned into four change
categories between the first and the final prediction pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Document
from .errors import ValidationError

MentionKey = tuple[str, int, int]  # (doc id, start, end)


@dataclass
class ChangeTable:
    correct: int
    incorrect_to_correct: int
    correct_to_incorrect: int
    incorrect: int

    @property
    def total(self) -> int:
        return (
            self.correct
            + self.incorrect_to_correct
            + self.correct_to_incorrect
            + self.incorrect
        )

    @property
    def first_pass_accuracy(self) -> float:
        return (self.correct + self.correct_to_incorrect) / self.total

    @property
    def last_pass_accuracy(self) -> float:
        return (self.correct + self.incorrect_to_correct) / self.total


@dataclass
class EvalReport:
    mentions: int
    correct: int
    accuracy: float


def _gold_map(docs: list[Document]) -> dict[MentionKey, str]:
    golds: dict[MentionKey, str] = {}
    for doc in docs:
        for m in doc.mentions:
            golds[(doc.id, m.start, m.end)] = m.gold_label
    return golds


def score(predictions: dict[MentionKey, str], docs: list[Document]) -> EvalReport:
    """Micro accuracy of predictions against the corpus gold labels.

    ``predictions`` maps (doc id, start, end) to a predicted label id.
    A gold mention without a prediction is an error; so is an empty
    corpus. Gold labels missing from the label set simply never match,
    counting against the model.
    """
    golds = _gold_map(docs)
    if not golds:
        raise ValidationError("no mentions to score")
    correct = 0
    for key, gold in golds.items():
        if key not in predictions:
            raise ValidationError(f"missing prediction for mention {key!r}")
        correct += predictions[key] == gold
    return EvalReport(
        mentions=len(golds), correct=correct, accuracy=correct / len(golds)
    )


def change_analysis(
    first_pass: dict[MentionKey, str],
    final: dict[MentionKey, str],
    docs: list[Document],
) -> ChangeTable:
    """Partition mentions by correctness before and after iteration."""
    golds = _gold_map(docs)
    if not golds:
        raise ValidationError("no mentions to score")
    if set(first_pass) - set(final) or set(final) - set(first_pass):
        raise ValidationError("first-pass and final predictions cover different mentions")
    table = ChangeTable(0, 0, 0, 0)
    for key, gold in golds.items():
        if key not in final:
            raise ValidationError(f"missing prediction for mention {key!r}")
        was = first_pass[key] == gold
        now = final[key] == gold
        if was and now:
            table.correct += 1
        elif not was and now:
            table.incorrect_to_correct += 1
        elif was and not now:
            table.correct_to_incorrect += 1
        else:
            table.incorrect += 1
    return table
