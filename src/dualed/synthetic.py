"""Deterministic synthetic disambiguation tasks for experiments and tests.

Entities come in families sharing one ambiguous surface form ("avalon"
may be any of five Avalon-* entities); only the discriminative context
words around a mention reveal which family member is meant. The same
signature words appear in the entity's description, so a model must
route context through both encoders to resolve a mention. Everything is
generated from seeded pseudo-words, so corpora are reproducible and
collision-free by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Document, EntityRecord, Mention
from .errors import ValidationError

_SYLLABLES = (
    "ba be bo da de do fa fe fo ga ge go ka ke ko la le lo "
    "ma me mo na ne no pa pe po ra re ro sa se so ta te to va ve vo"
).split()

_VERBS = ("visited", "joined", "praised", "studied", "backed", "toured")
_KINDS = ("initiative", "ensemble", "venture", "collective")


def _pseudo_word(index: int, syllables: int = 3) -> str:
    parts = []
    n = index
    for _ in range(syllables):
        parts.append(_SYLLABLES[n % len(_SYLLABLES)])
        n //= len(_SYLLABLES)
    return "".join(parts)


@dataclass
class SyntheticTask:
    records: dict[str, EntityRecord]
    train_docs: list[Document]
    dev_docs: list[Document]


def make_task(
    n_entities: int = 40,
    n_surfaces: int = 8,
    train_mentions: int = 2000,
    dev_mentions: int = 400,
    max_mentions_per_doc: int = 4,
    seed: int = 0,
) -> SyntheticTask:
    """Build records plus train/dev corpora with the requested mention counts."""
    if n_entities % n_surfaces != 0:
        raise ValidationError("n_entities must be a multiple of n_surfaces")
    family = n_entities // n_surfaces
    if family < 3:
        raise ValidationError("each surface form must map to at least 3 entities")

    next_word = iter(range(10_000))
    surfaces = [_pseudo_word(next(next_word)) for _ in range(n_surfaces)]
    records: dict[str, EntityRecord] = {}
    surface_of: dict[str, str] = {}
    signatures: dict[str, list[str]] = {}
    for i in range(n_entities):
        surface = surfaces[i // family]
        distinct = _pseudo_word(next(next_word))
        sig = [_pseudo_word(next(next_word)) for _ in range(3)]
        entity_id = f"E{i:02d}"
        records[entity_id] = EntityRecord(
            id=entity_id,
            title=f"{surface.capitalize()} {distinct.capitalize()}",
            description=f"known for {sig[0]} {sig[1]} {sig[2]} work",
            categories={"instance_of": [_KINDS[i % len(_KINDS)]]},
        )
        surface_of[entity_id] = surface
        signatures[entity_id] = sig

    train_rng = np.random.default_rng([seed, 1])
    dev_rng = np.random.default_rng([seed, 2])
    ids = sorted(records)
    train_docs = _make_docs(
        "train", train_mentions, ids, surface_of, signatures,
        max_mentions_per_doc, train_rng,
    )
    dev_docs = _make_docs(
        "dev", dev_mentions, ids, surface_of, signatures,
        max_mentions_per_doc, dev_rng,
    )
    return SyntheticTask(records=records, train_docs=train_docs, dev_docs=dev_docs)


def _make_docs(
    prefix: str,
    total_mentions: int,
    ids: list[str],
    surface_of: dict[str, str],
    signatures: dict[str, list[str]],
    max_per_doc: int,
    rng: np.random.Generator,
) -> list[Document]:
    docs: list[Document] = []
    remaining = total_mentions
    doc_no = 0
    while remaining > 0:
        count = min(int(rng.integers(1, max_per_doc + 1)), remaining)
        parts: list[str] = []
        mentions: list[Mention] = []
        pos = 0
        for _ in range(count):
            gold = ids[int(rng.integers(len(ids)))]
            surface = surface_of[gold]
            sig = signatures[gold]
            order = rng.permutation(3)
            verb = _VERBS[int(rng.integers(len(_VERBS)))]
            sentence = (
                f"the {surface} {verb} {sig[order[0]]} {sig[order[1]]} "
                f"and {sig[order[2]]} there."
            )
            start = pos + len("the ")
            mentions.append(
                Mention(
                    start=start,
                    end=start + len(surface),
                    gold_label=gold,
                    surface=surface,
                )
            )
            parts.append(sentence)
            pos += len(sentence) + 1  # joining space
        docs.append(
            Document(id=f"{prefix}-{doc_no:04d}", text=" ".join(parts), mentions=mentions)
        )
        doc_no += 1
        remaining -= count
    return docs


def write_corpus_file(docs: list[Document], path) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(
                json.dumps(
                    {
                        "id": doc.id,
                        "text": doc.text,
                        "mentions": [
                            {"start": m.start, "end": m.end, "label": m.gold_label}
                            for m in doc.mentions
                        ],
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def write_label_file(records: dict[str, EntityRecord], path) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for entity_id in sorted(records):
            rec = records[entity_id]
            fh.write(
                json.dumps(
                    {
                        "id": rec.id,
                        "title": rec.title,
                        "description": rec.description,
                        "categories": rec.categories,
                        "paragraph": rec.paragraph,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
