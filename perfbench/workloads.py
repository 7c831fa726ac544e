"""Seeded benchmark inputs and the three workload definitions.

The generator is the benchmark's own, so the program under test receives
only files. It follows the shape of the package's synthetic task:
entities come in families of five that share one ambiguous surface form,
and three signature words per entity appear both in its description and
around its mentions. Every pseudo-word, label, document and checkpoint
seed is drawn from ``numpy.random.default_rng([seed, stream])``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYLLABLES = (
    "ba be bo da de do fa fe fo ga ge go ka ke ko la le lo "
    "ma me mo na ne no pa pe po ra re ro sa se so ta te to va ve vo"
).split()
VERBS = ("visited", "joined", "praised", "studied", "backed", "toured")
KINDS = ("initiative", "ensemble", "venture", "collective")
FAMILY = 5

# The acceptance END_TO_END training config; only epochs and seed vary.
TRAIN_CONFIG = {
    "lr": "1.0",
    "clip_norm": "1.0",
    "vocab_size": str(1 << 16),
    "dim": "32",
    "window": "5",
    "neg_mode": "hard",
    "neg_count": "dyn",
    "neg_budget": "256",
    "loss": "cross_entropy",
    "sim": "euclidean",
    "pooling": "first_last",
    "refresh_interval_spans": "500",
    "verbalization": "title_desc_cat",
}
MAX_MENTIONS_PER_CHUNK = 100
MAX_CHARS_PER_CHUNK = 2800


@dataclass(frozen=True)
class Workload:
    """Input sizes of one workload and where its training happens.

    ``train_in_loop`` puts ``dualed train`` in every round; otherwise the
    model is trained in a forked child process before the loop, and twice
    more after it for the median speed; the rounds only predict.
    Training reports accuracy on the ``dev`` corpus (none when
    ``dev_mentions`` is 0); predictions run on the ``test`` corpus,
    ``predict_repeats`` times per round, so that the short predict
    commands give enough samples for a steady median.
    """

    name: str
    labels: int
    train_mentions: int
    train_per_doc: tuple[int, int]
    epochs: int
    dev_mentions: int
    test_mentions: int
    test_per_doc: tuple[int, int]
    train_in_loop: bool
    predict_repeats: int
    accuracy_floor: float = 0.0


WORKLOADS = {
    "train_kb40": Workload(
        name="train_kb40", labels=40, train_mentions=600, train_per_doc=(1, 4),
        epochs=2, dev_mentions=1000, test_mentions=2000, test_per_doc=(1, 4),
        train_in_loop=True, predict_repeats=3, accuracy_floor=0.10,
    ),
    "train_kb2k": Workload(
        name="train_kb2k", labels=2000, train_mentions=300, train_per_doc=(1, 4),
        epochs=2, dev_mentions=500, test_mentions=400, test_per_doc=(1, 4),
        train_in_loop=True, predict_repeats=2,
    ),
    "predict_kb2k": Workload(
        name="predict_kb2k", labels=2000, train_mentions=200, train_per_doc=(1, 4),
        epochs=2, dev_mentions=0, test_mentions=1000, test_per_doc=(20, 40),
        train_in_loop=False, predict_repeats=1,
    ),
}


@dataclass
class Inputs:
    labels: list[dict]                  # label-set JSONL rows
    train: list[dict]                   # corpus JSONL rows
    dev: list[dict]
    test: list[dict]


def _word(index: int) -> str:
    n = len(SYLLABLES)
    return SYLLABLES[index % n] + SYLLABLES[index // n % n] + SYLLABLES[index // n // n % n]


def generate(workload: Workload, seed: int) -> Inputs:
    """Labels and corpora for one workload, a pure function of the seed."""
    if workload.labels % FAMILY:
        raise ValueError(f"label count must be a multiple of {FAMILY}")
    n_surfaces = workload.labels // FAMILY
    words_needed = n_surfaces + 4 * workload.labels
    word_ids = np.random.default_rng([seed, 0]).permutation(len(SYLLABLES) ** 3)
    words = iter(_word(int(i)) for i in word_ids[:words_needed])
    surfaces = [next(words) for _ in range(n_surfaces)]

    labels, entities = [], []
    for i in range(workload.labels):
        surface = surfaces[i // FAMILY]
        distinct = next(words)
        sig = [next(words) for _ in range(3)]
        labels.append({
            "id": f"E{i:04d}",
            "title": f"{surface.capitalize()} {distinct.capitalize()}",
            "description": f"known for {sig[0]} {sig[1]} {sig[2]} work",
            "categories": {"instance_of": [KINDS[i % len(KINDS)]]},
            "paragraph": None,
        })
        entities.append((f"E{i:04d}", surface, sig))

    def docs(prefix, total, per_doc, stream):
        rng = np.random.default_rng([seed, stream])
        out, remaining = [], total
        while remaining > 0:
            count = min(int(rng.integers(per_doc[0], per_doc[1] + 1)), remaining)
            sentences, mentions, pos = [], [], 0
            for _ in range(count):
                gold, surface, sig = entities[int(rng.integers(len(entities)))]
                order = rng.permutation(3)
                verb = VERBS[int(rng.integers(len(VERBS)))]
                sentence = (f"the {surface} {verb} {sig[order[0]]} {sig[order[1]]} "
                            f"and {sig[order[2]]} there.")
                start = pos + len("the ")
                mentions.append({"start": start, "end": start + len(surface), "label": gold})
                sentences.append(sentence)
                pos += len(sentence) + 1
            out.append({"id": f"{prefix}-{len(out):05d}", "text": " ".join(sentences),
                        "mentions": mentions})
            remaining -= count
        return out

    train = docs("train", workload.train_mentions, workload.train_per_doc, 1)
    dev = docs("dev", workload.dev_mentions, workload.test_per_doc, 2)
    test = docs("test", workload.test_mentions, workload.test_per_doc, 3)
    return Inputs(labels=labels, train=train, dev=dev, test=test)


def write_jsonl(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_inputs(inputs: Inputs, workload: Workload, seed: int, out: Path) -> None:
    """Write the label set, corpora and training config under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(inputs.labels, out / "labels.jsonl")
    write_jsonl(inputs.train, out / "train.jsonl")
    if inputs.dev:
        write_jsonl(inputs.dev, out / "dev.jsonl")
    write_jsonl(inputs.test, out / "test.jsonl")
    config = dict(TRAIN_CONFIG, epochs=str(workload.epochs), seed=str(seed))
    (out / "config.txt").write_text("".join(f"{k}={v}\n" for k, v in config.items()))


def mention_count(docs: list[dict]) -> int:
    return sum(len(d["mentions"]) for d in docs)
