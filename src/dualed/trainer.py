"""Training loop: batching, negative selection, updates, cache scheduling.

A step processes one batch of document chunks. Every mention is encoded
in its full chunk context and pooled into an anchor; negatives come
either from the other mentions' gold labels (in-batch) or from a scan
against the cached label embeddings (hard). The batch's golds and
selected negatives are then re-encoded fresh, in one grouped pass, so
gradients flow into the label encoder; the loss is taken between the
anchor and those fresh embeddings, and both encoders receive one
accumulated, norm-clipped gradient-descent update per batch. The cache
never enters a backward pass: it only serves mining and gets patched
with the fresh embeddings afterwards, plus a full re-encode whenever the
processed-span counter crosses a refresh-interval boundary (and at every
epoch start).

The iterative-training variant additionally inserts label descriptions
after a sampled subset of mentions before encoding (gold labels early,
partly corrupted; the model's own confident predictions later) and
excludes those mentions from the loss, since their answer is literally
in the text.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .corpus import Chunk, Document, EntityRecord, _text_lines, chunk_document
from .encoder import (
    POOLING_METHODS,
    EncoderGrads,
    EncoderParams,
    _all_finite,
    _row_blocks,
    backward_spans,
    encode_spans,
    load_checkpoint,
    pooled_width,
    save_checkpoint,
    token_range,
    tokenize,
)
from .errors import ValidationError, read_exact, read_into
from .label_index import (
    LabelCache,
    build_cache,
    encode_labels,
    full_refresh,
    sample_in_batch_negatives,
    tokenize_labels,
    top_rows,
    write_back,
)
from .evaluator import score as eval_score
from .losses import LOSS_KINDS, SIMILARITY_KINDS, LossSpec, SimilaritySpec, loss_gradients
from .predictor import (
    PredictionState,
    insert_verbalization,
    insertion_text,
    predict_chunks,
    predict_corpus,
)
from .verbalizer import FORMAT_NAMES, Verbalization, verbalize_all

HARD = "hard"
IN_BATCH = "in_batch"
DYNAMIC = "dyn"


@dataclass
class TrainConfig:
    """Flat training configuration; every field is a config-file key."""

    batch_docs: int = 32
    lr: float = 0.05
    epochs: int = 5
    sim: str = "euclidean"
    loss: str = "cross_entropy"
    margin: float | None = None          # None = per-similarity default
    pooling: str = "first_last"
    neg_mode: str = HARD                 # hard | in_batch
    neg_count: int | str = DYNAMIC       # fixed k, or "dyn" for budget-based
    neg_budget: int = 256                # max negative embeddings per batch (dyn mode)
    refresh_interval_spans: int = 2000   # 0 disables mid-epoch full refreshes
    on_the_fly: bool = True              # patch cache rows touched by a step
    iterative: bool = False
    insert_fraction: float = 1.0 / 3.0
    corrupt_rate: float = 0.10
    switch_after_spans: int = 30000      # gold insertions before, predictions after
    verbalization: str = "title_desc_cat"
    max_mentions_per_chunk: int = 100
    max_chars_per_chunk: int = 2800
    vocab_size: int = 65536
    dim: int = 64
    window: int = 5
    clip_norm: float = 1.0               # 0 disables the clip
    seed: int = 0

    def __post_init__(self):
        for name in _FLOAT_KEYS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.neg_mode not in (HARD, IN_BATCH):
            raise ValidationError(f"neg_mode must be hard or in_batch, got {self.neg_mode!r}")
        for name, kinds in (("loss", LOSS_KINDS), ("sim", SIMILARITY_KINDS),
                            ("pooling", POOLING_METHODS), ("verbalization", FORMAT_NAMES)):
            if getattr(self, name) not in kinds:
                raise ValidationError(
                    f"{name} must be one of {', '.join(kinds)}, got {getattr(self, name)!r}"
                )
        if self.neg_count != DYNAMIC and int(self.neg_count) < 1:
            raise ValidationError("neg_count must be >= 1 or 'dyn'")
        if self.clip_norm < 0:
            raise ValidationError("clip_norm must be >= 0 (0 disables clipping)")
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValidationError("corrupt_rate must be in [0, 1]")
        if not 0.0 < self.insert_fraction < 1.0:
            raise ValidationError("insert_fraction must be in (0, 1)")
        for name in ("batch_docs", "neg_budget", "max_mentions_per_chunk",
                     "max_chars_per_chunk", "vocab_size", "dim"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        # 0 epochs or a 0 lr is a valid no-op run; a 0 refresh interval
        # disables the mid-epoch refreshes
        for name in ("epochs", "lr", "refresh_interval_spans", "switch_after_spans",
                     "window", "seed"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        for name in _HEADER_KEYS:  # the checkpoint header holds them as uint32
            if getattr(self, name) >= 1 << 32:
                raise ValidationError(f"{name} must be < 2**32, got {getattr(self, name)}")
        if self.vocab_size & (self.vocab_size - 1):
            raise ValidationError(f"vocab_size must be a power of two, got {self.vocab_size}")

    @property
    def sim_spec(self) -> SimilaritySpec:
        return SimilaritySpec(kind=self.sim)

    @property
    def loss_spec(self) -> LossSpec:
        return LossSpec(kind=self.loss, margin=self.margin)

    @property
    def limits(self) -> tuple[int, int]:  # (max mentions, max characters) per chunk
        return (self.max_mentions_per_chunk, self.max_chars_per_chunk)

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "TrainConfig":
        """Build from flat string key=value pairs (config file / CLI flags)."""
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for key, raw in mapping.items():
            if key not in known:
                raise ValidationError(f"unknown config key {key!r}")
            kwargs[key] = _cast_config_value(key, raw)
        return cls(**kwargs)

    def to_mapping(self) -> dict[str, str]:
        """Flat string key=value pairs that ``from_mapping`` reads back."""
        return {k: "none" if v is None else str(v) for k, v in asdict(self).items()}


_FLOAT_KEYS = ("lr", "margin", "insert_fraction", "corrupt_rate", "clip_norm")
_HEADER_KEYS = ("vocab_size", "dim", "window")  # what the checkpoint header records


def _cast_config_value(key: str, raw):
    if not isinstance(raw, str):
        return raw
    if key in ("on_the_fly", "iterative"):
        if raw.lower() not in ("true", "false", "0", "1"):
            raise ValidationError(f"{key} must be a boolean, got {raw!r}")
        return raw.lower() in ("true", "1")
    if key in ("sim", "loss", "pooling", "neg_mode", "verbalization"):
        return raw
    if key == "neg_count" and raw == DYNAMIC:
        return raw
    if key == "margin" and raw == "none":  # the per-similarity default
        return None
    cast = float if key in _FLOAT_KEYS else int
    try:
        return cast(raw)
    except ValueError as exc:
        raise ValidationError(f"{key} must be {cast.__name__}, got {raw!r}") from exc


# ── the model directory ──────────────────────────────────────────────────────
#
# A model is the directory ``train --out`` writes: checkpoint.bin (both
# encoders), config.txt (the config they were trained with, which --config
# reads back), metrics.jsonl (one row per epoch) and label_cache.bin (the
# label cache ``predict`` would build from them).
#
# label_cache.bin: magic "VRBLC1"; three sha256 keys, E (the label
# encoder's float32 bytes in checkpoint.bin), C (the resolved config, as
# config.txt serializes it) and L (the label set: each sorted id with its
# verbalization text and title character span); the row count n and width
# p as little-endian uint32 and the byte length of the ids as uint64; the
# sorted ids as one ASCII JSON array; the (n, p) rows as little-endian
# float64. ``load_predictor`` uses the rows only when all three keys match
# its checkpoint, config and label set, and otherwise rebuilds them.

_CACHE_MAGIC = b"VRBLC1"
_CACHE_HEADER = struct.Struct("<6s32s32s32sIIQ")


def save_model(out_dir, trainer: Trainer, metrics: list[dict]) -> None:
    """Write ``trainer``'s model and its metrics rows into the directory ``out_dir``.

    The stored label cache is encoded with the label encoder as the
    checkpoint holds it, so ``trainer.label_params`` is rounded to float32
    in place: afterwards it equals what ``load_model`` returns.
    """
    out_dir = Path(out_dir)
    label_key = save_checkpoint(
        out_dir / "checkpoint.bin", trainer.mention_params, trainer.label_params
    )
    (out_dir / "metrics.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in metrics), encoding="utf-8"
    )
    (out_dir / "config.txt").write_text(_config_text(trainer.config), encoding="utf-8")
    label = trainer.label_params
    for tensor in (label.table, label.w_self, label.w_ctx, label.bias):
        for block in _row_blocks(tensor):  # in place, with no whole-table copy
            block[...] = block.astype(np.float32)
    cache = trainer.eval_cache()
    ids = json.dumps(cache.ids).encode("ascii")
    with open(out_dir / "label_cache.bin", "wb") as fh:
        fh.write(_CACHE_HEADER.pack(
            _CACHE_MAGIC, label_key, _config_key(trainer.config),
            _label_key(trainer.verbalizations), *cache.matrix.shape, len(ids),
        ))
        fh.write(ids)
        fh.write(memoryview(np.ascontiguousarray(cache.matrix, dtype="<f8")))


def load_model(checkpoint) -> tuple[TrainConfig, EncoderParams, EncoderParams]:
    """The config and the (mention, label) encoders of the model whose
    checkpoint.bin is ``checkpoint``."""
    return _read_model(checkpoint)[:3]


def load_predictor(
    checkpoint, records: dict[str, EntityRecord]
) -> tuple[TrainConfig, EncoderParams, LabelCache]:
    """The config, the mention encoder and the label cache of ``records``
    with which ``predict`` scores the model whose checkpoint.bin is
    ``checkpoint``: the rows of label_cache.bin when they were built from
    this checkpoint, config and label set, else freshly encoded ones, which
    have the same bits."""
    config, mention, label, stored = _read_model(checkpoint)
    verbs = verbalize_all(records, config.verbalization)
    ids = sorted(records)
    if stored is not None and stored[:2] == (_label_key(verbs), ids):
        return config, mention, LabelCache(ids, stored[2], config.pooling, config.sim_spec)
    tokens = tokenize_labels(verbs, label.vocab_size)
    return config, mention, build_cache(ids, label, tokens, config.pooling, config.sim_spec)


def _read_model(checkpoint):
    """``load_model``'s config and encoders, plus ``_stored_rows``."""
    config_path = Path(checkpoint).with_name("config.txt")
    if not config_path.is_file():
        raise ValidationError(f"no {config_path}: train --out writes it beside checkpoint.bin")
    mapping = parse_config_file(config_path)
    config = TrainConfig.from_mapping(mapping)
    mention, label, label_key = load_checkpoint(checkpoint)
    # only the keys config.txt sets: a default says nothing about the checkpoint
    for key, header in zip(_HEADER_KEYS, (label.vocab_size, label.dim, label.window)):
        if key in mapping and getattr(config, key) != header:
            raise ValidationError(f"{config_path} sets {key}={getattr(config, key)}, "
                                  f"but the checkpoint header says {header}")
    return config, mention, label, _stored_rows(config_path, config, label_key)


def _stored_rows(config_path: Path, config: TrainConfig, label_key: bytes):
    """The (label-set key, ids, rows) of the label_cache.bin beside
    ``config_path`` when it was written for the label encoder whose key is
    ``label_key``; None when there is no such file or it was written for
    another label encoder. A config.txt that differs from the one that
    label encoder was trained with is a ValidationError."""
    path = config_path.with_name("label_cache.bin")
    if not path.is_file():  # a model written before label caches were stored
        return None
    with open(path, "rb") as fh:
        magic, e_key, c_key, l_key, n, width, id_bytes = _CACHE_HEADER.unpack(
            read_exact(fh, _CACHE_HEADER.size, f"label cache {path}")
        )
        if magic != _CACHE_MAGIC:
            raise ValidationError(f"{path}: not a label cache (bad magic {magic!r})")
        implied = _CACHE_HEADER.size + id_bytes + 8 * n * width
        actual = os.fstat(fh.fileno()).st_size
        if actual != implied:
            raise ValidationError(f"{path} is {actual} bytes, but its header (n={n}, "
                                  f"p={width}, ids of {id_bytes} bytes) implies {implied}")
        if e_key != label_key:  # checkpoint.bin was replaced: rebuild
            return None
        if c_key != _config_key(config):
            raise ValidationError(
                f"{config_path} is not the config the checkpoint beside it was trained "
                f"with (its label cache {path.name} records another)"
            )
        try:
            ids = json.loads(fh.read(id_bytes).decode("ascii"))
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed label ids: {exc}") from exc
        if not isinstance(ids, list) or len(ids) != n or width != pooled_width(
            config.dim, config.pooling
        ):
            raise ValidationError(f"{path}: its ids or row width contradict its header")
        rows = read_into(fh, np.empty((n, width), dtype="<f8"), f"label cache {path}")
    if not _all_finite(rows):
        raise ValidationError(f"{path}: a stored label row holds NaN or infinity")
    return l_key, ids, rows


def _config_text(config: TrainConfig) -> str:
    return "".join(f"{k}={v}\n" for k, v in config.to_mapping().items())


def _config_key(config: TrainConfig) -> bytes:
    """sha256 of the config as config.txt serializes it once read back,
    so a value written as 1 and read back as 1.0 keys the same config."""
    resolved = TrainConfig.from_mapping(config.to_mapping())
    return hashlib.sha256(_config_text(resolved).encode("utf-8")).digest()


def _label_key(verbalizations: dict[str, Verbalization]) -> bytes:
    """sha256 of the label set: each sorted id with its verbalization text
    and title character span."""
    rows = [[i, verbalizations[i].text, *verbalizations[i].title_char_span]
            for i in sorted(verbalizations)]
    return hashlib.sha256(json.dumps(rows).encode("ascii")).digest()


def parse_config_file(path) -> dict[str, str]:
    """Flat UTF-8 key=value file; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    for line_no, line in _text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}: line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def make_batches(
    corpus: list[Document],
    batch_docs: int,
    limits: tuple[int, int],
    seed,
) -> list[list[Chunk]]:
    """Shuffle documents, chunk them, group chunks into batches."""
    if not corpus:
        raise ValidationError("corpus is empty")
    max_mentions, max_chars = limits
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus))
    chunks: list[Chunk] = []
    for i in order:
        chunks.extend(chunk_document(corpus[i], max_mentions, max_chars))
    return [chunks[i:i + batch_docs] for i in range(0, len(chunks), batch_docs)]


def dynamic_negative_count(batch_mentions: int, neg_budget: int) -> int:
    """Per-mention negative count under a total embedding budget."""
    if batch_mentions < 1:
        raise ValidationError("batch_mentions must be >= 1")
    return max(1, neg_budget // batch_mentions)


# ── iterative-training insertions ────────────────────────────────────────────


def apply_iterative_insertions(
    batch: list[Chunk],
    records: dict[str, EntityRecord],
    config: TrainConfig,
    processed_spans: int,
    rng: np.random.Generator,
    predict_fn,
) -> list[PredictionState]:
    """Insert label descriptions for a sampled subset of each chunk's mentions.

    Before the span-count switch the gold label is inserted (each
    insertion independently corrupted to a random wrong label with
    probability corrupt_rate); after it, the model's own prediction is
    inserted instead, and only where its score beats the batch median.
    ``predict_fn`` maps the batch to one prediction list per chunk, in
    mention order (``predictor.predict_chunks``); it is called once, and
    only after the switch. Returns one state per chunk; the loss terms of
    the mentions whose slot holds an insertion must be dropped.
    """
    use_predictions = processed_spans >= config.switch_after_spans
    sorted_ids = sorted(records)

    batch_preds: list[list] = []
    median = 0.0
    if use_predictions:
        batch_preds = predict_fn(batch)
        scores = [p.score for preds in batch_preds for p in preds]
        median = float(np.median(scores)) if scores else math.inf

    states = [PredictionState.for_document(chunk) for chunk in batch]
    for ci, (chunk, state) in enumerate(zip(batch, states)):
        eligible = [mi for mi, m in enumerate(chunk.mentions) if m.gold_label in records]
        if eligible:
            n_insert = min(math.ceil(config.insert_fraction * len(chunk.mentions)),
                           len(eligible))
            picked = sorted(rng.choice(len(eligible), size=n_insert, replace=False))
            for j in picked:
                mi = eligible[j]
                if use_predictions:
                    pred = batch_preds[ci][mi]
                    if pred.score <= median:
                        continue
                    label_id = pred.predicted_id
                else:
                    label_id = chunk.mentions[mi].gold_label
                    if config.corrupt_rate > 0 and rng.random() < config.corrupt_rate:
                        label_id = _random_wrong_label(sorted_ids, label_id, rng)
                insert_verbalization(state, mi, insertion_text(records[label_id]))
    return states


def _random_wrong_label(sorted_ids: list[str], gold: str, rng: np.random.Generator) -> str:
    if len(sorted_ids) < 2:
        return gold
    while True:
        candidate = sorted_ids[int(rng.integers(len(sorted_ids)))]
        if candidate != gold:
            return candidate


# ── the trainer ──────────────────────────────────────────────────────────────


@dataclass
class StepStats:
    loss: float
    loss_terms: int
    spans: int
    refreshes: int
    skipped_unlinkable: int
    write_log: list[str]
    negatives_used: list[str]
    excluded: set[tuple[int, int]]


class Trainer:
    """Owns both encoders, the label cache, and the processed-span schedule."""

    def __init__(self, records: dict[str, EntityRecord], config: TrainConfig):
        self.config = config
        self.records = records
        self.rng = np.random.default_rng(config.seed)
        self.mention_params = EncoderParams.init(
            config.vocab_size, config.dim, config.window, seed=config.seed
        )
        self.label_params = EncoderParams.init(
            config.vocab_size, config.dim, config.window, seed=config.seed + 1
        )
        self.verbalizations = verbalize_all(records, config.verbalization)
        self.label_tokens = tokenize_labels(self.verbalizations, self.label_params.vocab_size)
        self.cache = LabelCache.empty(
            sorted(records), config.dim, config.pooling, config.sim_spec
        )
        self.processed_spans = 0
        self.refreshes = 0

    # -- cache scheduling --

    def refresh_cache(self) -> None:
        full_refresh(self.cache, self.label_params, self.label_tokens)
        self.refreshes += 1

    def _interval_refreshes(self, before: int, after: int) -> int:
        """Count every refresh boundary crossed between the two span
        positions; with no update between them, the labels are encoded once."""
        interval = self.config.refresh_interval_spans
        if not interval:
            return 0
        fires = after // interval - before // interval
        if fires:
            self.refresh_cache()
            self.refreshes += fires - 1
        return fires

    # -- one batch --

    def train_step(self, batch: list[Chunk]) -> StepStats:
        """One update from one batch, in five phases.

        1. Render and tokenize the chunks that have mentions and locate
           the anchored mentions (linkable and without an insertion); one
           ``encode_spans`` call gives their anchors.
        2. The negatives: in hard mode, one ``top_rows`` search mines
           every anchor's; in-batch sampling goes in mention order.
        3. One grouped forward of the step's labels, in first-use order
           (per mention: the gold, then its negatives).
        4. The losses in mention order.
        5. One ``backward_spans`` call per encoder, with a zero gradient
           for an anchor without a loss term, and the update.
        """
        config = self.config
        batch_mentions = sum(len(c.mentions) for c in batch)

        if config.iterative and batch_mentions:
            states = apply_iterative_insertions(
                batch,
                self.records,
                config,
                self.processed_spans,
                self.rng,
                lambda chunks: predict_chunks(chunks, self.mention_params, self.cache),
            )
        else:
            states = [PredictionState.for_document(c) for c in batch]

        if config.neg_count == DYNAMIC:
            k = dynamic_negative_count(max(batch_mentions, 1), config.neg_budget)
        else:
            k = int(config.neg_count)
        batch_golds = [
            m.gold_label for c in batch for m in c.mentions if m.gold_label in self.records
        ]

        # 1. anchors
        seqs, ranges, golds = [], [], []
        excluded: set[tuple[int, int]] = set()
        skipped = 0
        for ci, state in enumerate(states):
            if not state.slots:
                continue
            text, spans = state.render()
            seq = tokenize(text, self.mention_params.vocab_size)
            chunk_ranges = []
            for mi, (slot, span) in enumerate(zip(state.slots, spans)):
                if slot.mention.gold_label not in self.records:
                    skipped += 1
                elif slot.inserted is not None:
                    excluded.add((ci, mi))
                else:
                    chunk_ranges.append(token_range(seq, span))
                    golds.append(slot.mention.gold_label)
            seqs.append(seq)
            ranges.append(chunk_ranges)
        anchors = encode_spans(seqs, ranges, self.mention_params, config.pooling)

        # 2. negatives
        terms: list[tuple] = []             # (anchor row, gold, neg_ids)
        label_row: dict[str, int] = {}      # step labels in first-use order
        if config.neg_mode == HARD:
            gold_rows = np.array([self.cache.row_of[g] for g in golds], dtype=np.int64)
            mined, _ = top_rows(self.cache, anchors, gold=gold_rows, k=k)
        for j, gold in enumerate(golds):
            if config.neg_mode == HARD:
                neg_ids = [self.cache.ids[r] for r in mined[j].tolist()]
            else:
                neg_ids = sample_in_batch_negatives(batch_golds, gold, k, self.rng)
            if not neg_ids:
                continue
            for label_id in (gold, *neg_ids):
                label_row.setdefault(label_id, len(label_row))
            terms.append((j, gold, neg_ids))

        # 3. fresh label embeddings, so gradients reach the label encoder
        label_ids = list(label_row)
        label_embs = encode_labels(
            self.label_params, self.label_tokens, label_ids, config.pooling
        )

        # 4. losses in mention order
        anchor_grads = np.zeros_like(anchors)
        label_emb_grads = np.zeros_like(label_embs)
        negatives_used: list[str] = []
        total_loss, n_terms = 0.0, 0
        for j, gold, neg_ids in terms:
            neg_rows = [label_row[nid] for nid in neg_ids]
            loss, grads = loss_gradients(
                anchors[j],
                label_embs[label_row[gold]],
                [label_embs[r] for r in neg_rows],
                config.loss_spec,
                config.sim_spec,
            )
            total_loss += loss
            n_terms += 1
            negatives_used.extend(neg_ids)
            anchor_grads[j] = grads.anchor
            label_emb_grads[label_row[gold]] += grads.positive
            for r, g in zip(neg_rows, grads.negatives):
                label_emb_grads[r] += g

        # 5. backward passes and one clipped update of both encoders
        if n_terms:
            tokens = self.label_tokens
            mention_grads = backward_spans(
                seqs, ranges, anchor_grads, self.mention_params, config.pooling
            )
            label_grads = backward_spans(
                [tokens.seqs[i] for i in label_ids],
                [[tokens.title_spans[i]] for i in label_ids],
                label_emb_grads,
                self.label_params,
                config.pooling,
            )
            _scale(mention_grads, 1.0 / n_terms)
            _scale(label_grads, 1.0 / n_terms)
            _clip_global_norm(mention_grads, label_grads, config.clip_norm, config.vocab_size)
            _apply_update(self.mention_params, mention_grads, config.lr)
            _apply_update(self.label_params, label_grads, config.lr)

        write_log: list[str] = []
        if config.on_the_fly:
            for label_id in sorted(label_row):
                write_back(self.cache, label_id, label_embs[label_row[label_id]])
                write_log.append(label_id)

        before = self.processed_spans
        self.processed_spans += batch_mentions
        fires = self._interval_refreshes(before, self.processed_spans)

        return StepStats(
            loss=total_loss / n_terms if n_terms else 0.0,
            loss_terms=n_terms,
            spans=batch_mentions,
            refreshes=fires,
            skipped_unlinkable=skipped,
            write_log=write_log,
            negatives_used=negatives_used,
            excluded=excluded,
        )

    # -- full runs --

    def eval_cache(self) -> LabelCache:
        """A freshly encoded cache for inference, outside the refresh schedule."""
        return build_cache(
            self.cache.ids,
            self.label_params,
            self.label_tokens,
            self.config.pooling,
            self.config.sim_spec,
        )

    def evaluate(self, docs: list[Document]) -> float:
        """One-shot accuracy on ``docs`` with a freshly encoded cache."""
        return self._accuracy(docs, self.eval_cache())

    def _accuracy(self, docs: list[Document], cache: LabelCache) -> float:
        preds = predict_corpus(docs, self.mention_params, cache, limits=self.config.limits)
        mapping = {key: p.predicted_id for key, p in preds.final.items()}
        return eval_score(mapping, docs).accuracy

    def train(
        self, corpus: list[Document], dev_corpus: list[Document] | None = None
    ) -> list[dict]:
        """Run all epochs; returns one metrics row per epoch.

        A run of one or more epochs in which no step made a loss term is a
        ValidationError, naming the mentions skipped as unlinkable and
        those that found no negative.
        """
        config = self.config
        metrics: list[dict] = []
        fresh = None  # the dev evaluation's cache, encoded after the last update
        terms = skipped = no_negatives = 0
        for epoch in range(config.epochs):
            if fresh is None:
                self.refresh_cache()
            else:  # nothing was updated since the dev evaluation encoded these rows
                self.cache.matrix[...] = fresh.matrix
                self.cache.dirty_writes = 0
                self.refreshes += 1
                fresh = None  # not held through the epoch
            batches = make_batches(
                corpus, config.batch_docs, config.limits, seed=[config.seed, epoch]
            )
            epoch_loss, epoch_terms = 0.0, 0
            for batch in batches:
                stats = self.train_step(batch)
                epoch_loss += stats.loss * stats.loss_terms
                epoch_terms += stats.loss_terms
                skipped += stats.skipped_unlinkable
                no_negatives += (stats.spans - stats.skipped_unlinkable
                                 - len(stats.excluded) - stats.loss_terms)
            terms += epoch_terms
            dev_acc = None
            if dev_corpus is not None:
                fresh = self.eval_cache()
                dev_acc = self._accuracy(dev_corpus, fresh)
            metrics.append(
                {
                    "epoch": epoch,
                    "loss": epoch_loss / epoch_terms if epoch_terms else 0.0,
                    "dev_acc": dev_acc,
                    "refreshes": self.refreshes,
                    "spans": self.processed_spans,
                }
            )
        if config.epochs and not terms:
            raise ValidationError(
                f"training made no update in {config.epochs} epochs: {skipped} mentions "
                f"skipped as unlinkable (gold not in the label set), {no_negatives} "
                f"without a negative"
            )
        return metrics


# ── the sparse step ──────────────────────────────────────────────────────────
#
# Only the token ids of a step's chunks and labels get a table gradient, so
# ``encoder.backward_spans`` keeps each encoder's table gradient as a compact
# (R, d) buffer over those rows. Scale and update touch those rows alone:
# for any other row the update is x - lr * 0.0, which is x. The clip norm
# keeps the bits of summing the squares of the whole (V, d) table with
# np.sum, but replays that sum (``_table_square_sum``) only in a step where
# a cheap sum over the touched rows cannot rule the clip out.


def _scale(grads: EncoderGrads, factor: float) -> None:
    grads.table *= factor
    grads.w_self *= factor
    grads.w_ctx *= factor
    grads.bias *= factor


def _square_total(a: EncoderGrads, b: EncoderGrads, table_sum) -> float:
    total = 0.0
    for g in (a, b):
        total += table_sum(g)
        for t in (g.w_self, g.w_ctx, g.bias):
            total += float(np.sum(t * t))
    return total


def _clip_global_norm(
    a: EncoderGrads, b: EncoderGrads, max_norm: float, vocab_size: int
) -> None:
    """Scale both gradients to a global norm of at most ``max_norm``; 0
    disables the clip.

    A float sum of non-negative terms, in any order, is within a factor
    (1 ± u)**K of the exact sum, where u is the unit roundoff and K the
    most additions one term passes through (Higham 2002, §4.2). Both for
    the dense np.sum, whose norm the clip compares, and for the cheap sum
    over the touched rows, K is at most (V + d) * d + 8: a table or weight
    sum, then the chain of the 8 partial sums. So the dense total is below
    the cheap one times 1 + 4 K u, and 8 u more covers rounding the widened
    total. When even its square root is below ``max_norm``, the clip cannot
    fire and the dense sum is not replayed; nan and inf fail the comparison
    and take the replay.
    """
    if not max_norm > 0:
        return
    d = a.table.shape[1]
    k = (vocab_size + d) * d + 8
    cheap = _square_total(a, b, lambda g: float(np.sum(g.table * g.table)))
    if math.sqrt(cheap * (1.0 + 4 * (k + 2) * 2.0**-53)) < max_norm:
        return
    norm = math.sqrt(_square_total(
        a, b, lambda g: _table_square_sum(g.rows, g.table * g.table, vocab_size)
    ))
    if norm > max_norm:
        _scale(a, max_norm / norm)
        _scale(b, max_norm / norm)


def _apply_update(params: EncoderParams, grads: EncoderGrads, lr: float) -> None:
    """params -= lr * grads, with lr * grads formed in place in ``grads``."""
    _scale(grads, lr)
    params.table[grads.rows] -= grads.table
    params.w_self -= grads.w_self
    params.w_ctx -= grads.w_ctx
    params.bias -= grads.bias


_RUN = 1 << 14  # the longest run of the replay that np.sum adds up itself


def _pairwise_sum(rows: np.ndarray, squares: np.ndarray, vocab_size: int) -> float:
    """np.sum of a (vocab_size, d) table that is zero outside ``rows``
    (ascending, unique), where it holds ``squares``, with np.sum's bits.

    numpy sums n contiguous float64 elements as 0.0 plus one pairwise sum,
    which splits a run of more than 128 elements at n // 2 rounded down to
    a multiple of 8 (Higham 2002, §4.2). The replay follows those splits
    down to runs of at most ``_RUN`` elements and sums each run that holds
    a touched row with np.sum; any other run sums to +0.0, and x + 0.0 is x
    for the non-negative squares. The split rule is a numpy internal, so
    ``_emulation_exact`` checks it once per process against np.sum.
    """
    d = squares.shape[1]
    element = (rows[:, None] * d + np.arange(d)).ravel()
    values = squares.ravel()

    def run(lo: int, n: int) -> float:
        i, j = np.searchsorted(element, (lo, lo + n))
        if i == j:
            return 0.0
        if n <= _RUN:
            buf = np.zeros(n)
            buf[element[i:j] - lo] = values[i:j]
            return float(np.sum(buf))
        half = n // 2 - n // 2 % 8
        return run(lo, half) + run(lo + half, n - half)

    return run(0, vocab_size * d)


@functools.cache
def _emulation_exact() -> bool:
    """Whether ``_pairwise_sum`` matches this numpy's np.sum bit for bit,
    on sparse tables of several shapes: some shorter than one run of the
    replay, some split over many runs, the last two where rounding a
    split down to a multiple of 4, 16 or 32 in place of 8 shows."""
    rng = np.random.default_rng(0)
    for vocab, d in ((1, 1), (2, 3), (8, 5), (64, 3), (256, 5), (512, 63),
                     (1024, 8), (1024, 64), (2048, 32), (1500, 13), (3001, 61)):
        for touched in (1, max(vocab // 8, 1), vocab):
            rows = np.sort(rng.choice(vocab, size=touched, replace=False))
            scale = 10.0 ** rng.uniform(-8, 2, size=(touched, 1))
            squares = (rng.normal(size=(touched, d)) * scale) ** 2
            dense = np.zeros((vocab, d))
            dense[rows] = squares
            if _pairwise_sum(rows, squares, vocab) != float(np.sum(dense)):
                return False
    return True


def _table_square_sum(rows: np.ndarray, squares: np.ndarray, vocab_size: int) -> float:
    """np.sum of the (vocab_size, d) table holding ``squares`` at ``rows``
    and zeros elsewhere: replayed where ``_emulation_exact`` holds, else a
    dense scatter and np.sum, so a numpy with another summation order
    changes the speed and never the bits."""
    if _emulation_exact():
        return _pairwise_sum(rows, squares, vocab_size)
    dense = np.zeros((vocab_size, squares.shape[1]))
    dense[rows] = squares
    return float(np.sum(dense))
