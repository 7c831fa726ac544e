"""Training loop: batching, negative selection, updates, cache scheduling.

A step processes one batch of document chunks. Every mention is encoded
in its full chunk context and pooled into an anchor; negatives come
either from the other mentions' gold labels (in-batch) or from a scan
against the cached label embeddings (hard). The gold and the selected
negatives are then re-encoded fresh so gradients flow into the label
encoder, the loss is taken between the anchor and those fresh
embeddings, and both encoders receive one accumulated, norm-clipped
gradient-descent update per batch. The cache never enters a backward
pass: it only serves mining and gets patched with the fresh embeddings
afterwards, plus a full re-encode whenever the processed-span counter
crosses a refresh-interval boundary (and at every epoch start).

The iterative-training variant additionally inserts label descriptions
after a sampled subset of mentions before encoding (gold labels early,
partly corrupted; the model's own confident predictions later) and
excludes those mentions from the loss, since their answer is literally
in the text.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .corpus import Chunk, Document, EntityRecord, chunk_document
from .encoder import (
    EncoderGrads,
    EncoderParams,
    encode,
    encoder_backward,
    pool_span,
    pool_span_backward,
    token_range,
    tokenize,
)
from .errors import ValidationError
from .label_index import (
    LabelCache,
    full_refresh,
    mine_hard_negatives,
    sample_in_batch_negatives,
    tokenize_labels,
    write_back,
)
from .evaluator import score as eval_score
from .losses import LossSpec, SimilaritySpec, loss_gradients
from .predictor import (
    PredictionState,
    insert_verbalization,
    insertion_text,
    predict_corpus,
    predict_document,
)
from .verbalizer import FormatSpec, verbalize_all

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
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in _FLOAT_KEYS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.neg_mode not in (HARD, IN_BATCH):
            raise ValidationError(f"neg_mode must be hard or in_batch, got {self.neg_mode!r}")
        if self.neg_count != DYNAMIC and int(self.neg_count) < 1:
            raise ValidationError("neg_count must be >= 1 or 'dyn'")
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValidationError("corrupt_rate must be in [0, 1]")
        if not 0.0 < self.insert_fraction < 1.0:
            raise ValidationError("insert_fraction must be in (0, 1)")
        for name in ("batch_docs", "neg_budget"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.epochs < 0:  # 0 epochs = a valid no-op run
            raise ValidationError("epochs must be >= 0")

    @property
    def sim_spec(self) -> SimilaritySpec:
        return SimilaritySpec(kind=self.sim)

    @property
    def loss_spec(self) -> LossSpec:
        return LossSpec(kind=self.loss, margin=self.margin)

    @property
    def format_spec(self) -> FormatSpec:
        return FormatSpec.from_name(self.verbalization)

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


def parse_config_file(path) -> dict[str, str]:
    """Flat UTF-8 key=value file; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"config line {line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


@dataclass
class SpanCounter:
    processed_spans: int = 0


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


@dataclass
class PreparedChunk:
    """A chunk as the encoder will see it in this step."""

    text: str
    spans: list[tuple[int, int]]  # mention offsets into text, mention order


def apply_iterative_insertions(
    batch: list[Chunk],
    records: dict[str, EntityRecord],
    config: TrainConfig,
    span_counter: SpanCounter,
    rng: np.random.Generator,
    predict_fn,
) -> tuple[list[PreparedChunk], set[tuple[int, int]]]:
    """Insert label descriptions for a sampled subset of each chunk's mentions.

    Before the span-count switch the gold label is inserted (each
    insertion independently corrupted to a random wrong label with
    probability corrupt_rate); after it, the model's own prediction is
    inserted instead, and only where its score beats the batch median.
    Returns the prepared texts plus the set of (chunk index, mention
    index) pairs whose loss terms must be dropped.
    """
    use_predictions = span_counter.processed_spans >= config.switch_after_spans
    sorted_ids = sorted(records)

    batch_preds: list[list] = []
    median = 0.0
    if use_predictions:
        batch_preds = [predict_fn(chunk) for chunk in batch]
        scores = [p.score for preds in batch_preds for p in preds]
        median = float(np.median(scores)) if scores else math.inf

    prepared: list[PreparedChunk] = []
    excluded: set[tuple[int, int]] = set()
    for ci, chunk in enumerate(batch):
        state = PredictionState.for_document(chunk)
        eligible = [
            mi for mi, m in enumerate(chunk.mentions)
            if not m.unlinkable and m.gold_label in records
        ]
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
                state.slots[mi].predicted_id = label_id
                insert_verbalization(state, mi, insertion_text(records[label_id]))
                excluded.add((ci, mi))
        prepared.append(
            PreparedChunk(text=state.working_text, spans=[s.span for s in state.slots])
        )
    return prepared, excluded


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
    """Owns both encoders, the label cache, and the span-counter schedule."""

    def __init__(
        self,
        records: dict[str, EntityRecord],
        config: TrainConfig,
        mention_params: EncoderParams | None = None,
        label_params: EncoderParams | None = None,
    ):
        self.config = config
        self.records = records
        self.rng = np.random.default_rng(config.seed)
        self.mention_params = mention_params or EncoderParams.init(
            config.vocab_size, config.dim, config.window, seed=config.seed
        )
        self.label_params = label_params or EncoderParams.init(
            config.vocab_size, config.dim, config.window, seed=config.seed + 1
        )
        self.label_tokens = tokenize_labels(
            verbalize_all(records, config.format_spec), self.label_params.vocab_size
        )
        self.cache = LabelCache.empty(
            sorted(records), config.dim, config.pooling, config.sim_spec
        )
        self.counter = SpanCounter()
        self.refreshes = 0

    # -- cache scheduling --

    def refresh_cache(self) -> None:
        full_refresh(
            self.cache,
            self.label_params,
            self.label_tokens,
            span_count=self.counter.processed_spans,
        )
        self.refreshes += 1

    def _interval_refreshes(self, before: int, after: int) -> int:
        interval = self.config.refresh_interval_spans
        if not interval:
            return 0
        fires = after // interval - before // interval
        for _ in range(fires):
            self.refresh_cache()
        return fires

    # -- fresh label encoding with gradient bookkeeping --

    def _fresh_label_forward(self, label_id: str):
        seq = self.label_tokens.seqs[label_id]
        span = self.label_tokens.title_spans[label_id]
        emb = pool_span(encode(seq, self.label_params), span, self.config.pooling)
        return seq, span, emb

    # -- one batch --

    def train_step(self, batch: list[Chunk]) -> StepStats:
        config = self.config
        batch_mentions = sum(len(c.mentions) for c in batch)

        if config.iterative and batch_mentions:
            prepared, excluded = apply_iterative_insertions(
                batch,
                self.records,
                config,
                self.counter,
                self.rng,
                lambda chunk: predict_document(chunk, self.mention_params, self.cache),
            )
        else:
            prepared = [
                PreparedChunk(c.text, [(m.start, m.end) for m in c.mentions])
                for c in batch
            ]
            excluded = set()

        if config.neg_count == DYNAMIC:
            k = dynamic_negative_count(max(batch_mentions, 1), config.neg_budget)
        else:
            k = int(config.neg_count)
        batch_golds = [
            m.gold_label for c in batch for m in c.mentions if not m.unlinkable
        ]

        mention_grads = EncoderGrads.zeros_like(self.mention_params)
        label_grads = EncoderGrads.zeros_like(self.label_params)
        label_forward: dict[str, tuple] = {}
        label_upstream: dict[str, np.ndarray] = {}
        negatives_used: list[str] = []
        total_loss, n_terms, skipped = 0.0, 0, 0

        def fresh(label_id: str) -> np.ndarray:
            if label_id not in label_forward:
                label_forward[label_id] = self._fresh_label_forward(label_id)
                label_upstream[label_id] = np.zeros(self.cache.matrix.shape[1])
            return label_forward[label_id][2]

        for ci, (chunk, prep) in enumerate(zip(batch, prepared)):
            if not chunk.mentions:
                continue
            seq = tokenize(prep.text, self.mention_params.vocab_size)
            vectors = encode(seq, self.mention_params)
            chunk_upstream = np.zeros_like(vectors)
            chunk_touched = False
            for mi, mention in enumerate(chunk.mentions):
                if mention.unlinkable:
                    skipped += 1
                    continue
                if (ci, mi) in excluded:
                    continue
                span = token_range(seq, prep.spans[mi])
                anchor = pool_span(vectors, span, config.pooling)

                if config.neg_mode == HARD:
                    neg_ids = [
                        nid
                        for nid, _ in mine_hard_negatives(
                            self.cache, anchor, mention.gold_label, k
                        )
                    ]
                else:
                    neg_ids = sample_in_batch_negatives(
                        batch_golds, mention.gold_label, k, self.rng
                    )
                if not neg_ids:
                    continue

                positive = fresh(mention.gold_label)
                neg_embs = [fresh(n) for n in neg_ids]
                loss, grads = loss_gradients(
                    anchor, positive, neg_embs, config.loss_spec, config.sim_spec
                )
                total_loss += loss
                n_terms += 1
                negatives_used.extend(neg_ids)
                chunk_upstream += pool_span_backward(
                    grads.anchor, span, config.pooling, len(seq), config.dim
                )
                chunk_touched = True
                label_upstream[mention.gold_label] += grads.positive
                for nid, g in zip(neg_ids, grads.negatives):
                    label_upstream[nid] += g
            if chunk_touched:
                _accumulate(
                    mention_grads,
                    encoder_backward(seq, self.mention_params, chunk_upstream),
                )

        for label_id, (seq, span, _) in label_forward.items():
            upstream = pool_span_backward(
                label_upstream[label_id], span, config.pooling, len(seq), config.dim
            )
            _accumulate(label_grads, encoder_backward(seq, self.label_params, upstream))

        if n_terms:
            _scale(mention_grads, 1.0 / n_terms)
            _scale(label_grads, 1.0 / n_terms)
            _clip_global_norm(mention_grads, label_grads, config.clip_norm)
            _apply_update(self.mention_params, mention_grads, config.lr)
            _apply_update(self.label_params, label_grads, config.lr)

        write_log: list[str] = []
        if config.on_the_fly:
            for label_id in sorted(label_forward):
                write_back(self.cache, label_id, label_forward[label_id][2])
                write_log.append(label_id)

        before = self.counter.processed_spans
        self.counter.processed_spans += batch_mentions
        fires = self._interval_refreshes(before, self.counter.processed_spans)

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
        cache = LabelCache.empty(
            self.cache.ids, self.config.dim, self.config.pooling, self.config.sim_spec
        )
        return full_refresh(cache, self.label_params, self.label_tokens)

    def evaluate(self, docs: list[Document], iterative: bool = False) -> float:
        limits = (self.config.max_mentions_per_chunk, self.config.max_chars_per_chunk)
        preds = predict_corpus(
            docs,
            self.mention_params,
            self.eval_cache(),
            self.records,
            limits,
            iterative=iterative,
        )
        mapping = {key: p.predicted_id for key, p in preds.final.items()}
        return eval_score(mapping, docs).accuracy

    def train(
        self, corpus: list[Document], dev_corpus: list[Document] | None = None
    ) -> list[dict]:
        """Run all epochs; returns one metrics row per epoch."""
        config = self.config
        limits = (config.max_mentions_per_chunk, config.max_chars_per_chunk)
        metrics: list[dict] = []
        for epoch in range(config.epochs):
            self.refresh_cache()
            batches = make_batches(
                corpus, config.batch_docs, limits, seed=[config.seed, epoch]
            )
            epoch_loss, epoch_terms = 0.0, 0
            for batch in batches:
                stats = self.train_step(batch)
                epoch_loss += stats.loss * stats.loss_terms
                epoch_terms += stats.loss_terms
            dev_acc = self.evaluate(dev_corpus) if dev_corpus is not None else None
            metrics.append(
                {
                    "epoch": epoch,
                    "loss": epoch_loss / epoch_terms if epoch_terms else 0.0,
                    "dev_acc": dev_acc,
                    "refreshes": self.refreshes,
                    "spans": self.counter.processed_spans,
                }
            )
        return metrics


def _accumulate(into: EncoderGrads, grads: EncoderGrads) -> None:
    """Add one backward call's row-sparse gradients into a dense step buffer."""
    into.table[grads.rows] += grads.table
    into.w_self += grads.w_self
    into.w_ctx += grads.w_ctx
    into.bias += grads.bias


def _scale(grads: EncoderGrads, factor: float) -> None:
    grads.table *= factor
    grads.w_self *= factor
    grads.w_ctx *= factor
    grads.bias *= factor


def _clip_global_norm(a: EncoderGrads, b: EncoderGrads, max_norm: float) -> None:
    total = 0.0
    for g in (a, b):
        for t in (g.table, g.w_self, g.w_ctx, g.bias):
            total += float(np.sum(t * t))
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        _scale(a, max_norm / norm)
        _scale(b, max_norm / norm)


def _apply_update(params: EncoderParams, grads: EncoderGrads, lr: float) -> None:
    params.table -= lr * grads.table
    params.w_self -= lr * grads.w_self
    params.w_ctx -= lr * grads.w_ctx
    params.bias -= lr * grads.bias
