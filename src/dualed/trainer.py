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
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .corpus import Chunk, Document, EntityRecord, _text_lines, chunk_document
from .encoder import (
    POOLING_METHODS,
    EncoderGrads,
    EncoderParams,
    backward_spans,
    encode_spans,
    token_range,
    tokenize,
)
from .errors import ValidationError
from .label_index import (
    LabelCache,
    build_cache,
    encode_labels,
    full_refresh,
    mine_hard_negatives,
    sample_in_batch_negatives,
    tokenize_labels,
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
from .verbalizer import FORMAT_NAMES, FormatSpec, verbalize_all

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
        for name, kinds in (("loss", LOSS_KINDS), ("sim", SIMILARITY_KINDS),
                            ("pooling", POOLING_METHODS), ("verbalization", FORMAT_NAMES)):
            if getattr(self, name) not in kinds:
                raise ValidationError(
                    f"{name} must be one of {', '.join(kinds)}, got {getattr(self, name)!r}"
                )
        if self.neg_count != DYNAMIC and int(self.neg_count) < 1:
            raise ValidationError("neg_count must be >= 1 or 'dyn'")
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValidationError("corrupt_rate must be in [0, 1]")
        if not 0.0 < self.insert_fraction < 1.0:
            raise ValidationError("insert_fraction must be in (0, 1)")
        for name in ("batch_docs", "neg_budget", "max_mentions_per_chunk",
                     "max_chars_per_chunk", "vocab_size", "dim"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        # 0 epochs is a valid no-op run; a 0 refresh interval disables the
        # mid-epoch refreshes
        for name in ("epochs", "refresh_interval_spans", "window", "seed"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")

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


@dataclass
class PreparedChunk:
    """A chunk as the encoder will see it in this step."""

    text: str
    spans: list[tuple[int, int]]  # mention offsets into text, mention order


def apply_iterative_insertions(
    batch: list[Chunk],
    records: dict[str, EntityRecord],
    config: TrainConfig,
    processed_spans: int,
    rng: np.random.Generator,
    predict_fn,
) -> tuple[list[PreparedChunk], set[tuple[int, int]]]:
    """Insert label descriptions for a sampled subset of each chunk's mentions.

    Before the span-count switch the gold label is inserted (each
    insertion independently corrupted to a random wrong label with
    probability corrupt_rate); after it, the model's own prediction is
    inserted instead, and only where its score beats the batch median.
    ``predict_fn`` maps the batch to one prediction list per chunk, in
    mention order (``predictor.predict_chunks``); it is called once, and
    only after the switch. Returns the prepared texts plus the set of
    (chunk index, mention index) pairs whose loss terms must be dropped.
    """
    use_predictions = processed_spans >= config.switch_after_spans
    sorted_ids = sorted(records)

    batch_preds: list[list] = []
    median = 0.0
    if use_predictions:
        batch_preds = predict_fn(batch)
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
        self.label_tokens = tokenize_labels(
            verbalize_all(records, config.format_spec), self.label_params.vocab_size
        )
        self.cache = LabelCache.empty(
            sorted(records), config.dim, config.pooling, config.sim_spec
        )
        self.processed_spans = 0
        self.refreshes = 0

    # -- cache scheduling --

    def refresh_cache(self) -> None:
        full_refresh(
            self.cache,
            self.label_params,
            self.label_tokens,
            span_count=self.processed_spans,
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

    # -- one batch --

    def train_step(self, batch: list[Chunk]) -> StepStats:
        """One update from one batch, in five phases.

        1. Tokenize the chunks that have mentions and locate the anchored
           mentions (linkable and not excluded); one ``encode_spans``
           call gives their anchors.
        2. Each anchor's negatives, in mention order.
        3. One grouped forward of the step's labels, in first-use order
           (per mention: the gold, then its negatives).
        4. The losses in mention order.
        5. One ``backward_spans`` call per encoder, with a zero gradient
           for an anchor without a loss term, and the update.
        """
        config = self.config
        batch_mentions = sum(len(c.mentions) for c in batch)

        if config.iterative and batch_mentions:
            prepared, excluded = apply_iterative_insertions(
                batch,
                self.records,
                config,
                self.processed_spans,
                self.rng,
                lambda chunks: predict_chunks(chunks, self.mention_params, self.cache),
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

        # 1. anchors
        seqs, ranges, golds = [], [], []
        skipped = 0
        for ci, (chunk, prep) in enumerate(zip(batch, prepared)):
            if not chunk.mentions:
                continue
            seq = tokenize(prep.text, self.mention_params.vocab_size)
            spans = []
            for mi, mention in enumerate(chunk.mentions):
                if mention.unlinkable:
                    skipped += 1
                elif (ci, mi) not in excluded:
                    spans.append(token_range(seq, prep.spans[mi]))
                    golds.append(mention.gold_label)
            seqs.append(seq)
            ranges.append(spans)
        anchors = encode_spans(seqs, ranges, self.mention_params, config.pooling)

        # 2. negatives
        terms: list[tuple] = []             # (anchor row, gold, neg_ids)
        label_row: dict[str, int] = {}      # step labels in first-use order
        for j, gold in enumerate(golds):
            if config.neg_mode == HARD:
                neg_ids = [
                    nid for nid, _ in mine_hard_negatives(self.cache, anchors[j], gold, k)
                ]
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
        limits = (self.config.max_mentions_per_chunk, self.config.max_chars_per_chunk)
        preds = predict_corpus(docs, self.mention_params, self.eval_cache(), limits=limits)
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
                    "spans": self.processed_spans,
                }
            )
        return metrics


# ── the sparse step ──────────────────────────────────────────────────────────
#
# Only the token ids of a step's chunks and labels get a table gradient, so
# ``encoder.backward_spans`` keeps each encoder's table gradient as a compact
# (R, d) buffer over those rows. Scale and update touch those rows alone:
# for any other row the update is x - lr * 0.0, which is x. The clip norm
# still sums the squares of the whole (V, d) table as np.sum does
# (``_table_square_sum``).


def _scale(grads: EncoderGrads, factor: float) -> None:
    grads.table *= factor
    grads.w_self *= factor
    grads.w_ctx *= factor
    grads.bias *= factor


def _clip_global_norm(
    a: EncoderGrads, b: EncoderGrads, max_norm: float, vocab_size: int
) -> None:
    """Scale both gradients to a global norm of at most ``max_norm``."""
    total = 0.0
    for g in (a, b):
        total += _table_square_sum(g.rows, g.table * g.table, vocab_size)
        for t in (g.w_self, g.w_ctx, g.bias):
            total += float(np.sum(t * t))
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        _scale(a, max_norm / norm)
        _scale(b, max_norm / norm)


def _apply_update(params: EncoderParams, grads: EncoderGrads, lr: float) -> None:
    """params -= lr * grads, with lr * grads formed in place in ``grads``."""
    _scale(grads, lr)
    params.table[grads.rows] -= grads.table
    params.w_self -= grads.w_self
    params.w_ctx -= grads.w_ctx
    params.bias -= grads.bias


# numpy sums a contiguous float64 array as 0.0 plus one pairwise sum over
# all n elements (Higham 2002, §4.2). A run of more than 128 elements splits
# at n // 2 rounded down to a multiple of 8. A leaf of m <= 128 elements runs
# 8 interleaved accumulators over its first m - m % 8 elements, combines
# them as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then adds the
# rest in order. The block size and the lane count are numpy internals, so
# ``_emulation_exact`` checks them once per process against np.sum.
_PAIRWISE_LEAF = 128
_LANES = 8


@dataclass(frozen=True)
class _PairwiseTree:
    """numpy's summation tree over n elements, one level per depth.

    Nodes are numbered breadth first, so depth k is ``nodes[k]:nodes[k+1]``
    and the two children of its i-th internal node are the nodes 2i and
    2i + 1 of depth k + 1. Leaves are listed in element order.
    """

    nodes: np.ndarray        # first node number of each depth, then the node count
    internal: list           # per depth, node numbers of its internal nodes
    leaf_start: np.ndarray   # (L,) first element of each leaf, ascending
    leaf_main: np.ndarray    # (L,) elements summed by the 8 accumulators
    leaf_node: np.ndarray    # (L,) node number of each leaf


@functools.lru_cache(maxsize=4)
def _pairwise_tree(n: int) -> _PairwiseTree:
    starts, lengths = np.zeros(1, np.int64), np.array([n], np.int64)
    nodes, internal, leaves = [0], [], []
    while True:
        split = lengths > _PAIRWISE_LEAF
        numbers = nodes[-1] + np.arange(len(lengths))
        internal.append(numbers[split])
        leaves.append((starts[~split], lengths[~split], numbers[~split]))
        nodes.append(nodes[-1] + len(lengths))
        if not split.any():
            break
        half = lengths[split] // 2
        half -= half % _LANES
        starts = np.stack([starts[split], starts[split] + half], axis=1).ravel()
        lengths = np.stack([half, lengths[split] - half], axis=1).ravel()
    start, length, node = (np.concatenate(parts) for parts in zip(*leaves))
    order = np.argsort(start)
    return _PairwiseTree(
        nodes=np.array(nodes),
        internal=internal,
        leaf_start=start[order],
        leaf_main=(length - length % _LANES)[order],
        leaf_node=node[order],
    )


def _pairwise_sum(rows: np.ndarray, squares: np.ndarray, vocab_size: int) -> float:
    """np.sum of a (vocab_size, d) table that is zero outside ``rows``
    (ascending, unique), where it holds ``squares``, with np.sum's bits.

    Only leaves that hold a touched row are summed; every other leaf, and
    every subtree of them, sums to +0.0, and x + 0.0 is x for the
    non-negative squares.
    """
    if not len(rows):
        return 0.0
    d = squares.shape[1]
    tree = _pairwise_tree(vocab_size * d)
    # the touched leaves: those from a row's first element to its last
    n_leaves = len(tree.leaf_start)
    first = np.searchsorted(tree.leaf_start, rows * d, side="right") - 1
    last = np.searchsorted(tree.leaf_start, rows * d + (d - 1), side="right")
    cover = np.bincount(first, minlength=n_leaves + 1) - np.bincount(
        last, minlength=n_leaves + 1
    )
    leaves = np.flatnonzero(np.cumsum(cover[:-1]))
    # each touched leaf holds a contiguous run of the ascending elements
    element = (rows[:, None] * d + np.arange(d)).ravel()
    start = tree.leaf_start[leaves]
    counts = np.diff(np.searchsorted(element, start), append=len(element))
    offset = element - np.repeat(start, counts)
    main = np.repeat(tree.leaf_main[leaves], counts)
    # one column per touched leaf: its accumulated elements in slots 0..127,
    # the rest of it in slots 128..135, zeros elsewhere
    block = np.zeros((_PAIRWISE_LEAF + _LANES, len(leaves)))
    slot = np.where(offset < main, offset, _PAIRWISE_LEAF + offset - main)
    column = np.repeat(np.arange(len(leaves)), counts)
    block.ravel()[slot * len(leaves) + column] = squares.ravel()
    r = block[:_LANES].copy()
    for k in range(_LANES, _PAIRWISE_LEAF, _LANES):
        r += block[k:k + _LANES]
    sums = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for rest in block[_PAIRWISE_LEAF:]:
        sums += rest

    values = np.zeros(tree.nodes[-1])
    values[tree.leaf_node[leaves]] = sums
    for depth in range(len(tree.internal) - 2, -1, -1):
        children = values[tree.nodes[depth + 1]:tree.nodes[depth + 2]]
        values[tree.internal[depth]] = children[0::2] + children[1::2]
    return float(0.0 + values[0])


@functools.cache
def _emulation_exact() -> bool:
    """Whether ``_pairwise_sum`` matches this numpy's np.sum bit for bit,
    on small sparse tables of several shapes: some with short or uneven
    leaves, some longer than numpy's default 8192-element ufunc buffer."""
    rng = np.random.default_rng(0)
    for vocab, d in ((1, 1), (2, 3), (8, 5), (64, 3), (256, 5), (512, 63),
                     (1024, 8), (1024, 64), (2048, 32)):
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
    and zeros elsewhere: emulated where ``_emulation_exact`` holds, else a
    dense scatter and np.sum, so a numpy with another summation order
    changes the speed and never the bits."""
    if _emulation_exact():
        return _pairwise_sum(rows, squares, vocab_size)
    dense = np.zeros((vocab_size, squares.shape[1]))
    dense[rows] = squares
    return float(np.sum(dense))
