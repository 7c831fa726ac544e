"""Tokenization, the trainable context encoder, and span pooling.

The encoder is a windowed linear mixer over hash-bucket token
embeddings: for token t with embedding e_t and window mean c_t
(radius ``window``, clipped at the sequence ends, including t itself)

    out_t = W_self @ e_t + W_ctx @ c_t + bias

It is deliberately small: fully differentiable with a closed-form
backward pass, deterministic, and fast enough to train in seconds,
while still making each token's vector depend on its neighbors. Two
independent parameter sets are used throughout the package, one for
mention contexts and one for label verbalizations.

Span pooling reduces a token range to one vector: ``mean`` averages the
range (width d) and ``first_last`` concatenates the first and last
token vectors (width 2d). Label spans cover title tokens only; the rest
of the verbalization acts as context.

The span-level forward and backward, ``encode_spans`` and
``backward_spans``, are the one seam the label cache, the trainer and
the predictor use, and the encoder's only public forward and backward.
Both stack sequences of equal token count into (L, T, d) blocks, whose
matmuls and cumsums give every sequence the bits it gets alone; one
sequence with one ``mean`` range (t, t + 1) per token gives its token
vectors and their gradients. A ``mean`` row has the bits of
``vectors[lo:hi].mean(axis=0)`` over its own sequence's token vectors.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
import struct
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ValidationError, read_exact, read_into

MEAN = "mean"
FIRST_LAST = "first_last"
POOLING_METHODS = (MEAN, FIRST_LAST)

CHECKPOINT_MAGIC = b"VRBED1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


# A maximal run of characters for which str.isalnum() is true: \w is
# exactly isalnum() plus the underscore.
_TOKEN_RUN = re.compile(r"[^\W_]+")


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _U64
    return h


@functools.lru_cache(maxsize=1 << 16)
def _token_hash(token: str) -> int:
    """FNV-1a of the lowercased token's UTF-8 bytes, memoized per token."""
    return fnv1a_64(token.lower().encode("utf-8"))


@dataclass
class TokenSequence:
    """Lowercased alphanumeric tokens with their source char spans."""

    token_ids: np.ndarray            # (T,) int64 bucket indices
    char_spans: list[tuple[int, int]]
    source: str

    def __len__(self) -> int:
        return len(self.char_spans)


def tokenize(text: str, vocab_size: int) -> TokenSequence:
    """Split on non-alphanumeric runs; hash lowercased tokens into buckets.

    Char spans index the original text, so offsets stay valid even when
    lowercasing changes a token's length.
    """
    runs = list(_TOKEN_RUN.finditer(text))
    spans = [run.span() for run in runs]
    ids = [_token_hash(run.group()) % vocab_size for run in runs]
    return TokenSequence(
        token_ids=np.asarray(ids, dtype=np.int64), char_spans=spans, source=text
    )


def token_range(seq: TokenSequence, char_span: tuple[int, int]) -> tuple[int, int]:
    """Token index range [lo, hi) of tokens overlapping a char span."""
    s, e = char_span
    # Token spans are non-empty, disjoint and ascending, so starts and ends
    # both ascend: the overlapping tokens are those ending after s (from lo
    # on) and starting before e (up to hi).
    lo = bisect_right(seq.char_spans, s, key=itemgetter(1))
    hi = bisect_left(seq.char_spans, e, key=itemgetter(0))
    if lo >= hi:
        raise ValidationError(f"span ({s}, {e}) covers no tokens in {seq.source!r:.60}")
    return lo, hi


# ── parameters ───────────────────────────────────────────────────────────────


@dataclass
class EncoderParams:
    """One encoder's tensors. A trainer's are float64 and updated in place.
    ``load_checkpoint``'s table is a read-only float32 view of the file's
    bytes, whose rows the forward widens to float64 as it gathers them;
    its d×d tensors are float64."""

    table: np.ndarray   # (V, d)
    w_self: np.ndarray  # (d, d)
    w_ctx: np.ndarray   # (d, d)
    bias: np.ndarray    # (d,)
    window: int

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def __post_init__(self):
        v = self.vocab_size
        if v & (v - 1) != 0 or v == 0:
            raise ValidationError(f"vocab size must be a power of two, got {v}")
        if self.dim < 1:
            raise ValidationError(f"embedding dim must be at least 1, got {self.dim}")

    @classmethod
    def init(cls, vocab_size: int, dim: int, window: int, seed: int) -> "EncoderParams":
        """Seeded uniform init in [-0.5, 0.5].

        The scale must be large enough that token identity dominates the
        shared bias at the start; much below ~0.3 the embedding space
        collapses to a single point under the contrastive losses and
        training never escapes the uniform-logits plateau.
        """
        rng = np.random.default_rng(seed)
        u = lambda *shape: rng.uniform(-0.5, 0.5, shape)
        return cls(
            table=u(vocab_size, dim),
            w_self=u(dim, dim),
            w_ctx=u(dim, dim),
            bias=u(dim),
            window=window,
        )


@dataclass
class EncoderGrads:
    """Gradients for one parameter set.

    ``table`` is row-sparse: row i is the gradient of embedding-table row
    ``rows[i]``, and every other row's gradient is zero.
    """

    table: np.ndarray
    w_self: np.ndarray
    w_ctx: np.ndarray
    bias: np.ndarray
    rows: np.ndarray


# ── forward / backward ───────────────────────────────────────────────────────


# Sequences stacked into one (L, T, d) block of a grouped pass. It bounds
# the memory a pass holds at once; results do not depend on it.
_BLOCK = 64


def _window_counts(n: int, w: int) -> np.ndarray:
    t = np.arange(n)
    lo = np.maximum(t - w, 0)
    hi = np.minimum(t + w, n - 1)
    return (hi - lo + 1).astype(np.float64)


def _window_sums(rows: np.ndarray, w: int) -> np.ndarray:
    """Along axis 1 of stacked rows (L, n, d), row t gets the sum of rows
    max(0, t-w) .. min(n-1, t+w)."""
    n = rows.shape[1]
    zero = np.zeros((rows.shape[0], 1, rows.shape[2]))
    csum = np.concatenate([zero, np.cumsum(rows, axis=1)], axis=1)
    t = np.arange(n)
    lo = np.maximum(t - w, 0)
    hi = np.minimum(t + w, n - 1)
    # take(), not csum[:, idx]: the result stays C-ordered, as it is for one
    # sequence, so the matmuls that follow see the same strides
    return np.take(csum, hi + 1, axis=1) - np.take(csum, lo, axis=1)


def _length_blocks(seqs: Sequence[TokenSequence]) -> list[list[int]]:
    """Positions in ``seqs`` grouped by token count, at most _BLOCK per block."""
    groups: dict[int, list[int]] = {}
    for i, seq in enumerate(seqs):
        groups.setdefault(len(seq), []).append(i)
    return [
        group[start:start + _BLOCK]
        for group in groups.values()
        for start in range(0, len(group), _BLOCK)
    ]


def _block_inputs(
    ids: np.ndarray, params: EncoderParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Embeddings, window sizes (T, 1) and window means of stacked token ids (L, T)."""
    if ids.shape[1] == 0:
        raise ValidationError("cannot encode an empty token sequence")
    # a loaded table is float32: widening the gathered rows is exact, and a
    # float64 table's gathered copy is returned as it is
    emb = np.asarray(params.table[ids], dtype=np.float64)
    counts = _window_counts(ids.shape[1], params.window)[:, None]
    return emb, counts, _window_sums(emb, params.window) / counts


def _forward_block(seqs: Sequence[TokenSequence], params: EncoderParams) -> np.ndarray:
    """Contextual token vectors (L, T, d) of sequences that share one token count T.

    One 3-D matmul per weight, which numpy computes as one GEMM of M = T
    rows per stacked sequence, and one cumsum along the token axis, so
    every sequence's vectors have the bits of encoding it alone. A flat
    GEMM over all rows, or padding to a common length, would not keep them.
    """
    emb, _, ctx = _block_inputs(np.stack([seq.token_ids for seq in seqs]), params)
    return emb @ params.w_self.T + ctx @ params.w_ctx.T + params.bias


def _backward_blocks(
    seqs: Sequence[TokenSequence],
    params: EncoderParams,
    upstreams: Sequence[np.ndarray],
) -> list[EncoderGrads]:
    """Exact gradients of ``_forward_block`` for many sequences, in input order.

    ``upstreams[i]`` holds dLoss/d(out_t) rows of ``seqs[i]``. Sequences
    of equal token count are stacked in blocks, as the forward stacks
    them. Each table gradient is row-sparse: one row per unique token id
    of its sequence, ascending, each summing its tokens' gradients in
    sequence order. The results are views of the stacked blocks, so a
    caller holds all of them until it drops the last one.
    """
    for seq, upstream in zip(seqs, upstreams):
        if upstream.shape != (len(seq), params.dim):
            raise ValidationError(
                f"upstream shape {upstream.shape} does not match ({len(seq)}, {params.dim})"
            )
    d, vocab = params.dim, params.vocab_size
    out: list[EncoderGrads | None] = [None] * len(seqs)
    for positions in _length_blocks(seqs):
        ids = np.stack([seqs[i].token_ids for i in positions])
        up = np.stack([upstreams[i] for i in positions])
        emb, counts, ctx = _block_inputs(ids, params)

        d_emb = up @ params.w_self
        # dL/d c_t spread back over each window: position u collects
        # sum_{t in window(u)} (dL/dc_t) / n_t  (the window relation is symmetric)
        d_ctx_scaled = (up @ params.w_ctx) / counts
        d_emb = d_emb + _window_sums(d_ctx_scaled, params.window)
        up_t = up.swapaxes(1, 2)
        w_self, w_ctx, bias = up_t @ emb, up_t @ ctx, up.sum(axis=1)

        # One unique over (sequence, token id) keys gives every sequence its
        # ascending rows; add.at adds each row's tokens in sequence order.
        keys = (np.arange(len(positions))[:, None] * vocab + ids).ravel()
        uniq, inverse = np.unique(keys, return_inverse=True)
        table = np.zeros((len(uniq), d))
        np.add.at(table, inverse.ravel(), d_emb.reshape(-1, d))
        bounds = np.searchsorted(uniq, np.arange(len(positions) + 1) * vocab)
        rows = uniq % vocab
        for j, i in enumerate(positions):
            lo, hi = bounds[j], bounds[j + 1]
            out[i] = EncoderGrads(
                table=table[lo:hi], w_self=w_self[j], w_ctx=w_ctx[j], bias=bias[j],
                rows=rows[lo:hi],
            )
    return out


def _range_offsets(seqs: Sequence[TokenSequence], ranges: Sequence) -> np.ndarray:
    """Sequence i owns rows ``offsets[i]:offsets[i + 1]`` of the pooled embeddings."""
    if len(ranges) != len(seqs):
        raise ValidationError(f"{len(ranges)} range lists for {len(seqs)} sequences")
    return np.cumsum([0, *map(len, ranges)])


def encode_spans(
    seqs: Sequence[TokenSequence],
    ranges: Sequence[Sequence[tuple[int, int]]],
    params: EncoderParams,
    pooling: str,
) -> np.ndarray:
    """Pooled embeddings of token ranges, one row per range, shape (n, p).

    ``ranges[i]`` are token ranges [lo, hi) of ``seqs[i]``, and row j is
    the j-th range in (sequence, range) order, with the bits of encoding
    its sequence alone and pooling the range (see the module docstring).
    Sequences of equal token count are encoded _BLOCK at a time, and each
    block is pooled as soon as it is built. Every sequence is encoded, one
    without ranges too.
    """
    offsets = _range_offsets(seqs, ranges)
    out = np.empty((offsets[-1], pooled_width(params.dim, pooling)))
    for positions in _length_blocks(seqs):
        vectors = _forward_block([seqs[i] for i in positions], params)
        owners = [j for j, i in enumerate(positions) for _ in ranges[i]]
        if owners:
            spans = np.array([span for i in positions for span in ranges[i]])
            at = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in positions])
            out[at] = _pool_block(vectors, spans, pooling, np.array(owners))
    return out


def backward_spans(
    seqs: Sequence[TokenSequence],
    ranges: Sequence[Sequence[tuple[int, int]]],
    span_grads: np.ndarray,
    params: EncoderParams,
    pooling: str,
) -> EncoderGrads:
    """Exact gradients of ``encode_spans`` w.r.t. every parameter tensor.

    Row j of ``span_grads`` is dLoss/d(row j of ``encode_spans``). Each
    sequence's token gradients start from zeros and take its ranges'
    gradients g in range order: g / (hi - lo) is added to every token of
    a ``mean`` range; for ``first_last`` g's first half is added to token
    lo and its second half to token hi - 1, or their sum, as one value,
    to the one token of a one-token range. Sequences go through the block
    backward _BLOCK at a time, which bounds the memory held at once, and
    are added in input order into one buffer whose table is row-sparse
    over the union of their token ids, ascending.
    """
    offsets = _range_offsets(seqs, ranges)
    d = params.dim
    shape = (int(offsets[-1]), pooled_width(d, pooling))
    if span_grads.shape != shape:
        raise ValidationError(f"span gradients of shape {span_grads.shape}, not {shape}")
    rows = np.unique(np.concatenate([np.empty(0, np.int64), *(s.token_ids for s in seqs)]))
    out = EncoderGrads(
        table=np.zeros((len(rows), d)),
        w_self=np.zeros_like(params.w_self),
        w_ctx=np.zeros_like(params.w_ctx),
        bias=np.zeros_like(params.bias),
        rows=rows,
    )
    for start in range(0, len(seqs), _BLOCK):
        window = seqs[start:start + _BLOCK]
        upstreams = []
        for i, seq in enumerate(window, start):
            upstream = np.zeros((len(seq), d))
            for (lo, hi), g in zip(ranges[i], span_grads[offsets[i]:offsets[i + 1]]):
                _check_span(lo, hi, len(seq))
                if pooling == MEAN:
                    upstream[lo:hi] += g / (hi - lo)
                elif hi - lo == 1:
                    upstream[lo] += g[:d] + g[d:]
                else:
                    upstream[lo] += g[:d]
                    upstream[hi - 1] += g[d:]
            upstreams.append(upstream)
        for grads in _backward_blocks(window, params, upstreams):
            out.table[np.searchsorted(rows, grads.rows)] += grads.table
            out.w_self += grads.w_self
            out.w_ctx += grads.w_ctx
            out.bias += grads.bias
    return out


def _check_span(lo: int, hi: int, n_tokens: int) -> None:
    if not (0 <= lo < hi <= n_tokens):
        raise ValidationError(f"empty or out-of-range pooling span ({lo}, {hi})")


def _pool_block(
    vectors: np.ndarray, spans: np.ndarray, method: str, owners: np.ndarray
) -> np.ndarray:
    """Pooled rows of stacked sequences: (L, T, d) vectors, (M, 2) spans.

    Span i pools sequence ``owners[i]``; ``method`` is one that
    ``pooled_width`` accepts. ``first_last`` gathers by fancy indexing;
    ``mean`` gathers the spans of each length n into one (m, n, d) array,
    whose ``.mean(axis=1)`` adds each span's rows in the order
    ``.mean(axis=0)`` of the span alone does.
    """
    for lo, hi in spans.tolist():
        _check_span(lo, hi, vectors.shape[1])
    lo, hi = spans[:, 0], spans[:, 1]
    if method == FIRST_LAST:
        return np.concatenate([vectors[owners, lo], vectors[owners, hi - 1]], axis=1)
    out = np.empty((len(spans), vectors.shape[2]))
    lengths = hi - lo
    for n in np.unique(lengths).tolist():
        group = np.flatnonzero(lengths == n)
        tokens = lo[group, None] + np.arange(n)
        out[group] = vectors[owners[group, None], tokens].mean(axis=1)
    return out


def pooled_width(dim: int, method: str) -> int:
    if method == MEAN:
        return dim
    if method == FIRST_LAST:
        return 2 * dim
    raise ValidationError(f"unknown pooling method {method!r}")


# ── checkpoint format ────────────────────────────────────────────────────────
#
# Single binary file: magic "VRBED1", then V, d, window as little-endian
# uint32, then row-major little-endian float32 tensors in fixed order:
# mention (table, w_self, w_ctx, bias), label (same). The sha256 of the
# label encoder's tensor bytes keys the label cache a model directory
# stores beside the checkpoint (``trainer.save_model``). A loaded (V, d)
# table is a read-only float32 view of the bytes as read, and the forward
# widens only the rows it gathers (``_block_inputs``).

# Values per block when a (V, d) table is converted to float32 piecewise.
_BLOCK_VALUES = 1 << 16


def _row_blocks(tensor: np.ndarray):
    """Views of consecutive rows of ``tensor``, at most _BLOCK_VALUES values
    each unless one row holds more."""
    step = max(1, _BLOCK_VALUES // max(1, int(np.prod(tensor.shape[1:]))))
    for lo in range(0, len(tensor), step):
        yield tensor[lo:lo + step]


def _all_finite(values: np.ndarray) -> bool:
    """Whether every value is finite, with no temporary of the array's
    size: NaN propagates to the minimum and maximum, and an infinity is
    one of them."""
    return values.size == 0 or bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def save_checkpoint(path, mention: EncoderParams, label: EncoderParams) -> bytes:
    """Write both encoders; returns the sha256 digest of the label
    encoder's bytes as written. Tensors are converted to float32 a row
    block at a time, never a whole (V, d) table at once."""
    if (mention.vocab_size, mention.dim, mention.window) != (
        label.vocab_size,
        label.dim,
        label.window,
    ):
        raise ValidationError("mention and label encoders must share V, d, window")
    for encoder, p in (("mention", mention), ("label", label)):
        for name in ("table", "w_self", "w_ctx", "bias"):
            tensor = getattr(p, name)
            # the cast is monotone, so the ends are finite in float32 iff every value is
            with np.errstate(over="ignore"):
                ends = np.array([tensor.min(), tensor.max()], dtype=np.float32)
            if not np.isfinite(ends).all():
                raise ValidationError(
                    f"{encoder} encoder's {name} holds NaN or a value beyond float32's range; "
                    f"checkpoint not written"
                )
    label_sha = hashlib.sha256()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<III", mention.vocab_size, mention.dim, mention.window))
        for p in (mention, label):
            for tensor in (p.table, p.w_self, p.w_ctx, p.bias):
                for block in _row_blocks(tensor):
                    raw = memoryview(np.ascontiguousarray(block, dtype="<f4"))
                    fh.write(raw)
                    if p is label:
                        label_sha.update(raw)
    return label_sha.digest()


def load_checkpoint(path) -> tuple[EncoderParams, EncoderParams, bytes]:
    """The (mention, label) encoders of a checkpoint, and the sha256 digest
    of the label encoder's bytes as read, the one ``save_checkpoint``
    returned.

    The tensors are read into one read-only float32 buffer. Each table is
    a view of it; the d×d tensors are widened to float64. Every error
    names ``path``.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValidationError(f"{path}: not a model checkpoint (bad magic {magic!r})")
        v, d, w = struct.unpack("<III", read_exact(fh, 12, f"checkpoint header of {path}"))
        # the header's sizes decide how much is read, so check them first
        half = v * d + 2 * d * d + d  # values per encoder
        implied = len(CHECKPOINT_MAGIC) + 12 + 8 * half
        actual = os.fstat(fh.fileno()).st_size
        if actual != implied:
            raise ValidationError(
                f"{path}: checkpoint file is {actual} bytes, but its header (V={v}, d={d}) "
                f"implies {implied}"
            )
        buf = read_into(fh, np.empty(2 * half, dtype="<f4"), f"checkpoint file {path}")
    buf.flags.writeable = False
    out, at = [], 0
    for encoder in ("mention", "label"):
        tensors = {}
        for name, shape in (("table", (v, d)), ("w_self", (d, d)), ("w_ctx", (d, d)),
                            ("bias", (d,))):
            size = int(np.prod(shape))
            raw = buf[at:at + size].reshape(shape)
            at += size
            if not _all_finite(raw):
                raise ValidationError(
                    f"{path}: checkpoint {encoder} encoder's {name} holds NaN or infinity"
                )
            tensors[name] = raw if name == "table" else raw.astype(np.float64)
        out.append(EncoderParams(**tensors, window=w))
    return out[0], out[1], hashlib.sha256(buf[half:]).digest()
