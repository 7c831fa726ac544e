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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, read_exact

MEAN = "mean"
FIRST_LAST = "first_last"
POOLING_METHODS = (MEAN, FIRST_LAST)

CHECKPOINT_MAGIC = b"VRBED1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _U64
    return h


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
    ids: list[int] = []
    spans: list[tuple[int, int]] = []
    start = None
    for i, ch in enumerate(text):
        if ch.isalnum():
            if start is None:
                start = i
        elif start is not None:
            spans.append((start, i))
            start = None
    if start is not None:
        spans.append((start, len(text)))
    for s, e in spans:
        token = text[s:e].lower()
        ids.append(fnv1a_64(token.encode("utf-8")) % vocab_size)
    return TokenSequence(
        token_ids=np.asarray(ids, dtype=np.int64), char_spans=spans, source=text
    )


def token_range(seq: TokenSequence, char_span: tuple[int, int]) -> tuple[int, int]:
    """Token index range [lo, hi) of tokens overlapping a char span."""
    s, e = char_span
    lo = hi = None
    for i, (ts, te) in enumerate(seq.char_spans):
        if ts < e and te > s:
            if lo is None:
                lo = i
            hi = i + 1
    if lo is None:
        raise ValidationError(f"span ({s}, {e}) covers no tokens in {seq.source!r:.60}")
    return lo, hi


# ── parameters ───────────────────────────────────────────────────────────────


@dataclass
class EncoderParams:
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

    @classmethod
    def init(
        cls, vocab_size: int, dim: int, window: int, seed: int, scale: float = 0.5
    ) -> "EncoderParams":
        """Seeded uniform init in [-scale, scale].

        The scale must be large enough that token identity dominates the
        shared bias at the start; much below ~0.3 the embedding space
        collapses to a single point under the contrastive losses and
        training never escapes the uniform-logits plateau.
        """
        rng = np.random.default_rng(seed)
        u = lambda *shape: rng.uniform(-scale, scale, shape)
        return cls(
            table=u(vocab_size, dim),
            w_self=u(dim, dim),
            w_ctx=u(dim, dim),
            bias=u(dim),
            window=window,
        )

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            table=self.table.copy(),
            w_self=self.w_self.copy(),
            w_ctx=self.w_ctx.copy(),
            bias=self.bias.copy(),
            window=self.window,
        )


@dataclass
class EncoderGrads:
    """Gradients for one parameter set.

    ``table`` is row-sparse when ``rows`` is set: row i is the gradient
    of embedding-table row ``rows[i]``, and every other row's gradient
    is zero. Without ``rows`` it is the dense (V, d) gradient.
    """

    table: np.ndarray
    w_self: np.ndarray
    w_ctx: np.ndarray
    bias: np.ndarray
    rows: np.ndarray | None = None

    @classmethod
    def zeros_like(cls, p: EncoderParams) -> "EncoderGrads":
        return cls(
            table=np.zeros_like(p.table),
            w_self=np.zeros_like(p.w_self),
            w_ctx=np.zeros_like(p.w_ctx),
            bias=np.zeros_like(p.bias),
        )


# ── forward / backward ───────────────────────────────────────────────────────


def _window_counts(n: int, w: int) -> np.ndarray:
    t = np.arange(n)
    lo = np.maximum(t - w, 0)
    hi = np.minimum(t + w, n - 1)
    return (hi - lo + 1).astype(np.float64)


def _window_sums(rows: np.ndarray, w: int) -> np.ndarray:
    """Row t gets the sum of rows max(0, t-w) .. min(n-1, t+w)."""
    n = rows.shape[0]
    csum = np.vstack([np.zeros((1, rows.shape[1])), np.cumsum(rows, axis=0)])
    t = np.arange(n)
    lo = np.maximum(t - w, 0)
    hi = np.minimum(t + w, n - 1)
    return csum[hi + 1] - csum[lo]


def encode(seq: TokenSequence, params: EncoderParams) -> np.ndarray:
    """Contextual vectors for every token, shape (T, d)."""
    if len(seq) == 0:
        raise ValidationError("cannot encode an empty token sequence")
    emb = params.table[seq.token_ids]
    counts = _window_counts(len(seq), params.window)
    ctx = _window_sums(emb, params.window) / counts[:, None]
    return emb @ params.w_self.T + ctx @ params.w_ctx.T + params.bias


def encoder_backward(
    seq: TokenSequence, params: EncoderParams, upstream: np.ndarray
) -> EncoderGrads:
    """Exact gradients of encode() w.r.t. every parameter tensor.

    ``upstream`` holds dLoss/d(out_t) rows. The table gradient is
    row-sparse: one row per unique token id, ascending, each summing its
    tokens' gradients in sequence order.
    """
    if upstream.shape != (len(seq), params.dim):
        raise ValidationError(
            f"upstream shape {upstream.shape} does not match ({len(seq)}, {params.dim})"
        )
    emb = params.table[seq.token_ids]
    counts = _window_counts(len(seq), params.window)
    ctx = _window_sums(emb, params.window) / counts[:, None]

    d_emb = upstream @ params.w_self
    # dL/d c_t spread back over each window: position u collects
    # sum_{t in window(u)} (dL/dc_t) / n_t  (the window relation is symmetric)
    d_ctx_scaled = (upstream @ params.w_ctx) / counts[:, None]
    d_emb = d_emb + _window_sums(d_ctx_scaled, params.window)
    rows, inverse = np.unique(seq.token_ids, return_inverse=True)
    table = np.zeros((len(rows), params.dim))
    np.add.at(table, inverse, d_emb)
    return EncoderGrads(
        table=table,
        w_self=upstream.T @ emb,
        w_ctx=upstream.T @ ctx,
        bias=upstream.sum(axis=0),
        rows=rows,
    )


def pool_span(
    token_vectors: np.ndarray, span: tuple[int, int], method: str
) -> np.ndarray:
    """Reduce token vectors in [lo, hi) to one span embedding."""
    lo, hi = span
    if not (0 <= lo < hi <= token_vectors.shape[0]):
        raise ValidationError(f"empty or out-of-range pooling span ({lo}, {hi})")
    if method == MEAN:
        return token_vectors[lo:hi].mean(axis=0)
    if method == FIRST_LAST:
        return np.concatenate([token_vectors[lo], token_vectors[hi - 1]])
    raise ValidationError(f"unknown pooling method {method!r}")


def pool_span_backward(
    upstream: np.ndarray, span: tuple[int, int], method: str, n_tokens: int, dim: int
) -> np.ndarray:
    """Scatter a span-embedding gradient back onto token vectors."""
    lo, hi = span
    out = np.zeros((n_tokens, dim))
    if method == MEAN:
        out[lo:hi] = upstream / (hi - lo)
    elif method == FIRST_LAST:
        out[lo] += upstream[:dim]
        out[hi - 1] += upstream[dim:]
    else:
        raise ValidationError(f"unknown pooling method {method!r}")
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
# mention (table, w_self, w_ctx, bias), label (same).


def save_checkpoint(path, mention: EncoderParams, label: EncoderParams) -> None:
    if (mention.vocab_size, mention.dim, mention.window) != (
        label.vocab_size,
        label.dim,
        label.window,
    ):
        raise ValidationError("mention and label encoders must share V, d, window")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<III", mention.vocab_size, mention.dim, mention.window))
        for p in (mention, label):
            for tensor in (p.table, p.w_self, p.w_ctx, p.bias):
                fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[EncoderParams, EncoderParams]:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValidationError(f"not a model checkpoint (bad magic {magic!r})")
        v, d, w = struct.unpack("<III", read_exact(fh, 12, "checkpoint header"))
        out = []
        for _ in range(2):
            tensors = []
            for shape in ((v, d), (d, d), (d, d), (d,)):
                buf = read_exact(fh, 4 * int(np.prod(shape)), "checkpoint file")
                tensors.append(
                    np.frombuffer(buf, dtype="<f4").astype(np.float64).reshape(shape)
                )
            out.append(
                EncoderParams(
                    table=tensors[0],
                    w_self=tensors[1],
                    w_ctx=tensors[2],
                    bias=tensors[3],
                    window=w,
                )
            )
    return out[0], out[1]
