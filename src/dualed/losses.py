"""Similarity metrics, ranking losses, and their analytic gradients.

Three similarities are supported: cosine, dot product, and euclidean
(negated distance, so that "higher is more similar" holds for all
three). Two losses rank a gold label against sampled negatives:

* triplet — mean over negatives of max(0, margin - s(a,p) + s(a,n)),
  with default margins 0.5 (cosine) and 3.0 (dot / euclidean);
* cross_entropy — softmax over [s(a,p), s(a,n_1), ...] with the gold
  in slot 0, loss = -log softmax[0] (max-subtracted for stability).

Gradients are exact w.r.t. the anchor, positive, and every negative;
at the hinge boundary the zero subgradient is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

COSINE = "cosine"
DOT = "dot"
EUCLIDEAN = "euclidean"
SIMILARITY_KINDS = (COSINE, DOT, EUCLIDEAN)

TRIPLET = "triplet"
CROSS_ENTROPY = "cross_entropy"
LOSS_KINDS = (TRIPLET, CROSS_ENTROPY)


@dataclass(frozen=True)
class SimilaritySpec:
    kind: str = EUCLIDEAN
    epsilon: float = 1e-12

    def __post_init__(self):
        if self.kind not in SIMILARITY_KINDS:
            raise ValidationError(f"unknown similarity kind {self.kind!r}")


def default_margin(sim_kind: str) -> float:
    return 0.5 if sim_kind == COSINE else 3.0


@dataclass(frozen=True)
class LossSpec:
    kind: str = CROSS_ENTROPY
    margin: float | None = None  # triplet only; None picks the similarity default

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValidationError(f"unknown loss kind {self.kind!r}")

    def resolve_margin(self, sim: SimilaritySpec) -> float:
        return default_margin(sim.kind) if self.margin is None else self.margin


# ── similarities ─────────────────────────────────────────────────────────────


def similarity(a: np.ndarray, b: np.ndarray, spec: SimilaritySpec) -> float:
    if a.shape != b.shape:
        raise ValidationError(f"width mismatch: {a.shape} vs {b.shape}")
    if spec.kind == DOT:
        return float(a @ b)
    if spec.kind == EUCLIDEAN:
        return -float(np.linalg.norm(a - b))
    denom = max(float(np.linalg.norm(a)) * float(np.linalg.norm(b)), spec.epsilon)
    return float(a @ b) / denom


def similarity_to_matrix(
    anchor: np.ndarray,
    matrix: np.ndarray,
    spec: SimilaritySpec,
    row_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Similarity of one anchor against every row, shape (N,).

    ``row_norms`` optionally passes ``np.linalg.norm(matrix, axis=1)``
    (used by cosine) when several anchors share one matrix.
    """
    if matrix.ndim != 2 or matrix.shape[1] != anchor.shape[0]:
        raise ValidationError(
            f"width mismatch: anchor {anchor.shape} vs matrix {matrix.shape}"
        )
    if spec.kind == DOT:
        return matrix @ anchor
    if spec.kind == EUCLIDEAN:
        # row-wise differences, not the expanded quadratic form: an anchor
        # equal to a row must score exactly 0
        diff = matrix - anchor
        return -np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if row_norms is None:
        row_norms = np.linalg.norm(matrix, axis=1)
    norms = row_norms * np.linalg.norm(anchor)
    return (matrix @ anchor) / np.maximum(norms, spec.epsilon)


def _similarity_grads(
    a: np.ndarray, b: np.ndarray, spec: SimilaritySpec
) -> tuple[float, np.ndarray, np.ndarray]:
    """(s, ds/da, ds/db) for one pair."""
    if spec.kind == DOT:
        return float(a @ b), b.copy(), a.copy()
    if spec.kind == EUCLIDEAN:
        r = a - b
        n = float(np.linalg.norm(r))
        if n == 0.0:
            return 0.0, np.zeros_like(a), np.zeros_like(b)
        return -n, -r / n, r / n
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    raw = na * nb
    if raw <= spec.epsilon:
        # degenerate: the guard max(.., eps) is active, denominator constant
        return float(a @ b) / spec.epsilon, b / spec.epsilon, a / spec.epsilon
    s = float(a @ b) / raw
    return s, b / raw - s * a / (na * na), a / raw - s * b / (nb * nb)


# ── losses ───────────────────────────────────────────────────────────────────


def _check_triplet_inputs(anchor, positive, negatives):
    if not negatives:
        raise ValidationError("at least one negative is required")
    for v in [positive, *negatives]:
        if v.shape != anchor.shape:
            raise ValidationError("anchor, positive and negatives must share width")


def triplet_loss(
    anchor: np.ndarray,
    positive: np.ndarray,
    negatives: list[np.ndarray],
    spec: SimilaritySpec,
    margin: float,
) -> float:
    _check_triplet_inputs(anchor, positive, negatives)
    s_pos = similarity(anchor, positive, spec)
    hinges = [
        max(0.0, margin - s_pos + similarity(anchor, n, spec)) for n in negatives
    ]
    return float(np.mean(hinges))


def cross_entropy_loss(
    anchor: np.ndarray,
    positive: np.ndarray,
    negatives: list[np.ndarray],
    spec: SimilaritySpec,
) -> float:
    _check_triplet_inputs(anchor, positive, negatives)
    logits = np.array(
        [similarity(anchor, positive, spec)]
        + [similarity(anchor, n, spec) for n in negatives]
    )
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[0])


def loss_value(
    anchor, positive, negatives, loss_spec: LossSpec, sim_spec: SimilaritySpec
) -> float:
    if loss_spec.kind == TRIPLET:
        return triplet_loss(
            anchor, positive, negatives, sim_spec, loss_spec.resolve_margin(sim_spec)
        )
    return cross_entropy_loss(anchor, positive, negatives, sim_spec)


@dataclass
class LossGradients:
    anchor: np.ndarray
    positive: np.ndarray
    negatives: list[np.ndarray]


def loss_gradients(
    anchor: np.ndarray,
    positive: np.ndarray,
    negatives: list[np.ndarray],
    loss_spec: LossSpec,
    sim_spec: SimilaritySpec,
) -> tuple[float, LossGradients]:
    """Loss value plus exact gradients w.r.t. every input vector."""
    _check_triplet_inputs(anchor, positive, negatives)
    s_pos, dpos_da, dpos_dp = _similarity_grads(anchor, positive, sim_spec)
    neg_terms = [_similarity_grads(anchor, n, sim_spec) for n in negatives]

    g_anchor = np.zeros_like(anchor)
    g_positive = np.zeros_like(positive)
    g_negatives = [np.zeros_like(n) for n in negatives]

    if loss_spec.kind == TRIPLET:
        margin = loss_spec.resolve_margin(sim_spec)
        k = len(negatives)
        total = 0.0
        for j, (s_neg, dneg_da, dneg_dn) in enumerate(neg_terms):
            hinge = margin - s_pos + s_neg
            if hinge > 0.0:
                total += hinge
                g_anchor += (dneg_da - dpos_da) / k
                g_positive += -dpos_dp / k
                g_negatives[j] += dneg_dn / k
        return total / k, LossGradients(g_anchor, g_positive, g_negatives)

    logits = np.array([s_pos] + [t[0] for t in neg_terms])
    shifted = logits - logits.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    loss = float(-np.log(probs[0]))
    g_anchor += (probs[0] - 1.0) * dpos_da
    g_positive += (probs[0] - 1.0) * dpos_dp
    for j, (_, dneg_da, dneg_dn) in enumerate(neg_terms):
        g_anchor += probs[j + 1] * dneg_da
        g_negatives[j] += probs[j + 1] * dneg_dn
    return loss, LossGradients(g_anchor, g_positive, g_negatives)
