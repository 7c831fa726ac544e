"""Similarities, losses, and gradient checks across all six combinations."""

import math
import zlib

import numpy as np
import pytest

from dualed.errors import ValidationError
from dualed.losses import (
    LOSS_KINDS,
    SIMILARITY_KINDS,
    LossSpec,
    SimilaritySpec,
    default_margin,
    loss_gradients,
    similarity_to_matrix,
)
from oracles import cross_entropy_loss, loss_value, similarity, triplet_loss

COSINE = SimilaritySpec(kind="cosine")
DOT = SimilaritySpec(kind="dot")
EUCLIDEAN = SimilaritySpec(kind="euclidean")
ALL_SIMS = (COSINE, DOT, EUCLIDEAN)


def v(*xs):
    return np.array(xs, dtype=float)


class TestSimilarity:
    def test_cosine_identical_unit_vectors(self):
        assert similarity(v(1, 0), v(1, 0), COSINE) == pytest.approx(1.0)

    def test_euclidean_identity_is_zero(self):
        assert similarity(v(1, 2), v(1, 2), EUCLIDEAN) == pytest.approx(0.0)

    def test_dot_value(self):
        assert similarity(v(1, 2), v(3, 4), DOT) == pytest.approx(11.0)

    def test_euclidean_is_negated_distance(self):
        assert similarity(v(0, 0), v(3, 4), EUCLIDEAN) == pytest.approx(-5.0)

    def test_width_mismatch(self):
        with pytest.raises(ValidationError):
            similarity(v(1, 2), v(1, 2, 3), DOT)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for spec in ALL_SIMS:
            for _ in range(50):
                a, b = rng.normal(size=5), rng.normal(size=5)
                assert similarity(a, b, spec) == pytest.approx(
                    similarity(b, a, spec), rel=1e-12
                )

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.normal(size=4), rng.normal(size=4)
            alpha = float(rng.uniform(0.1, 10))
            assert similarity(alpha * a, b, COSINE) == pytest.approx(
                similarity(a, b, COSINE), rel=1e-9
            )

    def test_dot_scales_linearly(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert similarity(3.0 * a, b, DOT) == pytest.approx(
            3.0 * similarity(a, b, DOT), rel=1e-12
        )

    def test_matrix_form_matches_scalar(self):
        rng = np.random.default_rng(3)
        anchor = rng.normal(size=6)
        matrix = rng.normal(size=(40, 6))
        for spec in ALL_SIMS:
            batch = similarity_to_matrix(anchor, matrix, spec)
            for i in range(40):
                assert batch[i] == pytest.approx(
                    similarity(anchor, matrix[i], spec), rel=1e-9, abs=1e-12
                )

    def test_euclidean_argmax_equals_distance_argmin(self):
        rng = np.random.default_rng(4)
        anchor = rng.normal(size=5)
        matrix = rng.normal(size=(100, 5))
        sims = similarity_to_matrix(anchor, matrix, EUCLIDEAN)
        dists = np.linalg.norm(matrix - anchor, axis=1)
        assert int(np.argmax(sims)) == int(np.argmin(dists))


class TestTripletLoss:
    def test_euclidean_hand_value(self):
        # d(a,p) = 1, d(a,n) = 2, margin 3 -> max(0, 3 - (-1) + (-2)) = 2
        a, p, n = v(0.0), v(1.0), v(2.0)
        assert triplet_loss(a, p, [n], EUCLIDEAN, margin=3.0) == pytest.approx(2.0)

    def test_inactive_hinge_is_zero(self):
        a, p, n = v(0.0, 0.0), v(0.1, 0.0), v(100.0, 0.0)
        assert triplet_loss(a, p, [n], EUCLIDEAN, margin=3.0) == 0.0

    def test_mean_over_negatives(self):
        # hinges 2.0 (distance 2) and 0.0 (far away) average to 1.0
        a, p = v(0.0), v(1.0)
        loss = triplet_loss(a, p, [v(2.0), v(100.0)], EUCLIDEAN, margin=3.0)
        assert loss == pytest.approx(1.0)

    def test_requires_negative(self):
        with pytest.raises(ValidationError):
            triplet_loss(v(1.0), v(1.0), [], EUCLIDEAN, margin=3.0)

    def test_default_margins(self):
        assert default_margin("cosine") == 0.5
        assert default_margin("euclidean") == 3.0
        assert default_margin("dot") == 3.0


class TestCrossEntropyLoss:
    def test_symmetric_logits_ln2(self):
        # equal similarity for gold and the single negative
        a, p, n = v(1.0, 0.0), v(0.0, 1.0), v(0.0, 1.0)
        assert cross_entropy_loss(a, p, [n], DOT) == pytest.approx(math.log(2.0))

    def test_dominant_positive_vanishes(self):
        a, p, n = v(1.0, 0.0), v(60.0, 0.0), v(-60.0, 0.0)
        assert cross_entropy_loss(a, p, [n], DOT) == pytest.approx(0.0, abs=1e-20)

    def test_logit_softmax_value(self):
        # logits [1, 0, -1] -> -log softmax[0] = 0.40761...
        a = v(1.0, 0.0)
        p = v(1.0, 0.0)
        n1 = v(0.0, 1.0)
        n2 = v(-1.0, 0.0)
        assert cross_entropy_loss(a, p, [n1, n2], DOT) == pytest.approx(
            0.40760596444438, rel=1e-10
        )

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        for spec in ALL_SIMS:
            for _ in range(30):
                a, p = rng.normal(size=4), rng.normal(size=4)
                negs = [rng.normal(size=4) for _ in range(3)]
                assert cross_entropy_loss(a, p, negs, spec) >= 0.0
                assert triplet_loss(a, p, negs, spec, default_margin(spec.kind)) >= 0.0


def numeric_input_grads(anchor, positive, negatives, loss_spec, sim_spec, h=1e-5):
    vectors = [anchor, positive, *negatives]
    grads = []
    for vec in vectors:
        grad = np.zeros_like(vec)
        for i in range(vec.size):
            orig = vec[i]
            vec[i] = orig + h
            up = loss_value(anchor, positive, negatives, loss_spec, sim_spec)
            vec[i] = orig - h
            down = loss_value(anchor, positive, negatives, loss_spec, sim_spec)
            vec[i] = orig
            grad[i] = (up - down) / (2 * h)
        grads.append(grad)
    return grads[0], grads[1], grads[2:]


def rel_err(a, b, floor=1e-8):
    denom = max(np.abs(a).max(), np.abs(b).max(), floor)
    return np.abs(a - b).max() / denom


def case_floor(*grads):
    """Denominator floor for one case: 1e-6 of its largest gradient entry.

    Central differences carry roundoff near 1e-10 whatever the gradient's
    size, so a block far below the case's scale (a negative of softmax
    weight ~1e-8) cannot be judged relative to its own magnitude.
    """
    return max(1e-8, 1e-6 * max(np.abs(g).max() for g in grads))


class TestLossGradients:
    def test_inactive_hinge_all_zero(self):
        a, p, n = v(0.0, 0.0), v(0.1, 0.0), v(100.0, 0.0)
        loss, grads = loss_gradients(a, p, [n], LossSpec(kind="triplet"), EUCLIDEAN)
        assert loss == 0.0
        assert not grads.anchor.any()
        assert not grads.positive.any()
        assert not grads.negatives[0].any()

    def test_symmetric_two_logit_softmax_dot(self):
        # p = softmax = [1/2, 1/2]; grad wrt positive = -1/2 a, negative = +1/2 a
        a = v(2.0, -1.0)
        p = v(0.3, 0.4)
        n = v(0.3, 0.4)
        _, grads = loss_gradients(a, p, [n], LossSpec(kind="cross_entropy"), DOT)
        np.testing.assert_allclose(grads.positive, -0.5 * a)
        np.testing.assert_allclose(grads.negatives[0], 0.5 * a)

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    @pytest.mark.parametrize("sim_kind", SIMILARITY_KINDS)
    def test_matches_finite_differences(self, loss_kind, sim_kind):
        rng = np.random.default_rng(zlib.crc32(f"{loss_kind}/{sim_kind}".encode()))
        loss_spec = LossSpec(kind=loss_kind)
        sim_spec = SimilaritySpec(kind=sim_kind)
        checked = 0
        while checked < 20:
            dim = int(rng.integers(2, 9))
            a = rng.normal(size=dim)
            p = rng.normal(size=dim)
            negs = [rng.normal(size=dim) for _ in range(int(rng.integers(1, 5)))]
            if loss_kind == "triplet":
                # keep clear of the hinge kink where the derivative jumps
                margin = loss_spec.resolve_margin(sim_spec)
                s_pos = similarity(a, p, sim_spec)
                if any(
                    abs(margin - s_pos + similarity(a, n, sim_spec)) < 1e-3
                    for n in negs
                ):
                    continue
            loss, grads = loss_gradients(a, p, negs, loss_spec, sim_spec)
            na, np_, nn = numeric_input_grads(a, p, negs, loss_spec, sim_spec)
            floor = case_floor(grads.anchor, grads.positive, *grads.negatives,
                               na, np_, *nn)
            assert rel_err(grads.anchor, na, floor) <= 1e-4
            assert rel_err(grads.positive, np_, floor) <= 1e-4
            for g, num in zip(grads.negatives, nn):
                assert rel_err(g, num, floor) <= 1e-4
            assert loss == pytest.approx(
                loss_value(a, p, negs, loss_spec, sim_spec), rel=1e-12
            )
            checked += 1
