"""Cache semantics, exact search and mining."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dualed.corpus import EntityRecord
from dualed.encoder import EncoderParams, encode, pool_span, token_range, tokenize
from dualed.errors import ValidationError
from dualed.label_index import (
    LabelCache,
    _euclidean_shortlists,
    allowed_rows,
    full_refresh,
    mine_hard_negatives,
    nearest_label,
    sample_in_batch_negatives,
    tokenize_labels,
    top_rows,
    write_back,
)
from dualed.losses import SIMILARITY_KINDS, SimilaritySpec, similarity, similarity_to_matrix
from dualed.verbalizer import FormatSpec, verbalize_all

EUCLIDEAN = SimilaritySpec(kind="euclidean")


def cache_from_matrix(matrix, sim=EUCLIDEAN, pooling="mean"):
    matrix = np.asarray(matrix, dtype=float)
    ids = [f"e{i + 1}" for i in range(matrix.shape[0])]
    return LabelCache(ids=ids, matrix=matrix, pooling=pooling, sim_spec=sim)


def toy_records(n=5):
    return {
        f"e{i + 1}": EntityRecord(
            id=f"e{i + 1}", title=f"Entity number{i + 1}",
            description=f"thing about topic{i + 1}",
        )
        for i in range(n)
    }


def brute_force_ranking(cache, anchor):
    """Independent per-row scan: python loop, scalar similarity, tuple sort."""
    sims = [
        (similarity(anchor, cache.matrix[i], cache.sim_spec), i)
        for i in range(len(cache.ids))
    ]
    sims.sort(key=lambda t: (-t[0], t[1]))
    return sims


class TestFullRefresh:
    def setup_method(self):
        self.records = toy_records()
        self.verbs = verbalize_all(self.records, FormatSpec.from_name("title_desc"))
        self.params = EncoderParams.init(256, 4, 2, seed=0)
        self.tokens = tokenize_labels(self.verbs, 256)
        self.cache = LabelCache.empty(sorted(self.records), 4, "mean", EUCLIDEAN)

    def test_rows_equal_fresh_encoding(self):
        full_refresh(self.cache, self.params, self.tokens)
        for label_id in self.cache.ids:
            verb = self.verbs[label_id]
            # independent path: tokenize the text afresh for every label
            seq = tokenize(verb.text, 256)
            span = token_range(seq, verb.title_char_span)
            expected = pool_span(encode(seq, self.params), span, "mean")
            np.testing.assert_array_equal(self.cache.embedding(label_id), expected)

    def test_unchanged_params_byte_identical(self):
        full_refresh(self.cache, self.params, self.tokens)
        before = self.cache.matrix.tobytes()
        full_refresh(self.cache, self.params, self.tokens)
        assert self.cache.matrix.tobytes() == before

    def test_missing_verbalization_rejected(self):
        bad = dict(self.verbs)
        del bad["e3"]
        with pytest.raises(ValidationError, match="missing"):
            full_refresh(self.cache, self.params, tokenize_labels(bad, 256))

    def test_tokens_for_another_vocab_size_rejected(self):
        with pytest.raises(ValidationError, match="vocab size"):
            full_refresh(self.cache, self.params, tokenize_labels(self.verbs, 512))

    def test_resets_bookkeeping(self):
        full_refresh(self.cache, self.params, self.tokens)
        write_back(self.cache, "e1", np.ones(4))
        assert self.cache.dirty_writes == 1
        full_refresh(self.cache, self.params, self.tokens, span_count=123)
        assert self.cache.dirty_writes == 0
        assert self.cache.last_full_refresh == 123

    def test_refresh_overwrites_write_back(self):
        full_refresh(self.cache, self.params, self.tokens)
        original = self.cache.embedding("e2").copy()
        write_back(self.cache, "e2", np.full(4, 9.0))
        full_refresh(self.cache, self.params, self.tokens)
        np.testing.assert_array_equal(self.cache.embedding("e2"), original)


class TestWriteBack:
    def test_read_your_write(self):
        cache = cache_from_matrix(np.zeros((3, 2)))
        write_back(cache, "e2", np.array([1.5, -2.5]))
        np.testing.assert_array_equal(cache.embedding("e2"), [1.5, -2.5])

    def test_counts_writes_not_diffs(self):
        cache = cache_from_matrix(np.zeros((3, 2)))
        write_back(cache, "e1", np.zeros(2))
        write_back(cache, "e1", np.zeros(2))
        assert cache.dirty_writes == 2

    def test_unknown_id(self):
        with pytest.raises(ValidationError):
            write_back(cache_from_matrix(np.zeros((2, 2))), "nope", np.zeros(2))

    def test_width_mismatch(self):
        with pytest.raises(ValidationError):
            write_back(cache_from_matrix(np.zeros((2, 2))), "e1", np.zeros(3))


class TestMineHardNegatives:
    def test_constructed_fixture(self):
        # rows: e1 = gold, e2 closest, e3 next, e4 far
        cache = cache_from_matrix([[1, 0], [0.9, 0.1], [0, 1], [-1, 0]])
        out = mine_hard_negatives(cache, np.array([1.0, 0.0]), "e1", k=2)
        assert [label_id for label_id, _ in out] == ["e2", "e3"]
        assert out[0][1] == pytest.approx(-math.hypot(0.1, 0.1))

    def test_k_covers_all_non_gold(self):
        cache = cache_from_matrix(np.arange(8).reshape(4, 2).astype(float))
        out = mine_hard_negatives(cache, np.array([0.0, 1.0]), "e2", k=99)
        assert sorted(label_id for label_id, _ in out) == ["e1", "e3", "e4"]

    def test_exact_match_ranks_first(self):
        cache = cache_from_matrix([[5, 5], [1, 2], [9, 9]])
        out = mine_hard_negatives(cache, np.array([1.0, 2.0]), "e1", k=1)
        assert out[0][0] == "e2"
        assert out[0][1] == pytest.approx(0.0)

    def test_gold_never_appears(self):
        rng = np.random.default_rng(0)
        cache = cache_from_matrix(rng.normal(size=(30, 4)))
        for _ in range(20):
            anchor = rng.normal(size=4)
            gold = f"e{int(rng.integers(30)) + 1}"
            out = mine_hard_negatives(cache, anchor, gold, k=29)
            assert gold not in [label_id for label_id, _ in out]

    def test_tie_break_by_row_index(self):
        cache = cache_from_matrix([[0, 0], [1, 0], [1, 0], [1, 0]])
        out = mine_hard_negatives(cache, np.array([1.0, 0.0]), "e1", k=3)
        assert [label_id for label_id, _ in out] == ["e2", "e3", "e4"]


class TestNearestLabel:
    def test_exact_row_match(self):
        cache = cache_from_matrix([[1, 1], [2, 2], [3, 3]])
        label_id, sim = nearest_label(cache, np.array([3.0, 3.0]))
        assert (label_id, sim) == ("e3", 0.0)

    def test_restriction_contract(self):
        cache = cache_from_matrix([[1, 1], [2, 2], [3, 3], [-9, -9]])
        label_id, _ = nearest_label(cache, np.array([1.0, 1.0]), allowed_ids={"e4"})
        assert label_id == "e4"

    def test_empty_allowed_set_rejected(self):
        cache = cache_from_matrix([[1, 1]])
        with pytest.raises(ValidationError):
            nearest_label(cache, np.array([1.0, 1.0]), allowed_ids=set())

    def test_unknown_allowed_id_rejected(self):
        cache = cache_from_matrix([[1, 1]])
        with pytest.raises(ValidationError):
            nearest_label(cache, np.array([1.0, 1.0]), allowed_ids={"zz"})

    def test_thousand_rows_match_exhaustive_scan(self):
        rng = np.random.default_rng(1)
        cache = cache_from_matrix(rng.normal(size=(1000, 8)))
        for _ in range(10):
            anchor = rng.normal(size=8)
            label_id, sim = nearest_label(cache, anchor)
            best_sim, best_row = brute_force_ranking(cache, anchor)[0]
            assert label_id == cache.ids[best_row]
            assert sim == pytest.approx(best_sim, rel=1e-9, abs=1e-12)


class TestOracleEquivalenceAllMetrics:
    @pytest.mark.parametrize("kind", ["cosine", "dot", "euclidean"])
    def test_mining_matches_oracle(self, kind):
        rng = np.random.default_rng(2)
        cache = cache_from_matrix(
            rng.normal(size=(500, 6)), sim=SimilaritySpec(kind=kind)
        )
        for _ in range(10):
            anchor = rng.normal(size=6)
            gold = f"e{int(rng.integers(500)) + 1}"
            mined = [i for i, _ in mine_hard_negatives(cache, anchor, gold, k=25)]
            gold_row = cache.row_of[gold]
            oracle = [
                cache.ids[row]
                for _, row in brute_force_ranking(cache, anchor)
                if row != gold_row
            ][:25]
            assert mined == oracle


class TestInBatchSampling:
    def test_subset_of_other_golds(self):
        rng = np.random.default_rng(3)
        out = sample_in_batch_negatives(["A", "B", "C"], "A", k=2, rng=rng)
        assert len(out) == 2
        assert set(out) <= {"B", "C"}

    def test_no_eligible_gives_empty(self):
        rng = np.random.default_rng(4)
        assert sample_in_batch_negatives(["A", "A"], "A", k=3, rng=rng) == []

    def test_seeded_determinism(self):
        golds = [f"g{i}" for i in range(20)]
        a = sample_in_batch_negatives(golds, "g0", 5, np.random.default_rng(9))
        b = sample_in_batch_negatives(golds, "g0", 5, np.random.default_rng(9))
        assert a == b

    def test_without_replacement(self):
        rng = np.random.default_rng(5)
        out = sample_in_batch_negatives(["A", "B", "C", "D"], "A", k=3, rng=rng)
        assert len(set(out)) == len(out)


class TestStalenessBookkeeping:
    def test_dirty_writes_monotone_between_refreshes(self):
        records = toy_records()
        verbs = verbalize_all(records, FormatSpec.from_name("title"))
        params = EncoderParams.init(256, 4, 1, seed=5)
        cache = LabelCache.empty(sorted(records), 4, "mean", EUCLIDEAN)
        tokens = tokenize_labels(verbs, 256)
        full_refresh(cache, params, tokens)
        seen = [cache.dirty_writes]
        for i in range(4):
            write_back(cache, "e1", np.full(4, float(i)))
            seen.append(cache.dirty_writes)
        assert seen == sorted(seen) == [0, 1, 2, 3, 4]
        full_refresh(cache, params, tokens)
        assert cache.dirty_writes == 0


# ── the block scorer against the per-row scan ───────────────────────────────


def scan_nearest(cache, anchor, allowed=None):
    """Per-row reference: a full scan, then the first maximum over the allowed rows."""
    sims = similarity_to_matrix(anchor, cache.matrix, cache.sim_spec)
    rows = np.arange(len(cache.ids))
    if allowed is not None:
        rows = np.array(sorted(cache.row_of[i] for i in allowed))
    best = rows[np.argmax(sims[rows])]
    return cache.ids[best], float(sims[best]).hex()


def scan_negatives(cache, anchor, gold_id, k):
    """Per-row reference: a full scan, the gold dropped, a stable descending sort."""
    sims = similarity_to_matrix(anchor, cache.matrix, cache.sim_spec)
    sims[cache.row_of[gold_id]] = -np.inf
    order = np.argsort(-sims, kind="stable")[: min(k, len(cache.ids) - 1)]
    return [(cache.ids[i], float(sims[i]).hex()) for i in order]


def hexed(pairs):
    return [(label_id, float(score).hex()) for label_id, score in pairs]


# small integers make exact ties and duplicate rows common; the scale
# moves every norm between 1e-3 and 1e3
VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
)


SCALES = st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2, 1e3])


@st.composite
def spread_blocks(draw):
    """(matrix, anchors): duplicated rows, and anchors that copy a row."""
    n = draw(st.integers(1, 12))
    p = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    scale = draw(SCALES)
    matrix = draw(arrays(np.float64, (n, p), elements=VALUES))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)), max_size=3)):
        matrix[dst] = matrix[src]
    anchors = draw(arrays(np.float64, (m, p), elements=VALUES))
    for a, r in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                        st.integers(0, n - 1)), max_size=m)):
        anchors[a] = matrix[r]
    return matrix * scale, anchors * scale


@st.composite
def near_tie_blocks(draw):
    """(matrix, anchors) all within a few ulps of one vector: near-exact ties."""
    n = draw(st.integers(1, 12))
    p = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    base = draw(arrays(np.float64, p, elements=st.floats(-4, 4).filter(bool)))
    base = base * draw(SCALES)
    steps = st.integers(-3, 3)
    ulps = np.spacing(np.abs(base))
    matrix = base + draw(arrays(np.int64, (n, p), elements=steps)) * ulps
    anchors = base + draw(arrays(np.int64, (m, p), elements=steps)) * ulps
    return matrix, anchors


BLOCKS = st.one_of(spread_blocks(), near_tie_blocks())


class TestBlockScorerMatchesScan:
    @settings(max_examples=300, deadline=None)
    @given(block=BLOCKS, kind=st.sampled_from(SIMILARITY_KINDS), data=st.data())
    def test_nearest(self, block, kind, data):
        matrix, anchors = block
        cache = cache_from_matrix(matrix, sim=SimilaritySpec(kind=kind))
        allowed = data.draw(st.none() | st.sets(st.sampled_from(cache.ids), min_size=1))
        rows, scores = top_rows(cache, anchors, allowed_rows(cache, allowed))
        assert rows.shape == scores.shape == (len(anchors), 1)
        for anchor, row, score in zip(anchors, rows[:, 0], scores[:, 0]):
            want = scan_nearest(cache, anchor, allowed)
            assert (cache.ids[row], float(score).hex()) == want
            assert hexed([nearest_label(cache, anchor, allowed)]) == [want]

    @settings(max_examples=300, deadline=None)
    @given(block=BLOCKS, kind=st.sampled_from(SIMILARITY_KINDS), data=st.data())
    def test_mining(self, block, kind, data):
        matrix, anchors = block
        cache = cache_from_matrix(matrix, sim=SimilaritySpec(kind=kind))
        gold = data.draw(st.sampled_from(cache.ids))
        k = data.draw(st.integers(1, len(cache.ids) + 1))
        for anchor in anchors:
            want = scan_negatives(cache, anchor, gold, k)
            assert hexed(mine_hard_negatives(cache, anchor, gold, k)) == want

    def test_anchor_equal_to_a_row_scores_zero(self):
        cache = cache_from_matrix([[3.0, -1.0], [0.5, 0.5], [3.0, -1.0]])
        rows, scores = top_rows(cache, np.array([[3.0, -1.0], [0.5, 0.5]]))
        assert rows[:, 0].tolist() == [0, 1]
        assert [float(s).hex() for s in scores[:, 0]] == [(-0.0).hex()] * 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the scan's own
    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_or_overflowing_inputs_scan_in_full(self, kind, bad):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(9, 3))
        matrix[[2, 6], 1] = bad
        cache = cache_from_matrix(matrix, sim=SimilaritySpec(kind=kind))
        anchors = np.vstack([rng.normal(size=(2, 3)), matrix[6], [bad, 0.0, 1.0]])
        for anchor in anchors:
            assert hexed([nearest_label(cache, anchor)]) == [scan_nearest(cache, anchor)]
            assert hexed([nearest_label(cache, anchor, {"e3", "e5"})]) == [
                scan_nearest(cache, anchor, {"e3", "e5"})]
            assert hexed(mine_hard_negatives(cache, anchor, "e3", 4)) == scan_negatives(
                cache, anchor, "e3", 4)

    def test_shortlist_is_short_on_generic_rows(self):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(2000, 64))
        anchors = rng.normal(size=(20, 64))
        for shortlist in _euclidean_shortlists(matrix, anchors, None, None, 1):
            assert len(shortlist) == 1

    def test_allowed_and_gold_rows_are_exclusive(self):
        cache = cache_from_matrix(np.eye(3))
        with pytest.raises(ValidationError):
            top_rows(cache, np.ones((1, 3)), np.array([0]), np.array([1]))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            top_rows(cache_from_matrix(np.eye(3)), np.ones((2, 4)))
