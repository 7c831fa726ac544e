"""Cache semantics, exact search and mining."""

import math

import numpy as np
import pytest

from dualed.corpus import EntityRecord
from dualed.encoder import EncoderParams, encode, pool_span, token_range, tokenize
from dualed.errors import ValidationError
from dualed.label_index import (
    LabelCache,
    full_refresh,
    mine_hard_negatives,
    nearest_label,
    sample_in_batch_negatives,
    tokenize_labels,
    write_back,
)
from dualed.losses import SimilaritySpec, similarity
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
