"""Cache semantics, exact search and mining."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dualed.corpus import EntityRecord
from dualed.encoder import (
    _BLOCK,
    POOLING_METHODS,
    EncoderParams,
    TokenSequence,
    encode_spans,
    pool_span,
    token_range,
    tokenize,
)
from dualed.errors import ValidationError
from dualed.label_index import (
    LabelCache,
    _euclidean_shortlist,
    allowed_rows,
    build_cache,
    encode_labels,
    full_refresh,
    mine_hard_negatives,
    sample_in_batch_negatives,
    tokenize_labels,
    top_rows,
    write_back,
)
from dualed.losses import SIMILARITY_KINDS, SimilaritySpec, similarity_to_matrix
from dualed.verbalizer import verbalize_all
from oracles import encode_one, scan_negatives, similarity

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


def cached(cache, label_id):
    """The cached embedding of one label."""
    return cache.matrix[cache.row_of[label_id]]


def nearest(cache, anchor, allowed=None):
    """``top_rows`` for one anchor over an allowed-id set: (label id, score)."""
    rows, scores = top_rows(cache, anchor[None, :], allowed_rows(cache, allowed))
    return cache.ids[rows[0, 0]], float(scores[0, 0])


def brute_force_ranking(cache, anchor):
    """Independent per-row scan: python loop, scalar similarity, tuple sort."""
    sims = [
        (similarity(anchor, cache.matrix[i], cache.sim_spec), i)
        for i in range(len(cache.ids))
    ]
    sims.sort(key=lambda t: (-t[0], t[1]))
    return sims


class TestLabelCache:
    def test_empty_label_set_rejected(self):
        with pytest.raises(ValidationError, match="empty label set"):
            LabelCache.empty([], 4, "mean", EUCLIDEAN)
        with pytest.raises(ValidationError, match="empty label set"):
            LabelCache(ids=[], matrix=np.zeros((0, 4)), pooling="mean", sim_spec=EUCLIDEAN)


class TestFullRefresh:
    def setup_method(self):
        self.records = toy_records()
        self.verbs = verbalize_all(self.records, "title_desc")
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
            expected = pool_span(encode_one(seq, self.params), span, "mean")
            np.testing.assert_array_equal(cached(self.cache, label_id), expected)

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
        full_refresh(self.cache, self.params, self.tokens)
        assert self.cache.dirty_writes == 0

    def test_refresh_overwrites_write_back(self):
        full_refresh(self.cache, self.params, self.tokens)
        original = cached(self.cache, "e2").copy()
        write_back(self.cache, "e2", np.full(4, 9.0))
        full_refresh(self.cache, self.params, self.tokens)
        np.testing.assert_array_equal(cached(self.cache, "e2"), original)


def varied_records(n, seed):
    """Labels whose verbalizations span many token counts, some shared by
    more labels than one encoder block holds."""
    rng = np.random.default_rng(seed)
    records = {}
    for i in range(n):
        if i % 2:  # one shared token count
            title, words = f"Entity n{i}", 3
        else:
            title, words = f"Entity n{i} x" * (i % 3 + 1), int(rng.integers(0, 40))
        desc = " ".join(f"w{int(rng.integers(50))}" for _ in range(words))
        records[f"e{i}"] = EntityRecord(
            id=f"e{i}", title=title, description=desc or None
        )
    return records


class TestGroupedRefresh:
    @pytest.mark.parametrize("pooling", ["mean", "first_last"])
    def test_equals_per_label_refresh_bit_for_bit(self, pooling):
        records = varied_records(3 * _BLOCK, seed=0)
        verbs = verbalize_all(records, "title_desc")
        params = EncoderParams.init(1024, 32, 5, seed=3)
        tokens = tokenize_labels(verbs, 1024)
        counts = [len(seq) for seq in tokens.seqs.values()]
        assert len(set(counts)) > 10 and max(counts.count(c) for c in counts) > _BLOCK
        cache = LabelCache.empty(sorted(records), 32, pooling, EUCLIDEAN)
        full_refresh(cache, params, tokens)
        for row, label_id in enumerate(cache.ids):
            seq = tokens.seqs[label_id]
            expected = pool_span(encode_one(seq, params), tokens.title_spans[label_id],
                                 pooling)
            assert cache.matrix[row].tobytes() == expected.tobytes(), label_id

    def test_encode_labels_follows_the_given_order(self):
        records = varied_records(40, seed=1)
        tokens = tokenize_labels(verbalize_all(records, "title_desc"),
                                 256)
        params = EncoderParams.init(256, 8, 2, seed=4)
        order = [f"e{i}" for i in (7, 3, 39, 0, 3)]
        embs = encode_labels(params, tokens, order, "first_last")
        cache = build_cache(sorted(records), params, tokens, "first_last", EUCLIDEAN)
        for row, label_id in enumerate(order):
            assert embs[row].tobytes() == cached(cache, label_id).tobytes()
        assert encode_labels(params, tokens, [], "mean").shape == (0, 8)


def float32_and_widened(params):
    """``params`` with its table rounded to a read-only float32 array, as
    ``load_checkpoint`` returns it, and the same encoder with that table
    widened to float64."""
    table = params.table.astype(np.float32)
    table.flags.writeable = False
    return (dataclasses.replace(params, table=table),
            dataclasses.replace(params, table=table.astype(np.float64)))


class TestFloat32Table:
    """The forward widens the rows it gathers from a float32 table. That is
    exact, so every result has the bytes of the table widened whole."""

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, 30), min_size=1, max_size=30),
           n_labels=st.integers(1, 2 * _BLOCK), vocab=st.sampled_from([8, 256]),
           dim=st.sampled_from([1, 3, 16]), window=st.sampled_from([0, 1, 5]),
           seed=st.integers(0, 2**32 - 1))
    def test_same_bytes_as_the_widened_table(self, lengths, n_labels, vocab, dim, window,
                                             seed):
        rng = np.random.default_rng(seed)
        narrow, wide = float32_and_widened(
            EncoderParams.init(vocab, dim, window, seed=int(rng.integers(1 << 16))))
        seqs = [TokenSequence(rng.integers(0, vocab, size=n), [(i, i + 1) for i in range(n)],
                              "") for n in lengths]
        ranges = [[tuple(sorted(rng.choice(n + 1, size=2, replace=False).tolist()))
                   for _ in range(int(rng.integers(0, 4)))] for n in lengths]
        records = varied_records(n_labels, seed=int(rng.integers(1 << 16)))
        tokens = tokenize_labels(verbalize_all(records, "title_desc"), vocab)
        for pooling in POOLING_METHODS:
            assert (encode_spans(seqs, ranges, narrow, pooling).tobytes()
                    == encode_spans(seqs, ranges, wide, pooling).tobytes())
            caches = [build_cache(sorted(records), p, tokens, pooling, EUCLIDEAN)
                      for p in (narrow, wide)]
            assert caches[0].matrix.tobytes() == caches[1].matrix.tobytes()


class TestWriteBack:
    def test_read_your_write(self):
        cache = cache_from_matrix(np.zeros((3, 2)))
        write_back(cache, "e2", np.array([1.5, -2.5]))
        np.testing.assert_array_equal(cached(cache, "e2"), [1.5, -2.5])

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
        label_id, sim = nearest(cache, np.array([3.0, 3.0]))
        assert (label_id, sim) == ("e3", 0.0)

    def test_restriction_contract(self):
        cache = cache_from_matrix([[1, 1], [2, 2], [3, 3], [-9, -9]])
        label_id, _ = nearest(cache, np.array([1.0, 1.0]), {"e4"})
        assert label_id == "e4"

    def test_empty_allowed_set_rejected(self):
        cache = cache_from_matrix([[1, 1]])
        with pytest.raises(ValidationError):
            nearest(cache, np.array([1.0, 1.0]), set())

    def test_unknown_allowed_id_rejected(self):
        cache = cache_from_matrix([[1, 1]])
        with pytest.raises(ValidationError):
            nearest(cache, np.array([1.0, 1.0]), {"zz"})

    def test_thousand_rows_match_exhaustive_scan(self):
        rng = np.random.default_rng(1)
        cache = cache_from_matrix(rng.normal(size=(1000, 8)))
        for _ in range(10):
            anchor = rng.normal(size=8)
            label_id, sim = nearest(cache, anchor)
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
        verbs = verbalize_all(records, "title")
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


@st.composite
def wide_blocks(draw):
    """(matrix, anchors) at real widths and block sizes: p in {32, 33, 64, 65},
    up to 150 anchors, with coarse values for exact ties, duplicated rows
    and anchors that copy a row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 80))
    p = draw(st.sampled_from([32, 33, 64, 65]))
    m = draw(st.integers(1, 150))
    if draw(st.booleans()):
        matrix = rng.integers(-1, 2, (n, p)).astype(float)
        anchors = rng.integers(-1, 2, (m, p)).astype(float)
    else:
        matrix, anchors = rng.normal(size=(n, p)), rng.normal(size=(m, p))
    matrix[rng.integers(n, size=n // 4)] = matrix[rng.integers(n, size=n // 4)]
    copies = rng.integers(m, size=m // 2)
    anchors[copies] = matrix[rng.integers(n, size=len(copies))]
    scale = draw(SCALES)
    return matrix * scale, anchors * scale


BLOCKS = st.one_of(spread_blocks(), near_tie_blocks(), wide_blocks())


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
            assert hexed([nearest(cache, anchor, allowed)]) == [want]

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

    @settings(max_examples=300, deadline=None)
    @given(block=BLOCKS, kind=st.sampled_from(SIMILARITY_KINDS), data=st.data())
    def test_mining_block(self, block, kind, data):
        matrix, anchors = block
        cache = cache_from_matrix(matrix, sim=SimilaritySpec(kind=kind))
        n = len(cache.ids)
        gold = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=len(anchors),
                                           max_size=len(anchors))), dtype=np.int64)
        k = data.draw(st.integers(1, min(n + 1, 6)))
        rows, scores = top_rows(cache, anchors, gold=gold, k=k)
        assert rows.shape == scores.shape == (len(anchors), min(k, n - 1))
        for anchor, g, row, score in zip(anchors, gold, rows, scores):
            want = scan_negatives(cache, anchor, cache.ids[g], k)
            assert hexed(zip([cache.ids[r] for r in row], score)) == want

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("call", ["plain", "allowed", "gold"])
    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([1, 2, 9, 60]), p=st.sampled_from([1, 3, 32]),
           kind=st.sampled_from(SIMILARITY_KINDS), seed=st.integers(0, 2**32 - 1),
           coarse=st.booleans(), data=st.data())
    def test_one_call_across_block_boundaries(self, m, call, n, p, kind, seed, coarse, data):
        """One call over M anchors, M on either side of the 64-anchor
        search blocks, gives each anchor its own scan's rows and scores."""
        rng = np.random.default_rng(seed)
        if coarse:  # exact ties and duplicated rows
            matrix = rng.integers(-1, 2, (n, p)).astype(float)
            anchors = rng.integers(-1, 2, (m, p)).astype(float)
        else:
            matrix, anchors = rng.normal(size=(n, p)), rng.normal(size=(m, p))
        copies = rng.integers(m, size=m // 2)
        anchors[copies] = matrix[rng.integers(n, size=len(copies))]
        cache = cache_from_matrix(matrix, sim=SimilaritySpec(kind=kind))
        if call == "gold":
            gold = rng.integers(n, size=m)
            k = data.draw(st.sampled_from([1, 3, n, n + 1]))
            rows, scores = top_rows(cache, anchors, gold=gold, k=k)
            assert rows.shape == scores.shape == (m, min(k, n - 1))
            for anchor, g, row, score in zip(anchors, gold, rows, scores):
                want = scan_negatives(cache, anchor, cache.ids[g], k)
                assert hexed(zip([cache.ids[r] for r in row], score)) == want
            return
        allowed = None
        if call == "allowed":
            allowed = data.draw(st.sets(st.sampled_from(cache.ids), min_size=1))
        rows, scores = top_rows(cache, anchors, allowed_rows(cache, allowed))
        assert rows.shape == scores.shape == (m, 1)
        for anchor, row, score in zip(anchors, rows[:, 0], scores[:, 0]):
            assert (cache.ids[row], float(score).hex()) == scan_nearest(cache, anchor, allowed)

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
            assert hexed([nearest(cache, anchor)]) == [scan_nearest(cache, anchor)]
            assert hexed([nearest(cache, anchor, {"e3", "e5"})]) == [
                scan_nearest(cache, anchor, {"e3", "e5"})]
            assert hexed(mine_hard_negatives(cache, anchor, "e3", 4)) == scan_negatives(
                cache, anchor, "e3", 4)

    def test_shortlist_is_short_on_generic_rows(self):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(2000, 64))
        anchors = rng.normal(size=(20, 64))
        row_sq = np.einsum("ij,ij->i", matrix, matrix)
        owners, rows, scan = _euclidean_shortlist(matrix, row_sq, anchors, None, None, 1)
        assert len(scan) == 0
        assert np.bincount(owners, minlength=len(anchors)).tolist() == [1] * len(anchors)

    def test_allowed_and_gold_rows_are_exclusive(self):
        cache = cache_from_matrix(np.eye(3))
        with pytest.raises(ValidationError):
            top_rows(cache, np.ones((1, 3)), np.array([0]), np.array([1]))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            top_rows(cache_from_matrix(np.eye(3)), np.ones((2, 4)))
