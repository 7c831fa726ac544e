"""Tokenizer, encoder forward/backward, pooling, and checkpoint format."""

import hashlib
import io
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualed.encoder import (
    _BLOCK,
    _TOKEN_RUN,
    FIRST_LAST,
    MEAN,
    EncoderParams,
    TokenSequence,
    backward_spans,
    encode_spans,
    fnv1a_64,
    load_checkpoint,
    pool_span,
    pool_span_backward,
    pooled_width,
    save_checkpoint,
    token_range,
    tokenize,
)
from dualed.errors import ValidationError, read_into
from oracles import (
    accumulate,
    encode_one,
    encoder_backward_one,
    token_range_scan,
    window_counts,
    window_sums,
    zero_grads,
)

V = 64  # power of two


def random_params(rng, vocab=V, dim=3, window=1) -> EncoderParams:
    return EncoderParams(
        table=rng.normal(size=(vocab, dim)),
        w_self=rng.normal(size=(dim, dim)),
        w_ctx=rng.normal(size=(dim, dim)),
        bias=rng.normal(size=dim),
        window=window,
    )


def tokenize_loop(text, vocab_size):
    """Reference tokenizer: one isalnum() test per character."""
    spans = []
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
    ids = [fnv1a_64(text[s:e].lower().encode("utf-8")) % vocab_size for s, e in spans]
    return ids, spans


def per_token(seq):
    """One ``mean`` range (t, t + 1) per token: through the span calls, a
    sequence's rows are its token vectors, bit for bit."""
    return [[(t, t + 1) for t in range(len(seq))]]


def token_vectors(seq, params):
    """Contextual vectors (T, d) of every token, through ``encode_spans``."""
    return encode_spans([seq], per_token(seq), params, MEAN)


def token_backward(seq, params, upstream):
    """Gradients of ``token_vectors`` for upstream rows (T, d), through
    ``backward_spans``."""
    return backward_spans([seq], per_token(seq), upstream, params, MEAN)


def random_seq(rng, length, vocab=V):
    text = " ".join(f"w{int(rng.integers(vocab))}" for _ in range(length))
    return tokenize(text, vocab)


class TestTokenize:
    def test_words_and_spans(self):
        seq = tokenize("Italy won.", 1 << 16)
        assert seq.char_spans == [(0, 5), (6, 9)]
        assert [seq.source[s:e] for s, e in seq.char_spans] == ["Italy", "won"]

    def test_empty(self):
        assert len(tokenize("", 1 << 16)) == 0

    def test_split_on_hyphen(self):
        seq = tokenize("Mad-Men", 1 << 16)
        assert [seq.source[s:e].lower() for s, e in seq.char_spans] == ["mad", "men"]

    def test_case_insensitive_ids(self):
        a = tokenize("ITALY", 1 << 16)
        b = tokenize("italy", 1 << 16)
        assert a.token_ids[0] == b.token_ids[0]

    def test_ids_within_vocab(self):
        seq = tokenize("some words 123 and §§ more", 32)
        assert all(0 <= t < 32 for t in seq.token_ids)

    def test_token_pattern_is_isalnum_on_every_code_point(self):
        every = "".join(chr(c) for c in range(sys.maxunicode + 1))
        matched = set()
        for run in _TOKEN_RUN.finditer(every):
            matched.update(range(*run.span()))
        assert matched == {c for c in range(sys.maxunicode + 1) if chr(c).isalnum()}

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.text(
            st.one_of(st.sampled_from(" _-.,İßﬁΣς٣²Ⅻ"), st.characters()), max_size=60
        ),
        vocab=st.sampled_from([1, 32, 1 << 16]),
    )
    def test_matches_per_character_loop(self, text, vocab):
        seq = tokenize(text, vocab)
        ids, spans = tokenize_loop(text, vocab)
        assert seq.char_spans == spans
        assert seq.token_ids.tolist() == ids
        assert seq.token_ids.dtype == np.int64


class TestTokenRange:
    def test_mention_maps_to_tokens(self):
        seq = tokenize("the Mad-Men finale", 1 << 16)
        lo, hi = token_range(seq, (4, 11))
        assert (lo, hi) == (1, 3)

    def test_uncovered_span_rejected(self):
        seq = tokenize("a b", 1 << 16)
        with pytest.raises(ValidationError):
            token_range(seq, (1, 2))  # just the space

    @settings(max_examples=500, deadline=None)
    @given(
        text=st.text(st.sampled_from("ab9 .-_Σ²"), max_size=40),
        s=st.integers(-3, 44),
        e=st.integers(-3, 44),
    )
    def test_matches_scan(self, text, s, e):
        seq = tokenize(text, 64)
        try:
            expected = token_range_scan(seq, (s, e))
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                token_range(seq, (s, e))
            assert str(raised.value) == str(exc)
        else:
            assert token_range(seq, (s, e)) == expected


class TestEncodeForward:
    def test_identity_configuration(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, dim=4)
        p.w_self = np.eye(4)
        p.w_ctx = np.zeros((4, 4))
        p.bias = np.zeros(4)
        seq = tokenize("word", V)
        out = token_vectors(seq, p)
        np.testing.assert_allclose(out[0], p.table[seq.token_ids[0]])

    def test_identical_tokens_identical_vectors(self):
        rng = np.random.default_rng(1)
        p = random_params(rng, dim=4, window=2)
        seq = tokenize("same same", V)
        out = token_vectors(seq, p)
        np.testing.assert_allclose(out[0], out[1])

    def test_matches_stepwise_recomputation(self):
        # independent re-evaluation of the formula, token by token
        rng = np.random.default_rng(2)
        p = random_params(rng, dim=2, window=1)
        seq = random_seq(rng, 3)
        out = token_vectors(seq, p)
        emb = [p.table[t] for t in seq.token_ids]
        for t in range(3):
            window = emb[max(0, t - 1):min(3, t + 2)]
            ctx = sum(window) / len(window)
            expected = p.w_self @ emb[t] + p.w_ctx @ ctx + p.bias
            np.testing.assert_allclose(out[t], expected, rtol=1e-12, atol=1e-12)

    def test_context_sensitivity(self):
        rng = np.random.default_rng(3)
        p = random_params(rng, dim=4, window=2)
        a = token_vectors(tokenize("pivot alpha beta", V), p)
        b = token_vectors(tokenize("pivot gamma delta", V), p)
        assert not np.allclose(a[0], b[0])

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValidationError):
            token_vectors(tokenize("", V), random_params(rng))


class TestPooling:
    vectors = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_mean(self):
        np.testing.assert_allclose(pool_span(self.vectors, (0, 3), MEAN), [3.0, 4.0])

    def test_first_last(self):
        np.testing.assert_allclose(
            pool_span(self.vectors, (0, 3), FIRST_LAST), [1.0, 2.0, 5.0, 6.0]
        )

    def test_single_token_first_last(self):
        np.testing.assert_allclose(
            pool_span(self.vectors, (0, 1), FIRST_LAST), [1.0, 2.0, 1.0, 2.0]
        )

    def test_width_contract(self):
        assert pool_span(self.vectors, (0, 2), MEAN).shape == (2,)
        assert pool_span(self.vectors, (0, 2), FIRST_LAST).shape == (4,)

    def test_empty_range_rejected(self):
        with pytest.raises(ValidationError):
            pool_span(self.vectors, (1, 1), MEAN)


def numerical_param_grads(objective, params, h=1e-5):
    """Central finite differences of ``objective()`` over every parameter tensor."""
    grads = {}
    for name in ("table", "w_self", "w_ctx", "bias"):
        tensor = getattr(params, name)
        grad = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + h
            up = objective()
            tensor[idx] = orig - h
            down = objective()
            tensor[idx] = orig
            grad[idx] = (up - down) / (2 * h)
        grads[name] = grad
    return grads


def encode_objective(seq, params, upstream):
    return lambda: float((token_vectors(seq, params) * upstream).sum())


def relative_error(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def dense_table(grads, vocab):
    """Scatter a row-sparse table gradient into a zero (V, d) table."""
    table = np.zeros((vocab, grads.table.shape[1]))
    table[grads.rows] = grads.table
    return table


def reference_encoder_backward(seq, params, upstream):
    """The dense-table backward pass: one (V, d) gradient per call."""
    emb = params.table[seq.token_ids]
    counts = window_counts(len(seq), params.window)
    ctx = window_sums(emb, params.window) / counts[:, None]

    grads = zero_grads(params)
    grads.bias += upstream.sum(axis=0)
    grads.w_self += upstream.T @ emb
    grads.w_ctx += upstream.T @ ctx

    d_emb = upstream @ params.w_self
    d_ctx_scaled = (upstream @ params.w_ctx) / counts[:, None]
    d_emb = d_emb + window_sums(d_ctx_scaled, params.window)
    np.add.at(grads.table, seq.token_ids, d_emb)
    return grads


class TestEncoderBackward:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(5)
        p = random_params(rng)
        seq = random_seq(rng, 4)
        grads = token_backward(seq, p, np.zeros((4, 3)))
        for t in (grads.table, grads.w_self, grads.w_ctx, grads.bias):
            assert not t.any()

    def test_bias_gradient_is_upstream_sum(self):
        rng = np.random.default_rng(6)
        p = random_params(rng)
        p.w_ctx = np.zeros((3, 3))
        seq = random_seq(rng, 1)
        upstream = rng.normal(size=(1, 3))
        grads = token_backward(seq, p, upstream)
        np.testing.assert_allclose(grads.bias, upstream[0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            dim = int(rng.integers(2, 9))
            p = random_params(rng, vocab=8, dim=dim, window=int(rng.integers(1, 4)))
            seq = random_seq(rng, int(rng.integers(1, 17)), vocab=8)
            upstream = rng.normal(size=(len(seq), dim))
            analytic = token_backward(seq, p, upstream)
            numeric = numerical_param_grads(encode_objective(seq, p, upstream), p)
            analytic.table = dense_table(analytic, 8)
            for name in ("table", "w_self", "w_ctx", "bias"):
                err = relative_error(getattr(analytic, name), numeric[name])
                assert err <= 1e-4, f"trial {trial}, {name}: rel err {err}"

    def test_repeated_token_ids_accumulate(self):
        rng = np.random.default_rng(8)
        p = random_params(rng)
        seq = tokenize("dup dup", V)
        assert seq.token_ids[0] == seq.token_ids[1]
        upstream = rng.normal(size=(2, 3))
        grads = token_backward(seq, p, upstream)
        numeric = numerical_param_grads(encode_objective(seq, p, upstream), p)
        assert relative_error(dense_table(grads, V), numeric["table"]) <= 1e-4

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        p = random_params(rng)
        with pytest.raises(ValidationError):
            token_backward(random_seq(rng, 4), p, np.zeros((3, 3)))

    def test_rows_are_sorted_unique_token_ids(self):
        rng = np.random.default_rng(10)
        p = random_params(rng, vocab=8)
        seq = random_seq(rng, 12, vocab=8)
        grads = token_backward(seq, p, rng.normal(size=(12, 3)))
        np.testing.assert_array_equal(grads.rows, np.unique(seq.token_ids))
        assert grads.table.shape == (len(grads.rows), 3)

    def test_row_sparse_equals_dense_reference_exactly(self):
        rng = np.random.default_rng(11)
        repeated = 0
        for trial in range(60):
            vocab = int(rng.choice([4, 8, 64]))
            dim = int(rng.integers(1, 9))
            p = random_params(rng, vocab=vocab, dim=dim, window=int(rng.integers(0, 5)))
            seq = random_seq(rng, int(rng.integers(1, 40)), vocab=vocab)
            repeated += len(np.unique(seq.token_ids)) < len(seq)
            upstream = rng.normal(size=(len(seq), dim))
            sparse = token_backward(seq, p, upstream)
            dense = reference_encoder_backward(seq, p, upstream)
            assert np.array_equal(dense_table(sparse, vocab), dense.table), trial
            for name in ("w_self", "w_ctx", "bias"):
                assert np.array_equal(getattr(sparse, name), getattr(dense, name)), name
        assert repeated >= 50


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def random_ranges(rng, n, max_ranges):
    """Up to ``max_ranges`` random token ranges of an n-token sequence."""
    return [tuple(sorted(rng.choice(n + 1, size=2, replace=False).tolist()))
            for _ in range(int(rng.integers(0, max_ranges + 1)))]


def dense_oracle_backward(seqs, ranges, span_grads, params, method):
    """``backward_spans`` by the per-sequence oracle: each sequence's token
    gradients from its ranges' ``pool_span_backward`` in range order, then
    ``encoder_backward_one``, added into dense (V, d) gradients."""
    dense = zero_grads(params)
    rows = iter(span_grads)
    for seq, spans in zip(seqs, ranges):
        upstream = np.zeros((len(seq), params.dim))
        for span in spans:
            upstream += pool_span_backward(next(rows), span, method, len(seq), params.dim)
        accumulate(dense, encoder_backward_one(seq, params, upstream))
    return dense


def check_spans_against_oracle(rng, lengths, vocab, dim, window, max_ranges=3):
    """encode_spans and backward_spans equal the per-sequence oracle in bits,
    for both poolings, and so do the token vectors and gradients of each
    sequence alone."""
    p = random_params(rng, vocab=vocab, dim=dim, window=window)
    seqs = [
        TokenSequence(rng.integers(0, vocab, size=n), [(i, i + 1) for i in range(n)], "")
        for n in lengths
    ]
    ranges = [random_ranges(rng, n, max_ranges) for n in lengths]
    for seq in seqs:
        upstream = rng.normal(size=(len(seq), dim))
        assert np.array_equal(bits(token_vectors(seq, p)), bits(encode_one(seq, p)))
        single, ref = token_backward(seq, p, upstream), encoder_backward_one(seq, p, upstream)
        for name in ("table", "w_self", "w_ctx", "bias", "rows"):
            assert np.array_equal(bits(getattr(single, name)), bits(getattr(ref, name)))
    for method in (MEAN, FIRST_LAST):
        pooled = encode_spans(seqs, ranges, p, method)
        want = [pool_span(encode_one(seq, p), span, method)
                for seq, spans in zip(seqs, ranges) for span in spans]
        assert pooled.shape == (len(want), pooled_width(dim, method))
        for j, row in enumerate(want):
            assert np.array_equal(bits(pooled[j]), bits(row)), (method, j)

        span_grads = rng.normal(size=pooled.shape)
        got = backward_spans(seqs, ranges, span_grads, p, method)
        dense = dense_oracle_backward(seqs, ranges, span_grads, p, method)
        all_ids = np.concatenate([seq.token_ids for seq in seqs])
        np.testing.assert_array_equal(got.rows, np.unique(all_ids))
        assert np.array_equal(bits(dense_table(got, vocab)), bits(dense.table)), method
        for name in ("w_self", "w_ctx", "bias"):
            assert np.array_equal(bits(getattr(got, name)), bits(getattr(dense, name)))


class TestSpanEncoder:
    @settings(max_examples=150, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=40),
        vocab=st.sampled_from([2, 8, 1024]),
        dim=st.sampled_from([1, 2, 3, 8, 32, 64]),
        window=st.sampled_from([0, 1, 2, 5, 50]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_sequence_oracle(self, lengths, vocab, dim, window, seed):
        check_spans_against_oracle(
            np.random.default_rng(seed), lengths, vocab, dim, window
        )

    def test_single_sequence_and_split_blocks(self):
        rng = np.random.default_rng(12)
        check_spans_against_oracle(rng, [1], 8, 32, 5)
        check_spans_against_oracle(rng, [7], 8, 32, 300)
        # more sequences of one length than one block holds
        lengths = [3] * (2 * _BLOCK + 5) + [1] * (_BLOCK + 1) + list(range(1, 30))
        check_spans_against_oracle(rng, lengths, 64, 32, 2)

    def test_zero_and_many_ranges(self):
        rng = np.random.default_rng(13)
        # every sequence without ranges: no rows, zero gradients over all ids
        check_spans_against_oracle(rng, [4, 4, 9], 8, 3, 1, max_ranges=0)
        # many overlapping ranges per sequence, single-token ones included
        check_spans_against_oracle(rng, [2, 5, 5, 30], 8, 3, 1, max_ranges=12)
        p = random_params(rng)
        seqs = [random_seq(rng, 4), random_seq(rng, 2)]
        ranges = [[], [(0, 2), (1, 2), (0, 1)]]
        pooled = encode_spans(seqs, ranges, p, FIRST_LAST)
        assert pooled.shape == (3, 6)
        grads = backward_spans(seqs, ranges, np.zeros((3, 6)), p, FIRST_LAST)
        np.testing.assert_array_equal(
            grads.rows, np.unique(np.concatenate([s.token_ids for s in seqs])))
        for t in (grads.table, grads.w_self, grads.w_ctx, grads.bias):
            assert not t.any()

    @pytest.mark.parametrize("method", [MEAN, FIRST_LAST])
    def test_matches_finite_differences(self, method):
        rng = np.random.default_rng(16)
        for trial in range(5):
            p = random_params(rng, vocab=8, dim=2, window=int(rng.integers(0, 3)))
            seqs = [random_seq(rng, int(n), vocab=8) for n in rng.integers(1, 7, size=3)]
            ranges = [random_ranges(rng, len(seq), 2) for seq in seqs]
            span_grads = rng.normal(size=encode_spans(seqs, ranges, p, method).shape)
            analytic = backward_spans(seqs, ranges, span_grads, p, method)
            numeric = numerical_param_grads(
                lambda: float((encode_spans(seqs, ranges, p, method) * span_grads).sum()), p)
            analytic.table = dense_table(analytic, 8)
            for name in ("table", "w_self", "w_ctx", "bias"):
                err = relative_error(getattr(analytic, name), numeric[name])
                assert err <= 1e-4, f"trial {trial}, {name}: rel err {err}"

    def test_empty_sequence_rejected(self):
        p = random_params(np.random.default_rng(14))
        seqs = [tokenize("a", V), tokenize("", V)]
        with pytest.raises(ValidationError, match="empty"):
            encode_spans(seqs, [[(0, 1)], []], p, MEAN)
        with pytest.raises(ValidationError, match="empty"):
            backward_spans(seqs, [[(0, 1)], []], np.zeros((1, 3)), p, MEAN)

    @pytest.mark.parametrize("method", [MEAN, FIRST_LAST])
    def test_bad_range_rejected(self, method):
        p = random_params(np.random.default_rng(17))
        seqs = [tokenize("a b c", V), tokenize("d e f", V)]
        width = pooled_width(3, method)
        for bad in ((2, 2), (1, 4), (-1, 2)):
            ranges = [[(0, 3)], [bad]]
            with pytest.raises(ValidationError, match=re.escape(str(bad))):
                encode_spans(seqs, ranges, p, method)
            with pytest.raises(ValidationError, match=re.escape(str(bad))):
                backward_spans(seqs, ranges, np.zeros((2, width)), p, method)

    def test_span_grads_shape_rejected(self):
        p = random_params(np.random.default_rng(15))
        seqs = [tokenize("a b", V), tokenize("c", V)]
        ranges = [[(0, 2), (1, 2)], [(0, 1)]]
        for shape in ((2, 6), (4, 6), (3, 3)):
            with pytest.raises(ValidationError, match="span gradients"):
                backward_spans(seqs, ranges, np.zeros(shape), p, FIRST_LAST)
        with pytest.raises(ValidationError, match="range lists"):
            encode_spans(seqs, ranges[:1], p, FIRST_LAST)
        with pytest.raises(ValidationError, match="range lists"):
            backward_spans(seqs, ranges[:1], np.zeros((2, 6)), p, FIRST_LAST)

    def test_unknown_pooling_rejected(self):
        p = random_params(np.random.default_rng(18))
        seqs, ranges = [tokenize("a b", V)], [[(0, 2)]]
        with pytest.raises(ValidationError, match="unknown pooling"):
            encode_spans(seqs, ranges, p, "max")
        with pytest.raises(ValidationError, match="unknown pooling"):
            backward_spans(seqs, ranges, np.zeros((1, 3)), p, "max")


class TestPoolBackward:
    def test_mean_scatter(self):
        g = pool_span_backward(np.array([6.0, 12.0]), (0, 3), MEAN, 4, 2)
        np.testing.assert_allclose(g, [[2, 4], [2, 4], [2, 4], [0, 0]])

    def test_first_last_scatter_single_token(self):
        g = pool_span_backward(np.array([1.0, 2.0, 3.0, 4.0]), (1, 2), FIRST_LAST, 3, 2)
        np.testing.assert_allclose(g, [[0, 0], [4, 6], [0, 0]])


class TestTwoEncoderIndependence:
    def test_mutating_one_leaves_other_untouched(self):
        mention = EncoderParams.init(64, 4, 2, seed=1)
        label = EncoderParams.init(64, 4, 2, seed=2)
        seq = tokenize("a stable probe text", 64)
        before = token_vectors(seq, label).tobytes()
        mention.table += 1.0
        mention.w_self *= -2.0
        assert token_vectors(seq, label).tobytes() == before


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        mention = EncoderParams.init(64, 4, 2, seed=3)
        label = EncoderParams.init(64, 4, 2, seed=4)
        path = tmp_path / "model.bin"
        key = save_checkpoint(path, mention, label)
        m2, l2, loaded_key = load_checkpoint(path)
        # both return the sha256 of the label encoder's bytes, the file's second half
        label_bytes = path.read_bytes()[18 + 4 * (64 * 4 + 2 * 4 * 4 + 4):]
        assert key == loaded_key == hashlib.sha256(label_bytes).digest()
        assert (m2.vocab_size, m2.dim, m2.window) == (64, 4, 2)
        np.testing.assert_allclose(m2.table, mention.table, atol=1e-6)
        np.testing.assert_allclose(l2.w_ctx, label.w_ctx, atol=1e-6)

    def test_header_layout(self, tmp_path):
        mention = EncoderParams.init(64, 4, 2, seed=3)
        label = EncoderParams.init(64, 4, 2, seed=4)
        path = tmp_path / "model.bin"
        save_checkpoint(path, mention, label)
        raw = path.read_bytes()
        assert raw[:6] == b"VRBED1"
        assert np.frombuffer(raw[6:18], dtype="<u4").tolist() == [64, 4, 2]
        tensor_floats = 2 * (64 * 4 + 4 * 4 + 4 * 4 + 4)
        assert len(raw) == 18 + 4 * tensor_floats

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    @pytest.mark.parametrize("encoder", ["mention", "label"])
    @pytest.mark.parametrize("tensor", ["table", "w_self", "w_ctx", "bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, -1e39],
                             ids=["nan", "inf", "-inf", "1e39", "-1e39"])
    def test_value_outside_float32_is_rejected_before_writing(
        self, tmp_path, encoder, tensor, value
    ):
        params = {"mention": EncoderParams.init(8, 2, 1, seed=0),
                  "label": EncoderParams.init(8, 2, 1, seed=1)}
        getattr(params[encoder], tensor).flat[-1] = value
        path = tmp_path / "model.bin"
        with pytest.raises(ValidationError, match=f"{encoder} encoder's {tensor} holds NaN"):
            save_checkpoint(path, params["mention"], params["label"])
        assert not path.exists()

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda raw: b"VRBXX1" + raw[6:], id="bad-magic"),
        pytest.param(lambda raw: raw[:6], id="no-header"),
        pytest.param(lambda raw: raw[:10], id="short-header"),
        pytest.param(lambda raw: raw[:-1], id="short-body"),
        pytest.param(lambda raw: raw + b"\x00", id="trailing-bytes"),
        pytest.param(lambda raw: raw[:-4] + np.float32(np.nan).tobytes(), id="nan"),
        pytest.param(lambda raw: raw[:18] + np.float32(np.inf).tobytes() + raw[22:],
                     id="inf"),
    ])
    def test_every_error_names_the_file(self, tmp_path, damage):
        path = tmp_path / "model.bin"
        save_checkpoint(path, EncoderParams.init(8, 2, 1, seed=0),
                        EncoderParams.init(8, 2, 1, seed=1))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValidationError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_short_read_is_validation_error(self):
        # a file that shrinks between its size check and the read
        with pytest.raises(ValidationError, match="truncated x: expected 8 bytes, got 5"):
            read_into(io.BytesIO(bytes(5)), np.empty(2, dtype="<f4"), "x")

    def test_loaded_tensors(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, EncoderParams.init(8, 2, 1, seed=0),
                        EncoderParams.init(8, 2, 1, seed=1))
        for p in load_checkpoint(path)[:2]:
            # the table is a read-only float32 view; the d×d tensors are widened
            assert p.table.dtype == np.float32
            with pytest.raises(ValueError, match="read-only"):
                p.table[0, 0] = 1.0
            for t in (p.w_self, p.w_ctx, p.bias):
                assert t.dtype == np.float64

    def test_float32_extremes_are_saved(self, tmp_path):
        mention = EncoderParams.init(8, 2, 1, seed=0)
        big = float(np.finfo(np.float32).max)
        mention.table[0, 0], mention.table[1, 1] = big, -big
        save_checkpoint(tmp_path / "model.bin", mention, EncoderParams.init(8, 2, 1, seed=1))
        loaded, _, _ = load_checkpoint(tmp_path / "model.bin")
        assert (loaded.table[0, 0], loaded.table[1, 1]) == (big, -big)

    def test_mismatched_hyperparams_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            save_checkpoint(
                tmp_path / "x.bin",
                EncoderParams.init(64, 4, 2, seed=0),
                EncoderParams.init(64, 8, 2, seed=0),
            )


def test_vocab_must_be_power_of_two():
    with pytest.raises(ValidationError):
        EncoderParams.init(60, 4, 2, seed=0)
