"""Tokenizer, encoder forward/backward, pooling, and checkpoint format."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualed.encoder import (
    _TOKEN_RUN,
    FIRST_LAST,
    MEAN,
    EncoderGrads,
    EncoderParams,
    _window_counts,
    _window_sums,
    encode,
    encoder_backward,
    fnv1a_64,
    load_checkpoint,
    pool_span,
    pool_span_backward,
    save_checkpoint,
    token_range,
    tokenize,
)
from dualed.errors import ValidationError

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


class TestEncodeForward:
    def test_identity_configuration(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, dim=4)
        p.w_self = np.eye(4)
        p.w_ctx = np.zeros((4, 4))
        p.bias = np.zeros(4)
        seq = tokenize("word", V)
        out = encode(seq, p)
        np.testing.assert_allclose(out[0], p.table[seq.token_ids[0]])

    def test_identical_tokens_identical_vectors(self):
        rng = np.random.default_rng(1)
        p = random_params(rng, dim=4, window=2)
        seq = tokenize("same same", V)
        out = encode(seq, p)
        np.testing.assert_allclose(out[0], out[1])

    def test_matches_stepwise_recomputation(self):
        # independent re-evaluation of the formula, token by token
        rng = np.random.default_rng(2)
        p = random_params(rng, dim=2, window=1)
        seq = random_seq(rng, 3)
        out = encode(seq, p)
        emb = [p.table[t] for t in seq.token_ids]
        for t in range(3):
            window = emb[max(0, t - 1):min(3, t + 2)]
            ctx = sum(window) / len(window)
            expected = p.w_self @ emb[t] + p.w_ctx @ ctx + p.bias
            np.testing.assert_allclose(out[t], expected, rtol=1e-12, atol=1e-12)

    def test_context_sensitivity(self):
        rng = np.random.default_rng(3)
        p = random_params(rng, dim=4, window=2)
        a = encode(tokenize("pivot alpha beta", V), p)
        b = encode(tokenize("pivot gamma delta", V), p)
        assert not np.allclose(a[0], b[0])

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValidationError):
            encode(tokenize("", V), random_params(rng))


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


def numerical_param_grads(seq, params, upstream, h=1e-5):
    """Central finite differences over every parameter tensor."""
    grads = {}
    for name in ("table", "w_self", "w_ctx", "bias"):
        tensor = getattr(params, name)
        grad = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + h
            up = float((encode(seq, params) * upstream).sum())
            tensor[idx] = orig - h
            down = float((encode(seq, params) * upstream).sum())
            tensor[idx] = orig
            grad[idx] = (up - down) / (2 * h)
        grads[name] = grad
    return grads


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
    counts = _window_counts(len(seq), params.window)
    ctx = _window_sums(emb, params.window) / counts[:, None]

    grads = EncoderGrads.zeros_like(params)
    grads.bias += upstream.sum(axis=0)
    grads.w_self += upstream.T @ emb
    grads.w_ctx += upstream.T @ ctx

    d_emb = upstream @ params.w_self
    d_ctx_scaled = (upstream @ params.w_ctx) / counts[:, None]
    d_emb = d_emb + _window_sums(d_ctx_scaled, params.window)
    np.add.at(grads.table, seq.token_ids, d_emb)
    return grads


class TestEncoderBackward:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(5)
        p = random_params(rng)
        seq = random_seq(rng, 4)
        grads = encoder_backward(seq, p, np.zeros((4, 3)))
        for t in (grads.table, grads.w_self, grads.w_ctx, grads.bias):
            assert not t.any()

    def test_bias_gradient_is_upstream_sum(self):
        rng = np.random.default_rng(6)
        p = random_params(rng)
        p.w_ctx = np.zeros((3, 3))
        seq = random_seq(rng, 1)
        upstream = rng.normal(size=(1, 3))
        grads = encoder_backward(seq, p, upstream)
        np.testing.assert_allclose(grads.bias, upstream[0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            dim = int(rng.integers(2, 9))
            p = random_params(rng, vocab=8, dim=dim, window=int(rng.integers(1, 4)))
            seq = random_seq(rng, int(rng.integers(1, 17)), vocab=8)
            upstream = rng.normal(size=(len(seq), dim))
            analytic = encoder_backward(seq, p, upstream)
            numeric = numerical_param_grads(seq, p, upstream)
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
        grads = encoder_backward(seq, p, upstream)
        numeric = numerical_param_grads(seq, p, upstream)
        assert relative_error(dense_table(grads, V), numeric["table"]) <= 1e-4

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        p = random_params(rng)
        with pytest.raises(ValidationError):
            encoder_backward(random_seq(rng, 4), p, np.zeros((3, 3)))

    def test_rows_are_sorted_unique_token_ids(self):
        rng = np.random.default_rng(10)
        p = random_params(rng, vocab=8)
        seq = random_seq(rng, 12, vocab=8)
        grads = encoder_backward(seq, p, rng.normal(size=(12, 3)))
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
            sparse = encoder_backward(seq, p, upstream)
            dense = reference_encoder_backward(seq, p, upstream)
            assert np.array_equal(dense_table(sparse, vocab), dense.table), trial
            for name in ("w_self", "w_ctx", "bias"):
                assert np.array_equal(getattr(sparse, name), getattr(dense, name)), name
        assert repeated >= 50


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
        before = encode(seq, label).tobytes()
        mention.table += 1.0
        mention.w_self *= -2.0
        assert encode(seq, label).tobytes() == before


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        mention = EncoderParams.init(64, 4, 2, seed=3)
        label = EncoderParams.init(64, 4, 2, seed=4)
        path = tmp_path / "model.bin"
        save_checkpoint(path, mention, label)
        m2, l2 = load_checkpoint(path)
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
