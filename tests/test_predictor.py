"""One-shot prediction, text insertion mechanics, and the iterative loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracemalloc

from dualed.corpus import Document, EntityRecord, Mention
from dualed.encoder import EncoderParams, encode_spans, token_range, tokenize
from dualed.errors import ValidationError
from dualed.label_index import LabelCache, allowed_rows, build_cache, tokenize_labels
from dualed.losses import SIMILARITY_KINDS, SimilaritySpec
from dualed.predictor import (
    _WINDOW,
    PredictionState,
    insert_verbalization,
    insertion_text,
    iterate_chunks,
    predict_chunks,
    predict_corpus,
    target_label_set,
)
from dualed.synthetic import make_task
from dualed.trainer import TrainConfig
from dualed.verbalizer import verbalize_all
from oracles import (
    SplicedText,
    predict_corpus_one,
    predict_document_one,
    predict_iterative_one,
)
from strategies import documents

LIMITS = TrainConfig().limits

EUCLIDEAN = SimilaritySpec(kind="euclidean")


def doc_with(text, spans):
    mentions = [
        Mention(start=s, end=e, gold_label=g, surface=text[s:e]) for s, e, g in spans
    ]
    return Document(id="d", text=text, mentions=mentions)


def identity_params(table, window=8):
    dim = table.shape[1]
    return EncoderParams(
        table=table, w_self=np.eye(dim), w_ctx=np.eye(dim),
        bias=np.zeros(dim), window=window,
    )


class TestInsertVerbalization:
    def test_description_in_parentheses(self):
        doc = doc_with("Peggy Olson is awesome", [(0, 11, "Peggy_Olson")])
        state = PredictionState.for_document(doc)
        insert_verbalization(state, 0, "fictional character from Mad Men")
        assert state.render() == (
            "Peggy Olson (fictional character from Mad Men) is awesome", [(0, 11)]
        )
        assert state.text == doc.text

    def test_title_fallback_without_description(self):
        rec = EntityRecord(id="John_Major", title="John Major")
        assert insertion_text(rec) == "John Major"
        rec2 = EntityRecord(id="x", title="T", description="a description")
        assert insertion_text(rec2) == "a description"

    def test_downstream_offsets_shift(self):
        doc = doc_with("aa and bb end", [(0, 2, "A"), (7, 9, "B")])
        state = PredictionState.for_document(doc)
        insert_verbalization(state, 0, "left")
        # " (left)" is 7 chars; the right mention moved by that much
        text, spans = state.render()
        assert spans == [(0, 2), (14, 16)]
        assert text[14:16] == "bb"
        insert_verbalization(state, 1, "right")
        assert state.render() == ("aa (left) and bb (right) end", [(0, 2), (14, 16)])

    def test_double_insertion_rejected(self):
        doc = doc_with("aa bb", [(0, 2, "A")])
        state = PredictionState.for_document(doc)
        insert_verbalization(state, 0, "x")
        with pytest.raises(ValidationError):
            insert_verbalization(state, 0, "y")

    @settings(max_examples=400, deadline=None)
    @given(doc=documents(alphabet="aé𝔸 \n()"), data=st.data())
    def test_render_matches_the_splice(self, doc, data):
        """Random insertion orders, adjacent mentions, mentions that end
        inside a token, non-ASCII text: render equals splicing each
        insertion into the text, every working span selects its mention's
        surface, and cutting each insertion out gives back the text."""
        state = PredictionState.for_document(doc)
        splice = SplicedText(doc.text, doc.mentions)
        order = data.draw(st.permutations(range(len(doc.mentions))))
        count = data.draw(st.integers(0, len(order)))
        for slot_index in order[:count]:
            inserted = data.draw(st.text(alphabet="aé𝔸 ()", max_size=8))
            insert_verbalization(state, slot_index, inserted)
            splice.insert(slot_index, inserted)
            text, spans = state.render()
            assert (text, spans) == (splice.text, splice.spans)
            for m, (s, e) in zip(doc.mentions, spans):
                assert text[s:e] == m.surface
            for slot, (_, e) in reversed(list(zip(state.slots, spans))):
                if slot.inserted is not None:
                    cut = f" ({slot.inserted})"
                    assert text[e:e + len(cut)] == cut
                    text = text[:e] + text[e + len(cut):]
            assert text == doc.text == splice.strip()
        assert [slot.inserted is not None for slot in state.slots] == [
            i in order[:count] for i in range(len(doc.mentions))
        ]


def build_fixture():
    """Labels, params, and cache where context decides the nearest label."""
    vocab = 256
    text = "aaa likes bbb"
    seq = tokenize(text, vocab)
    table = np.zeros((vocab, 2))
    tok = lambda word: int(tokenize(word, vocab).token_ids[0])
    table[tok("aaa")] = [1.0, 0.0]
    table[tok("bbb")] = [0.0, 1.0]
    table[tok("shift")] = [8.0, 8.0]
    params = identity_params(table)

    records = {
        "LA": EntityRecord(id="LA", title="Label A", description="shift"),
        "L1": EntityRecord(id="L1", title="Label One"),
        "L2": EntityRecord(id="L2", title="Label Two"),
    }
    doc = doc_with(text, [(0, 3, "LA"), (10, 13, "L2")])

    seq2 = tokenize("aaa (shift) likes bbb", vocab)
    anchor_a, anchor_b1, anchor_b2 = encode_spans(
        [seq, seq2],
        [[token_range(seq, (0, 3)), token_range(seq, (10, 13))],
         [token_range(seq2, (18, 21))]],
        params, "mean",
    )

    matrix = np.vstack([anchor_a, anchor_b1 + [0.05, 0.0], anchor_b2])
    cache = LabelCache(ids=["LA", "L1", "L2"], matrix=matrix,
                       pooling="mean", sim_spec=EUCLIDEAN)
    return doc, params, cache, records


class TestPredictDocument:
    def test_empty_document(self):
        rng = np.random.default_rng(0)
        params = identity_params(rng.normal(size=(64, 2)))
        cache = LabelCache(ids=["x"], matrix=np.zeros((1, 2)),
                           pooling="mean", sim_spec=EUCLIDEAN)
        assert predict_chunks([doc_with("no mentions here", [])], params, cache) == [[]]

    def test_singleton_restriction_forces_gold(self):
        doc, params, cache, _ = build_fixture()
        [preds] = predict_chunks([doc], params, cache, allowed_rows(cache, {"L1"}))
        assert all(p.predicted_id == "L1" for p in preds)

    def test_exact_cache_row_scores_zero(self):
        doc, params, cache, _ = build_fixture()
        [preds] = predict_chunks([doc], params, cache)
        assert preds[0].predicted_id == "LA"
        assert preds[0].score == pytest.approx(0.0, abs=1e-12)


class TestPredictIterative:
    def test_single_mention_equals_one_shot(self):
        task = make_task(n_entities=12, n_surfaces=4, train_mentions=0,
                         dev_mentions=30, max_mentions_per_doc=1, seed=3)
        params = EncoderParams.init(1 << 12, 8, 3, seed=0)
        label_params = EncoderParams.init(1 << 12, 8, 3, seed=1)
        from dualed.label_index import LabelCache as LC, full_refresh, tokenize_labels

        verbs = verbalize_all(task.records, "title_desc")
        cache = LC.empty(sorted(task.records), 8, "first_last", EUCLIDEAN)
        full_refresh(cache, label_params, tokenize_labels(verbs, 1 << 12))
        results = iterate_chunks(task.dev_docs, params, cache, task.records)
        one_shots = predict_chunks(task.dev_docs, params, cache)
        for result, one_shot in zip(results, one_shots):
            assert result.iterations == 1
            assert [p.predicted_id for p in result.predictions] == [
                p.predicted_id for p in one_shot
            ]
            assert [p.score for p in result.predictions] == [p.score for p in one_shot]

    def test_nine_mentions_three_iterations(self):
        doc, params, cache, records = build_fixture()
        words = " ".join(["aaa"] * 9)
        spans = [(4 * i, 4 * i + 3, "LA") for i in range(9)]
        nine = doc_with(words, spans)
        [result] = iterate_chunks([nine], params, cache, records)
        assert result.iterations == 3

    def test_insertion_flips_neighbor_prediction(self):
        doc, params, cache, records = build_fixture()
        [one_shot] = predict_chunks([doc], params, cache)
        assert one_shot[1].predicted_id == "L1"
        [result] = iterate_chunks([doc], params, cache, records)
        assert result.iterations == 2
        assert result.first_pass[1].predicted_id == "L1"
        assert result.predictions[1].predicted_id == "L2"
        assert result.predictions[0].predicted_id == "LA"

    def test_invariants_on_random_documents(self):
        task = make_task(n_entities=12, n_surfaces=4, train_mentions=0,
                         dev_mentions=120, max_mentions_per_doc=6, seed=5)
        params = EncoderParams.init(1 << 12, 6, 3, seed=7)
        label_params = EncoderParams.init(1 << 12, 6, 3, seed=8)
        from dualed.label_index import LabelCache as LC, full_refresh, tokenize_labels

        verbs = verbalize_all(task.records, "title_desc")
        cache = LC.empty(sorted(task.records), 6, "mean", EUCLIDEAN)
        full_refresh(cache, label_params, tokenize_labels(verbs, 1 << 12))
        results = iterate_chunks(task.dev_docs, params, cache, task.records)
        for doc, result in zip(task.dev_docs, results):
            assert 1 <= result.iterations <= len(doc.mentions)
            for first, last in zip(result.first_pass, result.predictions):
                assert last.score >= first.score


class TestPredictCorpus:
    def test_keys_use_global_offsets(self):
        doc, params, cache, records = build_fixture()
        preds = predict_corpus([doc], params, cache, records, limits=(100, 2800))
        assert set(preds.final) == {("d", 0, 3), ("d", 10, 13)}

    def test_chunked_document_keys_translated(self):
        # force two chunks and check offsets survive the round trip
        text = " ".join(f"tok{i}" for i in range(40))
        start = text.index("tok30")
        doc = doc_with(text, [(0, 4, "A"), (start, start + 5, "B")])
        rng = np.random.default_rng(1)
        params = identity_params(rng.normal(size=(256, 2)), window=2)
        cache = LabelCache(ids=["A", "B"], matrix=rng.normal(size=(2, 2)),
                           pooling="mean", sim_spec=EUCLIDEAN)
        preds = predict_corpus([doc], params, cache, limits=(1, 10**6))
        assert set(preds.final) == {("d", 0, 4), ("d", start, start + 5)}


# ── windowed prediction against the per-chunk oracle ────────────────────────

WORDS = [f"w{i}" for i in range(40)]


def seeded_records(n, rng):
    """Labels whose descriptions (the inserted text) vary in length."""
    return {
        f"L{i}": EntityRecord(
            id=f"L{i}", title=f"Label {WORDS[i % len(WORDS)]}",
            description=" ".join(rng.choice(WORDS, size=int(rng.integers(0, 6)))) or None,
        )
        for i in range(n)
    }


def seeded_document(doc_id, mentions, filler, rng, golds, vocab=WORDS):
    """``mentions`` one-word mentions, each after ``filler`` words: the token
    count depends on the two counts alone. A small ``vocab`` repeats
    contexts, so that mentions tie on score."""
    words, spans, pos = [], [], 0
    for _ in range(mentions):
        for word in [*rng.choice(vocab, size=filler), rng.choice(vocab)]:
            words.append(word)
            pos += len(word) + 1
        spans.append((pos - len(words[-1]) - 1, pos - 1, str(rng.choice(golds))))
    words.append("end")
    doc = doc_with(" ".join(words), spans)
    doc.id = doc_id
    return doc


def seeded_model(records, dim, pooling, kind, seed):
    params = EncoderParams.init(256, dim, 2, seed=seed)
    label_params = EncoderParams.init(256, dim, 2, seed=seed + 1)
    tokens = tokenize_labels(verbalize_all(records, "title_desc"), 256)
    cache = build_cache(sorted(records), label_params, tokens, pooling,
                        SimilaritySpec(kind=kind))
    return params, cache


@st.composite
def windowed_corpora(draw):
    """Documents of 0-120 mentions that span at least three windows.

    Every shape (mention count, filler) is drawn one to three times, so
    chunks share token counts and encode blocks hold several chunks; the
    first shape always repeats. Documents over 100 mentions split into
    chunks; chunks of up to 100 mentions split across scoring blocks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = [(draw(st.integers(1, 100)), draw(st.integers(0, 2)), draw(st.integers(2, 3)))]
    shapes += draw(st.lists(st.tuples(st.integers(0, 120), st.integers(0, 2),
                                      st.integers(1, 3)), max_size=6))
    while sum(n * copies for n, _, copies in shapes) <= 2 * _WINDOW:
        shapes.append((draw(st.integers(1, 100)), draw(st.integers(0, 2)), 1))
    records = seeded_records(25, rng)
    golds = sorted(records)[:10]
    vocab = WORDS[:draw(st.sampled_from([2, len(WORDS)]))]
    docs = [
        seeded_document(f"d{len(shapes)}-{i}-{c}", n, filler, rng, golds, vocab)
        for i, (n, filler, copies) in enumerate(shapes) for c in range(copies)
    ]
    order = draw(st.permutations(range(len(docs))))
    return [docs[i] for i in order], records


def hexed(preds):
    return {key: (p.predicted_id, p.score.hex(), preds.iterations[key])
            for key, p in preds.final.items()}


class TestWindowedPredictionMatchesPerChunkOracle:
    @settings(max_examples=25, deadline=None)
    @given(corpus=windowed_corpora(), pooling=st.sampled_from(["mean", "first_last"]),
           kind=st.sampled_from(SIMILARITY_KINDS), dim=st.sampled_from([3, 8]),
           seed=st.integers(0, 100))
    def test_all_modes(self, corpus, pooling, kind, dim, seed):
        docs, records = corpus
        params, cache = seeded_model(records, dim, pooling, kind, seed)
        targets = target_label_set(docs, cache)
        for iterative, allowed in ((False, None), (True, None), (False, targets)):
            got = predict_corpus(docs, params, cache, records, limits=LIMITS,
                                 iterative=iterative, allowed_ids=allowed)
            want = predict_corpus_one(docs, params, cache, records, LIMITS,
                                      iterative=iterative, allowed_ids=allowed)
            assert list(got.final) == list(want.final)
            assert hexed(got) == hexed(want)

    def test_one_chunk_calls_match_the_oracle(self):
        rng = np.random.default_rng(0)
        records = seeded_records(12, rng)
        params, cache = seeded_model(records, 4, "first_last", "euclidean", 3)
        restricted = allowed_rows(cache, set(sorted(records)[3:8]))
        for n in (0, 1, 7, 70):
            doc = seeded_document("d", n, 1, rng, sorted(records))
            for rows in (None, restricted):
                [got] = predict_chunks([doc], params, cache, rows)
                want = predict_document_one(doc, params, cache, rows)
                assert [(p.predicted_id, p.score.hex()) for p in got] == [
                    (p.predicted_id, p.score.hex()) for p in want]
                [got] = iterate_chunks([doc], params, cache, records, rows)
                want = predict_iterative_one(doc, params, cache, records, rows)
                assert got.iterations == want.iterations
                assert got.state.render() == (want.state.text, want.state.spans)
                for a, b in ((got.predictions, want.predictions),
                             (got.first_pass, want.first_pass)):
                    assert [(p.predicted_id, p.score.hex()) for p in a] == [
                        (p.predicted_id, p.score.hex()) for p in b]


class TestWindowedPredictionMemory:
    """Prediction holds one window of chunks at a time, so its peak memory
    grows with the corpus by little more than the predictions it returns."""

    @staticmethod
    def peak_bytes(docs, params, cache, records, iterative):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            predict_corpus(docs, params, cache, records, limits=LIMITS, iterative=iterative)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("iterative", [False, True])
    def test_peak_is_bounded_by_the_window(self, iterative):
        rng = np.random.default_rng(11)
        records = seeded_records(200, rng)
        params, cache = seeded_model(records, 16, "mean", "euclidean", 5)
        docs = [seeded_document(f"d{i}", 2, 60, rng, sorted(records)) for i in range(2000)]
        small = self.peak_bytes(docs[:250], params, cache, records, iterative)
        large = self.peak_bytes(docs, params, cache, records, iterative)
        assert large <= 1.5 * small, (small, large)


class TestTargetLabelSet:
    def test_intersects_with_cache(self):
        cache = LabelCache(ids=["A", "B"], matrix=np.zeros((2, 2)),
                           pooling="mean", sim_spec=EUCLIDEAN)
        docs = [doc_with("xx yy", [(0, 2, "A"), (3, 5, "GHOST")])]
        assert target_label_set(docs, cache) == {"A"}

    def test_all_missing_rejected(self):
        cache = LabelCache(ids=["A"], matrix=np.zeros((1, 2)),
                           pooling="mean", sim_spec=EUCLIDEAN)
        with pytest.raises(ValidationError):
            target_label_set([doc_with("xx", [(0, 2, "GHOST")])], cache)
