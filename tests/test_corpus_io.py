"""Loader validation and chunking contracts."""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualed.corpus import (
    Document,
    Mention,
    chunk_document,
    flag_unlinkable,
    load_corpus,
    load_label_set,
)
from dualed.errors import ValidationError
from dualed.trainer import parse_config_file
from dualed.verbalizer import FORMAT_NAMES
from strategies import documents


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def make_doc(doc_id, text, spans):
    mentions = [
        Mention(start=s, end=e, gold_label=g, surface=text[s:e]) for s, e, g in spans
    ]
    return Document(id=doc_id, text=text, mentions=mentions)


class TestLoadCorpus:
    def test_single_document(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [{"id": "d1", "text": "Italy won.",
              "mentions": [{"start": 0, "end": 5, "label": "Italy"}]}],
        )
        docs = load_corpus(path)
        assert len(docs) == 1
        assert docs[0].mentions[0].surface == "Italy"
        assert docs[0].mentions[0].gold_label == "Italy"

    def test_start_after_end_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [{"id": "d1", "text": "abcdef",
              "mentions": [{"start": 3, "end": 1, "label": "x"}]}],
        )
        with pytest.raises(ValidationError, match="start >= end"):
            load_corpus(path)

    def test_two_lines_order_preserved(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [{"id": "a", "text": "one", "mentions": []},
             {"id": "b", "text": "two", "mentions": []}],
        )
        assert [d.id for d in load_corpus(path)] == ["a", "b"]

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "one", "mentions": []}\n{broken\n')
        with pytest.raises(ValidationError, match="line 2"):
            load_corpus(path)

    def test_overlap_names_document(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [{"id": "doc7", "text": "abcdefgh",
              "mentions": [{"start": 0, "end": 4, "label": "x"},
                           {"start": 2, "end": 6, "label": "y"}]}],
        )
        with pytest.raises(ValidationError, match="doc7"):
            load_corpus(path)

    def test_offset_beyond_text_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [{"id": "d", "text": "ab",
              "mentions": [{"start": 0, "end": 5, "label": "x"}]}],
        )
        with pytest.raises(ValidationError, match="outside text"):
            load_corpus(path)

    def test_offsets_are_codepoints_not_bytes(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        text = "Ändern käme früh"
        write_jsonl(
            path,
            [{"id": "d", "text": text,
              "mentions": [{"start": 7, "end": 11, "label": "x"}]}],
        )
        docs = load_corpus(path)
        assert docs[0].mentions[0].surface == "käme"


class TestLoadLabelSet:
    def test_full_record(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_jsonl(
            path,
            [{"id": "Albert_Einstein", "title": "Albert Einstein",
              "description": "German-born theoretical physicist (1879–1955)",
              "categories": {"occupation": ["physicist", "scientist"]},
              "paragraph": None}],
        )
        records = load_label_set(path)
        rec = records["Albert_Einstein"]
        assert rec.description == "German-born theoretical physicist (1879–1955)"
        assert rec.categories["occupation"] == ["physicist", "scientist"]
        assert rec.paragraph is None

    def test_minimal_record(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_jsonl(path, [{"id": "Italy", "title": "Italy"}])
        rec = load_label_set(path)["Italy"]
        assert rec.description is None
        assert rec.categories == {}
        assert rec.paragraph is None

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_jsonl(
            path,
            [{"id": "Italy", "title": "Italy"},
             {"id": "Italy", "title": "Italy again"}],
        )
        with pytest.raises(ValidationError, match=r"lines 1 and 2"):
            load_label_set(path)

    def test_unknown_relation_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_jsonl(
            path,
            [{"id": "x", "title": "X", "categories": {"color": ["red"]}}],
        )
        with pytest.raises(ValidationError, match="color"):
            load_label_set(path)


class TestStringFields:
    def test_number_ids_and_labels_keep_their_string_form(self, tmp_path):
        write_jsonl(tmp_path / "labels.jsonl", [
            {"id": 7, "title": "Seven", "categories": {"country": [1.5, "x"]}},
        ])
        write_jsonl(tmp_path / "corpus.jsonl", [
            {"id": 3, "text": "a b", "mentions": [{"start": 0, "end": 1, "label": 7}]},
        ])
        records = load_label_set(tmp_path / "labels.jsonl")
        assert list(records) == ["7"]
        assert records["7"].categories == {"country": ["1.5", "x"]}
        [doc] = load_corpus(tmp_path / "corpus.jsonl")
        assert (doc.id, doc.mentions[0].gold_label) == ("3", "7")

    def test_missing_key_named(self, tmp_path):
        write_jsonl(tmp_path / "labels.jsonl", [{"title": "A"}])
        with pytest.raises(ValidationError, match="line 1: missing key 'id'"):
            load_label_set(tmp_path / "labels.jsonl")


class TestTextEncoding:
    """Inputs are UTF-8: an undecodable byte or a lone surrogate escape is a
    ValidationError naming the file and the line."""

    def test_undecodable_byte_names_its_line_past_the_read_ahead(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [json.dumps({"id": f"d{i}", "text": "x" * 20000}) for i in range(3)]
        path.write_bytes("\n".join(rows).encode() + b'\n{"id": "d\xff", "text": "a"}\n')
        with pytest.raises(ValidationError, match=f"{path}: line 4: not UTF-8"):
            load_corpus(path)

    def test_undecodable_config_line(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_bytes(b"epochs=1\r\nseed=1\rsim=\xc3\n")
        with pytest.raises(ValidationError, match=f"{path}: line 3: not UTF-8"):
            parse_config_file(path)

    def test_surrogate_pairs_load(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"id": "a", "title": "x\\ud83d\\ude00", '
                        '"categories": {"country": ["\\u00e9"]}}\n')
        [record] = load_label_set(path).values()
        assert (record.title, record.categories) == ("x\U0001F600", {"country": ["\u00e9"]})

    @pytest.mark.parametrize("row, key", [
        ('{"id": "a", "text": "\\udc00x"}', "'text'"),
        ('{"id": "a", "text": "x\\ud83d"}', "'text'"),
        ('{"id": "a", "text": "x", "mentions": [], "extra": [{"\\ud800": 1}]}',
         "'\\ud800'"),  # the key itself, escaped by repr
    ])
    def test_lone_surrogate_names_line_and_key(self, tmp_path, row, key):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "ok", "text": "\\ud83d\\ude00"}\n' + row + "\n")
        with pytest.raises(ValidationError, match=re.escape(f"line 2: {key} holds a lone")):
            load_corpus(path)


class TestFlagUnlinkable:
    def test_flags_missing_golds(self):
        doc = make_doc("d", "a b c", [(0, 1, "known"), (2, 3, "ghost")])
        assert flag_unlinkable([doc], {"known"}) == 1
        assert [m.unlinkable for m in doc.mentions] == [False, True]


class TestChunkDocument:
    def test_document_within_limits_is_identity(self):
        doc = make_doc("d", "Italy won the cup", [(0, 5, "Italy")])
        chunks = chunk_document(doc, max_mentions=100, max_chars=2800)
        assert len(chunks) == 1
        assert chunks[0].text == doc.text
        assert chunks[0].parent_offset == 0
        assert chunks[0].mentions[0].start == 0

    def test_mention_count_split(self):
        words, spans = [], []
        pos = 0
        for i in range(150):
            w = f"m{i:03d}"
            words.append(w)
            spans.append((pos, pos + len(w), f"E{i}"))
            pos += len(w) + 1
        doc = make_doc("d", " ".join(words), spans)
        chunks = chunk_document(doc, max_mentions=100, max_chars=10**6)
        assert [len(c.mentions) for c in chunks] == [100, 50]

    def test_whitespace_split_roundtrip(self):
        # ten 5-char words, 59 chars; the greedy rule cuts at the space at
        # index 29 leaving two 29-char chunks
        text = " ".join(["aaaaa"] * 10)
        assert len(text) == 59
        doc = make_doc("d", text, [])
        chunks = chunk_document(doc, max_mentions=10, max_chars=30)
        assert [len(c.text) for c in chunks] == [29, 29]
        assert all(len(c.text) <= 30 for c in chunks)
        assert " ".join(c.text for c in chunks) == text

    def test_never_splits_inside_mention(self):
        # mention straddles the 10-char limit; the cut must back off
        text = "aaaa bb New York cc dd"
        start = text.index("New York")
        doc = make_doc("d", text, [(start, start + 8, "NY")])
        chunks = chunk_document(doc, max_mentions=10, max_chars=10)
        for c in chunks:
            for m in c.mentions:
                assert c.text[m.start:m.end] == m.surface
        joined = [m.gold_label for c in chunks for m in c.mentions]
        assert joined == ["NY"]

    def test_hard_split_without_whitespace(self):
        doc = make_doc("d", "x" * 25, [])
        chunks = chunk_document(doc, max_mentions=10, max_chars=10)
        assert [c.text for c in chunks] == ["x" * 10, "x" * 10, "x" * 5]

    def test_oversized_mention_rejected(self):
        doc = make_doc("d", "abcdefghij", [(0, 10, "x")])
        with pytest.raises(ValidationError, match="longer"):
            chunk_document(doc, max_mentions=10, max_chars=5)

    def test_roundtrip_property_random_docs(self):
        # flattening chunk mention lists restores the original sequence,
        # global offsets included, for randomized documents
        rng = np.random.default_rng(7)
        for _ in range(60):
            n_words = int(rng.integers(1, 120))
            words = [
                "w" * int(rng.integers(1, 8)) + str(int(rng.integers(10)))
                for _ in range(n_words)
            ]
            text = " ".join(words)
            spans = []
            pos = 0
            for w in words:
                if rng.random() < 0.3:
                    spans.append((pos, pos + len(w), f"E{int(rng.integers(5))}"))
                pos += len(w) + 1
            doc = make_doc("d", text, spans)
            max_chars = int(rng.integers(12, 60))
            if any(e - s > max_chars for s, e, _ in spans):
                continue
            chunks = chunk_document(doc, int(rng.integers(1, 6)), max_chars)
            restored = [
                (m.start + c.parent_offset, m.end + c.parent_offset,
                 m.gold_label, m.surface)
                for c in chunks
                for m in c.mentions
            ]
            expected = [(m.start, m.end, m.gold_label, m.surface) for m in doc.mentions]
            assert restored == expected
            for c in chunks:
                assert len(c.text) <= max_chars
                assert doc.text[c.parent_offset:c.parent_offset + len(c.text)] == c.text

    @settings(max_examples=400, deadline=None)
    @given(doc=documents(alphabet="abcdefg "), max_mentions=st.integers(1, 6),
           max_chars=st.integers(1, 60))
    def test_roundtrip_property(self, doc, max_mentions, max_chars):
        assume(all(m.end - m.start <= max_chars for m in doc.mentions))
        chunks = chunk_document(doc, max_mentions, max_chars)
        restored = []
        for c in chunks:
            assert len(c.text) <= max_chars
            assert len(c.mentions) <= max_mentions
            assert doc.text[c.parent_offset:c.parent_offset + len(c.text)] == c.text
            for m in c.mentions:
                start, end = m.start + c.parent_offset, m.end + c.parent_offset
                assert c.text[m.start:m.end] == doc.text[start:end] == m.surface
                restored.append((start, end, m.gold_label))
        # every mention in exactly one chunk, in document order
        assert restored == [(m.start, m.end, m.gold_label) for m in doc.mentions]

    def test_deterministic(self):
        doc = make_doc("d", " ".join(["word"] * 40), [])
        a = chunk_document(doc, 5, 37)
        b = chunk_document(doc, 5, 37)
        assert [c.text for c in a] == [c.text for c in b]


# ── rows of any JSON shape ───────────────────────────────────────────────────

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def objects(**fields):
    """JSON objects in which each key is absent, holds a value of its
    field's shape, or holds any JSON value."""
    return st.fixed_dictionaries(
        {}, optional={key: shape | json_values for key, shape in fields.items()}
    )


def rows(row_shape):
    """One to three JSONL rows, each of the row shape or any JSON value."""
    return st.lists(row_shape | json_values, min_size=1, max_size=3)


def not_a_name(value):
    """An id, label or category value that is neither a string nor a number."""
    return isinstance(value, (bool, list, dict)) or value is None


def wrong_label_row(row):
    """A label row that holds a value of the wrong shape where a string goes."""
    if not isinstance(row, dict):
        return False
    categories = row.get("categories")
    values = [v for vs in categories.values() if isinstance(vs, list) for v in vs] \
        if isinstance(categories, dict) else []
    return (("id" in row and not_a_name(row["id"]))
            or ("title" in row and not isinstance(row["title"], str))
            or any(not_a_name(v) for v in values))


def not_an_offset(row, key):
    """A present ``start`` or ``end`` that is not a JSON integer."""
    return key in row and (isinstance(row[key], bool) or not isinstance(row[key], int))


def wrong_corpus_row(row):
    """A corpus row that holds a value of the wrong shape where a string or
    a mention offset goes."""
    if not isinstance(row, dict):
        return False
    mentions = row.get("mentions")
    mentions = [m for m in mentions if isinstance(m, dict)] \
        if isinstance(mentions, list) else []
    return (("id" in row and not_a_name(row["id"]))
            or ("text" in row and not isinstance(row["text"], str))
            or any("label" in m and not_a_name(m["label"]) for m in mentions)
            or any(not_an_offset(m, key) for m in mentions for key in ("start", "end")))


def wrong_prediction_row(row):
    """A prediction row whose ``start`` or ``end`` is not a JSON integer."""
    return isinstance(row, dict) and any(not_an_offset(row, k) for k in ("start", "end"))


label_rows = objects(
    id=st.sampled_from(["A", "B"]),
    title=st.text("ab ", max_size=6),
    description=st.text("ab ", max_size=8),
    paragraph=st.text("ab ", max_size=8),
    categories=st.dictionaries(
        st.sampled_from(["instance_of", "country", "color"]),
        st.lists(st.text("ab", max_size=3), max_size=2) | json_values,
        max_size=2,
    ),
)


def offsets(lo, hi):
    """Offsets in [lo, hi], often as a float, boolean or string that an
    int() call would take for one."""
    near = st.floats(lo, hi) | st.booleans() | st.integers(lo, hi).map(str)
    return st.integers(lo, hi) | near


corpus_rows = objects(
    id=st.sampled_from(["d", "e"]),
    text=st.text("ab !", max_size=12),
    mentions=st.lists(
        objects(start=offsets(-1, 12), end=offsets(-1, 12),
                label=st.sampled_from(["A", "B", "Z"])),
        max_size=3,
    ),
)
prediction_rows = objects(
    doc=st.just("d"), start=offsets(0, 4), end=offsets(0, 4),
    pred=st.sampled_from(["A", "B"]),
)


@pytest.fixture(scope="module")
def row_inputs(tmp_path_factory):
    """A small label set, gold corpus and model for the row-shape runs."""
    from dualed.encoder import EncoderParams, save_checkpoint

    root = tmp_path_factory.mktemp("rows")
    write_jsonl(root / "labels.jsonl", [{"id": "A", "title": "a"}, {"id": "B", "title": "b"}])
    write_jsonl(root / "gold.jsonl", [{"id": "d", "text": "a b",
                                       "mentions": [{"start": 0, "end": 1, "label": "A"}]}])
    params = [EncoderParams.init(16, 2, 1, seed=s) for s in (0, 1)]
    save_checkpoint(root / "model.bin", *params)
    (root / "config.txt").write_text("verbalization=title\n")
    return root


class TestRowShapes:
    """Every reader, fed rows of any JSON shape, either accepts them or
    exits 1 with a ValidationError; nothing exits 2."""

    @staticmethod
    def run_with(root, rows_, *argv):
        from dualed.cli import main

        with open(root / "rows.jsonl", "w", encoding="utf-8") as fh:
            for row in rows_:
                fh.write(json.dumps(row) + "\n")
        return main([str(a) for a in argv])

    @settings(max_examples=150, deadline=None)
    @given(rows_=rows(label_rows), fmt=st.sampled_from(FORMAT_NAMES))
    def test_label_set_rows(self, row_inputs, rows_, fmt):
        code = self.run_with(row_inputs, rows_, "verbalize", "--labels",
                             row_inputs / "rows.jsonl", "--format", fmt,
                             "--out", row_inputs / "out.jsonl")
        assert code in (0, 1)
        if any(wrong_label_row(row) for row in rows_):
            assert code == 1

    @settings(max_examples=150, deadline=None)
    @given(rows_=rows(corpus_rows))
    def test_corpus_rows(self, row_inputs, rows_):
        code = self.run_with(row_inputs, rows_, "predict", "--corpus",
                             row_inputs / "rows.jsonl", "--labels",
                             row_inputs / "labels.jsonl", "--checkpoint",
                             row_inputs / "model.bin", "--out", row_inputs / "out.jsonl")
        assert code in (0, 1)
        if any(wrong_corpus_row(row) for row in rows_):
            assert code == 1

    @settings(max_examples=150, deadline=None)
    @given(rows_=rows(prediction_rows))
    def test_prediction_rows(self, row_inputs, rows_):
        code = self.run_with(row_inputs, rows_, "eval", "--pred", row_inputs / "rows.jsonl",
                             "--gold-corpus", row_inputs / "gold.jsonl")
        assert code in (0, 1)
        if any(wrong_prediction_row(row) for row in rows_):
            assert code == 1
