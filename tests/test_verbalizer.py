"""Verbalization rendering, golden strings, and truncation properties."""

import numpy as np
import pytest

from dualed.corpus import RELATION_KEYS, EntityRecord
from dualed.errors import ValidationError
from dualed.verbalizer import truncate_soft, verbalize, verbalize_all

EINSTEIN = EntityRecord(
    id="Albert_Einstein",
    title="Albert Einstein",
    description="German-born theoretical physicist (1879–1955)",
    categories={"occupation": ["physicist", "scientist"]},
    paragraph=(
        "Albert Einstein was a German-born theoretical physicist who is "
        "best known for developing the theory of relativity."
    ),
)

WEMBLEY = EntityRecord(
    id="Wembley_Stadium",
    title="Wembley Stadium",
    description="football stadium in London, England",
    categories={
        "instance_of": ["multi-purpose sports venue"],
        "country": ["United Kingdom"],
    },
)


class TestGoldenRenderings:
    def test_einstein_title_desc_cat(self):
        out = verbalize(EINSTEIN, "title_desc_cat")
        assert out.text == (
            "Albert Einstein; German-born theoretical physicist (1879–1955), "
            "occupation: physicist, scientist"
        )

    def test_title_only_identity(self):
        out = verbalize(EntityRecord(id="Italy", title="Italy"), "title")
        assert out.text == "Italy"

    def test_wembley_title_cat(self):
        out = verbalize(WEMBLEY, "title_cat")
        assert out.text == (
            "Wembley Stadium; instance of: multi-purpose sports venue; "
            "country: United Kingdom"
        )

    def test_every_relation_key_in_relation_keys_order(self):
        labels = {"instance_of": "instance of", "subclass_of": "subclass of",
                  "country": "country", "occupation": "occupation"}
        assert tuple(labels) == RELATION_KEYS
        for key, label in labels.items():
            rec = EntityRecord(id="q", title="Q", categories={key: ["v"]})
            out = verbalize(rec, "title_cat")
            assert out.text == f"Q; {label}: v"
        # inserted in reverse order; rendered in RELATION_KEYS order, then
        # soft-truncated before the first punctuation at or past 50 chars
        rec = EntityRecord(id="q", title="Q", categories={
            key: [key[0]] for key in reversed(RELATION_KEYS)})
        out = verbalize(rec, "title_cat")
        assert out.text == "Q; instance of: i; subclass of: s; country: c; occupation"

    def test_title_span_recovers_title(self):
        for rec in (EINSTEIN, WEMBLEY):
            for name in ("title", "title_desc", "title_cat", "title_desc_cat",
                         "title_para100", "title_para500"):
                out = verbalize(rec, name)
                s, e = out.title_char_span
                assert out.text[s:e] == rec.title
                assert out.text.startswith(rec.title)

    def test_missing_components_skipped_silently(self):
        rec = EntityRecord(id="x", title="X title")
        out = verbalize(rec, "title_desc_cat")
        assert out.text == "X title"

    def test_paragraph_limits(self):
        out100 = verbalize(EINSTEIN, "title_para100")
        out500 = verbalize(EINSTEIN, "title_para500")
        # the 100-char cut hits the first punctuation past index 100 (the
        # final period); under 500 chars the paragraph passes unchanged
        assert out100.text == "Albert Einstein; " + EINSTEIN.paragraph[:-1]
        assert out500.text == "Albert Einstein; " + EINSTEIN.paragraph


class TestTruncateSoft:
    def test_under_limit_unchanged(self):
        assert truncate_soft("abc", 50) == "abc"

    def test_cut_before_first_punct_past_limit(self):
        assert truncate_soft("alpha, beta, gamma, delta", 10) == "alpha, beta"

    def test_no_punct_past_limit_unchanged(self):
        text = "no punctuation here at all beyond the limit"
        assert truncate_soft(text, 10) == text

    def test_punct_exactly_at_limit(self):
        assert truncate_soft("abcdefghij:tail", 10) == "abcdefghij"

    def test_trailing_whitespace_trimmed(self):
        assert truncate_soft("one two   ; rest", 4) == "one two"

    def test_bad_limit(self):
        with pytest.raises(ValidationError):
            truncate_soft("abc", 0)


def random_text(rng) -> str:
    alphabet = "ab cd,e;f.g:h!i?jk lmnop "
    n = int(rng.integers(0, 120))
    return "".join(alphabet[int(rng.integers(len(alphabet)))] for _ in range(n))


class TestTruncationProperties:
    def test_idempotent_on_random_strings(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            text = random_text(rng)
            limit = int(rng.integers(1, 60))
            once = truncate_soft(text, limit)
            assert truncate_soft(once, limit) == once

    def test_output_is_prefix_modulo_trailing_space(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            text = random_text(rng)
            limit = int(rng.integers(1, 60))
            out = truncate_soft(text, limit)
            assert text.startswith(out) or text.startswith(out.rstrip())
            if len(out) < len(text):  # an actual cut also trims
                assert out == out.rstrip()


class TestPrefixProperty:
    def test_spec_prefix_gives_output_prefix(self):
        formats = ("title", "title_desc", "title_desc_cat")
        for rec in (EINSTEIN, WEMBLEY, EntityRecord(id="t", title="T")):
            outs = [verbalize(rec, fmt).text for fmt in formats]
            for shorter, longer in zip(outs, outs[1:]):
                assert longer.startswith(shorter)


class TestFormatNames:
    def test_unknown_format_name(self):
        with pytest.raises(ValidationError, match="unknown format 'title_everything'"):
            verbalize(EINSTEIN, "title_everything")
        # rejected once per call, even with no record to render
        with pytest.raises(ValidationError, match="expected one of title, title_desc"):
            verbalize_all({}, "title_everything")


def test_determinism_bit_exact():
    a = verbalize(EINSTEIN, "title_desc_cat")
    b = verbalize(EINSTEIN, "title_desc_cat")
    assert a.text.encode("utf-8") == b.text.encode("utf-8")
