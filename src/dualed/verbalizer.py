"""Render knowledge-base entries into label verbalization strings.

A verbalization is the label encoder's input text: the entity title,
then optionally a description (or lead paragraph) and category
relations, e.g.::

    Wembley Stadium; instance of: multi-purpose sports venue; country: United Kingdom

The title is separated from the rest by "; ", further components are
comma-joined, and every non-title component is soft-truncated: cut
immediately before the first punctuation character at or past the
limit, keeping the title itself intact. The title's character span is
recorded so the encoder can pool title tokens only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import RELATION_KEYS, EntityRecord
from .errors import ValidationError

DESCRIPTION = "description"
CATEGORIES = "categories"
PARAGRAPH = "paragraph"

PUNCTUATION = ",;.:!?"

_SOFT_LIMIT = 50  # soft-truncation limit of every non-paragraph component

# each named format: the components after the title, in order, each with
# its soft-truncation limit
_FORMATS = {
    "title": (),
    "title_desc": ((DESCRIPTION, _SOFT_LIMIT),),
    "title_cat": ((CATEGORIES, _SOFT_LIMIT),),
    "title_desc_cat": ((DESCRIPTION, _SOFT_LIMIT), (CATEGORIES, _SOFT_LIMIT)),
    "title_para100": ((PARAGRAPH, 100),),
    "title_para500": ((PARAGRAPH, 500),),
}
FORMAT_NAMES = tuple(_FORMATS)


def _tail_components(fmt: str) -> tuple[tuple[str, int], ...]:
    try:
        return _FORMATS[fmt]
    except KeyError:
        raise ValidationError(
            f"unknown format {fmt!r} (expected one of {', '.join(FORMAT_NAMES)})"
        ) from None


@dataclass(frozen=True)
class Verbalization:
    text: str
    title_char_span: tuple[int, int]


def truncate_soft(text: str, limit: int) -> str:
    """Soft-truncate: cut before the first punctuation at index >= limit.

    Text at or under the limit is returned unchanged, as is text with no
    punctuation past the limit; a cut strips trailing whitespace. The
    operation is idempotent.
    """
    if limit < 1:
        raise ValidationError("limit must be >= 1")
    if len(text) <= limit:
        return text
    for i in range(limit, len(text)):
        if text[i] in PUNCTUATION:
            return text[:i].rstrip()
    return text


def _render_categories(record: EntityRecord) -> str:
    parts = []
    for key in RELATION_KEYS:
        values = record.categories.get(key) or []
        if values:
            parts.append(f"{key.replace('_', ' ')}: {', '.join(values)}")
    return "; ".join(parts)


def verbalize(record: EntityRecord, fmt: str) -> Verbalization:
    """Render a record in the named format (one of ``FORMAT_NAMES``).

    Output is ``title`` alone, or ``title; tail`` where the tail
    comma-joins the format's remaining components in order, each
    soft-truncated on its own (a paragraph at the format's limit, 100 or
    500, others at 50). Empty components are skipped.
    """
    tail_parts: list[str] = []
    for comp, limit in _tail_components(fmt):
        if comp == DESCRIPTION:
            rendered = record.description or ""
        elif comp == CATEGORIES:
            rendered = _render_categories(record)
        else:  # PARAGRAPH
            rendered = record.paragraph or ""
        if rendered:
            tail_parts.append(truncate_soft(rendered, limit))

    text = record.title
    if tail_parts:
        text = f"{record.title}; {', '.join(tail_parts)}"
    return Verbalization(text=text, title_char_span=(0, len(record.title)))


def verbalize_all(records: dict[str, EntityRecord], fmt: str) -> dict[str, Verbalization]:
    _tail_components(fmt)  # an unknown name fails on an empty label set too
    return {rec_id: verbalize(rec, fmt) for rec_id, rec in records.items()}
