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

TITLE = "title"
DESCRIPTION = "description"
CATEGORIES = "categories"
PARAGRAPH = "paragraph"

PUNCTUATION = ",;.:!?"

_SOFT_LIMIT = 50  # soft-truncation limit of every non-paragraph component

FORMAT_NAMES = (
    "title",
    "title_desc",
    "title_cat",
    "title_desc_cat",
    "title_para100",
    "title_para500",
)


@dataclass(frozen=True)
class FormatSpec:
    """Which components to render, in which order, and the paragraph limit."""

    components: tuple[str, ...] = (TITLE,)
    paragraph_limit: int = 100

    def __post_init__(self):
        if not self.components or self.components[0] != TITLE:
            raise ValidationError("format must start with the title component")
        known = {TITLE, DESCRIPTION, CATEGORIES, PARAGRAPH}
        unknown = set(self.components) - known
        if unknown:
            raise ValidationError(f"unknown verbalization components: {sorted(unknown)}")
        if len(set(self.components)) != len(self.components):
            raise ValidationError("duplicate verbalization components")
        if DESCRIPTION in self.components and PARAGRAPH in self.components:
            raise ValidationError("description and paragraph are mutually exclusive")
        if PARAGRAPH in self.components and self.paragraph_limit not in (100, 500):
            raise ValidationError("paragraph_limit must be 100 or 500")

    @classmethod
    def from_name(cls, name: str) -> "FormatSpec":
        """Resolve one of the named formats (title, title_desc, ...)."""
        table = {
            "title": (TITLE,),
            "title_desc": (TITLE, DESCRIPTION),
            "title_cat": (TITLE, CATEGORIES),
            "title_desc_cat": (TITLE, DESCRIPTION, CATEGORIES),
            "title_para100": (TITLE, PARAGRAPH),
            "title_para500": (TITLE, PARAGRAPH),
        }
        if name not in table:
            raise ValidationError(
                f"unknown format {name!r} (expected one of {', '.join(FORMAT_NAMES)})"
            )
        limit = 500 if name == "title_para500" else 100
        return cls(components=table[name], paragraph_limit=limit)


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


def verbalize(record: EntityRecord, spec: FormatSpec) -> Verbalization:
    """Render a record per the format spec.

    Output is ``title`` alone, or ``title; tail`` where the tail
    comma-joins the remaining components in spec order, each
    soft-truncated on its own (the paragraph component uses
    paragraph_limit, others a limit of 50). Empty components are skipped.
    """
    tail_parts: list[str] = []
    for comp in spec.components:
        if comp == TITLE:
            continue
        if comp == DESCRIPTION:
            rendered, limit = record.description or "", _SOFT_LIMIT
        elif comp == CATEGORIES:
            rendered, limit = _render_categories(record), _SOFT_LIMIT
        else:  # PARAGRAPH
            rendered, limit = record.paragraph or "", spec.paragraph_limit
        if rendered:
            tail_parts.append(truncate_soft(rendered, limit))

    text = record.title
    if tail_parts:
        text = f"{record.title}; {', '.join(tail_parts)}"
    return Verbalization(text=text, title_char_span=(0, len(record.title)))


def verbalize_all(
    records: dict[str, EntityRecord], spec: FormatSpec
) -> dict[str, Verbalization]:
    return {rec_id: verbalize(rec, spec) for rec_id, rec in records.items()}
