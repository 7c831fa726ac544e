"""Corpus and label-set file formats, validation, and document chunking.

Both file formats are UTF-8 JSONL, one object per line:

Corpus line::

    {"id": "d1", "text": "Italy won.",
     "mentions": [{"start": 0, "end": 5, "label": "Italy"}]}

Label-set line::

    {"id": "Albert_Einstein", "title": "Albert Einstein",
     "description": "German-born theoretical physicist (1879-1955)",
     "categories": {"occupation": ["physicist", "scientist"]},
     "paragraph": null}

Absent keys mean empty. Character offsets are Unicode scalar-value
counts, never bytes. Long documents are split into chunks that respect
both a mention-count and a character limit without ever cutting through
a mention span.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .encoder import _TOKEN_RUN
from .errors import ValidationError

RELATION_KEYS = ("instance_of", "subclass_of", "country", "occupation")
_SURROGATE = re.compile(r"[\ud800-\udfff]")


@dataclass
class Mention:
    """A character span linked to a gold entity id.

    ``start`` is inclusive, ``end`` exclusive; ``surface`` is the text
    slice the offsets select. Linkability belongs to a label set: a mention
    whose gold is not one of its labels is skipped by training against it.
    """

    start: int
    end: int
    gold_label: str
    surface: str


@dataclass
class Document:
    id: str
    text: str
    mentions: list[Mention]


@dataclass
class EntityRecord:
    """One knowledge-base entry: the raw material for verbalization."""

    id: str
    title: str
    description: str | None = None
    categories: dict[str, list[str]] = field(default_factory=dict)
    paragraph: str | None = None


@dataclass
class Chunk:
    """A contiguous slice of a parent document with re-offset mentions.

    ``parent_offset`` is the chunk's start in the parent text, so global
    mention offsets are recoverable as local + parent_offset.
    """

    parent_doc: str
    text: str
    mentions: list[Mention]
    parent_offset: int = 0


def _text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of a UTF-8 text file; bytes that
    are not UTF-8 are a ValidationError naming the file and the line."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            # the decoder reads ahead in blocks, so find the line afresh
            for line_no, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
            raise ValidationError(f"{path}: line {line_no}: not UTF-8 ({exc.reason})") from exc


def _jsonl_objects(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSONL file; a
    line that is not JSON, not a JSON object, or holds a lone surrogate
    escape, is a ValidationError naming the file and the line."""
    for line_no, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: line {line_no}: malformed JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValidationError(
                f"{path}: line {line_no}: expected a JSON object, got {_json_kind(obj)}"
            )
        # json.loads joins every valid surrogate pair, so a surrogate left
        # in a string is a lone one; only a \u escape can make one
        if "\\u" in line and (key := _lone_surrogate_key(obj)) is not None:
            raise ValidationError(
                f"{path}: line {line_no}: {key!r} holds a lone surrogate escape"
            )
        yield line_no, obj


def _lone_surrogate_key(value, key: str | None = None) -> str | None:
    """The key of the first string in ``value`` that holds a surrogate code
    point (a key that holds one names itself), or None."""
    if isinstance(value, str):
        return key if _SURROGATE.search(value) else None
    if isinstance(value, dict):
        pairs = [(k, k) for k in value] + list(value.items())
    elif isinstance(value, list):
        pairs = [(key, v) for v in value]
    else:
        return None
    for k, v in pairs:
        found = _lone_surrogate_key(v, k)
        if found is not None:
            return found
    return None


def _json_kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    if isinstance(value, str):
        return "a string"
    return "an array" if isinstance(value, list) else "an object"


def _typed(obj: dict, key: str, kind: type, default, where: str):
    """``obj[key]`` (``default`` when absent or null), which must be a ``kind``."""
    value = obj.get(key)
    if value is None:
        return default
    if not isinstance(value, kind):
        expected = {list: "an array", dict: "an object", str: "a string"}[kind]
        raise ValidationError(f"{where}: {key} must be {expected}, got {_json_kind(value)}")
    return value


def _string(obj: dict, key: str, where: str, numbers: bool = False) -> str:
    """``obj[key]``, which must be present and a string (or, with
    ``numbers``, a number, taken in its string form)."""
    if key not in obj:
        raise ValidationError(f"{where}: missing key {key!r}")
    return _as_string(obj[key], key, where, numbers)


def _as_string(value, key: str, where: str, numbers: bool) -> str:
    if isinstance(value, str):
        return value
    if numbers and isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    expected = "a string or a number" if numbers else "a string"
    raise ValidationError(f"{where}: {key} must be {expected}, got {_json_kind(value)}")


def _as_integer(value, key: str, where: str) -> int:
    """``value``, which must be a JSON integer: not a boolean, a float or a string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{where}: {key} must be an integer, got {value!r:.40}")


def _parse_mention(obj: dict, text: str, doc_id: str, line_no: int) -> Mention:
    try:
        start, end, label = obj["start"], obj["end"], obj["label"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            f"line {line_no}: document {doc_id!r}: malformed mention {obj!r}: {exc}"
        ) from exc
    where = f"line {line_no}: document {doc_id!r}: mention"
    start, end = _as_integer(start, "start", where), _as_integer(end, "end", where)
    label = _as_string(label, "label", where, numbers=True)
    if start >= end:
        raise ValidationError(
            f"line {line_no}: document {doc_id!r}: mention start >= end ({start} >= {end})"
        )
    if start < 0 or end > len(text):
        raise ValidationError(
            f"line {line_no}: document {doc_id!r}: mention ({start}, {end}) "
            f"outside text of length {len(text)}"
        )
    if not _TOKEN_RUN.search(text, start, end):  # the tokenizer's own runs
        raise ValidationError(
            f"line {line_no}: document {doc_id!r}: mention ({start}, {end}) "
            f"{text[start:end]!r:.40} holds no letter or digit, so it covers no token"
        )
    return Mention(start=start, end=end, gold_label=label, surface=text[start:end])


def load_corpus(path: str | Path) -> list[Document]:
    """Load and fully validate a JSONL corpus.

    Returns documents in file order. Mentions are normalized to
    ascending start order; overlapping mentions, bad offsets, a mention
    without a letter or digit (it covers no token), duplicate document
    ids, and malformed JSON all raise ValidationError naming the file and
    the offending line.
    """
    docs: list[Document] = []
    seen_ids: set[str] = set()
    for line_no, obj in _jsonl_objects(path):
        try:
            doc_id = _string(obj, "id", f"line {line_no}", numbers=True)
            text = _string(obj, "text", f"line {line_no}: document {doc_id!r}")
            if doc_id in seen_ids:
                raise ValidationError(f"line {line_no}: duplicate document id {doc_id!r}")
            seen_ids.add(doc_id)

            where = f"line {line_no}: document {doc_id!r}"
            mentions = [
                _parse_mention(m, text, doc_id, line_no)
                for m in _typed(obj, "mentions", list, [], where)
            ]
            mentions.sort(key=lambda m: m.start)
            for prev, cur in zip(mentions, mentions[1:]):
                if cur.start < prev.end:
                    raise ValidationError(
                        f"{where}: overlapping mentions "
                        f"({prev.start}, {prev.end}) and ({cur.start}, {cur.end})"
                    )
            if mentions and not text:
                raise ValidationError(f"{where}: empty text with mentions")
            docs.append(Document(id=doc_id, text=text, mentions=mentions))
        except ValidationError as exc:  # a try costs nothing on a valid row
            raise ValidationError(f"{path}: {exc}") from exc
    return docs


def load_label_set(path: str | Path) -> dict[str, EntityRecord]:
    """Load a JSONL label set keyed by entity id.

    Duplicate ids, unknown category relation keys and a title without a
    letter or digit (it has no token) are rejected, with a ValidationError
    naming the file.
    """
    records: dict[str, EntityRecord] = {}
    first_line: dict[str, int] = {}
    for line_no, obj in _jsonl_objects(path):
        try:
            rec_id = _string(obj, "id", f"line {line_no}", numbers=True)
            where = f"line {line_no}: entity {rec_id!r}"
            title = _string(obj, "title", where)
            if not title:
                raise ValidationError(f"{where}: empty title")
            if not _TOKEN_RUN.search(title):
                raise ValidationError(
                    f"{where}: title {title!r:.40} holds no letter or digit, so it has no token"
                )
            if rec_id in records:
                raise ValidationError(
                    f"duplicate entity id {rec_id!r} on lines "
                    f"{first_line[rec_id]} and {line_no}"
                )
            raw_categories = _typed(obj, "categories", dict, {}, where)
            categories: dict[str, list[str]] = {}
            for key in raw_categories:
                if key not in RELATION_KEYS:
                    raise ValidationError(
                        f"{where}: unknown relation key {key!r} "
                        f"(expected one of {', '.join(RELATION_KEYS)})"
                    )
                values = _typed(raw_categories, key, list, [], f"{where}: categories")
                categories[key] = [
                    _as_string(v, f"{key} value", f"{where}: categories", numbers=True)
                    for v in values
                ]
            records[rec_id] = EntityRecord(
                id=rec_id,
                title=title,
                description=_typed(obj, "description", str, "", where) or None,
                categories=categories,
                paragraph=_typed(obj, "paragraph", str, "", where) or None,
            )
            first_line[rec_id] = line_no
        except ValidationError as exc:  # a try costs nothing on a valid row
            raise ValidationError(f"{path}: {exc}") from exc
    return records


def _check_chunkable(doc: Document, max_chars: int) -> None:
    """A ValidationError when a mention of ``doc`` is longer than
    ``max_chars``, since no chunk could hold it."""
    for m in doc.mentions:
        if m.end - m.start > max_chars:
            raise ValidationError(
                f"document {doc.id!r}: mention ({m.start}, {m.end}) is longer "
                f"than max_chars_per_chunk={max_chars}; cannot chunk"
            )


def chunk_document(doc: Document, max_mentions: int, max_chars: int) -> list[Chunk]:
    """Split a document into chunks of at most max_mentions / max_chars.

    Greedy left-to-right: each chunk ends at the latest whitespace
    boundary satisfying both limits (the boundary whitespace character
    is dropped, so re-joining chunks with it restores the text). A cut
    never falls inside a mention span; when no usable whitespace exists
    the split is hard at the limit. Mentions are re-offset to
    chunk-local coordinates.
    """
    if max_mentions < 1 or max_chars < 1:
        raise ValidationError("chunk limits must be >= 1")
    _check_chunkable(doc, max_chars)

    text, mentions = doc.text, doc.mentions
    n = len(text)
    chunks: list[Chunk] = []
    pos = 0
    mi = 0  # first mention not yet assigned to a chunk

    def emit(end: int, next_pos: int) -> None:
        nonlocal pos, mi
        local = []
        while mi < len(mentions) and mentions[mi].start < end:
            m = mentions[mi]
            local.append(
                Mention(
                    start=m.start - pos,
                    end=m.end - pos,
                    gold_label=m.gold_label,
                    surface=m.surface,
                )
            )
            mi += 1
        chunks.append(
            Chunk(parent_doc=doc.id, text=text[pos:end], mentions=local, parent_offset=pos)
        )
        pos = next_pos

    while True:
        remaining = mentions[mi:]
        if n - pos <= max_chars and len(remaining) <= max_mentions:
            emit(n, n)
            break

        cap = pos + max_chars
        if len(remaining) > max_mentions:
            # chunk must end before the first mention over the count limit
            cap = min(cap, remaining[max_mentions].start)
        for m in remaining:
            if m.start >= cap:
                break
            if m.start < cap < m.end:
                cap = m.start  # never cut through a span
                break

        cut = None
        for w in range(cap, pos, -1):
            if w < n and text[w].isspace() and not _inside_mention(remaining, w):
                cut = w
                break
        if cut is not None:
            emit(cut, cut + 1)  # drop the boundary whitespace
        else:
            emit(cap, cap)
    return chunks


def _inside_mention(mentions: list[Mention], idx: int) -> bool:
    for m in mentions:
        if m.start > idx:
            return False
        if m.start <= idx < m.end:
            return True
    return False
