#!/usr/bin/env python3
"""Render knowledge-base entries into label verbalizations.

Shows the six built-in formats, the component separators, and the soft
truncation rule that keeps verbalizations short without cutting words.
"""

from dualed import EntityRecord, truncate_soft, verbalize
from dualed.verbalizer import FORMAT_NAMES

einstein = EntityRecord(
    id="Albert_Einstein",
    title="Albert Einstein",
    description="German-born theoretical physicist (1879–1955)",
    categories={"occupation": ["physicist", "scientist"]},
    paragraph=(
        "Albert Einstein was a German-born theoretical physicist who is "
        "best known for developing the theory of relativity. His work is "
        "also known for its influence on the philosophy of science."
    ),
)

wembley = EntityRecord(
    id="Wembley_Stadium",
    title="Wembley Stadium",
    description="football stadium in London, England",
    categories={
        "instance_of": ["multi-purpose sports venue"],
        "country": ["United Kingdom"],
    },
)

print("Every format, applied to one record:\n")
for name in FORMAT_NAMES:
    out = verbalize(einstein, name)
    print(f"  {name:<15} {out.text}")

print("\nCategory relations render inline, semicolon-separated:\n")
out = verbalize(wembley, "title_cat")
print(f"  {out.text}")

print("\nThe title span marks what the label encoder pools:\n")
s, e = out.title_char_span
print(f"  title_char_span={out.title_char_span!r} -> {out.text[s:e]!r}")

print("\nSoft truncation cuts before the first punctuation past the limit:\n")
long_tail = "first clause, second clause, third clause, fourth clause"
for limit in (10, 30, 200):
    print(f"  limit {limit:>3}: {truncate_soft(long_tail, limit)!r}")
