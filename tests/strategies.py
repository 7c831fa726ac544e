"""Shared hypothesis strategies."""

from hypothesis import strategies as st

from dualed.corpus import Document, Mention


@st.composite
def documents(draw, alphabet="ab \n", max_chars=80):
    """A document with sorted, non-overlapping (possibly adjacent) mentions."""
    text = draw(st.text(st.sampled_from(alphabet), max_size=max_chars))
    mentions, pos = [], 0
    gaps = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 8)), max_size=15))
    for gap, length in gaps:
        start = pos + gap
        end = start + length
        if end > len(text):
            break
        label = f"E{len(mentions) % 3}"
        mentions.append(Mention(start=start, end=end, gold_label=label,
                                surface=text[start:end]))
        pos = end
    return Document(id="d", text=text, mentions=mentions)
