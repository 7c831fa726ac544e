"""Independent reference for the program's predictions and mining.

Plain numpy and the standard library only; nothing here imports the
package. It re-implements, from the documented formats and definitions:

* the checkpoint reader (magic ``VRBED1``, ``V, d, window`` as uint32,
  then float32 tensors: mention table, W_self, W_ctx, bias; label same);
* the ``title_desc_cat`` verbalization with soft truncation;
* tokenization: alphanumeric runs, lowercased, FNV-1a 64 hashed into
  ``V`` buckets (vectorised over tokens with wrapping uint64 arithmetic);
* the windowed encoder ``W_self e_t + W_ctx mean(e_{t-w..t+w}) + bias``,
  one explicit window mean per token;
* ``first_last`` span pooling over the tokens overlapping a character
  span;
* an exhaustive euclidean scan that breaks ties toward the lowest row.

It covers the configuration the benchmark trains with (``TRAIN_CONFIG``).

Scores agree with the program's up to summation order, so comparisons
use ``RTOL``/``ATOL``; an id may differ from the reference's only when
the two candidates score equal within that tolerance.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

RTOL = 1e-9
ATOL = 1e-9
FNV_OFFSET = np.uint64(0xCBF29CE484222325)
FNV_PRIME = np.uint64(0x100000001B3)
SOFT_LIMIT = 50
RELATIONS = (("instance_of", "instance of"), ("subclass_of", "subclass of"),
             ("country", "country"), ("occupation", "occupation"))


class Mismatch(AssertionError):
    """The program's output disagrees with the reference."""


# ── checkpoint ───────────────────────────────────────────────────────────────


def read_checkpoint(path) -> tuple[dict, dict]:
    raw = np.fromfile(path, dtype=np.uint8)
    if bytes(raw[:6]) != b"VRBED1":
        raise Mismatch(f"{path}: bad checkpoint magic")
    v, d, w = (int(x) for x in raw[6:18].view("<u4"))
    floats = raw[18:].view("<f4").astype(np.float64)
    encoders, pos = [], 0
    for _ in range(2):
        enc = {"window": w}
        for name, shape in (("table", (v, d)), ("w_self", (d, d)),
                            ("w_ctx", (d, d)), ("bias", (d,))):
            size = math.prod(shape)
            enc[name] = floats[pos:pos + size].reshape(shape)
            pos += size
        encoders.append(enc)
    if pos != floats.size:
        raise Mismatch(f"{path}: checkpoint size does not match its header")
    return encoders[0], encoders[1]


# ── verbalization ────────────────────────────────────────────────────────────


def soft_truncate(text: str, limit: int = SOFT_LIMIT) -> str:
    if len(text) <= limit:
        return text
    cut = next((i for i in range(limit, len(text)) if text[i] in ",;.:!?"), None)
    return text if cut is None else text[:cut].rstrip()


def verbalize(label: dict) -> tuple[str, tuple[int, int]]:
    """``title_desc_cat`` text and the title's character span."""
    relations = "; ".join(
        f"{shown}: {', '.join(label['categories'][key])}"
        for key, shown in RELATIONS if label.get("categories", {}).get(key)
    )
    tail = [soft_truncate(part) for part in (label.get("description") or "", relations)
            if part]
    title = label["title"]
    text = f"{title}; {', '.join(tail)}" if tail else title
    return text, (0, len(title))


# ── encoder ──────────────────────────────────────────────────────────────────


def tokenize(text: str, vocab_size: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    spans, pos = [], 0
    for is_alnum, run in itertools.groupby(text, key=str.isalnum):
        n = len(list(run))
        if is_alnum:
            spans.append((pos, pos + n))
        pos += n
    if not spans:
        return np.zeros(0, dtype=np.int64), spans
    words = [text[s:e].lower().encode("utf-8") for s, e in spans]
    width = max(len(b) for b in words)
    grid = np.zeros((len(words), width), dtype=np.uint64)
    mask = np.zeros((len(words), width), dtype=bool)
    for i, b in enumerate(words):
        grid[i, :len(b)] = np.frombuffer(b, dtype=np.uint8)
        mask[i, :len(b)] = True
    h = np.full(len(words), FNV_OFFSET, dtype=np.uint64)
    for col in range(width):
        h = np.where(mask[:, col], (h ^ grid[:, col]) * FNV_PRIME, h)
    return (h % np.uint64(vocab_size)).astype(np.int64), spans


def encode(token_ids: np.ndarray, enc: dict) -> np.ndarray:
    emb = enc["table"][token_ids]
    n, w = len(token_ids), enc["window"]
    ctx = np.stack([emb[max(0, t - w):min(n, t + w + 1)].mean(axis=0) for t in range(n)])
    return emb @ enc["w_self"].T + ctx @ enc["w_ctx"].T + enc["bias"]


def pool(vectors: np.ndarray, spans, char_span) -> np.ndarray:
    """``first_last`` pooling over the tokens overlapping a character span."""
    s, e = char_span
    covered = [i for i, (ts, te) in enumerate(spans) if ts < e and te > s]
    if not covered:
        raise Mismatch(f"span {char_span} covers no tokens")
    return np.concatenate([vectors[covered[0]], vectors[covered[-1]]])


def embed(text: str, char_span, enc: dict) -> np.ndarray:
    ids, spans = tokenize(text, enc["table"].shape[0])
    return pool(encode(ids, enc), spans, char_span)


def label_matrix(labels: list[dict], enc: dict) -> tuple[list[str], np.ndarray]:
    """Label ids in sorted order (the cache's row order) and their embeddings."""
    ordered = sorted(labels, key=lambda lab: lab["id"])
    rows = [embed(*verbalize(lab), enc) for lab in ordered]
    return [lab["id"] for lab in ordered], np.stack(rows)


# ── search ───────────────────────────────────────────────────────────────────


def scores(anchor: np.ndarray, matrix: np.ndarray, sim: str) -> np.ndarray:
    """Negated euclidean distance of the anchor to every row, row by row."""
    if sim != "euclidean":
        raise ValueError(f"the reference scan covers euclidean similarity, not {sim!r}")
    return -np.array([math.sqrt(float(np.dot(r - anchor, r - anchor))) for r in matrix])


def ranking(sims: np.ndarray, skip: int) -> list[int]:
    """Rows but ``skip`` by descending score, ties toward the lowest row."""
    return sorted((i for i in range(len(sims)) if i != skip), key=lambda i: (-sims[i], i))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def check_choice(got_row: int, got_score: float, sims: np.ndarray, want_row: int,
                 what: str) -> None:
    """The program chose ``got_row`` scoring ``got_score``; the reference ``want_row``."""
    if not close(got_score, sims[got_row]):
        raise Mismatch(f"{what}: score {got_score!r} but reference gives "
                       f"{sims[got_row]!r} for row {got_row}")
    if got_row != want_row and not close(sims[got_row], sims[want_row]):
        raise Mismatch(f"{what}: row {got_row} chosen, reference best is row {want_row} "
                       f"({sims[want_row]!r} vs {sims[got_row]!r})")


class Reference:
    """Reference predictor for one checkpoint and label set."""

    def __init__(self, checkpoint, labels: list[dict], sim: str):
        self.mention, label_enc = read_checkpoint(checkpoint)
        self.sim = sim
        self.ids, self.matrix = label_matrix(labels, label_enc)
        self.row_of = {label_id: i for i, label_id in enumerate(self.ids)}

    def check_prediction(self, doc: dict, mention: dict, pred: dict,
                         allowed: set[str] | None = None) -> None:
        """One prediction row, made on ``doc`` unchunked and without insertions."""
        if pred["pred"] not in self.row_of:
            raise Mismatch(f"predicted id {pred['pred']!r} is not a label")
        anchor = embed(doc["text"], (mention["start"], mention["end"]), self.mention)
        sims = scores(anchor, self.matrix, self.sim)
        rows = range(len(self.ids)) if allowed is None else sorted(
            self.row_of[i] for i in allowed)
        best = min(rows, key=lambda i: (-sims[i], i))
        got = self.row_of[pred["pred"]]
        if allowed is not None and pred["pred"] not in allowed:
            raise Mismatch(f"{pred['pred']!r} is outside the allowed set")
        check_choice(got, float(pred["score"]), sims, best,
                     f"{doc['id']}[{mention['start']}:{mention['end']}]")


def check_mining(ids, matrix, anchor, gold_id, k, sim, result) -> None:
    """A ``mine_hard_negatives`` result against a scan of the same cache rows."""
    row_of = {label_id: i for i, label_id in enumerate(ids)}
    sims = scores(anchor, matrix, sim)
    want = ranking(sims, skip=row_of[gold_id])[:min(k, len(ids) - 1)]
    if len(result) != len(want):
        raise Mismatch(f"mined {len(result)} negatives, reference {len(want)}")
    for pos, ((label_id, score), row) in enumerate(zip(result, want)):
        check_choice(row_of[label_id], score, sims, row, f"negative {pos}")


def check_nearest(ids, matrix, anchor, allowed, sim, result) -> None:
    """A ``nearest_label`` result against a scan of the same cache rows."""
    row_of = {label_id: i for i, label_id in enumerate(ids)}
    sims = scores(anchor, matrix, sim)
    rows = range(len(ids)) if allowed is None else [row_of[i] for i in allowed]
    best = min(rows, key=lambda i: (-sims[i], i))
    check_choice(row_of[result[0]], result[1], sims, best, "nearest label")
