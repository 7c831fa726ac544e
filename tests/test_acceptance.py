"""Acceptance suite: one test per criterion, each printing PASS on success.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end
criteria train real models (three seeds per arm), so this module takes
a few minutes; everything is seeded and deterministic.
"""

import time
import zlib

import numpy as np
import pytest

from dualed.cli import main as cli_main
from dualed.encoder import EncoderParams, tokenize
from dualed.evaluator import change_analysis
from dualed.label_index import (
    LabelCache,
    allowed_rows,
    full_refresh,
    tokenize_labels,
    top_rows,
)
from dualed.losses import (
    LOSS_KINDS,
    SIMILARITY_KINDS,
    LossSpec,
    SimilaritySpec,
    loss_gradients,
)
from dualed.predictor import iterate_chunks, predict_chunks, target_label_set
from dualed.synthetic import make_task, write_corpus_file, write_label_file
from dualed.trainer import TrainConfig, Trainer
from dualed.verbalizer import truncate_soft, verbalize, verbalize_all
from oracles import loss_value, similarity, spliced
from test_encoder import token_backward, token_vectors

SEEDS = (0, 1, 2)

# the reference end-to-end setup: hard negatives, first-last pooling,
# cross-entropy + euclidean
END_TO_END = dict(
    epochs=8,
    lr=1.0,
    clip_norm=1.0,
    vocab_size=1 << 16,
    dim=32,
    window=5,
    neg_mode="hard",
    neg_count="dyn",
    neg_budget=256,
    loss="cross_entropy",
    sim="euclidean",
    pooling="first_last",
    refresh_interval_spans=500,
    verbalization="title_desc_cat",
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def task():
    return make_task(
        n_entities=40, n_surfaces=8, train_mentions=2000, dev_mentions=400, seed=0
    )


def train_variant(task, seed, **overrides):
    cfg = dict(END_TO_END)
    cfg.update(overrides)
    cfg["seed"] = seed
    trainer = Trainer(task.records, TrainConfig(**cfg))
    start = time.monotonic()
    trainer.train(task.train_docs)
    elapsed = time.monotonic() - start
    return trainer, trainer.evaluate(task.dev_docs), elapsed


@pytest.fixture(scope="module")
def hard_runs(task):
    """The reference configuration, three seeds (shared across criteria)."""
    return [train_variant(task, seed) for seed in SEEDS]


# ── 1. gradient suite ────────────────────────────────────────────────────────


def fd_loss_grads(anchor, positive, negatives, loss_spec, sim_spec, h=1e-5):
    vectors = [anchor, positive, *negatives]
    out = []
    for vec in vectors:
        grad = np.zeros_like(vec)
        for i in range(vec.size):
            orig = vec[i]
            vec[i] = orig + h
            up = loss_value(anchor, positive, negatives, loss_spec, sim_spec)
            vec[i] = orig - h
            down = loss_value(anchor, positive, negatives, loss_spec, sim_spec)
            vec[i] = orig
            grad[i] = (up - down) / (2 * h)
        out.append(grad)
    return out


def fd_encoder_grads(seq, params, upstream, h=1e-5):
    grads = {}
    for name in ("table", "w_self", "w_ctx", "bias"):
        tensor = getattr(params, name)
        grad = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + h
            up = float((token_vectors(seq, params) * upstream).sum())
            tensor[idx] = orig - h
            down = float((token_vectors(seq, params) * upstream).sum())
            tensor[idx] = orig
            grad[idx] = (up - down) / (2 * h)
        grads[name] = grad
    return grads


def rel_err(a, b, floor=1e-8):
    return np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), floor)


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    tol, h = 1e-4, 1e-5

    for loss_kind in LOSS_KINDS:
        for sim_kind in SIMILARITY_KINDS:
            rng = np.random.default_rng(zlib.crc32(f"{loss_kind}/{sim_kind}".encode()))
            loss_spec = LossSpec(kind=loss_kind)
            sim_spec = SimilaritySpec(kind=sim_kind)
            checked = 0
            while checked < 20:
                dim = int(rng.integers(2, 9))
                a, p = rng.normal(size=dim), rng.normal(size=dim)
                negs = [rng.normal(size=dim) for _ in range(int(rng.integers(1, 4)))]
                if loss_kind == "triplet":
                    margin = loss_spec.resolve_margin(sim_spec)
                    s_pos = similarity(a, p, sim_spec)
                    if any(abs(margin - s_pos + similarity(a, n, sim_spec)) < 1e-3
                           for n in negs):
                        continue  # finite differences break at the hinge kink
                _, grads = loss_gradients(a, p, negs, loss_spec, sim_spec)
                numeric = fd_loss_grads(a, p, negs, loss_spec, sim_spec, h)
                # floor: 1e-6 of the case's largest gradient entry, so that
                # finite-difference roundoff (~1e-10) on a block of negligible
                # softmax weight is not divided by that block's own tiny size
                floor = max(1e-8, 1e-6 * max(
                    np.abs(g).max()
                    for g in (grads.anchor, grads.positive, *grads.negatives, *numeric)
                ))
                assert rel_err(grads.anchor, numeric[0], floor) <= tol
                assert rel_err(grads.positive, numeric[1], floor) <= tol
                for g, num in zip(grads.negatives, numeric[2:]):
                    assert rel_err(g, num, floor) <= tol
                checked += 1

    rng = np.random.default_rng(99)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        params = EncoderParams(
            table=rng.normal(size=(8, dim)),
            w_self=rng.normal(size=(dim, dim)),
            w_ctx=rng.normal(size=(dim, dim)),
            bias=rng.normal(size=dim),
            window=int(rng.integers(1, 4)),
        )
        length = int(rng.integers(1, 17))
        seq = tokenize(" ".join(f"t{int(rng.integers(8))}" for _ in range(length)), 8)
        upstream = rng.normal(size=(len(seq), dim))
        analytic = token_backward(seq, params, upstream)
        dense = np.zeros((8, dim))
        dense[analytic.rows] = analytic.table
        analytic.table = dense
        numeric = fd_encoder_grads(seq, params, upstream, h)
        for name in ("table", "w_self", "w_ctx", "bias"):
            assert rel_err(getattr(analytic, name), numeric[name]) <= tol

    elapsed = time.monotonic() - start
    report(1, "gradient suite", elapsed < 30.0, f"{elapsed:.1f}s")


# ── 2. mining oracle ─────────────────────────────────────────────────────────


def test_criterion_2_mining_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(17)
    for pool_size in (1000, 10000):
        matrix = rng.normal(size=(pool_size, 16))
        ids = [f"L{i}" for i in range(pool_size)]
        for kind in SIMILARITY_KINDS:
            cache = LabelCache(
                ids=ids, matrix=matrix, pooling="mean", sim_spec=SimilaritySpec(kind)
            )
            anchors = np.empty((100, 16))
            gold_rows = np.empty(100, dtype=np.int64)
            for j in range(100):
                anchors[j] = rng.normal(size=16)
                gold_rows[j] = rng.integers(pool_size)
            mined, _ = top_rows(cache, anchors, gold=gold_rows, k=20)
            nearest, _ = top_rows(cache, anchors)
            for anchor, gold_row, negatives, best in zip(anchors, gold_rows, mined, nearest):
                # independent oracle: per-row scalar similarity + tuple sort
                sims = [similarity(anchor, matrix[i], cache.sim_spec)
                        for i in range(pool_size)]
                ranking = sorted(range(pool_size), key=lambda i: (-sims[i], i))
                expected = [ids[i] for i in ranking if i != gold_row][:20]
                assert [ids[r] for r in negatives] == expected
                assert best[0] == ranking[0]
    elapsed = time.monotonic() - start
    report(2, "mining oracle", elapsed < 60.0, f"{elapsed:.1f}s")


# ── 3. synthetic end-to-end ──────────────────────────────────────────────────


def test_criterion_3_synthetic_end_to_end(hard_runs):
    accs = [acc for _, acc, _ in hard_runs]
    times = [t for _, _, t in hard_runs]
    mean_acc = float(np.mean(accs))
    ok = mean_acc >= 0.90 and max(times) < 300.0
    report(
        3,
        "synthetic end-to-end",
        ok,
        f"mean acc {mean_acc:.3f} over seeds {list(SEEDS)}, "
        f"max train time {max(times):.0f}s",
    )


# ── 4. directional ablations ─────────────────────────────────────────────────


def test_criterion_4_directional_ablations(task, hard_runs):
    hard_mean = float(np.mean([acc for _, acc, _ in hard_runs]))
    in_batch = [train_variant(task, s, neg_mode="in_batch")[1] for s in SEEDS]
    in_batch_mean = float(np.mean(in_batch))
    epoch_only = [
        train_variant(task, s, refresh_interval_spans=0, on_the_fly=False)[1]
        for s in SEEDS
    ]
    epoch_only_mean = float(np.mean(epoch_only))

    negatives_ok = hard_mean >= in_batch_mean + 0.02
    refresh_ok = hard_mean >= epoch_only_mean
    report(
        4,
        "directional ablations",
        negatives_ok and refresh_ok,
        f"hard {hard_mean:.3f} vs in-batch {in_batch_mean:.3f}; "
        f"frequent {hard_mean:.3f} vs epoch-only {epoch_only_mean:.3f}",
    )


# ── 5. verbalizer goldens ────────────────────────────────────────────────────


def test_criterion_5_verbalizer_goldens():
    from test_verbalizer import EINSTEIN, WEMBLEY, random_text

    goldens = [
        (EINSTEIN, "title_desc_cat",
         "Albert Einstein; German-born theoretical physicist (1879–1955), "
         "occupation: physicist, scientist"),
        (WEMBLEY, "title_cat",
         "Wembley Stadium; instance of: multi-purpose sports venue; "
         "country: United Kingdom"),
        (EINSTEIN, "title", "Albert Einstein"),
    ]
    for record, fmt, expected in goldens:
        got = verbalize(record, fmt).text
        assert got == expected, f"{fmt}: {got!r}"

    rng = np.random.default_rng(23)
    formats = ("title", "title_desc", "title_desc_cat")
    for _ in range(1000):
        text = random_text(rng)
        limit = int(rng.integers(1, 60))
        once = truncate_soft(text, limit)
        assert truncate_soft(once, limit) == once  # idempotence
        assert text.startswith(once) or text.startswith(once.rstrip())
    for record in (EINSTEIN, WEMBLEY):
        outs = [verbalize(record, fmt).text for fmt in formats]
        for shorter, longer in zip(outs, outs[1:]):
            assert longer.startswith(shorter)  # prefix property
    report(5, "verbalizer goldens", True)


# ── 6. iterative algorithm invariants ────────────────────────────────────────


def test_criterion_6_iterative_invariants():
    gen = make_task(
        n_entities=24, n_surfaces=8, train_mentions=0, dev_mentions=2200,
        max_mentions_per_doc=6, seed=31,
    )
    docs = gen.dev_docs[:500]
    assert len(docs) == 500
    params = EncoderParams.init(1 << 13, 12, 4, seed=41)
    label_params = EncoderParams.init(1 << 13, 12, 4, seed=42)
    verbs = verbalize_all(gen.records, "title_desc")
    cache = LabelCache.empty(sorted(gen.records), 12, "first_last",
                             SimilaritySpec("euclidean"))
    full_refresh(cache, label_params, tokenize_labels(verbs, 1 << 13))

    first_map, final_map = {}, {}
    results = iterate_chunks(docs, params, cache, gen.records)
    one_shots = predict_chunks(docs, params, cache)
    for doc, result, one_shot in zip(docs, results, one_shots):
        assert 1 <= result.iterations <= len(doc.mentions)
        for first, last in zip(result.first_pass, result.predictions):
            assert last.score >= first.score  # monotone stored scores
        splice = spliced(result.state)  # text integrity
        assert result.state.render() == (splice.text, splice.spans)
        assert splice.strip() == doc.text
        if len(doc.mentions) == 1:
            assert result.predictions[0].predicted_id == one_shot[0].predicted_id
            assert result.predictions[0].score == one_shot[0].score
        for first, last, m in zip(result.first_pass, result.predictions, doc.mentions):
            key = (doc.id, m.start, m.end)
            first_map[key] = first.predicted_id
            final_map[key] = last.predicted_id

    table = change_analysis(first_map, final_map, docs)
    total_mentions = sum(len(d.mentions) for d in docs)
    assert table.total == total_mentions
    report(6, "iterative invariants", True, f"{total_mentions} mentions, 500 docs")


# ── 7. determinism ───────────────────────────────────────────────────────────


def test_criterion_7_cli_determinism(tmp_path):
    gen = make_task(n_entities=12, n_surfaces=4, train_mentions=80,
                    dev_mentions=24, seed=2)
    write_corpus_file(gen.train_docs, tmp_path / "train.jsonl")
    write_corpus_file(gen.dev_docs, tmp_path / "dev.jsonl")
    write_label_file(gen.records, tmp_path / "labels.jsonl")
    (tmp_path / "config.txt").write_text(
        "epochs=2\nlr=0.5\nvocab_size=4096\ndim=8\nwindow=4\nneg_count=2\n"
        "refresh_interval_spans=40\n"
        "verbalization=title_desc\nbatch_docs=8\nseed=7\n"
    )
    artifacts = []
    for tag in ("a", "b"):
        run_dir = tmp_path / f"run_{tag}"
        assert cli_main([
            "train", "--corpus", str(tmp_path / "train.jsonl"),
            "--labels", str(tmp_path / "labels.jsonl"),
            "--dev", str(tmp_path / "dev.jsonl"),
            "--config", str(tmp_path / "config.txt"),
            "--out", str(run_dir),
        ]) == 0
        preds = tmp_path / f"preds_{tag}.jsonl"
        assert cli_main([
            "predict", "--corpus", str(tmp_path / "dev.jsonl"),
            "--labels", str(tmp_path / "labels.jsonl"),
            "--checkpoint", str(run_dir / "checkpoint.bin"), "--out", str(preds),
        ]) == 0
        rep = tmp_path / f"report_{tag}.json"
        assert cli_main([
            "eval", "--pred", str(preds),
            "--gold-corpus", str(tmp_path / "dev.jsonl"),
            "--json-out", str(rep),
        ]) == 0
        artifacts.append(
            ((run_dir / "metrics.jsonl").read_bytes(), preds.read_bytes(),
             rep.read_bytes())
        )
    ok = artifacts[0] == artifacts[1]
    report(7, "determinism", ok)


# ── 8. restricted-label-set inference ────────────────────────────────────────


def test_criterion_8_restricted_inference(task, hard_runs):
    trainer = hard_runs[0][0]
    cache = trainer.eval_cache()
    # evaluate on the dev slice whose golds live in half the label space,
    # so the target restriction actually removes candidates
    target_ids = {f"E{i:02d}" for i in range(20)}
    dev = [
        doc for doc in task.dev_docs
        if doc.mentions and all(m.gold_label in target_ids for m in doc.mentions)
    ]
    assert len(dev) >= 20
    allowed = target_label_set(dev, cache)
    assert len(allowed) < len(cache.ids)

    def accuracy(params, label_cache, allowed_ids):
        rows = allowed_rows(label_cache, allowed_ids)
        correct = total = 0
        for preds in predict_chunks(dev, params, label_cache, rows):
            for pred in preds:
                correct += pred.predicted_id == pred.mention.gold_label
                total += 1
        return correct / total

    full = accuracy(trainer.mention_params, cache, None)
    restricted = accuracy(trainer.mention_params, cache, allowed)

    # an untrained model still makes out-of-set errors, so there the
    # restriction must produce a strictly visible gain
    raw = Trainer(task.records, TrainConfig(seed=123, **END_TO_END))
    raw_cache = raw.eval_cache()
    raw_full = accuracy(raw.mention_params, raw_cache, None)
    raw_restricted = accuracy(raw.mention_params, raw_cache, allowed)

    ok = restricted >= full and raw_restricted > raw_full
    report(
        8,
        "restricted-label-set inference",
        ok,
        f"trained: {restricted:.4f} >= {full:.4f}; "
        f"untrained: {raw_restricted:.4f} > {raw_full:.4f} "
        f"({len(allowed)} of {len(cache.ids)} labels, {len(dev)} docs)",
    )
