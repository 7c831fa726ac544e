"""Batching, negative counts, step contracts, insertions, scheduling."""

import copy
import dataclasses
import inspect
import json
import math
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualed import trainer as tm
from dualed.corpus import Chunk, Document, EntityRecord, Mention
from dualed.encoder import POOLING_METHODS
from dualed.errors import ValidationError
from dualed.label_index import build_cache, encode_labels, tokenize_labels
from dualed.losses import LOSS_KINDS, SIMILARITY_KINDS
from dualed.synthetic import make_task
from dualed.trainer import (
    TrainConfig,
    Trainer,
    apply_iterative_insertions,
    dynamic_negative_count,
    load_model,
    load_predictor,
    make_batches,
    parse_config_file,
    save_model,
)
from dualed.verbalizer import FORMAT_NAMES, verbalize_all
from oracles import clip_global_norm, train_step_per_label


def small_config(**overrides) -> TrainConfig:
    base = dict(
        batch_docs=4,
        lr=0.05,
        epochs=1,
        vocab_size=1 << 12,
        dim=8,
        window=4,
        neg_count=2,
        refresh_interval_spans=50,
        verbalization="title_desc",
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_task():
    return make_task(n_entities=12, n_surfaces=4, train_mentions=60,
                     dev_mentions=20, seed=1)


def make_trainer(task=None, **overrides) -> Trainer:
    task = task or tiny_task()
    trainer = Trainer(task.records, small_config(**overrides))
    trainer.refresh_cache()
    return trainer, task


def params_snapshot(trainer):
    return tuple(
        t.copy()
        for p in (trainer.mention_params, trainer.label_params)
        for t in (p.table, p.w_self, p.w_ctx, p.bias)
    )


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestMakeBatches:
    def test_batch_arithmetic(self):
        docs = [Document(id=f"d{i}", text="short text", mentions=[]) for i in range(64)]
        batches = make_batches(docs, 32, (100, 2800), seed=0)
        assert [len(b) for b in batches] == [32, 32]

    def test_same_seed_same_batches(self):
        task = tiny_task()
        a = make_batches(task.train_docs, 4, (100, 2800), seed=5)
        b = make_batches(task.train_docs, 4, (100, 2800), seed=5)
        assert [[c.text for c in batch] for batch in a] == [
            [c.text for c in batch] for batch in b
        ]

    def test_chunks_preserve_mention_multiset(self):
        words, mentions = [], []
        pos = 0
        for i in range(150):
            w = f"mention{i:03d}"
            mentions.append(Mention(pos, pos + len(w), f"E{i % 7}", w))
            words.append(w)
            pos += len(w) + 1
        doc = Document(id="big", text=" ".join(words), mentions=mentions)
        batches = make_batches([doc], 1, (100, 10**6), seed=3)
        flattened = sorted(
            (m.gold_label, m.surface)
            for batch in batches
            for c in batch
            for m in c.mentions
        )
        assert flattened == sorted((m.gold_label, m.surface) for m in mentions)
        assert sum(len(b) for b in batches) == 2  # 100 + 50 mentions

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            make_batches([], 4, (100, 2800), seed=0)


class TestDynamicNegativeCount:
    def test_budget_division(self):
        assert dynamic_negative_count(10, 80) == 8

    def test_clamps_to_one(self):
        assert dynamic_negative_count(100, 50) == 1

    def test_fixed_mode_bypasses(self):
        trainer, task = make_trainer(neg_count=3)
        batch = make_batches(task.train_docs, 4, (100, 2800), seed=0)[0]
        stats = trainer.train_step(batch)
        # every loss term saw exactly neg_count negatives
        assert len(stats.negatives_used) == stats.loss_terms * 3


class TestTrainStep:
    def test_empty_batch_is_noop(self):
        trainer, _ = make_trainer()
        before = params_snapshot(trainer)
        stats = trainer.train_step([Chunk(parent_doc="d", text="no mentions", mentions=[])])
        assert stats.loss == 0.0
        assert params_equal(before, params_snapshot(trainer))

    def test_lr_zero_updates_cache_but_not_params(self):
        trainer, task = make_trainer(lr=0.0, neg_mode="in_batch")
        batch = make_batches(task.train_docs, 4, (100, 2800), seed=0)[:1][0]
        # poison every row: write-backs must restore the rows a step touches
        poisoned = trainer.cache.matrix.copy()
        trainer.cache.matrix[:] = 999.0
        before = params_snapshot(trainer)
        stats = trainer.train_step(batch)
        assert params_equal(before, params_snapshot(trainer))
        assert stats.write_log
        assert trainer.cache.dirty_writes == len(stats.write_log)
        for label_id in stats.write_log:
            row = trainer.cache.row_of[label_id]
            np.testing.assert_array_equal(trainer.cache.matrix[row], poisoned[row])

    def test_interval_crossing_triggers_one_refresh(self):
        trainer, task = make_trainer(refresh_interval_spans=10)
        chunks = [c for b in make_batches(task.train_docs, 100, (100, 2800), seed=0)
                  for c in b]
        consumed, fired = 0, 0
        for chunk in chunks:
            stats = trainer.train_step([chunk])
            consumed += stats.spans
            fired += stats.refreshes
        assert fired == consumed // 10

    def test_unlinkable_mentions_skipped(self):
        trainer, task = make_trainer()
        batch = make_batches(task.train_docs, 4, (100, 2800), seed=0)[0]
        for chunk in batch:
            for m in chunk.mentions:
                m.gold_label = "not-a-label"
        before = params_snapshot(trainer)
        stats = trainer.train_step(batch)
        assert stats.loss_terms == 0
        assert stats.skipped_unlinkable == sum(len(c.mentions) for c in batch)
        assert params_equal(before, params_snapshot(trainer))

    def test_hard_negatives_written_back(self):
        trainer, task = make_trainer(neg_mode="hard")
        batch = make_batches(task.train_docs, 4, (100, 2800), seed=0)[0]
        stats = trainer.train_step(batch)
        assert set(stats.negatives_used) <= set(stats.write_log)

    def test_gold_never_mined_as_negative(self):
        trainer, task = make_trainer(neg_mode="hard")
        for batch in make_batches(task.train_docs, 4, (100, 2800), seed=0)[:5]:
            golds = {m.gold_label for c in batch for m in c.mentions}
            stats = trainer.train_step(batch)
            # negatives may coincide with other mentions' golds, but a
            # mention's own gold is excluded; spot-check single-gold batches
            if len(golds) == 1:
                assert golds.isdisjoint(stats.negatives_used)


def with_gradient_free_mentions(batches):
    """The batches with mentions that reach no loss term.

    Every batch gains a chunk of words found nowhere else whose golds are
    not labels: the step encodes it, and its token ids join the mention
    gradient buffer as zero rows, which the oracle never back-propagates. A last batch holds a single mention, whose gold is
    then the batch's only gold: in_batch mode finds it no negatives, and
    that step has no loss term.
    """
    text = "qoxv zejk wyfu"
    unlinkable = [Mention(s, s + 4, "not-a-label", text[s:s + 4]) for s in (0, 5, 10)]
    out = [[*batch, Chunk(parent_doc="dead", text=text, mentions=unlinkable)]
           for batch in batches]
    lone = batches[0][0]
    out.append([dataclasses.replace(lone, mentions=lone.mentions[:1])])
    return out


class TestAgainstPerLabelStep:
    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(pooling="mean", neg_mode="in_batch"),
        dict(loss="triplet", sim="cosine", on_the_fly=False),
        dict(neg_count="dyn", sim="dot", lr=0.05),  # over 64 labels per step
        dict(iterative=True, switch_after_spans=30),
        dict(pooling="mean", neg_mode="in_batch", edit=with_gradient_free_mentions),
        dict(batch_docs=40, widest=65),  # 90 anchors: a second search block
    ])
    def test_steps_equal_the_per_label_oracle(self, overrides):
        """Grouped passes, one search for a step's anchors, zero rows for
        mentions without a loss term and the phase order change no bit of
        a step."""
        overrides = dict(overrides)
        edit = overrides.pop("edit", list)
        widest = overrides.pop("widest", 0)  # loss terms some step must reach
        task = make_task(n_entities=90, n_surfaces=18, train_mentions=90,
                         dev_mentions=20, seed=4)
        config = small_config(**{"refresh_interval_spans": 40, "lr": 0.5, **overrides})
        grouped, reference = Trainer(task.records, config), Trainer(task.records, config)
        most_terms = 0
        for epoch in range(2):
            for trainer in (grouped, reference):
                trainer.refresh_cache()
            for seed_batches in zip(
                edit(make_batches(task.train_docs, config.batch_docs, config.limits,
                                  seed=[0, epoch])),
                edit(make_batches(task.train_docs, config.batch_docs, config.limits,
                                  seed=[0, epoch])),
            ):
                got = grouped.train_step(seed_batches[0])
                want = train_step_per_label(reference, seed_batches[1])
                assert got == want
                most_terms = max(most_terms, got.loss_terms)
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip(params_snapshot(grouped), params_snapshot(reference)))
        assert grouped.cache.matrix.tobytes() == reference.cache.matrix.tobytes()
        assert grouped.rng.random() == reference.rng.random()
        assert most_terms >= widest


class TestSparseStep:
    @settings(max_examples=200, deadline=None)
    @given(log_vocab=st.integers(0, 16), extra=st.integers(0, 9),
           dim=st.sampled_from([1, 3, 5, 8, 32, 64]),
           touched=st.integers(0, 300), special=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_pairwise_emulation_matches_np_sum(
        self, log_vocab, extra, dim, touched, special, seed
    ):
        """The clip's sparse square sum, replayed and by the dense fallback,
        has np.sum's bits over the dense table: tables shorter than one run
        of the replay, and tables split over many runs, also where numpy
        rounds a split down to a multiple of 8; rows scaled from 1e-8 to
        1e2, inf and nan."""
        rng = np.random.default_rng(seed)
        vocab = (1 << log_vocab) + extra
        rows = np.sort(rng.choice(vocab, size=min(touched, vocab), replace=False))
        values = rng.normal(size=(len(rows), dim)) * 10.0 ** rng.uniform(-8, 2, (len(rows), 1))
        for _ in range(special if len(rows) else 0):
            values[rng.integers(len(rows)), rng.integers(dim)] = rng.choice([np.inf, np.nan])
        squares = values * values
        dense = np.zeros((vocab, dim))
        dense[rows] = squares
        want = np.sum(dense).view(np.uint64)
        assert np.float64(tm._pairwise_sum(rows, squares, vocab)).view(np.uint64) == want
        with mock.patch.object(tm, "_emulation_exact", lambda: False):
            fallback = tm._table_square_sum(rows, squares, vocab)
        assert np.float64(fallback).view(np.uint64) == want

    @pytest.mark.parametrize("emulated", [True, False])
    def test_clipped_steps_equal_the_per_label_oracle(self, monkeypatch, emulated):
        """With the clip firing in every step, the emulated square sum and
        the dense fallback (taken where the emulation does not hold) both
        keep the oracle's bits."""
        if not emulated:
            def fail(*args):
                raise AssertionError("the emulation ran")

            monkeypatch.setattr(tm, "_emulation_exact", lambda: False)
            monkeypatch.setattr(tm, "_pairwise_sum", fail)
        task = make_task(n_entities=90, n_surfaces=18, train_mentions=90,
                         dev_mentions=20, seed=4)
        limits = (100, 2800)
        # gradient norms here run from 0.33 to 0.70, so a 0.3 clip fires
        # in every step; the unclipped control shows that it changes them
        clipped = small_config(refresh_interval_spans=40, lr=0.5, clip_norm=0.3)
        trainer, reference, control = (
            Trainer(task.records, config)
            for config in (clipped, clipped, small_config(refresh_interval_spans=40, lr=0.5))
        )
        for t in (trainer, reference, control):
            t.refresh_cache()
        for batch in make_batches(task.train_docs, clipped.batch_docs, limits, seed=[0, 0]):
            assert trainer.train_step(batch) == train_step_per_label(reference, batch)
            control.train_step(batch)
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip(params_snapshot(trainer), params_snapshot(reference)))
        assert not params_equal(params_snapshot(trainer), params_snapshot(control))

    @pytest.mark.parametrize("case", [-1e-9, -1e-15, 0.0, 1e-15, 1e-9, "nan", "inf"])
    def test_clip_at_the_bound_equals_the_dense_oracle(self, monkeypatch, case):
        """With a step's dense norm at max_norm * (1 + eps), or a nan or inf
        entry, the clip gives the dense np.sum clip's bits; only a norm the
        cheap sum proves below max_norm skips the replay."""
        captured = []
        monkeypatch.setattr(tm, "_clip_global_norm",
                            lambda a, b, *_: captured.append(copy.deepcopy((a, b))))
        trainer, task = make_trainer()
        trainer.train_step(make_batches(task.train_docs, 4, (100, 2800), seed=2)[0])
        monkeypatch.undo()
        vocab = trainer.config.vocab_size
        grads = captured[0]
        if isinstance(case, str):
            grads[0].table[0, 0] = float(case)
        dense = []
        for g in grads:
            table = np.zeros((vocab, g.table.shape[1]))
            table[g.rows] = g.table
            dense.append(dataclasses.replace(copy.deepcopy(g), table=table))
        total = sum(float(np.sum(t * t)) for g in dense
                    for t in (g.table, g.w_self, g.w_ctx, g.bias))
        max_norm = 0.5 if isinstance(case, str) else math.sqrt(total) / (1 + case)
        replays = []
        replay = tm._table_square_sum
        monkeypatch.setattr(tm, "_table_square_sum",
                            lambda *args: replays.append(1) or replay(*args))
        with np.errstate(invalid="ignore"):  # an inf clips to inf * 0.0
            tm._clip_global_norm(*grads, max_norm, vocab)
            clip_global_norm(*dense, max_norm)
        assert bool(replays) == (case != -1e-9)
        for got, want in zip(grads, dense):
            assert got.table.tobytes() == want.table[got.rows].tobytes()
            for name in ("w_self", "w_ctx", "bias"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_unclipped_steps_do_not_replay_the_dense_sum(self, monkeypatch):
        """Steps whose norms stay below the clip norm never run the replay
        or its self-check."""
        def fail(*args):
            raise AssertionError("the dense sum was replayed")

        monkeypatch.setattr(tm, "_table_square_sum", fail)
        monkeypatch.setattr(tm, "_emulation_exact", fail)
        trainer, task = make_trainer()
        steps = [trainer.train_step(batch)
                 for batch in make_batches(task.train_docs, 4, (100, 2800), seed=2)]
        assert all(s.loss_terms for s in steps)

    def test_step_allocates_less_than_one_table(self):
        """A step at V=65536, d=32 never holds a (V, d) float64 table."""
        task = tiny_task()
        trainer, _ = make_trainer(task=task, vocab_size=1 << 16, dim=32)
        batch = make_batches(task.train_docs, 4, (100, 2800), seed=2)[0]
        tracemalloc.start()
        try:
            stats = trainer.train_step(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.loss_terms
        assert peak < (1 << 16) * 32 * 8


class TestLossDecrease:
    @pytest.mark.parametrize("loss", ["triplet", "cross_entropy"])
    @pytest.mark.parametrize("sim", ["cosine", "dot", "euclidean"])
    def test_fifty_steps_reduce_loss_on_fixed_batch(self, loss, sim):
        lr = 0.01 if sim == "dot" else 0.05
        trainer, task = make_trainer(
            loss=loss, sim=sim, lr=lr, neg_count=2,
            refresh_interval_spans=0,
        )
        batch = make_batches(task.train_docs, 4, (100, 2800), seed=2)[0]
        first = trainer.train_step(batch).loss
        last = first
        for _ in range(49):
            last = trainer.train_step(batch).loss
        assert last < first, f"{loss}/{sim}: {first} -> {last}"


def inserted(state):
    """The indices of the mentions whose slot holds an insertion."""
    return [mi for mi, slot in enumerate(state.slots) if slot.inserted is not None]


class TestIterativeInsertions:
    def test_fraction_and_exclusions(self):
        task = tiny_task()
        trainer, _ = make_trainer(task=task, iterative=True)
        chunk = Chunk(
            parent_doc="d",
            text=" ".join(["babdab"] * 9),
            mentions=[
                Mention(7 * i, 7 * i + 6, f"E{i:02d}", "babdab") for i in range(9)
            ],
        )
        [state] = apply_iterative_insertions(
            [chunk], task.records, trainer.config, 0,
            np.random.default_rng(0), predict_fn=None,
        )
        assert len(inserted(state)) == 3  # ceil(9 / 3)
        text, spans = state.render()
        assert text != chunk.text
        for s, e in spans:
            assert text[s:e] == "babdab"

    def test_corrupt_rate_zero_inserts_gold(self):
        task = tiny_task()
        config = small_config(iterative=True, corrupt_rate=0.0, insert_fraction=0.999)
        chunk = Chunk(
            parent_doc="d",
            text="the aaa x the bbb y",
            mentions=[Mention(4, 7, "E00", "aaa"), Mention(14, 17, "E01", "bbb")],
        )
        [state] = apply_iterative_insertions(
            [chunk], task.records, config, 0,
            np.random.default_rng(1), predict_fn=None,
        )
        assert len(inserted(state)) == 2
        for rec_id in ("E00", "E01"):
            assert task.records[rec_id].description in state.render()[0]

    def test_corrupt_rate_one_inserts_only_wrong_labels(self):
        task = tiny_task()
        config = small_config(iterative=True, corrupt_rate=1.0, insert_fraction=0.999)
        mentions = [Mention(7 * i, 7 * i + 6, f"E{i:02d}", "babdab") for i in range(10)]
        chunk = Chunk(parent_doc="d", text=" ".join(["babdab"] * 10), mentions=mentions)
        [state] = apply_iterative_insertions(
            [chunk], task.records, config, 0,
            np.random.default_rng(2), predict_fn=None,
        )
        assert len(inserted(state)) == 10
        # no inserted parenthetical may describe its own mention's gold label
        text, spans = state.render()
        for mi, m in enumerate(mentions):
            s, e = spans[mi]
            close = text.index(")", e) + 1 if ")" in text[e:] else len(text)
            assert task.records[m.gold_label].description not in text[e:close]

    def test_switch_to_predictions_after_span_threshold(self):
        task = tiny_task()
        trainer, _ = make_trainer(task=task, iterative=True, switch_after_spans=10)
        chunk = Chunk(
            parent_doc="d",
            text="the aaa x the bbb y the ccc z",
            mentions=[Mention(4, 7, "E00", "aaa"), Mention(14, 17, "E01", "bbb"),
                      Mention(24, 27, "E02", "ccc")],
        )
        calls = []

        def fake_predict(chunks):
            from dualed.predictor import MentionPrediction

            calls.append(chunks)
            return [
                [MentionPrediction(m, f"E{(i + 5):02d}", float(i))
                 for i, m in enumerate(ch.mentions)]
                for ch in chunks
            ]

        [state] = apply_iterative_insertions(
            [chunk], task.records, trainer.config, 50,
            np.random.default_rng(3), predict_fn=fake_predict,
        )
        assert calls == [[chunk]], "one batch prediction after the switch"
        # insertions only for sampled mentions scoring above the median
        for mi in inserted(state):
            pred_desc = task.records[f"E{(mi + 5):02d}"].description
            assert state.slots[mi].inserted == pred_desc
            assert pred_desc in state.render()[0]

    def test_excluded_mentions_contribute_zero_gradient(self):
        # an iterative step must produce the exact update obtained by
        # dropping the excluded mentions' loss terms on the same texts
        task = tiny_task()
        batch = make_batches(task.train_docs, 4, (100, 2800), seed=4)[:1][0]
        overrides = dict(iterative=True, corrupt_rate=0.0,
                         refresh_interval_spans=0, neg_mode="hard", neg_count=2)

        trainer_a, _ = make_trainer(task=task, **overrides)
        stats_a = trainer_a.train_step(batch)
        assert stats_a.excluded

        # replay the insertion sampling with an identical rng stream to
        # recover the rendered (inserted) texts and their spans
        prep_trainer, _ = make_trainer(task=task, **overrides)
        states = apply_iterative_insertions(
            batch, task.records, prep_trainer.config, 0,
            np.random.default_rng(prep_trainer.config.seed), predict_fn=None,
        )
        excluded = {(ci, mi) for ci, state in enumerate(states) for mi in inserted(state)}
        assert excluded == stats_a.excluded

        def rebuilt_batch(drop_excluded):
            chunks = []
            for ci, (chunk, state) in enumerate(zip(batch, states)):
                text, spans = state.render()
                mentions = []
                for mi, (m, (s, e)) in enumerate(zip(chunk.mentions, spans)):
                    if drop_excluded and (ci, mi) in excluded:
                        continue
                    mentions.append(Mention(s, e, m.gold_label, text[s:e]))
                chunks.append(Chunk(parent_doc=chunk.parent_doc, text=text,
                                    mentions=mentions))
            return chunks

        # same texts, excluded loss terms absent -> identical update
        trainer_b, _ = make_trainer(task=task, **dict(overrides, iterative=False))
        trainer_b.train_step(rebuilt_batch(drop_excluded=True))
        assert params_equal(params_snapshot(trainer_a), params_snapshot(trainer_b))

        # control: keeping those loss terms must move the params differently
        trainer_c, _ = make_trainer(task=task, **dict(overrides, iterative=False))
        trainer_c.train_step(rebuilt_batch(drop_excluded=False))
        assert not params_equal(params_snapshot(trainer_a), params_snapshot(trainer_c))


class TestTrainLoop:
    def test_zero_epochs_is_a_noop_run(self):
        task = tiny_task()
        trainer = Trainer(task.records, small_config(epochs=0))
        before = params_snapshot(trainer)
        metrics = trainer.train(task.train_docs)
        assert metrics == []
        assert params_equal(before, params_snapshot(trainer))

    def test_lr_zero_leaves_params_at_init(self):
        task = tiny_task()
        trainer = Trainer(task.records, small_config(epochs=1, lr=0.0))
        before = params_snapshot(trainer)
        trainer.train(task.train_docs)
        assert params_equal(before, params_snapshot(trainer))

    def test_metrics_log_deterministic(self):
        task = tiny_task()
        logs = []
        for _ in range(2):
            trainer = Trainer(task.records, small_config(epochs=2))
            logs.append(trainer.train(task.train_docs, task.dev_docs))
        assert logs[0] == logs[1]

    def test_refresh_count_matches_schedule(self):
        task = tiny_task()
        config = small_config(epochs=3, refresh_interval_spans=25)
        trainer = Trainer(task.records, config)
        metrics = trainer.train(task.train_docs)
        total_spans = metrics[-1]["spans"]
        assert total_spans == 60 * 3
        assert metrics[-1]["refreshes"] == 3 + total_spans // 25

    def test_label_verbalizations_tokenized_once(self, monkeypatch):
        import dualed
        from dualed import encoder

        task = tiny_task()
        config = small_config(epochs=2, refresh_interval_spans=25)
        verbs = verbalize_all(task.records, config.verbalization)
        label_texts = {v.text for v in verbs.values()}
        assert len(label_texts) == len(verbs)
        calls = Counter()
        tokenize = encoder.tokenize

        def counting_tokenize(text, vocab_size):
            if text in label_texts:
                calls[text] += 1
            return tokenize(text, vocab_size)

        for name in dir(dualed):
            module = getattr(dualed, name)
            if inspect.ismodule(module) and hasattr(module, "tokenize"):
                monkeypatch.setattr(module, "tokenize", counting_tokenize)
        trainer = Trainer(task.records, config)
        metrics = trainer.train(task.train_docs, task.dev_docs)
        assert metrics[-1]["refreshes"] > config.epochs
        assert calls == Counter(label_texts)

    def test_refresh_disabled_only_epoch_refreshes(self):
        task = tiny_task()
        config = small_config(epochs=2, refresh_interval_spans=0)
        trainer = Trainer(task.records, config)
        metrics = trainer.train(task.train_docs)
        assert metrics[-1]["refreshes"] == 2


class TestLinkability:
    """A mention is linkable when its gold is one of the trainer's own labels;
    nothing stored on the corpus decides it."""

    @pytest.mark.parametrize("neg_mode", [tm.HARD, tm.IN_BATCH])
    @pytest.mark.parametrize("iterative", [False, True], ids=["one-shot", "iterative"])
    def test_unknown_golds_are_skipped(self, neg_mode, iterative):
        task = tiny_task()
        unknown = 0
        for doc in task.train_docs[::3]:
            doc.mentions[0].gold_label = "not-a-label"
            unknown += 1
        trainer = Trainer(task.records, small_config(
            epochs=2, neg_mode=neg_mode, iterative=iterative, switch_after_spans=30))
        skipped = []
        train_step = trainer.train_step

        def counting_step(batch):
            stats = train_step(batch)
            skipped.append(stats.skipped_unlinkable)
            return stats

        trainer.train_step = counting_step
        metrics = trainer.train(task.train_docs, task.dev_docs)
        assert [row["epoch"] for row in metrics] == [0, 1]
        assert sum(skipped) == 2 * unknown

    def test_each_trainer_skips_the_golds_missing_from_its_own_labels(self):
        task = tiny_task()
        half = {i: task.records[i] for i in sorted(task.records)[:6]}
        batches = make_batches(task.train_docs, 4, (100, 2800), seed=0)
        golds = [m.gold_label for batch in batches for c in batch for m in c.mentions]
        missing = {}
        for name, records in (("half", half), ("full", task.records)):
            trainer = Trainer(records, small_config())
            trainer.refresh_cache()
            skipped = sum(trainer.train_step(batch).skipped_unlinkable for batch in batches)
            assert skipped == sum(gold not in records for gold in golds)
            missing[name] = skipped
        assert 0 < missing["half"] < len(golds)
        assert missing["full"] == 0


class TestConfigParsing:
    def test_key_value_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nlr=0.1\nepochs=3\nneg_count=dyn\n\nsim=cosine\n")
        mapping = parse_config_file(path)
        config = TrainConfig.from_mapping(mapping)
        assert config.lr == 0.1
        assert config.epochs == 3
        assert config.neg_count == "dyn"
        assert config.sim == "cosine"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig.from_mapping({"warp_speed": "9"})

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("this is not a pair\n")
        with pytest.raises(ValidationError):
            parse_config_file(path)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(neg_mode="soft")
        with pytest.raises(ValidationError):
            TrainConfig(corrupt_rate=1.5)
        with pytest.raises(ValidationError):
            TrainConfig(insert_fraction=0.0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)

# any valid TrainConfig, with tables small enough to build a Trainer
CONFIGS = st.builds(
    TrainConfig,
    batch_docs=st.integers(1, 2**31),
    lr=st.floats(0, allow_infinity=False),
    epochs=st.integers(0, 2**31),
    sim=st.sampled_from(SIMILARITY_KINDS),
    loss=st.sampled_from(LOSS_KINDS),
    margin=st.none() | FINITE,
    pooling=st.sampled_from(POOLING_METHODS),
    neg_mode=st.sampled_from(["hard", "in_batch"]),
    neg_count=st.just("dyn") | st.integers(1, 2**31),
    neg_budget=st.integers(1, 2**31),
    refresh_interval_spans=st.integers(0, 2**31),
    on_the_fly=st.booleans(),
    iterative=st.booleans(),
    insert_fraction=st.just(1 / 3) | st.floats(0, 1, exclude_min=True, exclude_max=True),
    corrupt_rate=st.floats(0, 1),
    switch_after_spans=st.integers(0, 2**31),
    verbalization=st.sampled_from(FORMAT_NAMES),
    max_mentions_per_chunk=st.integers(1, 2**31),
    max_chars_per_chunk=st.integers(1, 2**31),
    vocab_size=st.sampled_from([1 << i for i in range(9)]),
    dim=st.integers(1, 6),
    window=st.integers(0, 2**32 - 1),
    clip_norm=st.floats(0, allow_infinity=False),
    seed=st.integers(0, 2**64),
)

RECORDS = {
    "a": EntityRecord(id="a", title="Alpha"),
    "b": EntityRecord(id="b", title="Beta", description="the second letter"),
}
METRICS = [{"epoch": 0, "loss": 1 / 3, "dev_acc": None, "refreshes": 1, "spans": 7}]


class TestModelDirectory:
    """``save_model`` writes checkpoint.bin, config.txt, metrics.jsonl and
    label_cache.bin; ``load_model`` reads the first two back, and
    ``load_predictor`` the label cache too."""

    @settings(max_examples=60, deadline=None)
    @given(config=CONFIGS)
    def test_saved_model_loads_back(self, config):
        trainer = Trainer(RECORDS, config)
        with tempfile.TemporaryDirectory() as tmp:
            save_model(tmp, trainer, METRICS)
            loaded, mention, label = load_model(f"{tmp}/checkpoint.bin")
            metrics = (Path(tmp) / "metrics.jsonl").read_text()
        assert loaded == config
        assert metrics == json.dumps(METRICS[0]) + "\n"
        for saved, got in ((trainer.mention_params, mention), (trainer.label_params, label)):
            assert got.window == saved.window
            for name in ("table", "w_self", "w_ctx", "bias"):
                # the checkpoint holds float32
                want = getattr(saved, name).astype(np.float32).astype(np.float64)
                assert np.array_equal(getattr(got, name), want), name

    def test_written_files_keep_their_bytes(self, tmp_path):
        save_model(tmp_path, Trainer(RECORDS, TrainConfig(vocab_size=256, dim=4, window=2)),
                   METRICS)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint.bin", "config.txt", "label_cache.bin", "metrics.jsonl"]
        assert (tmp_path / "config.txt").read_bytes() == (
            b"batch_docs=32\nlr=0.05\nepochs=5\nsim=euclidean\nloss=cross_entropy\n"
            b"margin=none\npooling=first_last\nneg_mode=hard\nneg_count=dyn\n"
            b"neg_budget=256\nrefresh_interval_spans=2000\non_the_fly=True\n"
            b"iterative=False\ninsert_fraction=0.3333333333333333\ncorrupt_rate=0.1\n"
            b"switch_after_spans=30000\nverbalization=title_desc_cat\n"
            b"max_mentions_per_chunk=100\nmax_chars_per_chunk=2800\nvocab_size=256\n"
            b"dim=4\nwindow=2\nclip_norm=1.0\nseed=0\n"
        )
        assert (tmp_path / "metrics.jsonl").read_bytes() == (
            b'{"epoch": 0, "loss": 0.3333333333333333, "dev_acc": null, "refreshes": 1, '
            b'"spans": 7}\n'
        )

    @pytest.mark.parametrize("key, value, header", [
        ("vocab_size", 512, 256), ("dim", 3, 4), ("window", 7, 2),
    ])
    def test_config_that_contradicts_the_header_is_rejected(self, tmp_path, key, value,
                                                            header):
        save_model(tmp_path, Trainer(RECORDS, TrainConfig(vocab_size=256, dim=4, window=2)),
                   METRICS)
        path = tmp_path / "config.txt"
        path.write_text(path.read_text().replace(f"{key}={header}\n", f"{key}={value}\n"))
        with pytest.raises(ValidationError,
                           match=f"sets {key}={value}, but the checkpoint header says {header}"):
            load_model(tmp_path / "checkpoint.bin")

    def test_config_that_omits_the_header_keys_loads(self, tmp_path):
        save_model(tmp_path, Trainer(RECORDS, TrainConfig(vocab_size=256, dim=4, window=2)),
                   METRICS)
        (tmp_path / "label_cache.bin").unlink()  # as in a model written before it
        (tmp_path / "config.txt").write_text("pooling=mean\n")
        config, mention, _ = load_model(tmp_path / "checkpoint.bin")
        assert config == TrainConfig(pooling="mean")  # the defaults say V=65536, d=64
        assert (mention.vocab_size, mention.dim, mention.window) == (256, 4, 2)

    @pytest.mark.parametrize("pooling", POOLING_METHODS)
    def test_stored_rows_equal_build_cache_on_the_loaded_encoder(self, tmp_path, pooling):
        task = tiny_task()
        trainer = Trainer(task.records, small_config(pooling=pooling))
        save_model(tmp_path, trainer, trainer.train(task.train_docs))
        _, _, label = load_model(tmp_path / "checkpoint.bin")
        config = small_config(pooling=pooling)
        want = build_cache(sorted(task.records), label,
                           tokenize_labels(verbalize_all(task.records, "title_desc"),
                                           label.vocab_size),
                           pooling, config.sim_spec)
        with mock.patch.object(tm, "tokenize_labels") as tokenize:
            _, _, cache = load_predictor(tmp_path / "checkpoint.bin", task.records)
        tokenize.assert_not_called()  # the stored rows were used
        assert cache.ids == want.ids
        assert cache.matrix.tobytes() == want.matrix.tobytes()

    def test_save_model_rounds_the_label_encoder_in_place(self, tmp_path):
        task = tiny_task()
        trainer = Trainer(task.records, small_config())
        save_model(tmp_path, trainer, trainer.train(task.train_docs))
        _, mention, label = load_model(tmp_path / "checkpoint.bin")
        for name in ("table", "w_self", "w_ctx", "bias"):
            # a loaded table is float32: compare it widened, as the forward reads it
            loaded = getattr(label, name).astype(np.float64)
            assert getattr(trainer.label_params, name).tobytes() == loaded.tobytes()
        # the mention encoder is left as trained
        assert not np.array_equal(trainer.mention_params.table, mention.table)

    def test_save_model_allocates_no_second_table(self, tmp_path):
        trainer = Trainer(RECORDS, TrainConfig(vocab_size=1 << 15, dim=16, window=2))
        table_bytes = trainer.label_params.table.nbytes
        tracemalloc.start()
        try:
            save_model(tmp_path, trainer, METRICS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # tensors go to float32 a row block at a time, never a whole table at once
        assert peak < table_bytes / 4

    @pytest.mark.parametrize("stored", [True, False], ids=["stored-rows", "rebuilt"])
    def test_load_predictor_widens_no_table(self, tmp_path, stored):
        trainer = Trainer(RECORDS, TrainConfig(vocab_size=1 << 15, dim=16, window=2))
        table_bytes = trainer.label_params.table.nbytes
        save_model(tmp_path, trainer, METRICS)
        del trainer
        if not stored:
            (tmp_path / "label_cache.bin").unlink()
        tracemalloc.start()
        try:
            load_predictor(tmp_path / "checkpoint.bin", RECORDS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Both float32 tables, read as one buffer, take the bytes of one
        # float64 table; widening either table whole would add another,
        # and a V x d temporary (an isfinite mask) an eighth of one.
        assert peak < 1.05 * table_bytes


class TestZeroUpdateRuns:
    """A run of one or more epochs that makes no loss term is an error."""

    def test_no_gold_in_the_label_set(self):
        task = tiny_task()
        records = {f"X{i}": EntityRecord(id=f"X{i}", title=r.title)
                   for i, r in task.records.items()}
        n = sum(len(doc.mentions) for doc in task.train_docs)
        trainer = Trainer(records, small_config(epochs=2))
        with pytest.raises(ValidationError, match=f"no update in 2 epochs: {2 * n} mentions "
                                                  f"skipped as unlinkable .*, 0 without"):
            trainer.train(task.train_docs)

    def test_in_batch_with_one_gold_per_batch(self):
        task = tiny_task()
        docs = [Document(id=f"d{i}", text=doc.text, mentions=doc.mentions[:1])
                for i, doc in enumerate(task.train_docs)]
        trainer = Trainer(task.records, small_config(neg_mode="in_batch", batch_docs=1))
        with pytest.raises(ValidationError, match=f"0 mentions skipped as unlinkable "
                                                  rf"\(gold not in the label set\), "
                                                  f"{len(docs)} without a negative"):
            trainer.train(docs)

    def test_zero_lr_and_zero_epochs_stay_valid(self):
        task = tiny_task()
        metrics = Trainer(task.records, small_config(lr=0.0)).train(task.train_docs)
        assert metrics[0]["loss"] > 0
        records = {"X": EntityRecord(id="X", title="nothing")}
        assert Trainer(records, small_config(epochs=0)).train(task.train_docs) == []


class TestRefreshReuse:
    def test_epoch_start_rows_are_a_full_refresh(self):
        """With a dev corpus, an epoch after the first starts from the dev
        evaluation's rows; they have the bits of re-encoding every label."""
        task = tiny_task()
        trainer = Trainer(task.records, small_config(epochs=3, refresh_interval_spans=0))
        seen = []

        def batches(*args, **kwargs):  # called right after the epoch's refresh
            want = encode_labels(trainer.label_params, trainer.label_tokens,
                                 trainer.cache.ids, trainer.config.pooling)
            seen.append((trainer.cache.matrix.tobytes() == want.tobytes(),
                         trainer.cache.dirty_writes, trainer.refreshes))
            return make_batches(*args, **kwargs)

        with mock.patch.object(tm, "full_refresh", wraps=tm.full_refresh) as refresh, \
                mock.patch.object(tm, "make_batches", side_effect=batches):
            metrics = trainer.train(task.train_docs, task.dev_docs)
        assert seen == [(True, 0, 1), (True, 0, 2), (True, 0, 3)]
        assert [row["refreshes"] for row in metrics] == [1, 2, 3]
        # the first epoch's refresh only: the dev evaluations build their own caches
        assert refresh.call_count == 1

    def test_a_step_across_several_boundaries_encodes_the_labels_once(self, tmp_path):
        """At an interval shorter than a step's spans, a step counts every
        boundary it crosses but makes one full refresh, and the model
        directory has the bytes of refreshing at every boundary."""
        task = tiny_task()
        config = small_config(epochs=2, refresh_interval_spans=3, batch_docs=8)

        def per_boundary(trainer, before, after):  # a refresh at every boundary
            fires = after // 3 - before // 3
            for _ in range(fires):
                trainer.refresh_cache()
            return fires

        def train(out, interval_refreshes):
            trainer = Trainer(task.records, config)
            step, fired = trainer.train_step, []

            def counted_step(batch):
                stats = step(batch)
                fired.append(stats.refreshes)
                return stats

            with mock.patch.object(tm, "full_refresh", wraps=tm.full_refresh) as refresh, \
                    mock.patch.object(trainer, "train_step", counted_step), \
                    mock.patch.object(Trainer, "_interval_refreshes", interval_refreshes):
                metrics = trainer.train(task.train_docs)
            out.mkdir()
            save_model(out, trainer, metrics)
            return metrics, fired, refresh.call_count, {
                f.name: f.read_bytes() for f in out.iterdir()}

        metrics, fired, encodes, once = train(tmp_path / "once", Trainer._interval_refreshes)
        assert max(fired) > 1
        assert encodes == config.epochs + sum(n > 0 for n in fired)
        assert metrics[-1]["refreshes"] == config.epochs + sum(fired) == 2 + 120 // 3
        *_, every = train(tmp_path / "every", per_boundary)
        assert once == every
