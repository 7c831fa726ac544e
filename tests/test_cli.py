"""End-to-end checks of every subcommand on a small synthetic task."""

import contextlib
import io
import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualed import cli
from dualed import trainer as tm
from dualed.cli import main
from dualed.corpus import Document, EntityRecord, Mention, load_corpus, load_label_set
from dualed.encoder import EncoderParams, load_checkpoint, save_checkpoint
from dualed.errors import ValidationError
from dualed.predictor import predict_corpus, target_label_set
from dualed.synthetic import make_task, write_corpus_file, write_label_file
from dualed.trainer import TrainConfig, Trainer


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    task = make_task(n_entities=12, n_surfaces=4, train_mentions=80,
                     dev_mentions=24, seed=2)
    write_corpus_file(task.train_docs, root / "train.jsonl")
    write_corpus_file(task.dev_docs, root / "dev.jsonl")
    write_label_file(task.records, root / "labels.jsonl")
    (root / "config.txt").write_text(
        "epochs=2\nlr=0.5\nvocab_size=4096\ndim=8\nwindow=4\n"
        "neg_count=2\nrefresh_interval_spans=40\n"
        "verbalization=title_desc\nbatch_docs=8\nseed=0\n"
    )
    return root


def run(*argv):
    return main([str(a) for a in argv])


class TestVerbalizeCommand:
    def test_writes_expected_jsonl(self, workspace):
        out = workspace / "verbs.jsonl"
        assert run("verbalize", "--labels", workspace / "labels.jsonl",
                   "--format", "title_desc", "--out", out) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 12
        for row in rows:
            assert set(row) == {"id", "text", "title_span"}
            s, e = row["title_span"]
            assert row["text"][s:e] == row["text"][:e]

    def test_unknown_format_is_validation_error(self, workspace, capsys):
        code = run("verbalize", "--labels", workspace / "labels.jsonl",
                   "--format", "nope", "--out", workspace / "x.jsonl")
        assert code == 1


class TestTrainPredictEvalPipeline:
    def test_full_pipeline(self, workspace, capsys):
        run_dir = workspace / "run"
        assert run("train", "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--dev", workspace / "dev.jsonl",
                   "--config", workspace / "config.txt",
                   "--out", run_dir) == 0
        assert (run_dir / "checkpoint.bin").exists()
        metrics = [
            json.loads(line)
            for line in (run_dir / "metrics.jsonl").read_text().splitlines()
        ]
        assert [m["epoch"] for m in metrics] == [0, 1]
        assert all(
            set(m) == {"epoch", "loss", "dev_acc", "refreshes", "spans"}
            for m in metrics
        )

        pred_file = workspace / "preds.jsonl"
        assert run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", run_dir / "checkpoint.bin", "--out", pred_file) == 0
        rows = [json.loads(line) for line in pred_file.read_text().splitlines()]
        assert len(rows) == 24
        assert set(rows[0]) == {"doc", "start", "end", "pred", "score", "gold",
                                "iterations"}

        report_file = workspace / "report.json"
        assert run("eval", "--pred", pred_file,
                   "--gold-corpus", workspace / "dev.jsonl",
                   "--json-out", report_file) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        report = json.loads(report_file.read_text())
        assert report["mentions"] == 24
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_flag_overrides_config_file(self, workspace):
        run_dir = workspace / "run_flag"
        assert run("train", "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--config", workspace / "config.txt",
                   "--epochs", "1", "--out", run_dir) == 0
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert "epochs=1" in (run_dir / "config.txt").read_text()

    def test_iterative_and_restricted_predict(self, workspace):
        run_dir = workspace / "run"
        pred_file = workspace / "preds_iter.jsonl"
        assert run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", run_dir / "checkpoint.bin",
                   "--iterative", "--restrict-to-targets",
                   "--out", pred_file) == 0
        rows = [json.loads(line) for line in pred_file.read_text().splitlines()]
        gold_ids = {r["gold"] for r in rows}
        assert all(r["pred"] in gold_ids for r in rows)
        assert any(r["iterations"] >= 1 for r in rows)

    def test_eval_with_first_pass_change_table(self, workspace, capsys):
        run_dir = workspace / "run"
        one_shot = workspace / "preds.jsonl"
        iterative = workspace / "preds_iter2.jsonl"
        assert run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", run_dir / "checkpoint.bin",
                   "--iterative", "--out", iterative) == 0
        report_file = workspace / "report_changes.json"
        assert run("eval", "--pred", iterative,
                   "--gold-corpus", workspace / "dev.jsonl",
                   "--first-pass", one_shot,
                   "--json-out", report_file) == 0
        report = json.loads(report_file.read_text())
        changes = report["changes"]
        assert list(changes) == ["correct", "incorrect_to_correct", "correct_to_incorrect",
                                 "incorrect", "first_pass_accuracy", "last_pass_accuracy"]
        four = (changes["correct"] + changes["incorrect_to_correct"]
                + changes["correct_to_incorrect"] + changes["incorrect"])
        assert four == report["mentions"]


    def test_predict_uses_the_eval_cache_without_a_trainer(self, workspace, monkeypatch):
        run_dir = workspace / "run_eval_cache"
        assert run("train", "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--config", workspace / "config.txt",
                   "--epochs", "1", "--out", run_dir) == 0

        def no_trainer(*args, **kwargs):
            raise AssertionError("predict constructed a Trainer")

        monkeypatch.setattr(cli, "Trainer", no_trainer)
        pred_file = workspace / "preds_eval_cache.jsonl"
        assert run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", run_dir / "checkpoint.bin", "--out", pred_file) == 0

        mention, label, _ = load_checkpoint(run_dir / "checkpoint.bin")
        records = load_label_set(workspace / "labels.jsonl")
        config = TrainConfig(verbalization="title_desc", vocab_size=label.vocab_size,
                             dim=label.dim, window=label.window)
        trainer = Trainer(records, config)
        trainer.mention_params, trainer.label_params = mention, label
        cache = trainer.eval_cache()
        expected = predict_corpus(load_corpus(workspace / "dev.jsonl"), mention, cache,
                                  records,
                                  limits=(config.max_mentions_per_chunk,
                                          config.max_chars_per_chunk)).final
        rows = [json.loads(line) for line in pred_file.read_text().splitlines()]
        assert len(rows) == len(expected)
        for row in rows:
            want = expected[(row["doc"], row["start"], row["end"])]
            assert (row["pred"], row["score"]) == (want.predicted_id, want.score)


MODES = {"one": [], "iterative": ["--iterative"], "restricted": ["--restrict-to-targets"]}


class TestPredictReadsTheTrainingConfig:
    """``predict`` scores the model that ``train --out`` wrote: pooling,
    similarity, verbalization and chunk limits come from the config.txt
    beside the checkpoint, and no flag can set them."""

    LIMITS = (2, 80)  # the dev documents hold 1-4 mentions in 50-200 characters

    @pytest.mark.parametrize("sim", ["cosine", "dot"])
    def test_rows_equal_predict_corpus_under_the_trained_config(self, workspace, tmp_path,
                                                                  sim):
        run_dir = tmp_path / "run"
        assert run("train", "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--config", workspace / "config.txt", "--epochs", "1",
                   "--pooling", "mean", "--sim", sim, "--verbalization", "title",
                   "--max-mentions-per-chunk", self.LIMITS[0],
                   "--max-chars-per-chunk", self.LIMITS[1], "--out", run_dir) == 0

        mention, label, _ = load_checkpoint(run_dir / "checkpoint.bin")
        records = load_label_set(workspace / "labels.jsonl")
        config = TrainConfig(pooling="mean", sim=sim, verbalization="title",
                             vocab_size=label.vocab_size, dim=label.dim, window=label.window)
        trainer = Trainer(records, config)
        trainer.mention_params, trainer.label_params = mention, label
        cache = trainer.eval_cache()
        docs = load_corpus(workspace / "dev.jsonl")
        for mode, flags in MODES.items():
            expected = predict_corpus(
                docs, mention, cache, records, limits=self.LIMITS,
                iterative=mode == "iterative",
                allowed_ids=target_label_set(docs, cache) if mode == "restricted" else None)
            out = tmp_path / f"{mode}.jsonl"
            assert run("predict", "--corpus", workspace / "dev.jsonl",
                       "--labels", workspace / "labels.jsonl",
                       "--checkpoint", run_dir / "checkpoint.bin", "--out", out, *flags) == 0
            rows = [json.loads(line) for line in out.read_text().splitlines()]
            assert [(r["doc"], r["start"], r["end"]) for r in rows] == list(expected.final)
            for row in rows:
                key = (row["doc"], row["start"], row["end"])
                want = expected.final[key]
                assert (row["pred"], row["score"], row["iterations"]) == (
                    want.predicted_id, want.score, expected.iterations[key]), mode

    @pytest.mark.parametrize("flag, value", [
        ("--format", "title_desc"), ("--pooling", "mean"), ("--sim", "cosine"),
        ("--max-mentions-per-chunk", "5"), ("--max-chars-per-chunk", "500"),
    ])
    def test_model_flags_are_gone(self, workspace, capsys, flag, value):
        with pytest.raises(SystemExit):
            main(["predict", "--help"])
        assert flag not in capsys.readouterr().out
        code = run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", workspace / "run" / "checkpoint.bin",
                   "--out", workspace / "x.jsonl", flag, value)
        assert code == 1
        assert flag in capsys.readouterr().err

    def test_config_from_another_run_is_validation_error(self, workspace, tmp_path, capsys):
        """A V = 2048, d = 16 run's config.txt beside a V = 1024, d = 8 checkpoint."""
        for name, flags in (("big", ["--vocab-size", "2048", "--dim", "16",
                                      "--pooling", "mean"]),
                            ("small", ["--vocab-size", "1024", "--dim", "8"])):
            assert run("train", "--corpus", workspace / "train.jsonl",
                       "--labels", workspace / "labels.jsonl",
                       "--config", workspace / "config.txt", "--epochs", "1", *flags,
                       "--out", tmp_path / name) == 0
        (tmp_path / "small" / "config.txt").write_bytes(
            (tmp_path / "big" / "config.txt").read_bytes())
        code = run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", tmp_path / "small" / "checkpoint.bin",
                   "--out", tmp_path / "x.jsonl")
        assert code == 1
        assert ("sets vocab_size=2048, but the checkpoint header says 1024"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.jsonl").exists()

    def test_missing_config_is_validation_error(self, workspace, tmp_path, capsys):
        model = tmp_path / "checkpoint.bin"
        save_checkpoint(model, EncoderParams.init(64, 4, 2, seed=0),
                        EncoderParams.init(64, 4, 2, seed=1))
        code = run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", model, "--out", tmp_path / "x.jsonl")
        err = capsys.readouterr().err
        assert code == 1
        assert str(tmp_path / "config.txt") in err and "train --out" in err

    @pytest.mark.parametrize("text, key", [
        pytest.param("epochs=two\n", "epochs", id="bad-value"),
        pytest.param("label_batch_size=16\n", "label_batch_size", id="unknown-key"),
        pytest.param("sim=euclidean\npooling\n", "line 2", id="no-equals"),
        pytest.param("sim=bogus\n", "sim must be one of", id="unknown-sim"),
        pytest.param("pooling=bogus\n", "pooling must be one of", id="unknown-pooling"),
        pytest.param("verbalization=bogus\n", "verbalization must be one of",
                     id="unknown-format"),
        # written with surrogateescape: \udcff is the byte 0xff
        pytest.param("seed=0\nsim=e\udcffuclidean\n", "line 2: not UTF-8", id="not-utf8"),
    ])
    def test_malformed_config_is_validation_error(self, workspace, tmp_path, capsys,
                                                   text, key):
        model = tmp_path / "checkpoint.bin"
        save_checkpoint(model, EncoderParams.init(64, 4, 2, seed=0),
                        EncoderParams.init(64, 4, 2, seed=1))
        (tmp_path / "config.txt").write_text(text, encoding="utf-8", errors="surrogateescape")
        code = run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", model, "--out", tmp_path / "x.jsonl")
        assert code == 1
        assert key in capsys.readouterr().err


class TestStoredLabelCache:
    """``train`` stores the label cache ``predict`` would build; ``predict``
    uses its rows only when they are provably those rows."""

    @pytest.fixture(scope="class")
    def model(self, workspace, tmp_path_factory):
        out = tmp_path_factory.mktemp("stored") / "run"
        assert run("train", "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--config", workspace / "config.txt", "--epochs", "1",
                   "--out", out) == 0
        return out

    @staticmethod
    def predict(workspace, model_dir, out, flags=(), labels=None):
        """Predict in every mode; returns (tokenize_labels calls, bytes per mode)."""
        calls, outputs = 0, {}
        for mode, extra in MODES.items():
            with mock.patch("dualed.trainer.tokenize_labels",
                            wraps=tm.tokenize_labels) as tokenize:
                assert run("predict", "--corpus", workspace / "dev.jsonl",
                           "--labels", labels or workspace / "labels.jsonl",
                           "--checkpoint", model_dir / "checkpoint.bin",
                           "--out", out / f"{mode}.jsonl", *extra, *flags) == 0
            calls += tokenize.call_count
            outputs[mode] = (out / f"{mode}.jsonl").read_bytes()
        return calls, outputs

    @staticmethod
    def copy_model(src, dst):
        dst.mkdir()
        for f in src.iterdir():
            (dst / f.name).write_bytes(f.read_bytes())
        return dst

    def test_modes_are_byte_identical_with_and_without_the_file(self, workspace, model,
                                                                 tmp_path):
        stored_calls, stored = self.predict(workspace, model, tmp_path)
        bare = self.copy_model(model, tmp_path / "bare")
        (bare / "label_cache.bin").unlink()  # a model written before label caches
        rebuilt_calls, rebuilt = self.predict(workspace, bare, tmp_path)
        assert (stored_calls, rebuilt_calls) == (0, len(MODES))
        assert stored == rebuilt

    @pytest.mark.parametrize("case", ["other-checkpoint", "other-labels"])
    def test_a_cache_of_another_encoder_or_label_set_is_rebuilt(self, workspace, model,
                                                                  tmp_path, case):
        labels = None
        moved = self.copy_model(model, tmp_path / "moved")
        if case == "other-checkpoint":  # the same config trained on other data
            other = tmp_path / "other"
            assert run("train", "--corpus", workspace / "dev.jsonl",
                       "--labels", workspace / "labels.jsonl",
                       "--config", model / "config.txt", "--out", other) == 0
            assert (other / "config.txt").read_bytes() == (model / "config.txt").read_bytes()
            (moved / "checkpoint.bin").write_bytes((other / "checkpoint.bin").read_bytes())
        else:  # one description changed
            rows = [json.loads(line) for line in
                    (workspace / "labels.jsonl").read_text().splitlines()]
            rows[3]["description"] = "another description"
            labels = tmp_path / "labels.jsonl"
            labels.write_text("".join(json.dumps(r) + "\n" for r in rows))
        calls, got = self.predict(workspace, moved, tmp_path, labels=labels)
        (moved / "label_cache.bin").unlink()
        _, want = self.predict(workspace, moved, tmp_path, labels=labels)
        assert calls == len(MODES)
        assert got == want

    def test_a_config_txt_copied_from_another_run_is_validation_error(self, workspace,
                                                                       model, tmp_path,
                                                                       capsys):
        """Same V, d and window, another pooling: the header cannot tell."""
        other = tmp_path / "mean"
        assert run("train", "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--config", model / "config.txt", "--pooling", "mean",
                   "--out", other) == 0
        moved = self.copy_model(model, tmp_path / "moved")
        (moved / "config.txt").write_bytes((other / "config.txt").read_bytes())
        code = run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", moved / "checkpoint.bin", "--out", tmp_path / "x.jsonl")
        assert code == 1
        assert (f"{moved / 'config.txt'} is not the config the checkpoint beside it was "
                f"trained with") in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda b: b"VRBLC0" + b[6:], id="bad-magic"),
        pytest.param(lambda b: b[:50], id="truncated-header"),
        pytest.param(lambda b: b[:-8], id="truncated-rows"),
        pytest.param(lambda b: b + b"\0", id="appended-byte"),
        pytest.param(lambda b: b[:102] + struct.pack("<I", 13) + b[106:], id="row-count"),
        pytest.param(lambda b: b[:118] + b"{" + b[119:], id="ids-not-json"),
        pytest.param(lambda b: b[:-8] + struct.pack("<d", float("nan")), id="nan-row"),
        pytest.param(lambda b: b[:-16] + struct.pack("<d", -np.inf) + b[-8:], id="inf-row"),
    ])
    def test_a_malformed_file_is_validation_error(self, workspace, model, tmp_path, capsys,
                                                  damage):
        moved = self.copy_model(model, tmp_path / "moved")
        path = moved / "label_cache.bin"
        path.write_bytes(damage(path.read_bytes()))
        code = run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", moved / "checkpoint.bin", "--out", tmp_path / "x.jsonl")
        assert code == 1
        assert str(path) in capsys.readouterr().err


class TestTrainWithoutUpdates:
    def test_a_corpus_with_no_gold_in_the_labels_fails_before_out(self, workspace,
                                                                   tmp_path, capsys):
        rows = [json.loads(line) for line in
                (workspace / "labels.jsonl").read_text().splitlines()]
        labels = tmp_path / "labels.jsonl"
        labels.write_text("".join(json.dumps(dict(r, id="X" + r["id"])) + "\n"
                                  for r in rows))
        with mock.patch.object(cli.Trainer, "train") as train:
            code = run("train", "--corpus", workspace / "train.jsonl", "--labels", labels,
                       "--config", workspace / "config.txt", "--out", tmp_path / "run")
        assert code == 1
        err = capsys.readouterr().err
        assert f"{workspace / 'train.jsonl'}: no mention has its gold label in {labels}" in err
        train.assert_not_called()
        assert not (tmp_path / "run").exists()
        assert run("train", "--corpus", workspace / "train.jsonl", "--labels", labels,
                   "--config", workspace / "config.txt", "--epochs", "0",
                   "--out", tmp_path / "run") == 0


class TestInputsThatCannotTrain:
    """A mention or title without a token, or a mention no chunk can hold,
    fails before training, naming its file; ``train`` leaves no --out."""

    LONG = "a" * 2801  # longer than the default max_chars_per_chunk

    @pytest.mark.parametrize("flag, row, message", [
        pytest.param("--corpus", {"id": "d", "text": "alpha -- beta", "mentions": [
            {"start": 6, "end": 8, "label": "E00"}]},
            "line 1: document 'd': mention (6, 8) '--' holds no letter or digit",
            id="mention-without-token"),
        pytest.param("--labels", {"id": "E00", "title": "!!!"},
                     "line 1: entity 'E00': title '!!!' holds no letter or digit",
                     id="title-without-token"),
        pytest.param("--corpus", {"id": "d", "text": LONG, "mentions": [
            {"start": 0, "end": 2801, "label": "E00"}]},
            "document 'd': mention (0, 2801) is longer than max_chars_per_chunk=2800",
            id="corpus-mention-longer-than-a-chunk"),
        pytest.param("--dev", {"id": "d", "text": LONG, "mentions": [
            {"start": 0, "end": 2801, "label": "E00"}]},
            "document 'd': mention (0, 2801) is longer than max_chars_per_chunk=2800",
            id="dev-mention-longer-than-a-chunk"),
    ])
    def test_train_fails_before_out(self, workspace, tmp_path, capsys, flag, row, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(row) + "\n")
        argv = {"--corpus": workspace / "train.jsonl", "--dev": workspace / "dev.jsonl",
                "--labels": workspace / "labels.jsonl", flag: bad}
        with mock.patch.object(cli.Trainer, "train") as train:
            code = run("train", *(arg for pair in argv.items() for arg in pair),
                       "--config", workspace / "config.txt", "--out", tmp_path / "run")
        assert code == 1
        assert f"error: {bad}: {message}" in capsys.readouterr().err
        train.assert_not_called()
        assert not (tmp_path / "run").exists()

    def test_ablate_names_the_dev_corpus_of_a_mention_longer_than_a_chunk(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("VERBALIZED_THREADS", "1")
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"id": "d", "text": self.LONG, "mentions": [
            {"start": 0, "end": 2801, "label": "E00"}]}) + "\n")
        with mock.patch.object(cli.Trainer, "train") as train:
            code = run("ablate", "--axis", "pooling", "--seeds", "0",
                       "--corpus", workspace / "train.jsonl",
                       "--labels", workspace / "labels.jsonl", "--dev", bad)
        assert code == 1
        assert f"error: {bad}: document 'd': mention (0, 2801)" in capsys.readouterr().err
        train.assert_not_called()

    def test_predict_names_the_corpus_of_a_mention_longer_than_a_chunk(
        self, workspace, tmp_path, capsys
    ):
        assert run("train", "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl", "--config", workspace / "config.txt",
                   "--epochs", "1", "--max-chars-per-chunk", "40", "--out", tmp_path / "run") == 0
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"id": "d", "text": "a" * 41, "mentions": [
            {"start": 0, "end": 41, "label": "E00"}]}) + "\n")
        code = run("predict", "--corpus", bad, "--labels", workspace / "labels.jsonl",
                   "--checkpoint", tmp_path / "run" / "checkpoint.bin",
                   "--out", tmp_path / "x.jsonl")
        assert code == 1
        assert (f"error: {bad}: document 'd': mention (0, 41) is longer than "
                f"max_chars_per_chunk=40") in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()


@st.composite
def small_inputs(draw):
    """One to three documents of short words and one to four labels; a word
    or a title may hold no letter or digit, and the chunks may be too short
    for a mention."""
    records = {f"E{i}": EntityRecord(
        id=f"E{i}", title=draw(st.sampled_from(["a", "b é", "ab!", "ba", "é a", "!!"])),
        description=draw(st.sampled_from([None, "ba", "?"]))
    ) for i in range(draw(st.integers(1, 4)))}
    word = st.sampled_from(["ab", "bé", "a-b", "éa", "ba", "b", "aé", "--"])
    gold = st.sampled_from(sorted(records) + ["X"])
    docs = []
    for i in range(draw(st.integers(1, 3))):
        words = draw(st.lists(word, min_size=1, max_size=6))
        mentions, pos = [], 0
        for w in words:
            if draw(st.sampled_from([True, True, False])):
                mentions.append(Mention(pos, pos + len(w), draw(gold), w))
            pos += len(w) + 1
        docs.append(Document(f"d{i}", " ".join(words), mentions))
    config = {"epochs": 1, "vocab_size": 256, "dim": 4, "window": 2, "neg_count": 1,
              "batch_docs": 2, "refresh_interval_spans": 3, "verbalization": "title_desc",
              "max_chars_per_chunk": draw(st.integers(2, 40)),
              "neg_mode": draw(st.sampled_from(["hard", "in_batch"])),
              "iterative": draw(st.booleans()), "switch_after_spans": 2}
    return docs, records, config


class TestInputsLoadOrRun:
    @settings(max_examples=60, deadline=None)
    @given(inputs=small_inputs())
    def test_loading_fails_naming_the_file_or_every_command_runs(self, inputs):
        """Either loading fails with a validation error naming the file, or
        training and all three predict modes finish. The one exception is a
        run that makes no update."""
        docs, records, config = inputs
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            corpus, labels, out = root / "corpus.jsonl", root / "labels.jsonl", root / "run"
            write_corpus_file(docs, corpus)
            write_label_file(records, labels)
            (root / "config.txt").write_text("".join(f"{k}={v}\n" for k, v in config.items()))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run("train", "--corpus", corpus, "--labels", labels,
                           "--config", root / "config.txt", "--out", out)
            if code:
                assert code == 1
                assert (err.getvalue().startswith((f"error: {corpus}: ", f"error: {labels}: "))
                        or "training made no update" in err.getvalue()), err.getvalue()
                assert "training made no update" in err.getvalue() or not out.exists()
                return
            for extra in MODES.values():
                assert run("predict", "--corpus", corpus, "--labels", labels,
                           "--checkpoint", out / "checkpoint.bin",
                           "--out", root / "pred.jsonl", *extra) == 0


def save_unchecked(path, mention, label):
    """save_checkpoint's byte layout without its finiteness check, so a
    checkpoint can hold the NaN or infinity that a reader must reject."""
    with open(path, "wb") as fh:
        fh.write(b"VRBED1" + struct.pack("<III", mention.vocab_size, mention.dim,
                                          mention.window))
        for p in (mention, label):
            for tensor in (p.table, p.w_self, p.w_ctx, p.bias):
                fh.write(np.asarray(tensor, dtype="<f4").tobytes())


class TestNonFiniteCheckpoint:
    """A NaN or infinity anywhere in a checkpoint is a validation error in
    every predict mode, before anything is written."""

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_mention_table(self, workspace, tmp_path, capsys, mode, value):
        mention = EncoderParams.init(64, 4, 2, seed=0)
        mention.table[5, 1] = value
        save_unchecked(tmp_path / "checkpoint.bin", mention,
                       EncoderParams.init(64, 4, 2, seed=1))
        (tmp_path / "config.txt").write_text("")
        code = run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", tmp_path / "checkpoint.bin",
                   "--out", tmp_path / "x.jsonl", *MODES[mode])
        assert code == 1
        assert "mention encoder's table" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("encoder", ["mention", "label"])
    @pytest.mark.parametrize("tensor", ["table", "w_self", "w_ctx", "bias"])
    def test_every_tensor_is_checked(self, tmp_path, encoder, tensor):
        params = {"mention": EncoderParams.init(8, 2, 1, seed=0),
                  "label": EncoderParams.init(8, 2, 1, seed=1)}
        getattr(params[encoder], tensor).flat[-1] = np.nan
        save_unchecked(tmp_path / "checkpoint.bin", params["mention"], params["label"])
        with pytest.raises(ValidationError, match=f"{encoder} encoder's {tensor} "):
            load_checkpoint(tmp_path / "checkpoint.bin")


# header words: edge values, small values and any uint32
HEADER_WORDS = st.sampled_from([0, 1, 2, 16, 2**31, 2**32 - 1]) | st.integers(0, 40) \
    | st.integers(0, 2**32 - 1)


class TestCheckpointFuzz:
    """Checkpoints made from a valid V = 16, d = 2 file: ``predict`` exits 1
    when the header is invalid or the file size is not the one it implies,
    exits 0 on a valid file of finite tensors, and never exits 2. The
    checkpoint's config.txt is empty, so only the header decides V, d and
    the window."""

    @staticmethod
    def predict(workspace, data):
        model = workspace / "fuzz" / "fuzz.bin"
        model.write_bytes(data)
        return run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", model, "--out", workspace / "fuzz.jsonl")

    @pytest.fixture(scope="class")
    def valid(self, workspace):
        (workspace / "fuzz").mkdir()
        (workspace / "fuzz" / "config.txt").write_text("")
        save_checkpoint(workspace / "valid.bin", EncoderParams.init(16, 2, 1, seed=0),
                        EncoderParams.init(16, 2, 1, seed=1))
        data = (workspace / "valid.bin").read_bytes()
        assert self.predict(workspace, data) == 0
        return data

    def test_every_truncation(self, workspace, valid):
        for size in range(len(valid)):
            assert self.predict(workspace, valid[:size]) == 1, size

    @settings(max_examples=60, deadline=None)
    @given(words=st.tuples(HEADER_WORDS, HEADER_WORDS, HEADER_WORDS))
    def test_random_header_words(self, workspace, valid, words):
        v, d, _ = words
        accepted = (v, d) == (16, 2)  # the only (V, d) that fits the body
        code = self.predict(workspace, valid[:6] + struct.pack("<III", *words) + valid[18:])
        assert code == (0 if accepted else 1)

    @settings(max_examples=30, deadline=None)
    @given(v=st.sampled_from([1 << i for i in range(7)]), d=st.integers(1, 4),
           window=HEADER_WORDS, data=st.data())
    def test_valid_header_with_random_tensors(self, workspace, valid, v, d, window, data):
        size = 8 * (v * d + 2 * d * d + d)
        body = data.draw(st.binary(min_size=size, max_size=size))
        code = self.predict(workspace, valid[:6] + struct.pack("<III", v, d, window) + body)
        # finite tensors predict; NaN or infinity is rejected
        assert code == (0 if np.isfinite(np.frombuffer(body, dtype="<f4")).all() else 1)

    @settings(max_examples=20, deadline=None)
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_appended_bytes(self, workspace, valid, extra):
        assert self.predict(workspace, valid + extra) == 1


class TestDeterminism:
    def test_written_config_retrains_identically(self, workspace):
        first = workspace / "roundtrip_a"
        assert run("train", "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--config", workspace / "config.txt",
                   "--epochs", "1", "--out", first) == 0
        assert "margin=none" in (first / "config.txt").read_text()
        second = workspace / "roundtrip_b"
        assert run("train", "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--config", first / "config.txt", "--out", second) == 0
        assert (first / "config.txt").read_bytes() == (second / "config.txt").read_bytes()
        assert (first / "checkpoint.bin").read_bytes() == (
            second / "checkpoint.bin").read_bytes()

    def test_train_predict_byte_identical(self, workspace):
        outputs = []
        for tag in ("a", "b"):
            run_dir = workspace / f"det_{tag}"
            assert run("train", "--corpus", workspace / "train.jsonl",
                       "--labels", workspace / "labels.jsonl",
                       "--dev", workspace / "dev.jsonl",
                       "--config", workspace / "config.txt",
                       "--out", run_dir) == 0
            pred_file = workspace / f"det_preds_{tag}.jsonl"
            assert run("predict", "--corpus", workspace / "dev.jsonl",
                       "--labels", workspace / "labels.jsonl",
                       "--checkpoint", run_dir / "checkpoint.bin", "--out", pred_file) == 0
            outputs.append(
                (
                    (run_dir / "metrics.jsonl").read_bytes(),
                    (run_dir / "checkpoint.bin").read_bytes(),
                    pred_file.read_bytes(),
                )
            )
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert outputs[0][2] == outputs[1][2]


class TestAblateCommand:
    def test_pooling_axis_table(self, workspace, capsys):
        assert run("ablate", "--axis", "pooling",
                   "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--dev", workspace / "dev.jsonl",
                   "--config", workspace / "config.txt",
                   "--epochs", "1", "--seeds", "0") == 0
        out = capsys.readouterr().out
        assert "mean" in out
        assert "first_last" in out

    def test_single_variant_single_seed_sd_zero(self, workspace):
        from dualed.cli import AblationPlan, run_ablation

        plan = AblationPlan(variants=[("mean", {"pooling": "mean"})], seeds=[0])
        base = {
            "epochs": "1", "lr": "0.5", "vocab_size": "4096", "dim": "8",
            "window": "4", "neg_count": "2",
            "verbalization": "title_desc", "batch_docs": "8",
        }
        rows = run_ablation(plan, base, str(workspace / "train.jsonl"),
                            str(workspace / "labels.jsonl"),
                            str(workspace / "dev.jsonl"))
        assert len(rows) == 1
        assert rows[0][2] == 0.0  # single seed -> sd 0

    def test_bad_seeds_validation_error(self, workspace):
        assert run("ablate", "--axis", "pooling",
                   "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--dev", workspace / "dev.jsonl",
                   "--seeds", "zero,one") == 1

    def test_thread_cap_env_var(self, monkeypatch):
        from dualed.cli import _thread_cap
        from dualed.errors import ValidationError

        monkeypatch.setenv("VERBALIZED_THREADS", "2")
        assert _thread_cap(8) == 2
        assert _thread_cap(1) == 1
        monkeypatch.setenv("VERBALIZED_THREADS", "banana")
        with pytest.raises(ValidationError):
            _thread_cap(4)
        monkeypatch.setenv("VERBALIZED_THREADS", "0")
        with pytest.raises(ValidationError):
            _thread_cap(4)
        monkeypatch.delenv("VERBALIZED_THREADS")
        assert _thread_cap(4) >= 1


class TestExitCodes:
    def test_missing_input_file_is_validation_error(self, workspace):
        code = run("predict", "--corpus", workspace / "missing.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", workspace / "nope.bin",
                   "--out", workspace / "x.jsonl")
        assert code == 1

    def test_truncated_checkpoint_header_is_validation_error(self, workspace):
        model = workspace / "short.bin"
        model.write_bytes(b"VRBED1\x00\x10\x00\x00")  # 10 bytes: header cut short
        code = run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", model, "--out", workspace / "x.jsonl")
        assert code == 1

    def test_restricted_predict_without_a_gold_in_the_labels_names_both_files(
        self, workspace, tmp_path, capsys
    ):
        model = tmp_path / "checkpoint.bin"
        save_checkpoint(model, EncoderParams.init(64, 4, 2, seed=0),
                        EncoderParams.init(64, 4, 2, seed=1))
        (tmp_path / "config.txt").write_text("")
        corpus = tmp_path / "ghosts.jsonl"
        corpus.write_text(json.dumps({"id": "d", "text": "ab cd", "mentions": [
            {"start": 0, "end": 2, "label": "GHOST"}]}) + "\n")
        labels = workspace / "labels.jsonl"
        code = run("predict", "--corpus", corpus, "--labels", labels, "--checkpoint", model,
                   "--out", tmp_path / "x.jsonl", "--restrict-to-targets")
        assert code == 1
        assert (f"error: {corpus}: no mention has its gold label in {labels}, so "
                f"--restrict-to-targets leaves no label to predict") in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    def test_checkpoint_header_claiming_more_than_the_file_is_validation_error(
        self, workspace, capsys
    ):
        # V = 2**24, d = 64 would read 4 GiB per table from a 118-byte file
        model = workspace / "huge_header.bin"
        model.write_bytes(b"VRBED1" + struct.pack("<III", 1 << 24, 64, 5) + bytes(100))
        code = run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", model, "--out", workspace / "x.jsonl")
        assert code == 1
        implied = 18 + 8 * ((1 << 24) * 64 + 2 * 64 * 64 + 64)
        assert "is 118 bytes" in capsys.readouterr().err
        with pytest.raises(ValidationError, match=f"118 bytes.*implies {implied}"):
            load_checkpoint(model)

    def test_checkpoint_with_trailing_bytes_is_validation_error(self, workspace, tmp_path,
                                                                capsys):
        model = tmp_path / "trailing.bin"
        (tmp_path / "config.txt").write_text("")  # the header alone decides V, d, window
        save_checkpoint(model, EncoderParams.init(64, 4, 2, seed=0),
                        EncoderParams.init(64, 4, 2, seed=1))
        size = model.stat().st_size
        assert run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", model, "--out", workspace / "x.jsonl") == 0
        model.write_bytes(model.read_bytes() + b"\x00")
        code = run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", model, "--out", workspace / "x.jsonl")
        assert code == 1
        assert f"is {size + 1} bytes" in capsys.readouterr().err

    def test_zero_width_checkpoint_is_validation_error(self, workspace, capsys):
        # 18 bytes: V = 1024, d = 0 implies no tensor bytes at all
        model = workspace / "zero_width.bin"
        model.write_bytes(b"VRBED1" + struct.pack("<III", 1024, 0, 2))
        code = run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", model, "--out", workspace / "x.jsonl")
        assert code == 1
        assert "dim must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("sim", ["euclidean", "cosine", "dot"])
    def test_predict_with_an_empty_label_set_is_validation_error(
        self, workspace, tmp_path, capsys, sim
    ):
        (tmp_path / "labels.jsonl").write_text("")
        model = tmp_path / "model.bin"
        save_checkpoint(model, EncoderParams.init(64, 4, 2, seed=0),
                        EncoderParams.init(64, 4, 2, seed=1))
        (tmp_path / "config.txt").write_text(f"sim={sim}\n")
        code = run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", tmp_path / "labels.jsonl", "--checkpoint", model,
                   "--out", tmp_path / "x.jsonl")
        assert code == 1
        assert "empty label set" in capsys.readouterr().err

    def test_train_whose_weights_leave_float32_writes_no_checkpoint(
        self, workspace, tmp_path, capsys
    ):
        # one step at a huge lr: the float64 weights stay finite, but no
        # float32 can hold them
        code = run("train", "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--config", workspace / "config.txt", "--epochs", "1",
                   "--batch-docs", "1000", "--refresh-interval-spans", "0",
                   "--lr", "1e308", "--out", tmp_path / "run")
        assert code == 1
        assert "mention encoder's table holds NaN or a value beyond float32's range" \
            in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("text", [
        pytest.param("", id="no-documents"),
        pytest.param('{"id": "d", "text": "no mentions here"}\n', id="no-mentions"),
    ])
    def test_dev_corpus_without_mentions_fails_before_training(
        self, workspace, tmp_path, capsys, monkeypatch, command, text
    ):
        monkeypatch.setenv("VERBALIZED_THREADS", "1")
        (tmp_path / "dev.jsonl").write_text(text)
        flags = (["--out", tmp_path / "run"] if command == "train"
                 else ["--axis", "pooling", "--seeds", "0"])
        with mock.patch.object(cli.Trainer, "train") as train:
            code = run(command, "--corpus", workspace / "train.jsonl",
                       "--labels", workspace / "labels.jsonl",
                       "--dev", tmp_path / "dev.jsonl",
                       "--config", workspace / "config.txt", *flags)
        assert code == 1
        assert f"{tmp_path / 'dev.jsonl'}: the dev corpus has no mentions" \
            in capsys.readouterr().err
        train.assert_not_called()
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("dev", [True, False], ids=["dev", "no-dev"])
    def test_train_with_an_empty_label_set_is_validation_error(
        self, workspace, tmp_path, capsys, dev
    ):
        (tmp_path / "labels.jsonl").write_text("")
        flags = ["--dev", workspace / "dev.jsonl"] if dev else []
        code = run("train", "--corpus", workspace / "train.jsonl",
                   "--labels", tmp_path / "labels.jsonl",
                   "--config", workspace / "config.txt", "--epochs", "1",
                   "--out", tmp_path / "run", *flags)
        assert code == 1
        assert "empty label set" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    @pytest.mark.parametrize(
        "flags, config_text, key",
        [
            pytest.param(["--epochs", "two"], None, "epochs", id="epochs-flag"),
            pytest.param(["--lr", "fast"], None, "lr", id="lr-flag"),
            pytest.param(["--neg-count", "abc"], None, "neg_count", id="neg-count-flag"),
            pytest.param(["--margin", "x"], None, "margin", id="margin-flag"),
            pytest.param(["--lr", "none"], None, "lr", id="lr-none-flag"),
            pytest.param([], "epochs=two\n", "epochs", id="epochs-config"),
            pytest.param([], "label_batch_size=16\n", "label_batch_size",
                         id="removed-key-config"),
            pytest.param(["--lr", "nan"], None, "lr", id="lr-nan-flag"),
            pytest.param(["--clip-norm", "inf"], None, "clip_norm", id="clip-inf-flag"),
            pytest.param(["--clip-norm", "-3"], None, "clip_norm", id="clip-negative-flag"),
            pytest.param(["--margin", "-inf"], None, "margin", id="margin-inf-flag"),
            pytest.param(["--insert-fraction", "nan"], None, "insert_fraction",
                         id="insert-nan-flag"),
            pytest.param([], "corrupt_rate=NaN\n", "corrupt_rate", id="corrupt-nan-config"),
            pytest.param(["--dim", "-1"], None, "dim", id="dim-negative-flag"),
            pytest.param(["--dim", "0"], None, "dim", id="dim-zero-flag"),
            pytest.param(["--vocab-size", "-4", "--epochs", "0"], None, "vocab_size",
                         id="vocab-negative-flag"),
            pytest.param(["--seed", "-1", "--epochs", "0"], None, "seed",
                         id="seed-negative-flag"),
            pytest.param(["--window", "-1"], None, "window", id="window-negative-flag"),
            pytest.param(["--refresh-interval-spans", "-100"], None,
                         "refresh_interval_spans", id="refresh-negative-flag"),
            pytest.param(["--lr", "-0.05"], None, "lr must be >= 0", id="lr-negative-flag"),
            pytest.param([], "switch_after_spans=-1\n", "switch_after_spans must be >= 0",
                         id="switch-negative-config"),
            pytest.param(["--loss", "foo", "--epochs", "0"], None, "loss",
                         id="loss-unknown-flag"),
            pytest.param(["--max-chars-per-chunk", "0", "--epochs", "0"], None,
                         "max_chars_per_chunk", id="chars-zero-flag"),
            pytest.param([], "max_mentions_per_chunk=0\nepochs=0\n",
                         "max_mentions_per_chunk", id="mentions-zero-config"),
            pytest.param([], "epochs=0\nseed=\udcff\n", "config.txt: line 2: not UTF-8",
                         id="config-not-utf8"),
            # the checkpoint header holds V, d and the window as uint32
            pytest.param(["--window", "5000000000"], None, "window must be < 2**32",
                         id="window-past-uint32-flag"),
            pytest.param(["--dim", str(2**32)], None, "dim must be < 2**32",
                         id="dim-past-uint32-flag"),
            pytest.param(["--vocab-size", str(2**32)], None, "vocab_size must be < 2**32",
                         id="vocab-past-uint32-flag"),
            pytest.param(["--vocab-size", "1000"], None, "vocab_size must be a power of two",
                         id="vocab-not-power-of-two-flag"),
            pytest.param([], "vocab_size=3\n", "vocab_size must be a power of two",
                         id="vocab-not-power-of-two-config"),
        ],
    )
    def test_malformed_config_value_is_validation_error(
        self, workspace, tmp_path, capsys, flags, config_text, key
    ):
        if config_text is not None:
            # written with surrogateescape, so \udcff is the byte 0xff
            (tmp_path / "config.txt").write_text(config_text, encoding="utf-8",
                                                 errors="surrogateescape")
            flags = [*flags, "--config", tmp_path / "config.txt"]
        code = run("train", "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--out", tmp_path / "run", *flags)
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()  # rejected before anything was written

    @pytest.mark.parametrize(
        "command, row, key",
        [
            pytest.param("verbalize", "[1, 2]", "JSON object", id="label-row-array"),
            pytest.param("verbalize", '{"id": "a", "title": "A", "categories": ["x"]}',
                         "categories", id="categories-array"),
            pytest.param("verbalize",
                         '{"id": "a", "title": "A", "categories": {"instance_of": 5}}',
                         "instance_of", id="category-values-number"),
            pytest.param("predict", "7", "JSON object", id="corpus-row-number"),
            pytest.param("predict", '{"id": "d", "text": "a b", "mentions": 5}',
                         "mentions", id="mentions-number"),
            pytest.param("eval", "[1]", "JSON object", id="prediction-row-array"),
            pytest.param("verbalize", '{"id": "a", "title": ["x"], "description": "d"}',
                         "title", id="title-array"),
            pytest.param("verbalize", '{"id": "a", "title": 5}', "title", id="title-number"),
            pytest.param("verbalize", '{"id": "a", "title": null}', "title", id="title-null"),
            pytest.param("verbalize", '{"id": ["a"], "title": "A"}', "id", id="label-id-array"),
            pytest.param("verbalize", '{"id": {"a": 1}, "title": "A"}', "id",
                         id="label-id-object"),
            pytest.param("verbalize", '{"id": true, "title": "A"}', "id", id="label-id-bool"),
            pytest.param("verbalize", '{"id": null, "title": "A"}', "id", id="label-id-null"),
            pytest.param("verbalize",
                         '{"id": "a", "title": "A", "categories": {"country": [["x"]]}}',
                         "country", id="category-value-array"),
            pytest.param("verbalize",
                         '{"id": "a", "title": "A", "categories": {"country": [null]}}',
                         "country", id="category-value-null"),
            pytest.param("predict", '{"id": "d", "text": ["a b"]}', "text", id="text-array"),
            pytest.param("predict", '{"id": "d", "text": 7}', "text", id="text-number"),
            pytest.param("predict", '{"id": {"d": 1}, "text": "a b"}', "id",
                         id="doc-id-object"),
            pytest.param("predict", '{"id": false, "text": "a b"}', "id", id="doc-id-bool"),
            pytest.param("predict", '{"id": "d", "text": "a b", "mentions": '
                         '[{"start": 0, "end": 1, "label": [1]}]}', "label",
                         id="mention-label-array"),
            pytest.param("predict", '{"id": "d", "text": "a b", "mentions": '
                         '[{"start": 0, "end": 1, "label": {"x": 1}}]}', "label",
                         id="mention-label-object"),
            pytest.param("predict", '{"id": "d", "text": "a b", "mentions": '
                         '[{"start": 0, "end": 1, "label": null}]}', "label",
                         id="mention-label-null"),
            pytest.param("predict", '{"id": "d", "text": "a b", "mentions": '
                         '[{"start": 0, "end": 1, "label": true}]}', "label",
                         id="mention-label-bool"),
            pytest.param("predict", '{"id": "d", "text": "a b", "mentions": '
                         '[{"start": 0.9, "end": 1, "label": "A"}]}', "start",
                         id="mention-start-float"),
            pytest.param("predict", '{"id": "d", "text": "a b", "mentions": '
                         '[{"start": 0, "end": true, "label": "A"}]}', "end",
                         id="mention-end-bool"),
            pytest.param("predict", '{"id": "d", "text": "a b", "mentions": '
                         '[{"start": "0", "end": 1, "label": "A"}]}', "start",
                         id="mention-start-string"),
            pytest.param("predict", '{"id": "d", "text": "a b", "mentions": '
                         '[{"start": 0, "end": 1.0, "label": "A"}]}', "end",
                         id="mention-end-integral-float"),
            pytest.param("eval", '{"doc": "d", "start": "0", "end": 1, "pred": "A"}',
                         "start", id="prediction-start-string"),
            pytest.param("eval", '{"doc": "d", "start": 0, "end": 5.7, "pred": "A"}',
                         "end", id="prediction-end-float"),
            pytest.param("eval", '{"doc": "d", "start": false, "end": 1, "pred": "A"}',
                         "start", id="prediction-start-bool"),
            pytest.param("verbalize", '{"id": "a", "title": "\udcff"}', "bad.jsonl: line 1: "
                         "not UTF-8", id="label-row-not-utf8"),
            pytest.param("train", '{"id": "d", "text": "\udcff"}', "bad.jsonl: line 1: "
                         "not UTF-8", id="corpus-row-not-utf8"),
            pytest.param("eval", '{"doc": "\udcff"}', "bad.jsonl: line 1: not UTF-8",
                         id="prediction-row-not-utf8"),
            pytest.param("verbalize", r'{"id": "a", "title": "a\ud800b"}', "'title'",
                         id="label-title-lone-surrogate"),
            pytest.param("verbalize", r'{"id": "a", "title": "A", '
                         r'"categories": {"country": ["x", "\ude00"]}}', "'country'",
                         id="category-value-lone-surrogate"),
            pytest.param("predict", r'{"id": "d\udc00", "text": "a b"}', "'id'",
                         id="doc-id-lone-surrogate"),
            pytest.param("predict", r'{"id": "d", "text": "a b", "mentions": '
                         r'[{"start": 0, "end": 1, "label": "\ud83d"}]}', "'label'",
                         id="mention-label-lone-surrogate"),
            pytest.param("eval", r'{"doc": "d", "start": 0, "end": 1, "pred": "\udfff"}',
                         "'pred'", id="prediction-pred-lone-surrogate"),
        ],
    )
    def test_malformed_json_row_is_validation_error(
        self, workspace, tmp_path, capsys, command, row, key
    ):
        bad = tmp_path / "bad.jsonl"
        # written with surrogateescape, so "\udcff" in a row is the byte 0xff
        bad.write_text(row + "\n", encoding="utf-8", errors="surrogateescape")
        argv = {
            "verbalize": ["--labels", bad, "--format", "title_desc_cat",
                          "--out", tmp_path / "out"],
            "predict": ["--corpus", bad, "--labels", workspace / "labels.jsonl",
                        "--checkpoint", workspace / "nope.bin", "--out", tmp_path / "out"],
            "train": ["--corpus", bad, "--labels", workspace / "labels.jsonl",
                      "--out", tmp_path / "run"],
            "eval": ["--pred", bad, "--gold-corpus", workspace / "dev.jsonl"],
        }[command]
        code = run(command, *argv)
        err = capsys.readouterr().err
        assert code == 1
        assert f"{bad}: line 1" in err and key in err

    @pytest.mark.parametrize("flag", ["--pred", "--first-pass"])
    def test_duplicate_prediction_row_is_validation_error(
        self, workspace, tmp_path, capsys, flag
    ):
        """Two rows for one mention: I then X, where the gold is I."""
        rows = [{"doc": d.id, "start": m.start, "end": m.end, "pred": m.gold_label}
                for d in load_corpus(workspace / "dev.jsonl") for m in d.mentions]
        duplicate = {**rows[0], "pred": "X"}
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        good.write_text("".join(json.dumps(r) + "\n" for r in rows))
        bad.write_text("".join(json.dumps(r) + "\n" for r in [rows[0], duplicate, *rows[1:]]))
        files = {"--pred": good, "--first-pass": good, flag: bad}
        code = run("eval", "--gold-corpus", workspace / "dev.jsonl",
                   *(arg for pair in files.items() for arg in pair))
        err = capsys.readouterr().err
        assert code == 1
        assert f"{bad}: line 2: duplicate prediction" in err and "first on line 1" in err

    @pytest.mark.parametrize("command, flag", [
        ("train", "--corpus"), ("train", "--dev"), ("train", "--labels"),
        ("predict", "--corpus"), ("predict", "--labels"), ("eval", "--gold-corpus"),
        ("verbalize", "--labels"),
    ])
    @pytest.mark.parametrize("corpus_rows, label_rows, message", [
        pytest.param(['{"id": "d", "text": "a b"}', '{"id": "d", "text": "c"}'],
                     ['{"id": "a", "title": "A"}', '{"id": "a", "title": "B"}'],
                     ("line 2: duplicate document id 'd'", "duplicate entity id 'a' on lines"),
                     id="duplicate-id"),
        pytest.param(['{"id": "d", "text": "a b", "mentions": '
                      '[{"start": 0, "end": 9, "label": "A"}]}'],
                     ['{"id": "a", "title": ""}'],
                     ("line 1: document 'd': mention (0, 9) outside text",
                      "line 1: entity 'a': empty title"), id="bad-value"),
        pytest.param(['{"id": "d", "text": "a b", "mentions": [{"start": 0, "end": 2, '
                      '"label": "A"}, {"start": 1, "end": 3, "label": "B"}]}'],
                     ['{"id": "a", "title": "A", "categories": {"color": ["red"]}}'],
                     ("overlapping mentions", "unknown relation key 'color'"),
                     id="structure"),
        pytest.param(['{"id": "d"}'], ['{"id": "a"}'],
                     ("line 1: document 'd': missing key 'text'",
                      "line 1: entity 'a': missing key 'title'"), id="missing-key"),
    ])
    def test_field_error_names_the_file(self, workspace, tmp_path, capsys, command, flag,
                                        corpus_rows, label_rows, message):
        is_labels = flag == "--labels"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(row + "\n" for row in (label_rows if is_labels else corpus_rows)))
        argv = {
            "train": {"--corpus": workspace / "train.jsonl", "--dev": workspace / "dev.jsonl",
                      "--labels": workspace / "labels.jsonl", "--epochs": "0",
                      "--out": tmp_path / "run"},
            "predict": {"--corpus": workspace / "dev.jsonl",
                        "--labels": workspace / "labels.jsonl",
                        "--checkpoint": workspace / "nope.bin", "--out": tmp_path / "out"},
            "eval": {"--pred": workspace / "nope.jsonl", "--gold-corpus": workspace / "dev.jsonl"},
            "verbalize": {"--labels": workspace / "labels.jsonl", "--format": "title",
                          "--out": tmp_path / "out"},
        }[command]
        argv[flag] = bad
        code = run(command, *(arg for pair in argv.items() for arg in pair))
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {bad}: " in err and message[is_labels] in err

    @pytest.mark.parametrize("flag", ["--pred", "--first-pass"])
    def test_prediction_row_outside_the_gold_corpus_is_validation_error(
        self, workspace, tmp_path, capsys, flag
    ):
        rows = [{"doc": d.id, "start": m.start, "end": m.end, "pred": m.gold_label}
                for d in load_corpus(workspace / "dev.jsonl") for m in d.mentions]
        extra = {"doc": "no-such-doc", "start": 0, "end": 3, "pred": "X"}
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        good.write_text("".join(json.dumps(r) + "\n" for r in rows))
        bad.write_text("".join(json.dumps(r) + "\n" for r in [*rows, extra]))
        files = {"--pred": good, "--first-pass": good, flag: bad}
        code = run("eval", "--gold-corpus", workspace / "dev.jsonl",
                   *(arg for pair in files.items() for arg in pair))
        err = capsys.readouterr().err
        assert code == 1
        assert (f"{bad}: line {len(rows) + 1}: ('no-such-doc', 0, 3) is not a mention of "
                "the gold corpus") in err

    def test_bad_subcommand_is_validation_error(self):
        assert run("frobnicate") == 1

    def test_help_lists_every_config_key(self, capsys):
        import dataclasses

        from dualed.trainer import TrainConfig

        with pytest.raises(SystemExit):
            main(["train", "--help"])
        out = capsys.readouterr().out
        for f in dataclasses.fields(TrainConfig):
            assert f"--{f.name.replace('_', '-')}" in out
