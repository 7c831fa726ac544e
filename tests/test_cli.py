"""End-to-end checks of every subcommand on a small synthetic task."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualed import cli
from dualed.cli import main
from dualed.corpus import load_corpus, load_label_set
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

        mention, label = load_checkpoint(run_dir / "checkpoint.bin")
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

        mention, label = load_checkpoint(run_dir / "checkpoint.bin")
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


class TestNonFiniteCheckpoint:
    """A NaN or infinity anywhere in a checkpoint is a validation error in
    every predict mode, before anything is written."""

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_mention_table(self, workspace, tmp_path, capsys, mode, value):
        mention = EncoderParams.init(64, 4, 2, seed=0)
        mention.table[5, 1] = value
        save_checkpoint(tmp_path / "checkpoint.bin", mention,
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
        save_checkpoint(tmp_path / "checkpoint.bin", params["mention"], params["label"])
        with pytest.raises(ValidationError, match=f"{encoder} encoder's {tensor} "):
            load_checkpoint(tmp_path / "checkpoint.bin")


# header words: edge values, small values and any uint32
HEADER_WORDS = st.sampled_from([0, 1, 2, 16, 2**31, 2**32 - 1]) | st.integers(0, 40) \
    | st.integers(0, 2**32 - 1)


class TestCheckpointFuzz:
    """Checkpoints made from a valid V = 16, d = 2 file: ``predict`` exits 1
    when the header is invalid or the file size is not the one it implies,
    exits 0 on a valid file of finite tensors, and never exits 2."""

    @staticmethod
    def predict(workspace, data):
        model = workspace / "fuzz.bin"
        model.write_bytes(data)
        return run("predict", "--corpus", workspace / "dev.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--checkpoint", model, "--out", workspace / "fuzz.jsonl")

    @pytest.fixture(scope="class")
    def valid(self, workspace):
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

    def test_checkpoint_with_trailing_bytes_is_validation_error(self, workspace, capsys):
        model = workspace / "trailing.bin"
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
            pytest.param(["--loss", "foo", "--epochs", "0"], None, "loss",
                         id="loss-unknown-flag"),
            pytest.param(["--max-chars-per-chunk", "0", "--epochs", "0"], None,
                         "max_chars_per_chunk", id="chars-zero-flag"),
            pytest.param([], "max_mentions_per_chunk=0\nepochs=0\n",
                         "max_mentions_per_chunk", id="mentions-zero-config"),
            pytest.param([], "epochs=0\nseed=\udcff\n", "config.txt: line 2: not UTF-8",
                         id="config-not-utf8"),
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
        assert "line 1" in err and key in err

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
