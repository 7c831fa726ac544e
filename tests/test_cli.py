"""End-to-end checks of every subcommand on a small synthetic task."""

import json

import pytest

from dualed.cli import main
from dualed.synthetic import make_task, write_corpus_file, write_label_file


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
                   "--checkpoint", run_dir / "checkpoint.bin",
                   "--format", "title_desc", "--out", pred_file) == 0
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
                   "--format", "title_desc",
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
                   "--format", "title_desc", "--iterative",
                   "--out", iterative) == 0
        report_file = workspace / "report_changes.json"
        assert run("eval", "--pred", iterative,
                   "--gold-corpus", workspace / "dev.jsonl",
                   "--first-pass", one_shot,
                   "--json-out", report_file) == 0
        report = json.loads(report_file.read_text())
        changes = report["changes"]
        four = (changes["correct"] + changes["incorrect_to_correct"]
                + changes["correct_to_incorrect"] + changes["incorrect"])
        assert four == report["mentions"]


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
                       "--checkpoint", run_dir / "checkpoint.bin",
                       "--format", "title_desc", "--out", pred_file) == 0
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

        plan = AblationPlan(axis="pooling",
                            variants=[("mean", {"pooling": "mean"})], seeds=[0])
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
        ],
    )
    def test_malformed_config_value_is_validation_error(
        self, workspace, tmp_path, capsys, flags, config_text, key
    ):
        if config_text is not None:
            (tmp_path / "config.txt").write_text(config_text)
            flags = [*flags, "--config", tmp_path / "config.txt"]
        code = run("train", "--corpus", workspace / "train.jsonl",
                   "--labels", workspace / "labels.jsonl",
                   "--out", tmp_path / "run", *flags)
        assert code == 1
        assert key in capsys.readouterr().err

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
