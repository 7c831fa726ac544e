"""Tests of the benchmark itself: its reference, its checks and its workloads.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import reference
import run
from workloads import TRAIN_CONFIG, WORKLOADS, generate, write_inputs

cli = run.import_package()
from dualed import encoder  # noqa: E402  (importable once run has added src/)

SEED = 3


def tiny(workload):
    """The same workload shape at a size that runs in a second or two."""
    return replace(workload, labels=min(workload.labels, 20), train_mentions=40,
                   dev_mentions=30 if workload.dev_mentions else 0, test_mentions=60,
                   accuracy_floor=0.0)


@pytest.fixture(scope="module")
def predicted(tmp_path_factory):
    """A tiny task trained and predicted three ways through the CLI."""
    work = tmp_path_factory.mktemp("tiny")
    workload = tiny(WORKLOADS["predict_kb2k"])
    inputs = generate(workload, SEED)
    write_inputs(inputs, workload, SEED, work)
    assert cli.main(["train", "--corpus", str(work / "train.jsonl"), "--labels",
                     str(work / "labels.jsonl"), "--config", str(work / "config.txt"),
                     "--out", str(work / "model")]) == 0
    preds = {}
    for kind, extra in (("one", []), ("iterative", ["--iterative"]),
                        ("restricted", ["--restrict-to-targets"])):
        out = work / f"{kind}.jsonl"
        assert cli.main(["predict", "--corpus", str(work / "test.jsonl"), "--labels",
                         str(work / "labels.jsonl"), "--checkpoint",
                         str(work / "model" / "checkpoint.bin"), "--out", str(out),
                         *extra]) == 0
        preds[kind] = run.read_predictions(out)
    ref = reference.Reference(work / "model" / "checkpoint.bin", inputs.labels,
                              TRAIN_CONFIG["sim"])
    return inputs, preds, ref


def mentions_of(inputs):
    return [(doc, m) for doc in inputs.test for m in doc["mentions"]]


def test_reference_tokenizer_matches_program():
    text = "The Ünïcode-Straße 42x, naïve café; end"
    ids, spans = reference.tokenize(text, 1 << 16)
    seq = encoder.tokenize(text, 1 << 16)
    assert spans == seq.char_spans
    assert ids.tolist() == seq.token_ids.tolist()


def test_reference_agrees_with_program(predicted):
    inputs, preds, ref = predicted
    allowed = {m["label"] for _, m in mentions_of(inputs)}
    for doc, m in mentions_of(inputs):
        key = (doc["id"], m["start"], m["end"])
        ref.check_prediction(doc, m, preds["one"][key])
        ref.check_prediction(doc, m, preds["restricted"][key], allowed)
    run.check_one_shot(preds["one"], inputs.test)
    run.check_iterative(preds["iterative"], preds["one"], inputs.test)
    run.check_restricted(preds["restricted"], preds["one"], inputs.test)


def test_swapped_id_rejected(predicted):
    inputs, preds, ref = predicted
    doc, m = mentions_of(inputs)[0]
    row = dict(preds["one"][(doc["id"], m["start"], m["end"])])
    row["pred"] = next(i for i in ref.ids if i != row["pred"])
    with pytest.raises(reference.Mismatch):
        ref.check_prediction(doc, m, row)


def test_perturbed_score_rejected(predicted):
    inputs, preds, ref = predicted
    doc, m = mentions_of(inputs)[0]
    row = dict(preds["one"][(doc["id"], m["start"], m["end"])])
    row["score"] = row["score"] * (1 + 1e-6)
    with pytest.raises(reference.Mismatch):
        ref.check_prediction(doc, m, row)


def test_wrong_iterations_rejected(predicted):
    inputs, preds, _ = predicted
    tampered = {k: dict(v) for k, v in preds["iterative"].items()}
    key = next(iter(tampered))
    tampered[key]["iterations"] += 1
    with pytest.raises(reference.Mismatch):
        run.check_iterative(tampered, preds["one"], inputs.test)


def test_restricted_above_unrestricted_rejected(predicted):
    inputs, preds, _ = predicted
    tampered = {k: dict(v) for k, v in preds["restricted"].items()}
    key = next(iter(tampered))
    tampered[key]["score"] = preds["one"][key]["score"] + 1.0
    with pytest.raises(reference.Mismatch):
        run.check_restricted(tampered, preds["one"], inputs.test)


def test_iteration_schedule():
    # ceil(n/3) mentions committed per round
    assert [run.iterations_for(n) for n in (1, 2, 3, 4, 6, 7, 9, 40)] == [1, 2, 3, 2, 3, 3, 3, 3]


def test_mining_reference_rejects_a_wrong_order():
    rng = np.random.default_rng(0)
    ids = [f"L{i}" for i in range(6)]
    matrix = rng.normal(size=(6, 4))
    anchor = rng.normal(size=4)
    sims = -np.linalg.norm(matrix - anchor, axis=1)
    order = [i for i in np.argsort(-sims, kind="stable") if i != 0][:3]
    good = [(ids[i], float(sims[i])) for i in order]
    reference.check_mining(ids, matrix, anchor, "L0", 3, "euclidean", good)
    with pytest.raises(reference.Mismatch):
        reference.check_mining(ids, matrix, anchor, "L0", 3, "euclidean", good[::-1])


def test_inputs_depend_only_on_the_seed():
    w = tiny(WORKLOADS["train_kb2k"])
    assert generate(w, 5) == generate(w, 5)
    assert generate(w, 5) != generate(w, 6)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_its_checks(tmp_path, name, trace):
    result, session = run.run_workload(cli, tiny(WORKLOADS[name]), SEED, 0.0, trace,
                                       tmp_path / "work", tmp_path / "spans.jsonl.gz")
    assert (result["correct"], result["failed"]) == (True, 0), session.ledger.errors
    expected = run.END_TO_END if not trace else run.tracing.LAYER_METRICS
    assert set(result["metrics"]) == {metric for metric, _ in expected}
    json.dumps(result)
    if trace:
        assert result["metrics"]["trace.spans"]["value"] > 0
        assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0
    else:
        assert all(e["value"] > 0 and math.isfinite(e["value"])
                   for e in result["metrics"].values())


def test_outputs_are_byte_identical_across_runs(tmp_path):
    digests = []
    for i in range(2):
        _, session = run.run_workload(cli, tiny(WORKLOADS["train_kb40"]), SEED, 0.0, False,
                                      tmp_path / f"w{i}")
        digests.append(session.digests)
    assert digests[0] == digests[1] and len(digests[0]) == 4
