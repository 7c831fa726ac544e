"""Benchmark of the dualed CLI: training and prediction at 40 and 2000 labels.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_kb40 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a closed loop of ``dualed`` subcommands run in this
process through ``dualed.cli.main``, one after the other: rounds of
train (for the ``train_*`` workloads), three predicts and eval, repeated
until ``--seconds`` have passed and always whole rounds. Inputs come
from ``--seed`` alone (see workloads.py). Every output is checked: the
run counts an operation as failed when its command exits non-zero or a
check on its output fails. With ``--trace 0`` the last line reports the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced
and traced, and it reports the per-layer metrics of the traced rounds
plus the tracing overhead. BLAS runs on one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    MAX_CHARS_PER_CHUNK, MAX_MENTIONS_PER_CHUNK, TRAIN_CONFIG, WORKLOADS, Inputs,
    Workload, generate, mention_count, write_inputs,
)

ROOT = Path(__file__).resolve().parent.parent
try:
    _LIBC = ctypes.CDLL("libc.so.6")
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):  # not glibc
    _LIBC = None
SETUP_REPEATS = 15
REFERENCE_SAMPLE = 40
# A workload that trains outside its loop trains this often, for a median
# of its train_spans_per_s: once before the loop and the rest after it, so
# the samples lie far apart and a slow stretch of the host skews only one.
PREPARED_TRAININGS = 3
END_TO_END = (
    ("setup_s", "s"),
    ("train_spans_per_s", "spans/s"),
    ("predict_mentions_per_s", "mentions/s"),
    ("iterative_mentions_per_s", "mentions/s"),
    ("restricted_mentions_per_s", "mentions/s"),
    ("peak_rss_mb", "MB"),
)
PREDICT_MODES = (
    ("one", "predict_mentions_per_s", []),
    ("iterative", "iterative_mentions_per_s", ["--iterative"]),
    ("restricted", "restricted_mentions_per_s", ["--restrict-to-targets"]),
)
Mismatch = reference.Mismatch


def import_package():
    """Import dualed from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dualed" / "__init__.py").is_file():
        raise SystemExit(f"error: no dualed package under {src}")
    sys.path.insert(0, str(src))
    import dualed.cli

    return dualed.cli


@dataclass
class Ledger:
    """Operations attempted, which failed and why, and the measured samples."""

    ok: list[bool] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    correct: bool = True
    samples: dict[str, list[float]] = field(default_factory=dict)  # per-command values

    def record(self, ok: bool) -> int:
        self.ok.append(ok)
        return len(self.ok) - 1

    def fail(self, op: int, message: str, wrong_output: bool = True) -> None:
        self.ok[op] = False
        self.errors.append(message)
        self.correct = self.correct and not wrong_output
        print(f"FAILED: {message}", file=sys.stderr)

    def keep(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)


class Session:
    """Runs one workload in a work directory and checks what it writes."""

    def __init__(self, cli, workload: Workload, seed: int, work: Path):
        self.cli, self.workload, self.seed, self.work = cli, workload, seed, work
        self.ledger = Ledger()
        self.inputs: Inputs | None = None
        self.digests: dict[str, str] = {}
        self.dev_accuracy: float | None = None
        self.round_ops: dict[str, int] = {}

    # -- running commands --

    @staticmethod
    def timed(fn, *args) -> tuple[object, float]:
        """Call ``fn``; returns its result and the seconds it took."""
        # Each call starts as a fresh process would: no garbage left by the
        # previous one, and no free heap kept from it.
        gc.collect()
        if _LIBC is not None:
            _LIBC.malloc_trim(0)
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start

    def command(self, *argv) -> tuple[int, float]:
        """Run one subcommand in-process; returns (op index, seconds)."""
        with contextlib.redirect_stdout(io.StringIO()):
            code, seconds = self.timed(self.cli.main, [str(a) for a in argv])
        op = self.ledger.record(code == 0)
        if code != 0:
            self.ledger.fail(op, f"dualed {argv[0]} exited {code}", wrong_output=False)
        return op, seconds

    def checked(self, op: int, check, *args) -> None:
        if not self.ledger.ok[op]:
            return
        try:
            check(*args)
        except (Mismatch, OSError, ValueError, KeyError) as exc:
            self.ledger.fail(op, f"{check.__name__}: {exc}")

    # -- set-up --

    def setup(self) -> None:
        """Write the inputs once, then time the program's set-up ``SETUP_REPEATS`` times.

        A set-up is ``dualed verbalize`` on the labels plus loading every
        corpus with ``dualed.corpus.load_corpus``; both outputs are checked.
        Only the program's time counts, not the benchmark's own generator.
        """
        self.inputs = generate(self.workload, self.seed)
        write_inputs(self.inputs, self.workload, self.seed, self.work)
        for _ in range(SETUP_REPEATS):
            op, seconds = self.command("verbalize", "--labels", self.work / "labels.jsonl",
                                       "--format", TRAIN_CONFIG["verbalization"],
                                       "--out", self.work / "verbs.jsonl")
            self.checked(op, check_verbalizations, self.work / "verbs.jsonl",
                         self.inputs.labels)
            seconds += self.load_corpora()
            self.ledger.keep("setup_s", seconds)

    def load_corpora(self) -> float:
        """Load each written corpus with the package's loader; returns the seconds."""
        from dualed.corpus import load_corpus

        total = 0.0
        for name, docs in (("train", self.inputs.train), ("dev", self.inputs.dev),
                           ("test", self.inputs.test)):
            if not docs:
                continue
            op = self.ledger.record(True)
            try:
                loaded, seconds = self.timed(load_corpus, self.work / f"{name}.jsonl")
            except ValueError as exc:
                self.ledger.fail(op, f"load_corpus {name}: {exc}", wrong_output=False)
                continue
            total += seconds
            self.checked(op, check_loaded, loaded, docs)
        return total

    # -- one round --

    def train(self, out: Path) -> float:
        args = ["train", "--corpus", self.work / "train.jsonl",
                "--labels", self.work / "labels.jsonl",
                "--config", self.work / "config.txt", "--out", out]
        if self.workload.dev_mentions:
            args[5:5] = ["--dev", self.work / "dev.jsonl"]
        op, seconds = self.command(*args)
        self.checked(op, self.check_training, out)
        self.checked(op, self.same_bytes, out / "checkpoint.bin")
        if self.ledger.ok[op]:
            spans = self.workload.epochs * mention_count(self.inputs.train)
            self.ledger.keep("train_spans_per_s", spans / seconds)
        return seconds

    def train_in_child(self, out: Path) -> None:
        """``train`` in a forked child, so its memory stays out of this process's RSS."""
        sys.stdout.flush()
        sys.stderr.flush()
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)

        def child():
            self.train(out)
            send.send((self.ledger, self.digests))

        proc = context.Process(target=child)
        proc.start()
        send.close()
        try:
            self.ledger, self.digests = receive.recv()
        except EOFError:
            op = self.ledger.record(False)
            self.ledger.fail(op, f"train exited {proc.exitcode} without a result",
                             wrong_output=False)
        finally:
            proc.join()
            receive.close()

    def predict_round(self, model: Path, out: Path) -> float:
        """The three predicts, ``predict_repeats`` times, then eval; checks the files."""
        test = self.work / "test.jsonl"
        n = mention_count(self.inputs.test)
        base = ["predict", "--corpus", test, "--labels", self.work / "labels.jsonl",
                "--checkpoint", model / "checkpoint.bin"]
        total, ops = 0.0, {}
        for _ in range(self.workload.predict_repeats):
            for kind, metric, extra in PREDICT_MODES:
                ops[kind], seconds = self.command(*base, "--out", out / f"{kind}.jsonl",
                                                  *extra)
                if self.ledger.ok[ops[kind]]:
                    self.ledger.keep(metric, n / seconds)
                total += seconds
                self.checked(ops[kind], self.same_bytes, out / f"{kind}.jsonl")
        self.round_ops = ops
        op, seconds = self.command("eval", "--pred", out / "iterative.jsonl",
                                   "--gold-corpus", test,
                                   "--first-pass", out / "one.jsonl",
                                   "--json-out", out / "report.json")
        total += seconds
        if all(self.ledger.ok[i] for i in ops.values()):
            preds = {k: read_predictions(out / f"{k}.jsonl") for k in ops}
            self.checked(ops["one"], check_one_shot, preds["one"], self.inputs.test)
            self.checked(ops["iterative"], check_iterative, preds["iterative"],
                         preds["one"], self.inputs.test)
            self.checked(ops["restricted"], check_restricted, preds["restricted"],
                         preds["one"], self.inputs.test)
            self.checked(op, check_report, out / "report.json", preds["iterative"],
                         preds["one"])
        return total

    def same_bytes(self, path: Path) -> None:
        """Every round must write byte-identical files."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.digests.setdefault(path.name, digest) != digest:
            raise Mismatch(f"{path.name} differs between rounds")

    def check_training(self, out: Path) -> None:
        w = self.workload
        n = mention_count(self.inputs.train)
        interval = int(TRAIN_CONFIG["refresh_interval_spans"])
        rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        if len(rows) != w.epochs:
            raise Mismatch(f"{len(rows)} metrics rows for {w.epochs} epochs")
        for e, row in enumerate(rows):
            spans = (e + 1) * n
            refreshes = (e + 1) + spans // interval
            if (row["epoch"], row["spans"], row["refreshes"]) != (e, spans, refreshes):
                raise Mismatch(f"epoch {e}: spans {row['spans']}, refreshes "
                               f"{row['refreshes']}; expected {spans}, {refreshes}")
        if not rows[-1]["loss"] < rows[0]["loss"]:
            raise Mismatch(f"loss did not fall: {rows[0]['loss']} -> {rows[-1]['loss']}")
        if w.dev_mentions:
            acc = rows[-1]["dev_acc"]
            if not w.accuracy_floor <= acc <= 1.0:
                raise Mismatch(f"dev accuracy {acc} below the floor {w.accuracy_floor}")
            self.dev_accuracy = acc
        v, d = int(TRAIN_CONFIG["vocab_size"]), int(TRAIN_CONFIG["dim"])
        size = 6 + 12 + 2 * 4 * (v * d + 2 * d * d + d)
        if (out / "checkpoint.bin").stat().st_size != size:
            raise Mismatch("checkpoint size does not match V, d")

    # -- the reference --

    def check_against_reference(self, model: Path, out: Path, ops: dict[str, int]) -> None:
        """A seeded sample of one-shot and restricted predictions, ids and scores."""
        ref = reference.Reference(model / "checkpoint.bin", self.inputs.labels,
                                  TRAIN_CONFIG["sim"])
        rng = np.random.default_rng([self.seed, 7])
        mentions = [(doc, m) for doc in self.inputs.test for m in doc["mentions"]]
        allowed = {m["label"] for _, m in mentions}
        for kind, restrict in (("one", None), ("restricted", allowed)):
            picks = rng.choice(len(mentions), size=min(REFERENCE_SAMPLE, len(mentions)),
                               replace=False)
            if not self.ledger.ok[ops[kind]]:
                continue
            preds = read_predictions(out / f"{kind}.jsonl")
            try:
                for i in sorted(picks):
                    doc, m = mentions[i]
                    ref.check_prediction(doc, m, preds[(doc["id"], m["start"], m["end"])],
                                         restrict)
            except Mismatch as exc:
                self.ledger.fail(ops[kind], f"reference, {kind}: {exc}")


def check_verbalizations(path: Path, labels: list[dict]) -> None:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    if len(rows) != len(labels):
        raise Mismatch(f"{len(rows)} verbalizations for {len(labels)} labels")
    for row, label in zip(rows, sorted(labels, key=lambda lab: lab["id"])):
        text, span = reference.verbalize(label)
        if (row["id"], row["text"], tuple(row["title_span"])) != (label["id"], text, span):
            raise Mismatch(f"verbalization of {label['id']!r}: {row['text']!r}")


def check_loaded(loaded: list, docs: list[dict]) -> None:
    got = [(d.id, d.text, [(m.start, m.end, m.gold_label) for m in d.mentions])
           for d in loaded]
    want = [(d["id"], d["text"], [(m["start"], m["end"], m["label"]) for m in d["mentions"]])
            for d in docs]
    if got != want:
        raise Mismatch(f"load_corpus returned {len(got)} documents unlike the "
                       f"{len(want)} written")


def read_predictions(path: Path) -> dict[tuple, dict]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        key = (row["doc"], row["start"], row["end"])
        if key in out:
            raise Mismatch(f"{path.name}: duplicate row for {key}")
        out[key] = row
    return out


def _expected_keys(docs: list[dict], preds: dict) -> None:
    want = {(d["id"], m["start"], m["end"]): m["label"] for d in docs for m in d["mentions"]}
    if set(preds) != set(want):
        raise Mismatch(f"{len(preds)} predictions for {len(want)} mentions")
    for key, label in want.items():
        if preds[key]["gold"] != label:
            raise Mismatch(f"{key}: gold {preds[key]['gold']!r}, corpus has {label!r}")


def check_one_shot(preds: dict, docs: list[dict]) -> None:
    _expected_keys(docs, preds)
    for key, row in preds.items():
        if row["iterations"] != 1:
            raise Mismatch(f"{key}: one-shot prediction reports {row['iterations']} rounds")


def iterations_for(n_mentions: int) -> int:
    """Rounds of the iterative mode: ceil(n/3) mentions are committed per round."""
    return math.ceil(n_mentions / math.ceil(n_mentions / 3))


def check_iterative(preds: dict, one: dict, docs: list[dict]) -> None:
    _expected_keys(docs, preds)
    for doc in docs:
        if len(doc["text"]) > MAX_CHARS_PER_CHUNK or len(doc["mentions"]) > MAX_MENTIONS_PER_CHUNK:
            raise Mismatch(f"{doc['id']} does not fit one chunk")
        rounds = iterations_for(len(doc["mentions"]))
        for m in doc["mentions"]:
            key = (doc["id"], m["start"], m["end"])
            if preds[key]["iterations"] != rounds:
                raise Mismatch(f"{key}: {preds[key]['iterations']} rounds, expected {rounds}")
            if not preds[key]["score"] >= one[key]["score"]:
                raise Mismatch(f"{key}: iterative score {preds[key]['score']} below "
                               f"one-shot {one[key]['score']}")


def check_restricted(preds: dict, one: dict, docs: list[dict]) -> None:
    check_one_shot(preds, docs)
    golds = {m["label"] for d in docs for m in d["mentions"]}
    for key, row in preds.items():
        if row["pred"] not in golds:
            raise Mismatch(f"{key}: restricted prediction {row['pred']!r} is not a corpus gold")
        if not row["score"] <= one[key]["score"]:
            raise Mismatch(f"{key}: restricted score {row['score']} above unrestricted "
                           f"{one[key]['score']}")


def check_report(path: Path, final: dict, first: dict) -> None:
    report = json.loads(path.read_text())
    n = len(final)
    correct = sum(row["pred"] == row["gold"] for row in final.values())
    first_correct = sum(row["pred"] == row["gold"] for row in first.values())
    got = (report["mentions"], report["correct"], report["changes"]["first_pass_accuracy"])
    if got != (n, correct, first_correct / n):
        raise Mismatch(f"eval report {got}, expected {(n, correct, first_correct / n)}")


def check_trace_samples(samples: list[tuple]) -> None:
    """Sampled mine_hard_negatives and nearest_label calls against the reference scan."""
    for kind, ids, matrix, anchor, key, k, sim, result in samples:
        if kind == "mine":
            reference.check_mining(ids, matrix, anchor, key, k, sim, result)
        else:
            reference.check_nearest(ids, matrix, anchor, key, sim, result)


# ── a whole run ──────────────────────────────────────────────────────────────


def run_workload(cli, workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, trace_out: Path | None = None) -> tuple[dict, Session]:
    """Set up, loop for ``seconds`` and check; returns the result object."""
    session = Session(cli, workload, seed, work)
    session.setup()
    tracer = tracing.Tracer({reference.verbalize(lab)[0] for lab in session.inputs.labels},
                            sample_seed=seed) if trace else None
    layer_rounds: list[dict] = []
    round_time = {False: [], True: []}

    prepared = work / "model"
    if not workload.train_in_loop:
        session.train_in_child(prepared)
    first_round = None
    start = time.perf_counter()
    rounds = 0
    min_rounds = 2 if trace else 1  # a traced run needs an untraced round to compare
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        traced = trace and rounds % 2 == 1
        out = work / f"round{rounds}"
        out.mkdir()
        model = out / "model" if workload.train_in_loop else prepared
        if traced:
            tracer.reset()
            tracer.install()
        try:
            elapsed = session.train(model) if workload.train_in_loop else 0.0
            elapsed += session.predict_round(model, out)
        finally:
            if traced:
                tracer.uninstall()
        round_time[traced].append(elapsed)
        if traced:
            layer_rounds.append(tracer.layer_metrics())
        if first_round is None:
            first_round = (model, out, session.round_ops)
        else:
            shutil.rmtree(out)
        rounds += 1
    if not workload.train_in_loop:
        for _ in range(PREPARED_TRAININGS - 1):
            session.train_in_child(work / "retrained")
    # Before the reference check, whose copies of the model are not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    session.check_against_reference(*first_round)
    ledger = session.ledger  # a child training replaces it
    if trace:
        try:
            check_trace_samples(tracer.samples)
        except Mismatch as exc:
            ledger.fail(first_round[2]["one"], f"reference on traced calls: {exc}")
        if trace_out is not None:
            tracer.write_spans(trace_out)

    report_lines(workload, seed, rounds, session)
    if trace:
        metrics = {name: statistics.median(r[name] for r in layer_rounds)
                   for name in layer_rounds[0]} if layer_rounds else {}
        if round_time[True] and round_time[False]:
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(round_time[True]) / statistics.median(round_time[False])
                - 1.0)
        units = dict(tracing.LAYER_METRICS)
    else:
        metrics = {name: statistics.median(ledger.samples[name])
                   for name, _ in END_TO_END if name in ledger.samples}
        metrics["peak_rss_mb"] = peak_rss_mb
        units = dict(END_TO_END)
    result = {
        "correct": ledger.correct,
        "attempted": len(ledger.ok),
        "failed": ledger.ok.count(False),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, session


def report_lines(workload: Workload, seed: int, rounds: int, session: Session) -> None:
    print(f"workload {workload.name}  seed {seed}  rounds {rounds}  "
          f"operations {len(session.ledger.ok)}  failed {session.ledger.ok.count(False)}")
    if session.dev_accuracy is not None:
        print(f"dev_accuracy {session.dev_accuracy:.4f} (floor {workload.accuracy_floor})")
    for name, digest in sorted(session.digests.items()):
        print(f"sha256 {name} {digest}")
    for name, values in session.ledger.samples.items():
        print(f"samples {name}: n={len(values)} min={min(values):.6g} "
              f"median={statistics.median(values):.6g} max={max(values):.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = import_package()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs_dir = ROOT / ".perfbench_runs"
    results = {}
    for name in names:
        work = runs_dir / f"{name}-s{args.seed}-p{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        trace_out = runs_dir / f"trace-{name}-s{args.seed}.jsonl.gz" if args.trace else None
        try:
            results[name], _ = run_workload(cli, WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace), work, trace_out)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for metric, entry in results[name]["metrics"].items():
            print(f"{name:<14} {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
