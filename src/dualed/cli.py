"""Command-line interface: verbalize / train / predict / eval / ablate.

Every stochastic component threads off --seed, so any subcommand rerun
with identical inputs produces byte-identical outputs. Exit codes:
0 success, 1 validation error (bad inputs, flags, or config), 2
internal error. The VERBALIZED_THREADS environment variable caps how
many ablation variants run in parallel processes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .corpus import (
    _as_integer,
    _check_chunkable,
    _json_kind,
    _jsonl_objects,
    load_corpus,
    load_label_set,
)
from .errors import ValidationError
from .evaluator import change_analysis, score
from .losses import LOSS_KINDS, SIMILARITY_KINDS
from .predictor import predict_corpus, target_label_set
from .trainer import TrainConfig, Trainer, load_predictor, parse_config_file, save_model
from .verbalizer import FORMAT_NAMES, verbalize_all

AXES = ("verbalization", "pooling", "loss_similarity", "negatives", "refresh")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors (exit 1)
        raise ValidationError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(TrainConfig):
        parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, default=None)


def _config_mapping(args: argparse.Namespace) -> dict[str, str]:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(parse_config_file(args.config))
    for f in dataclasses.fields(TrainConfig):
        value = getattr(args, f.name)
        if value is not None:  # flag wins over the config file
            mapping[f.name] = value
    return mapping


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dualed", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verbalize", help="render label verbalizations to JSONL")
    p.add_argument("--labels", required=True)
    p.add_argument("--format", required=True, choices=FORMAT_NAMES)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train both encoders and write a checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--dev", help="held-out corpus for per-epoch accuracy")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p)

    p = sub.add_parser("predict", help="predict labels for every mention")
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--checkpoint", required=True, help="checkpoint.bin in a train --out dir")
    p.add_argument("--out", required=True)
    p.add_argument("--iterative", action="store_true")
    p.add_argument("--restrict-to-targets", action="store_true",
                   help="restrict inference to the corpus gold-label set")

    p = sub.add_parser("eval", help="score a prediction file against gold mentions")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold-corpus", required=True)
    p.add_argument("--first-pass", help="first-pass predictions for change analysis")
    p.add_argument("--json-out", help="write the report as JSON here")

    p = sub.add_parser("ablate", help="train and compare variants along one axis")
    p.add_argument("--axis", required=True, choices=AXES)
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--config", help="base config file")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seed list")
    _add_config_flags(p)
    return parser


# ── subcommands ──────────────────────────────────────────────────────────────


def cmd_verbalize(args) -> int:
    verbs = verbalize_all(load_label_set(args.labels), args.format)
    with open(args.out, "w", encoding="utf-8") as fh:
        for rec_id, verb in verbs.items():
            fh.write(
                json.dumps(
                    {
                        "id": rec_id,
                        "text": verb.text,
                        "title_span": list(verb.title_char_span),
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    return 0


def _load_inputs(corpus_path, labels_path, dev_path=None, max_chars=None):
    """The corpus, the label set and the optional dev corpus, read in that
    order. A mention whose gold is not in the label set stays: training
    skips it, and scoring counts it as wrong. A dev corpus needs a mention
    to score, or the run would fail only after training. With
    ``max_chars``, both corpora are checked by ``_check_chunks``."""
    corpus = load_corpus(corpus_path)
    records = load_label_set(labels_path)
    dev = load_corpus(dev_path) if dev_path else None
    if dev is not None and not any(doc.mentions for doc in dev):
        raise ValidationError(f"{dev_path}: the dev corpus has no mentions to score")
    if max_chars is not None:
        for path, docs in ((corpus_path, corpus), (dev_path, dev or [])):
            _check_chunks(path, docs, max_chars)
    return corpus, records, dev


def _check_chunks(path, docs, max_chars: int) -> None:
    """A ValidationError naming ``path`` when no chunk of ``max_chars``
    characters could hold one of its mentions."""
    try:
        for doc in docs:
            _check_chunkable(doc, max_chars)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def cmd_train(args) -> int:
    config = TrainConfig.from_mapping(_config_mapping(args))
    corpus, records, dev = _load_inputs(args.corpus, args.labels, args.dev,
                                        config.max_chars_per_chunk)
    # an empty label set fails in Trainer, naming itself
    if config.epochs and records and not any(
        m.gold_label in records for doc in corpus for m in doc.mentions
    ):
        raise ValidationError(f"{args.corpus}: no mention has its gold label in "
                              f"{args.labels}, so training would make no update")
    Path(args.out).mkdir(parents=True, exist_ok=True)  # fail before training, not after
    trainer = Trainer(records, config)
    metrics = trainer.train(corpus, dev)
    save_model(args.out, trainer, metrics)
    for row in metrics:
        dev_part = "" if row["dev_acc"] is None else f"  dev_acc={row['dev_acc']:.4f}"
        print(f"epoch {row['epoch']}  loss={row['loss']:.4f}{dev_part}  "
              f"refreshes={row['refreshes']}  spans={row['spans']}")
    return 0


def cmd_predict(args) -> int:
    corpus, records, _ = _load_inputs(args.corpus, args.labels)
    config, mention_params, cache = load_predictor(args.checkpoint, records)
    _check_chunks(args.corpus, corpus, config.max_chars_per_chunk)
    allowed = None
    if args.restrict_to_targets:
        try:
            allowed = target_label_set(corpus, cache)
        except ValidationError as exc:
            raise ValidationError(f"{args.corpus}: no mention has its gold label in "
                                  f"{args.labels}, so --restrict-to-targets leaves no "
                                  f"label to predict") from exc
    preds = predict_corpus(
        corpus,
        mention_params,
        cache,
        records,
        limits=config.limits,
        iterative=args.iterative,
        allowed_ids=allowed,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        for doc in corpus:
            for m in doc.mentions:
                key = (doc.id, m.start, m.end)
                p = preds.final[key]
                fh.write(
                    json.dumps(
                        {
                            "doc": doc.id,
                            "start": m.start,
                            "end": m.end,
                            "pred": p.predicted_id,
                            "score": p.score,
                            "gold": m.gold_label,
                            "iterations": preds.iterations[key],
                        },
                        ensure_ascii=False,
                    )
                    + "\n"
                )
    return 0


def _load_predictions(path, gold_keys: set) -> dict[tuple[str, int, int], str]:
    """One prediction per row of ``path``, each for a mention in ``gold_keys``."""
    out, first_line = {}, {}
    for line_no, obj in _jsonl_objects(path):
        where = f"{path}: line {line_no}"
        try:
            doc, start, end, pred = (obj[k] for k in ("doc", "start", "end", "pred"))
        except KeyError as exc:
            raise ValidationError(f"{where}: missing key {exc}") from exc
        for name, value in (("doc", doc), ("pred", pred)):
            if not isinstance(value, str):
                raise ValidationError(f"{where}: {name} must be a string, got {_json_kind(value)}")
        start, end = _as_integer(start, "start", where), _as_integer(end, "end", where)
        key = (doc, start, end)
        if key in first_line:
            raise ValidationError(
                f"{where}: duplicate prediction for {key!r}, first on line {first_line[key]}"
            )
        if key not in gold_keys:
            raise ValidationError(f"{where}: {key!r} is not a mention of the gold corpus")
        first_line[key] = line_no
        out[key] = pred
    return out


def cmd_eval(args) -> int:
    docs = load_corpus(args.gold_corpus)
    gold_keys = {(doc.id, m.start, m.end) for doc in docs for m in doc.mentions}
    preds = _load_predictions(args.pred, gold_keys)
    report = score(preds, docs)
    print(f"{'mentions':>10} {'correct':>10} {'accuracy':>10}")
    print(f"{report.mentions:>10d} {report.correct:>10d} {report.accuracy:>10.4f}")
    payload = {
        "mentions": report.mentions,
        "correct": report.correct,
        "accuracy": report.accuracy,
    }
    if args.first_pass:
        first = _load_predictions(args.first_pass, gold_keys)
        table = change_analysis(first, preds, docs)
        print()
        print(f"{'category':<22} {'count':>8}")
        for name, value in (
            ("correct", table.correct),
            ("incorrect > correct", table.incorrect_to_correct),
            ("correct > incorrect", table.correct_to_incorrect),
            ("incorrect", table.incorrect),
        ):
            print(f"{name:<22} {value:>8d}")
        print(f"{'accuracy step 1':<22} {table.first_pass_accuracy:>8.4f}")
        print(f"{'accuracy last step':<22} {table.last_pass_accuracy:>8.4f}")
        payload["changes"] = {
            **dataclasses.asdict(table),
            "first_pass_accuracy": table.first_pass_accuracy,
            "last_pass_accuracy": table.last_pass_accuracy,
        }
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


# ── ablation ─────────────────────────────────────────────────────────────────


@dataclasses.dataclass
class AblationPlan:
    variants: list[tuple[str, dict]]
    seeds: list[int]

    def __post_init__(self):
        if not self.variants:
            raise ValidationError("ablation plan needs at least one variant")


def plan_for_axis(axis: str) -> list[tuple[str, dict]]:
    if axis == "verbalization":
        return [(name, {"verbalization": name}) for name in FORMAT_NAMES]
    if axis == "pooling":
        return [(m, {"pooling": m}) for m in ("mean", "first_last")]
    if axis == "loss_similarity":
        return [
            (f"{loss}/{sim}", {"loss": loss, "sim": sim, "margin": "none"})
            for loss in LOSS_KINDS
            for sim in SIMILARITY_KINDS
        ]
    if axis == "negatives":
        return [
            ("in_batch, dyn", {"neg_mode": "in_batch", "neg_count": "dyn"}),
            ("hard, dyn", {"neg_mode": "hard", "neg_count": "dyn"}),
        ]
    if axis == "refresh":
        return [
            ("once after epoch", {"refresh_interval_spans": "0", "on_the_fly": "false"}),
            ("frequent + on-the-fly", {"on_the_fly": "true"}),
        ]
    raise ValidationError(f"unknown ablation axis {axis!r}")


def _run_variant(task) -> float:
    """Train one (variant, seed) job and return held-out accuracy."""
    base, deltas, seed, corpus_path, labels_path, dev_path = task
    mapping = dict(base)
    mapping.update(deltas)
    mapping["seed"] = str(seed)
    config = TrainConfig.from_mapping(mapping)
    corpus, records, dev = _load_inputs(corpus_path, labels_path, dev_path,
                                        config.max_chars_per_chunk)
    trainer = Trainer(records, config)
    trainer.train(corpus)
    return trainer.evaluate(dev)


def run_ablation(
    plan: AblationPlan,
    base_mapping: dict,
    corpus_path: str,
    labels_path: str,
    dev_path: str,
) -> list[tuple[str, float, float, list[float]]]:
    """Train every variant x seed and report (name, mean, sd, accuracies)."""
    jobs = [
        (base_mapping, deltas, seed, corpus_path, labels_path, dev_path)
        for _, deltas in plan.variants
        for seed in plan.seeds
    ]
    workers = _thread_cap(len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_variant, jobs))
    else:
        results = [_run_variant(job) for job in jobs]
    rows = []
    n = len(plan.seeds)
    for i, (name, _) in enumerate(plan.variants):
        accs = results[i * n:(i + 1) * n]
        mean = float(np.mean(accs))
        sd = float(np.std(accs))
        rows.append((name, mean, sd, accs))
    return rows


def _thread_cap(n_jobs: int) -> int:
    raw = os.environ.get("VERBALIZED_THREADS")
    if raw is None:
        cap = os.cpu_count() or 1
    else:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ValidationError(f"VERBALIZED_THREADS must be an integer: {raw!r}") from exc
        if cap < 1:
            raise ValidationError("VERBALIZED_THREADS must be >= 1")
    return max(1, min(cap, n_jobs))


def cmd_ablate(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --seeds value {args.seeds!r}") from exc
    if not seeds:
        raise ValidationError("at least one seed is required")
    plan = AblationPlan(variants=plan_for_axis(args.axis), seeds=seeds)
    rows = run_ablation(plan, _config_mapping(args), args.corpus, args.labels, args.dev)
    width = max(len(name) for name, *_ in rows)
    print(f"axis: {args.axis}  (accuracy over seeds {seeds})")
    print(f"{'variant':<{width}}  {'mean':>8}  {'sd':>8}")
    for name, mean, sd, _ in rows:
        print(f"{name:<{width}}  {mean:>8.4f}  {sd:>8.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "verbalize": cmd_verbalize,
            "train": cmd_train,
            "predict": cmd_predict,
            "eval": cmd_eval,
            "ablate": cmd_ablate,
        }[args.command]
        return handler(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # CLI boundary: anything unexpected is an internal error
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
