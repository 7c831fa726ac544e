"""Span tracing from outside the package, and the per-layer metrics.

``Tracer.install`` wraps every public function of each ``dualed``
module, and the public methods of the classes they define, then rebinds
every name that refers to the original in any ``dualed`` module, so
calls made through ``from .x import y`` bindings are seen too. Each call
records a span (name, start, end, parent) and, for a few functions, a
count taken from its arguments or result. Spans stay in memory;
``write_spans`` saves them, gzipped, when the run ends. ``uninstall`` restores
the originals.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import random
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "corpus", "encoder", "evaluator", "label_index", "losses",
           "predictor", "trainer", "verbalizer")
# Each mine_hard_negatives / nearest_label call is kept for the reference
# check with this probability, up to this many calls of each kind.
SAMPLE_RATE = 0.01
SAMPLE_CAP = 12

# (name, unit) in report order; values are per round of the workload.
LAYER_METRICS = (
    ("trainer.step_s", "s"), ("trainer.steps", "count"), ("trainer.step_self_s", "s"),
    ("trainer.loss_terms_per_span", "ratio"),
    ("encoder.backward_s", "s"), ("encoder.backward_calls", "count"),
    ("encoder.backward_grad_mb", "MB_computed"),
    ("encoder.tokenize_s", "s"), ("encoder.tokenize_calls", "count"),
    ("encoder.tokens", "count"), ("encoder.label_tokenize_repeats", "ratio"),
    ("encoder.encode_s", "s"), ("encoder.encode_calls", "count"),
    ("encoder.pool_s", "s"), ("encoder.token_range_s", "s"),
    ("encoder.checkpoint_io_s", "s"),
    ("label_index.mine_s", "s"), ("label_index.mine_calls", "count"),
    ("label_index.mine_rows_scanned", "count"),
    ("label_index.nearest_s", "s"), ("label_index.nearest_calls", "count"),
    ("label_index.nearest_rows_scanned", "count"),
    ("label_index.refresh_s", "s"), ("label_index.refresh_calls", "count"),
    ("label_index.refresh_labels_per_s", "labels/s"),
    ("label_index.write_back_calls", "count"),
    ("losses.loss_gradients_s", "s"), ("losses.loss_terms", "count"),
    ("predictor.predict_s", "s"), ("predictor.self_s", "s"), ("predictor.rounds", "count"),
    ("predictor.insertions", "count"), ("predictor.rescores_per_mention", "ratio"),
    ("corpus.load_s", "s"), ("corpus.chunk_s", "s"), ("corpus.chunks", "count"),
    ("verbalizer.verbalize_s", "s"), ("verbalizer.labels", "count"),
    ("evaluator.score_s", "s"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_pct", "%"),
)


class Tracer:
    """Records spans and counts for calls into the package."""

    def __init__(self, label_texts: set[str], sample_seed: int):
        self.label_texts = label_texts
        self.sampler = random.Random(sample_seed)
        self.samples: list[tuple] = []      # (kind, ids, matrix, anchor, key, k, sim, result)
        self.sampled: dict[str, int] = defaultdict(int)
        self.reset()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []

    # -- installation --

    def install(self) -> None:
        import dualed

        modules = [importlib.import_module(f"dualed.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrap(fn, f"{short}.{attr}.{meth}"))
        for owner in [dualed, *modules]:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(owner, attr, wrappers[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.stack.append(index)
            self.active[name] += 1
            self.starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = clock()
                self.stack.pop()
                self.active[name] -= 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- counts taken at the boundaries --

    def _on_encoder_tokenize(self, args, kwargs, result):
        self.counts["tokens"] += len(result)
        if args[0] in self.label_texts:
            self.counts["label_tokenize"] += 1

    def _on_encoder_encoder_backward(self, args, kwargs, result):
        self.counts["grad_bytes"] += sum(
            t.nbytes for t in (result.table, result.w_self, result.w_ctx, result.bias))

    def _on_label_index_mine_hard_negatives(self, args, kwargs, result):
        cache, anchor, gold_id, k = args
        self.counts["mine_rows"] += cache.matrix.shape[0]
        if self._take_sample("mine"):
            self._keep("mine", cache, anchor, gold_id, k, result)

    def _on_label_index_nearest_label(self, args, kwargs, result):
        cache, anchor = args[0], args[1]
        allowed = args[2] if len(args) > 2 else kwargs.get("allowed_ids")
        self.counts["nearest_rows"] += cache.matrix.shape[0]
        if self.active["predictor.predict_iterative"]:
            self.counts["iterative_rescores"] += 1
        if self._take_sample("nearest"):
            self._keep("nearest", cache, anchor, set(allowed) if allowed else None, None,
                       result)

    def _on_label_index_full_refresh(self, args, kwargs, result):
        self.counts["refreshed_labels"] += len(result.ids)

    def _on_predictor_predict_iterative(self, args, kwargs, result):
        self.counts["rounds"] += result.iterations
        self.counts["iterative_mentions"] += len(result.predictions)

    def _on_corpus_chunk_document(self, args, kwargs, result):
        self.counts["chunks"] += len(result)

    def _on_trainer_Trainer_train_step(self, args, kwargs, result):
        self.counts["step_spans"] += result.spans
        self.counts["step_loss_terms"] += result.loss_terms

    def _take_sample(self, kind: str) -> bool:
        """Seeded choice of the calls whose results the reference re-checks."""
        return self.sampled[kind] < SAMPLE_CAP and self.sampler.random() < SAMPLE_RATE

    def _keep(self, kind, cache, anchor, key, k, result) -> None:
        self.sampled[kind] += 1
        self.samples.append((kind, list(cache.ids), cache.matrix.copy(),
                             np.array(anchor, copy=True), key, k, cache.sim_spec.kind,
                             result))

    # -- derived metrics --

    def layer_metrics(self) -> dict[str, float]:
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        module_top: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            total[name] += dur[i]
            calls[name] += 1
            module = name.split(".", 1)[0]
            self_time[module] += dur[i] - child[i]
            p = self.parents[i]
            if p < 0 or self.names[p].split(".", 1)[0] != module:
                module_top[module] += dur[i]
        c = self.counts
        step = "trainer.Trainer.train_step"
        step_self = sum(dur[i] - child[i] for i in range(n) if self.names[i] == step)
        labels = max(len(self.label_texts), 1)
        refresh_s = total["label_index.full_refresh"]
        return {
            "trainer.step_s": total[step],
            "trainer.steps": calls[step],
            "trainer.step_self_s": step_self,
            "trainer.loss_terms_per_span": c["step_loss_terms"] / max(c["step_spans"], 1),
            "encoder.backward_s": total["encoder.encoder_backward"],
            "encoder.backward_calls": calls["encoder.encoder_backward"],
            "encoder.backward_grad_mb": c["grad_bytes"] / 1e6,
            "encoder.tokenize_s": total["encoder.tokenize"],
            "encoder.tokenize_calls": calls["encoder.tokenize"],
            "encoder.tokens": c["tokens"],
            "encoder.label_tokenize_repeats": c["label_tokenize"] / labels,
            "encoder.encode_s": total["encoder.encode"],
            "encoder.encode_calls": calls["encoder.encode"],
            "encoder.pool_s": total["encoder.pool_span"] + total["encoder.pool_span_backward"],
            "encoder.token_range_s": total["encoder.token_range"],
            "encoder.checkpoint_io_s": (total["encoder.save_checkpoint"]
                                        + total["encoder.load_checkpoint"]),
            "label_index.mine_s": total["label_index.mine_hard_negatives"],
            "label_index.mine_calls": calls["label_index.mine_hard_negatives"],
            "label_index.mine_rows_scanned": c["mine_rows"],
            "label_index.nearest_s": total["label_index.nearest_label"],
            "label_index.nearest_calls": calls["label_index.nearest_label"],
            "label_index.nearest_rows_scanned": c["nearest_rows"],
            "label_index.refresh_s": refresh_s,
            "label_index.refresh_calls": calls["label_index.full_refresh"],
            "label_index.refresh_labels_per_s": (c["refreshed_labels"] / refresh_s
                                                 if refresh_s else 0.0),
            "label_index.write_back_calls": calls["label_index.write_back"],
            "losses.loss_gradients_s": total["losses.loss_gradients"],
            "losses.loss_terms": calls["losses.loss_gradients"],
            "predictor.predict_s": total["predictor.predict_corpus"],
            "predictor.self_s": self_time["predictor"],
            "predictor.rounds": c["rounds"],
            "predictor.insertions": calls["predictor.insert_verbalization"],
            "predictor.rescores_per_mention": (c["iterative_rescores"]
                                               / max(c["iterative_mentions"], 1)),
            "corpus.load_s": total["corpus.load_corpus"] + total["corpus.load_label_set"],
            "corpus.chunk_s": total["corpus.chunk_document"],
            "corpus.chunks": c["chunks"],
            "verbalizer.verbalize_s": module_top["verbalizer"],
            "verbalizer.labels": calls["verbalizer.verbalize"],
            "evaluator.score_s": module_top["evaluator"],
            "cli.self_s": self_time["cli"],
            "trace.spans": n,
        }

    def write_spans(self, path) -> None:
        """Gzipped JSON lines: a header naming the spans, then one line per
        span: [name index, start s, end s, parent line] with times relative
        to the first span and parent -1 for a root."""
        table = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": list(table),
                                 "columns": ["name", "start_s", "end_s", "parent"]}) + "\n")
            for i, name in enumerate(self.names):
                fh.write(json.dumps([table[name], round(self.starts[i] - t0, 7),
                                     round(self.ends[i] - t0, 7), self.parents[i]]) + "\n")
