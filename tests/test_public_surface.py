"""The public names of the package, pinned.

The benchmark tracer (``perfbench/tracing.py``) wraps every public
function of the modules below and every public method of the classes
they define, so each name added or removed changes the traced spans.
Changing the surface means editing these lists.
"""

import importlib
import inspect

import dualed

TRACED = {
    "cli": [
        "AblationPlan", "build_parser", "cmd_ablate", "cmd_eval", "cmd_predict",
        "cmd_train", "cmd_verbalize", "main", "plan_for_axis", "run_ablation",
    ],
    "corpus": [
        "Chunk", "Document", "EntityRecord", "Mention", "chunk_document",
        "load_corpus", "load_label_set",
    ],
    "encoder": [
        "EncoderGrads", "EncoderParams", "TokenSequence", "backward_spans", "encode_spans",
        "fnv1a_64", "load_checkpoint", "pooled_width", "save_checkpoint",
        "token_range", "tokenize",
    ],
    "evaluator": ["ChangeTable", "EvalReport", "change_analysis", "score"],
    "label_index": [
        "LabelCache", "LabelTokens", "allowed_rows", "build_cache", "encode_labels",
        "full_refresh", "sample_in_batch_negatives", "tokenize_labels", "top_rows",
        "write_back",
    ],
    "losses": [
        "LossGradients", "LossSpec", "LossSpec.resolve_margin", "SimilaritySpec",
        "default_margin", "loss_gradients", "similarity_to_matrix",
    ],
    "predictor": [
        "CorpusPredictions", "DocumentPrediction", "MentionPrediction", "MentionSlot",
        "PredictionState", "PredictionState.render", "insert_verbalization",
        "insertion_text", "iterate_chunks", "predict_chunks", "predict_corpus",
        "target_label_set",
    ],
    "trainer": [
        "StepStats", "TrainConfig", "TrainConfig.to_mapping",
        "Trainer", "Trainer.eval_cache", "Trainer.evaluate", "Trainer.refresh_cache",
        "Trainer.train", "Trainer.train_step", "apply_iterative_insertions",
        "dynamic_negative_count", "load_model", "load_predictor", "make_batches",
        "parse_config_file", "save_model",
    ],
    "verbalizer": [
        "Verbalization", "truncate_soft", "verbalize", "verbalize_all",
    ],
}

PACKAGE_ALL = [
    "ChangeTable", "Chunk", "Document", "DocumentPrediction", "EncoderParams",
    "EntityRecord", "EvalReport", "LabelCache", "LabelTokens", "LossSpec",
    "Mention", "MentionPrediction", "PredictionState", "SimilaritySpec",
    "TokenSequence", "TrainConfig", "Trainer", "ValidationError", "Verbalization",
    "allowed_rows", "apply_iterative_insertions", "backward_spans", "change_analysis",
    "chunk_document", "corpus", "dynamic_negative_count", "encode_spans", "encoder",
    "errors", "evaluator", "full_refresh", "insert_verbalization",
    "iterate_chunks", "label_index", "load_checkpoint", "load_corpus", "load_label_set",
    "load_model", "load_predictor", "loss_gradients", "losses", "make_batches",
    "predict_chunks", "predict_corpus", "predictor",
    "sample_in_batch_negatives", "save_checkpoint", "save_model", "score", "target_label_set",
    "token_range", "tokenize", "tokenize_labels", "top_rows", "trainer",
    "truncate_soft", "verbalize", "verbalizer", "write_back",
]


def traced_names(module_name):
    """Public functions and classes defined in the module, plus the classes'
    public plain methods, in the tracer's enumeration."""
    mod = importlib.import_module(f"dualed.{module_name}")
    names = []
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            names.append(attr)
        elif inspect.isclass(obj):
            names.append(attr)
            names.extend(
                f"{attr}.{meth}" for meth, fn in vars(obj).items()
                if not meth.startswith("_") and inspect.isfunction(fn)
            )
    return sorted(names)


def test_traced_modules_expose_the_pinned_names():
    assert {m: traced_names(m) for m in TRACED} == TRACED


def test_package_all_is_pinned():
    assert sorted(dualed.__all__) == PACKAGE_ALL
