"""Dual-encoder entity disambiguation with verbalized labels.

Mentions and knowledge-base labels are embedded into one vector space
by two independent encoders; prediction is the nearest label under a
configurable similarity. Labels enter the encoder as rendered
verbalization strings (title, description, category relations), and
training mines hard negatives from a periodically refreshed embedding
cache. An iterative prediction mode feeds confident disambiguations
back into the text to help the harder ones.
"""

from .corpus import (
    Chunk,
    Document,
    EntityRecord,
    Mention,
    chunk_document,
    load_corpus,
    load_label_set,
)
from .encoder import (
    EncoderParams,
    TokenSequence,
    backward_spans,
    encode_spans,
    load_checkpoint,
    pool_span,
    save_checkpoint,
    token_range,
    tokenize,
)
from .errors import ValidationError
from .evaluator import ChangeTable, EvalReport, change_analysis, score
from .label_index import (
    LabelCache,
    LabelTokens,
    allowed_rows,
    full_refresh,
    mine_hard_negatives,
    sample_in_batch_negatives,
    tokenize_labels,
    top_rows,
    write_back,
)
from .losses import LossSpec, SimilaritySpec, loss_gradients
from .predictor import (
    DocumentPrediction,
    MentionPrediction,
    PredictionState,
    insert_verbalization,
    iterate_chunks,
    predict_chunks,
    predict_corpus,
    target_label_set,
)
from .trainer import (
    TrainConfig,
    Trainer,
    apply_iterative_insertions,
    dynamic_negative_count,
    load_model,
    load_predictor,
    make_batches,
    save_model,
)
from .verbalizer import Verbalization, truncate_soft, verbalize

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
