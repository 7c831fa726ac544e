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
    flag_unlinkable,
    load_corpus,
    load_label_set,
)
from .encoder import (
    EncoderParams,
    TokenSequence,
    encode,
    encoder_backward,
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
    nearest_label,
    sample_in_batch_negatives,
    tokenize_labels,
    top_rows,
    write_back,
)
from .losses import (
    LossSpec,
    SimilaritySpec,
    cross_entropy_loss,
    loss_gradients,
    similarity,
    triplet_loss,
)
from .predictor import (
    DocumentPrediction,
    MentionPrediction,
    PredictionState,
    insert_verbalization,
    predict_corpus,
    predict_document,
    predict_iterative,
    target_label_set,
)
from .trainer import (
    SpanCounter,
    TrainConfig,
    Trainer,
    apply_iterative_insertions,
    dynamic_negative_count,
    make_batches,
)
from .verbalizer import FormatSpec, Verbalization, truncate_soft, verbalize

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
