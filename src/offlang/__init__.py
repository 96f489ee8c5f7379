"""Hierarchical multi-task offensive-language classification pipeline."""

from .corpus import (
    LabeledExample,
    LabelTriple,
    NormContext,
    ScoredExample,
    TaskLabelA,
    TaskLabelB,
    TaskLabelC,
    binarize,
    load_labeled,
    load_scored,
    split,
)
from .encoder import EncoderConfig
from .evaluation import EvalReport, evaluate, macro_f1, majority_vote, threshold_search
from .mtl import HeadConfig, LossWeights, MtlModel, PredictionTriple, mtl_loss, predict
from .synth import make_hierarchical_corpus, make_scored_corpus
from .textnorm import (
    EmojiTable,
    NormalizedTweet,
    RawTweet,
    UnigramTable,
    bundled_emoji_table,
    bundled_unigram_table,
    collapse_mentions,
    emoji_to_words,
    normalize,
    segment_hashtag,
    substitute_rare,
)
from .tokenizer import Vocabulary, build_vocab, encode_batch
from .training import TrainConfig, TrainHistory, check_gradients, pretrain_regression, train

__version__ = "0.1.0"
