"""Sentiment classification toolkit for code-mixed (Spanglish) social media text.

Pipeline: parse language-tagged tweet corpora, normalize the text, build
concatenated word/char TF-IDF features, train a classical classifier
(logistic regression, multinomial naive Bayes, or a linear SVM) and score
predictions with macro-averaged F1.
"""

from .corpus import (
    Dataset,
    LangTag,
    Sentiment,
    Tweet,
    concat_datasets,
    format_conll,
    parse_conll,
    parse_monolingual_csv,
)
from .errors import CodemixError, ConfigError, DataError, NumericError, ParseError
from .evaluation import EvalReport, GridRow, comparison_grid, score
from .models import (
    LinearModel,
    ModelKind,
    TrainConfig,
    fit,
    predict_batch,
    predict_scores,
)
from .preprocess import EmojiLexicon, PipelineConfig, default_lexicon, run_pipeline
from .vectorize import (
    Analyzer,
    AnalyzerKind,
    DocMode,
    TfIdfModel,
    Vocabulary,
    fit_tfidf,
    fit_transform,
    prepare_documents,
    transform_batch,
)

__version__ = "0.1.0"

__all__ = [
    "Analyzer",
    "AnalyzerKind",
    "CodemixError",
    "ConfigError",
    "DataError",
    "Dataset",
    "DocMode",
    "EmojiLexicon",
    "EvalReport",
    "GridRow",
    "LangTag",
    "LinearModel",
    "ModelKind",
    "NumericError",
    "ParseError",
    "PipelineConfig",
    "Sentiment",
    "TfIdfModel",
    "TrainConfig",
    "Tweet",
    "Vocabulary",
    "comparison_grid",
    "concat_datasets",
    "default_lexicon",
    "fit",
    "fit_tfidf",
    "fit_transform",
    "format_conll",
    "parse_conll",
    "parse_monolingual_csv",
    "predict_batch",
    "predict_scores",
    "prepare_documents",
    "run_pipeline",
    "score",
    "transform_batch",
]
