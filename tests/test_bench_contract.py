"""What the benchmark's span wrappers (bench/spans.py) read from the program.

The benchmark wraps the entry points ``codemix.cli`` imports and takes its
per-layer counts from their arguments and results; these tests fail when a
change to the program would silently turn those counts into zeros.
"""

import sys
from pathlib import Path

from codemix import cli
from codemix.corpus import Sentiment
from codemix.models import ModelKind, TrainConfig
from codemix.vectorize import DocMode

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402


# The entry points codemix.cli imported when the benchmark was written.
WRAPPED_SINCE_BENCHMARK = {
    "parse_conll", "run_pipeline", "prepare_documents", "fit_tfidf", "transform_batch", "save_tfidf",
    "load_tfidf", "fit", "predict_batch", "save_model", "load_model", "score",
}


def test_every_wrapped_entry_point_exists_on_cli():
    for name in WRAPPED_SINCE_BENCHMARK & set(spans.ENTRY_POINTS):
        assert callable(getattr(cli, name, None)), name


def test_counts_read_from_results():
    docs = ["hola amigo", "good morning", "que tal bro"]
    model = cli.fit_tfidf(docs, DocMode.ALL_DOCUMENTS)
    assert spans._counts("fit_tfidf", (docs,), {}, model) == {
        "dim": model.dim,
        "word_vocab": len(model.word_vocab),
        "char_vocab": len(model.char_vocab),
    }
    matrix = cli.transform_batch(model, docs)
    assert spans._counts("transform_batch", (model, docs), {}, matrix) == {"nnz": matrix.nnz} != {"nnz": 0}

    config = TrainConfig(model_kind=ModelKind.MNB)
    labels = [Sentiment.NEGATIVE, Sentiment.NEUTRAL, Sentiment.POSITIVE]
    args = (matrix, labels, config)
    assert spans._fit_attrs(args, {}) == {"kind": "mnb", "epochs": config.epochs}
    classifier = cli.fit(*args)
    predictions = cli.predict_batch(classifier, matrix)
    assert spans._counts("predict_batch", (classifier, matrix), {}, predictions) == {"predictions": 3}
    assert all(isinstance(label, Sentiment) for label in predictions)
