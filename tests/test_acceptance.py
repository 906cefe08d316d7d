"""Acceptance suite: one test per top-level criterion.

Each test enforces its stated tolerance and runtime budget and prints one
ACCEPTANCE PASS line (visible with ``pytest -s``) when it succeeds.  The
last test needs the real Spanglish shared-task release and is skipped
unless CODEMIX_SEMEVAL_DIR points at it.
"""

import math
import os
import random
import time
from collections import Counter

import numpy as np
import pytest
from scipy import sparse

import oracles
import synth
from codemix import cli
from codemix.corpus import Dataset, Sentiment, format_conll, parse_conll, require_labels
from codemix.evaluation import score
from codemix.models import ModelKind, TrainConfig, _hinge_loss, _softmax_loss, fit
from codemix.preprocess import (
    PipelineConfig,
    _squash,
    collapse_elongation,
    default_lexicon,
    replace_urls,
    run_pipeline,
    segment_hashtags,
)
from codemix.vectorize import (
    Analyzer,
    AnalyzerKind,
    DocMode,
    fit_tfidf,
    prepare_documents,
    transform_batch,
)

SEMEVAL_ENV_VAR = "CODEMIX_SEMEVAL_DIR"


def _finish(name, started, limit_seconds):
    elapsed = time.perf_counter() - started
    assert elapsed < limit_seconds, f"{name} took {elapsed:.2f}s (budget {limit_seconds}s)"
    print(f"ACCEPTANCE PASS: {name} ({elapsed:.2f}s)")


def test_golden_preprocessing():
    started = time.perf_counter()
    lexicon = default_lexicon()
    assert _squash(lexicon.spell("I love you so much , <3")[0]) == "I love you so much smiley face heart"
    assert replace_urls("The article URL is www.example.com") == "The article URL is URL"
    assert collapse_elongation("Hiiiii everyone", 3) == "Hi everyone"
    assert segment_hashtags("We need to talk #HereWeGoAgain") == "We need to talk Here We Go Again"
    _finish("golden preprocessing", started, 1.0)


def _random_corpus(rng):
    """Labeled corpus with <= 10 docs and <= 50 distinct word+char terms."""
    words = ["a", "ab", "ba", "cab", "bc", "ac"]
    char_analyzer = Analyzer(AnalyzerKind.CHAR, 2, rng.choice([2, 3]))
    while True:
        n_docs = rng.randint(1, 10)
        texts = [" ".join(rng.choice(words) for _ in range(rng.randint(0, 6))) for _ in range(n_docs)]
        terms = set()
        for text in texts:
            terms.update(oracles.word_terms(text, 1, 1))
            terms.update(oracles.char_terms(text, char_analyzer.ngram_min, char_analyzer.ngram_max))
        if len(terms) <= 50:
            return texts, char_analyzer


def test_tfidf_matches_dense_oracle_on_random_corpora():
    started = time.perf_counter()
    rng = random.Random(1234)
    for corpus_index in range(200):
        texts, char_analyzer = _random_corpus(rng)
        tweets = tuple(
            synth.make_tweet(str(i), [text if text else "pad"], Sentiment(i % 3))
            for i, text in enumerate(texts)
        )
        dataset = Dataset("gen", tweets)
        per_class_docs = prepare_documents(dataset, DocMode.PER_CLASS_CONCATENATED, texts)
        assert len(per_class_docs) == 3

        mode = DocMode.ALL_DOCUMENTS if corpus_index % 2 == 0 else DocMode.PER_CLASS_CONCATENATED
        docs = texts if mode is DocMode.ALL_DOCUMENTS else per_class_docs
        word_analyzer = Analyzer(AnalyzerKind.WORD, 1, 1)
        model = fit_tfidf(docs, mode, word_analyzer, char_analyzer)
        char_range = (char_analyzer.ngram_min, char_analyzer.ngram_max)
        queries = texts + ["ab cab", ""]
        matrix = transform_batch(model, queries)
        for row, query in enumerate(queries):
            expected = oracles.dense_tfidf(docs, query, (1, 1), char_range)
            actual = oracles.row_to_dense(matrix, row)
            assert len(expected) == len(actual)
            for want, got in zip(expected, actual):
                assert abs(want - got) < 1e-12
    _finish("tf-idf dense-oracle equivalence (200 corpora)", started, 10.0)


def test_mnb_matches_closed_form_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(3, 21))
        dim = int(rng.integers(1, 13))
        counts = rng.integers(0, 8, size=(n, dim)).astype(float)
        labels = rng.integers(0, 3, size=n)
        labels[:3] = [0, 1, 2]
        alpha = float(rng.choice([0.5, 1.0, 2.0, float(rng.uniform(0.1, 3.0))]))
        model = fit(
            sparse.csr_matrix(counts),
            [Sentiment(int(c)) for c in labels],
            TrainConfig(model_kind=ModelKind.MNB, mnb_alpha=alpha),
        )
        want_prior, want_like = oracles.mnb_estimates(counts.tolist(), labels.tolist(), 3, alpha)
        assert np.max(np.abs(model.bias - np.asarray(want_prior))) < 1e-12
        assert np.max(np.abs(model.weights - np.asarray(want_like))) < 1e-12
    _finish("mnb closed-form equivalence (100 matrices)", started, 5.0)


def test_lr_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(4242)
    for _ in range(50):
        n, dim = 12, 10
        X = rng.normal(size=(n, dim))
        y = rng.integers(0, 3, size=n)
        y[:3] = [0, 1, 2]
        W = rng.normal(size=(3, dim))
        b = rng.normal(size=3)
        lam = float(rng.uniform(0.0, 0.1))
        # The score gradient that the SGD step uses, then the regularized W/b gradient of the dense reference.
        scores = X @ W.T + b
        grad_scores = _softmax_loss(scores.copy(), y)[1]
        fd_scores = oracles.central_difference_gradient(
            lambda flat: _softmax_loss(flat.reshape(n, 3), y)[0], scores, eps=1e-5
        )
        objective = oracles.frozen_softmax_cross_entropy
        _, grad_W, grad_b = objective(W.copy(), b.copy(), X, y, lam)
        fd_W = oracles.central_difference_gradient(
            lambda flat: objective(flat.reshape(3, dim), b, X, y, lam)[0],
            W.ravel(),
            eps=1e-5,
        ).reshape(3, dim)
        fd_b = oracles.central_difference_gradient(lambda flat: objective(W, flat, X, y, lam)[0], b, eps=1e-5)
        for grad, fd in ((grad_scores, fd_scores), (grad_W, fd_W), (grad_b, fd_b)):
            assert np.linalg.norm(grad - fd) / max(np.linalg.norm(grad) + np.linalg.norm(fd), 1e-12) < 1e-4
    _finish("lr gradient check (50 problems)", started, 10.0)


def _separable_toy_set(seed, points_per_class=8, dim=9):
    rng = np.random.default_rng(seed)
    points, labels = [], []
    for c in range(3):
        prototype = np.zeros(dim)
        prototype[3 * c : 3 * c + 3] = rng.uniform(0.5, 1.0, 3)
        for _ in range(points_per_class):
            point = prototype + rng.uniform(0.0, 0.2, dim)
            points.append(point / np.linalg.norm(point))
            labels.append(Sentiment(c))
    return sparse.csr_matrix(np.asarray(points)), labels


def test_svm_separability_across_seeds():
    started = time.perf_counter()
    successes = 0
    n_seeds = 50
    for seed in range(n_seeds):
        matrix, labels = _separable_toy_set(seed)
        config = TrainConfig(
            model_kind=ModelKind.SVM,
            l2_lambda=0.0,
            learning_rate=0.5,
            epochs=200,
            batch_size=64,
            seed=seed,
        )
        model = fit(matrix, labels, config)
        y_idx = np.asarray([int(label) for label in labels])
        hinge = _hinge_loss(matrix @ model.weights.T + model.bias, y_idx)[0]
        accuracy = float((np.asarray(matrix @ model.weights.T + model.bias).argmax(axis=1) == y_idx).mean())
        if hinge == 0.0 and accuracy == 1.0:
            successes += 1
    assert successes / n_seeds >= 0.95, f"only {successes}/{n_seeds} seeds converged"
    _finish(f"svm separability ({successes}/{n_seeds} seeds)", started, 30.0)


def test_metric_matches_brute_force_oracle():
    started = time.perf_counter()
    rng = random.Random(555)
    for _ in range(500):
        length = rng.randint(1, 30)
        gold = [Sentiment(rng.randrange(3)) for _ in range(length)]
        pred = [Sentiment(rng.randrange(3)) for _ in range(length)]
        report = score(gold, pred)
        per_class, macro, accuracy = oracles.f1_report(gold, pred)
        assert report.macro_f1 == macro
        assert report.accuracy == accuracy
        for sentiment in Sentiment:
            precision, recall, f1 = per_class[sentiment]
            assert report.per_class[sentiment].precision == precision
            assert report.per_class[sentiment].recall == recall
            assert report.per_class[sentiment].f1 == f1
    perfect = [Sentiment(i % 3) for i in range(9)]
    assert score(perfect, list(perfect)).macro_f1 == 1.0
    _finish("metric brute-force equivalence (500 vectors)", started, 10.0)


def _grid_cells_from_stdout(output):
    cells = {}
    for line in output.splitlines():
        if line.startswith("grid.") and not line.startswith("grid.best"):
            key, _, value = line.partition("=")
            _, kind, mode = key.split(".", 2)
            cells[(kind, mode)] = float(value)
    return cells


def test_end_to_end_synthetic_grid(tmp_path, capsys):
    started = time.perf_counter()
    train = synth.synthetic_dataset("train", 300, seed=314)
    dev = synth.synthetic_dataset("dev", 60, seed=2718, id_offset=100_000)
    (tmp_path / "train.txt").write_text(format_conll(train), encoding="utf-8")
    (tmp_path / "dev.txt").write_text(format_conll(dev), encoding="utf-8")
    config = tmp_path / "cfg.ini"
    config.write_text(
        f"[data]\ntrain = {tmp_path / 'train.txt'}\ndev = {tmp_path / 'dev.txt'}\n"
        f"\n[output]\ndir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    code = cli.main(["grid", "--config", str(config)])
    output = capsys.readouterr().out
    assert code == 0
    cells = _grid_cells_from_stdout(output)
    assert len(cells) == 6
    best = max(cells.values())
    assert best >= 0.95, f"best synthetic grid cell {best:.4f} below 0.95\n{output}"
    with capsys.disabled():
        _finish(f"end-to-end synthetic grid (best={best:.4f})", started, 60.0)


# Reference development-set macro-F1 per classical cell, in percent.
REFERENCE_DEV_F1 = {
    ("lr", "per_class_concatenated"): 51.60,
    ("lr", "all_documents"): 49.60,
    ("mnb", "per_class_concatenated"): 50.40,
    ("mnb", "all_documents"): 50.73,
    ("svm", "per_class_concatenated"): 52.60,
    ("svm", "all_documents"): 51.53,
}
REFERENCE_TOLERANCE_POINTS = 3.0
TRAIN_CLASS_COUNTS = {Sentiment.NEGATIVE: 2023, Sentiment.NEUTRAL: 3974, Sentiment.POSITIVE: 6005}
DEV_CLASS_COUNTS = {Sentiment.NEGATIVE: 506, Sentiment.NEUTRAL: 994, Sentiment.POSITIVE: 1498}


@pytest.mark.skipif(
    not os.environ.get(SEMEVAL_ENV_VAR),
    reason=f"set {SEMEVAL_ENV_VAR} to the Spanglish train/dev release to run",
)
def test_reference_dev_scores_when_data_available(tmp_path, capsys):
    data_dir = os.environ[SEMEVAL_ENV_VAR]
    train_path = os.path.join(data_dir, "train.txt")
    dev_path = os.path.join(data_dir, "dev.txt")
    for path in (train_path, dev_path):
        assert os.path.isfile(path), f"expected {path}"

    with open(train_path, encoding="utf-8", newline="") as handle:
        train = parse_conll(handle.read(), name="train")
    with open(dev_path, encoding="utf-8", newline="") as handle:
        dev = parse_conll(handle.read(), name="dev")
    assert Counter(require_labels(train)) == TRAIN_CLASS_COUNTS
    assert Counter(require_labels(dev)) == DEV_CLASS_COUNTS

    config = tmp_path / "cfg.ini"
    config.write_text(
        f"[data]\ntrain = {train_path}\ndev = {dev_path}\n\n[output]\ndir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    code = cli.main(["grid", "--config", str(config)])
    output = capsys.readouterr().out
    assert code == 0
    cells = _grid_cells_from_stdout(output)
    assert len(cells) == 6
    for cell, reference in REFERENCE_DEV_F1.items():
        observed = cells[cell] * 100
        assert abs(observed - reference) <= REFERENCE_TOLERANCE_POINTS, (
            f"{cell}: {observed:.2f}% vs reference {reference:.2f}%"
        )
    svm_concat = cells[("svm", "per_class_concatenated")]
    assert all(svm_concat >= value for value in cells.values())
    with capsys.disabled():
        print("ACCEPTANCE PASS: reference dev scores within tolerance")
