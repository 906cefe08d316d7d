"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written with plain loops and math.* so it
shares no code with the library: dense TF-IDF, per-class F1 counting, MNB
closed-form estimates, finite-difference gradients and dense score
evaluation.  The ``frozen_*`` functions keep earlier implementations that
the library must reproduce: the per-vector TF-IDF transform, idf and
per-row scorer, the dense gradient-descent step with its two objectives,
the per-character normalizer rules and the per-token URL rule, with the
pipeline around them (which calls the library's two rules that kept their
code: mentions and hashtags).
"""

import math
import re
from collections import Counter

import numpy as np

from codemix.corpus import Sentiment
from codemix.errors import ConfigError, NumericError
from codemix.preprocess import remove_mentions, segment_hashtags


def word_tokens(text):
    tokens, current = [], []
    for ch in text.lower():
        if ch.isalnum() and ch != "_":
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


def word_terms(text, ngram_min, ngram_max):
    tokens = word_tokens(text)
    out = []
    for n in range(ngram_min, ngram_max + 1):
        for i in range(len(tokens) - n + 1):
            out.append(" ".join(tokens[i : i + n]))
    return out


def char_terms(text, ngram_min, ngram_max):
    lowered = text.lower()
    out = []
    for n in range(ngram_min, ngram_max + 1):
        for i in range(len(lowered) - n + 1):
            out.append(lowered[i : i + n])
    return out


def document_frequencies(docs, extractor, ngram_min, ngram_max):
    df = {}
    for doc in docs:
        for term in set(extractor(doc, ngram_min, ngram_max)):
            df[term] = df.get(term, 0) + 1
    return df


def dense_tfidf(train_docs, query, word_range=(1, 1), char_range=(2, 5)):
    """Dense concatenated word+char TF-IDF vector for one query text."""
    n = len(train_docs)
    vector = []
    for extractor, ngram_range in ((word_terms, word_range), (char_terms, char_range)):
        df = document_frequencies(train_docs, extractor, *ngram_range)
        query_terms = extractor(query, *ngram_range)
        for term in sorted(df):
            tf = query_terms.count(term)
            idf = math.log((1 + n) / (1 + df[term])) + 1.0
            vector.append(tf * idf)
    norm = math.sqrt(sum(w * w for w in vector))
    if norm:
        vector = [w / norm for w in vector]
    return vector


def row_to_dense(matrix, row):
    """Dense list of one CSR matrix row."""
    dense = [0.0] * matrix.shape[1]
    start, end = matrix.indptr[row], matrix.indptr[row + 1]
    for index, weight in zip(matrix.indices[start:end], matrix.data[start:end]):
        dense[int(index)] = float(weight)
    return dense


def frozen_idf(vocab, term):
    return math.log((1 + vocab.n_documents) / (1 + vocab.document_frequency[vocab.term_index[term]])) + 1.0


def frozen_accumulate(entries, vocab, terms, offset):
    for term, tf in Counter(terms).items():
        index = vocab.term_index.get(term)
        if index is not None:
            entries[offset + index] = tf * frozen_idf(vocab, term)


def frozen_transform(model, text):
    """(indices, weights) of one text's TF-IDF vector, computed per vector.

    ``model`` needs word_vocab/char_vocab (term_index: term -> feature index,
    document_frequency by feature index, n_documents) and
    word_analyzer/char_analyzer (ngram_min, ngram_max).
    """
    entries = {}
    word, char = model.word_analyzer, model.char_analyzer
    frozen_accumulate(entries, model.word_vocab, word_terms(text, word.ngram_min, word.ngram_max), 0)
    frozen_accumulate(
        entries, model.char_vocab, char_terms(text, char.ngram_min, char.ngram_max), len(model.word_vocab.term_index)
    )
    items = sorted(entries.items())
    norm = math.sqrt(sum(weight * weight for _, weight in items))
    if norm == 0.0:
        return (), ()
    return tuple(index for index, _ in items), tuple(weight / norm for _, weight in items)


def frozen_predict(weights, bias, indices, values):
    """Per-row argmax of weights[:, indices] @ values + bias, ties to the lowest class."""
    idx = np.asarray(indices, dtype=np.int64)
    return int(np.argmax(weights[:, idx] @ np.asarray(values, dtype=float) + bias))


def f1_report(gold, pred):
    """Per-class (precision, recall, f1), macro-F1 and accuracy."""
    per_class = {}
    for sentiment in Sentiment:
        tp = sum(1 for g, p in zip(gold, pred) if g == sentiment and p == sentiment)
        fp = sum(1 for g, p in zip(gold, pred) if g != sentiment and p == sentiment)
        fn = sum(1 for g, p in zip(gold, pred) if g == sentiment and p != sentiment)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[sentiment] = (precision, recall, f1)
    macro = sum(metrics[2] for metrics in per_class.values()) / len(Sentiment)
    accuracy = sum(1 for g, p in zip(gold, pred) if g == p) / len(gold)
    return per_class, macro, accuracy


def mnb_estimates(count_rows, labels, n_classes, alpha):
    """Closed-form multinomial naive Bayes parameters from count rows."""
    n = len(count_rows)
    dim = len(count_rows[0])
    log_prior, log_likelihood = [], []
    for c in range(n_classes):
        rows = [row for row, label in zip(count_rows, labels) if label == c]
        log_prior.append(math.log(len(rows) / n))
        totals = [sum(row[t] for row in rows) for t in range(dim)]
        denom = sum(totals) + alpha * dim
        log_likelihood.append([math.log((totals[t] + alpha) / denom) for t in range(dim)])
    return log_prior, log_likelihood


def central_difference_gradient(objective, params, eps=1e-5):
    """Central finite differences of a scalar function of a flat array."""
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for i in range(params.size):
        plus = params.copy()
        minus = params.copy()
        plus.flat[i] += eps
        minus.flat[i] -= eps
        grad.flat[i] = (objective(plus) - objective(minus)) / (2 * eps)
    return grad


def linear_scores(weights, bias, dense_x):
    return [
        sum(weights[c][i] * dense_x[i] for i in range(len(dense_x))) + bias[c]
        for c in range(len(bias))
    ]


def mnb_scores(log_prior, log_likelihood, dense_x):
    return [
        log_prior[c] + sum(log_likelihood[c][i] * dense_x[i] for i in range(len(dense_x)))
        for c in range(len(log_prior))
    ]


def frozen_softmax_cross_entropy(W, b, X, y_idx, l2_lambda):
    n = X.shape[0]
    logits = np.asarray(X @ W.T) + b
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        nll = -np.log(probs[np.arange(n), y_idx])
    loss = nll.mean() + 0.5 * l2_lambda * float(np.sum(W * W))
    grad_logits = probs
    grad_logits[np.arange(n), y_idx] -= 1.0
    grad_logits /= n
    grad_W = np.asarray((X.T @ grad_logits).T) + l2_lambda * W
    grad_b = grad_logits.sum(axis=0)
    return loss, grad_W, grad_b


def frozen_ovr_hinge_objective(W, b, X, y_idx, l2_lambda):
    n = X.shape[0]
    scores = np.asarray(X @ W.T) + b
    targets = np.full(scores.shape, -1.0)
    targets[np.arange(n), y_idx] = 1.0
    margins = 1.0 - targets * scores
    active = margins > 0.0
    loss = float(np.where(active, margins, 0.0).sum()) / n + 0.5 * l2_lambda * float(np.sum(W * W))
    grad_scores = np.where(active, -targets, 0.0) / n
    grad_W = np.asarray((X.T @ grad_scores).T) + l2_lambda * W
    grad_b = grad_scores.sum(axis=0)
    return loss, grad_W, grad_b


def frozen_gradient_descent(X, y_idx, n_classes, cfg, objective):
    """The dense step: every mini-batch reads and writes all n_classes x dim weights."""
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    W = np.zeros((n_classes, X.shape[1]))
    b = np.zeros(n_classes)
    lr = cfg.resolved_learning_rate
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            loss, grad_W, grad_b = objective(W, b, X[rows], y_idx[rows], cfg.l2_lambda)
            if not math.isfinite(loss):
                raise NumericError(f"training loss became non-finite at epoch {epoch}")
            W -= lr * grad_W
            b -= lr * grad_b
    return W, b


def _squash(text):
    return " ".join(text.split())


def frozen_replace_emoji(text, entries):
    """Longest-match emoji replacement by a per-character scan; entries maps key -> name."""
    by_first = {}
    for key in sorted(entries, key=len, reverse=True):
        by_first.setdefault(key[0], []).append(key)

    def match_at(text, pos):
        for key in by_first.get(text[pos], ()):
            if text.startswith(key, pos):
                return key
        return None

    out = []
    pos = 0
    while pos < len(text):
        key = match_at(text, pos)
        if key is None:
            out.append(text[pos])
            pos += 1
        else:
            out.append(f" {entries[key]} ")
            pos += len(key)
    return _squash("".join(out))


def frozen_remove_non_ascii(text):
    return _squash("".join(ch for ch in text if ord(ch) <= 0x7F))


_FROZEN_URL_RE = re.compile(
    r"[a-z][a-z0-9+.-]*://\S*"
    r"|www\.\S+"
    r"|(?:[a-z0-9](?:[a-z0-9-]*[a-z0-9])?\.)+(?:com|net|org|edu|gov|mil|io|co|es|uk)(?:[/?]\S*)?",
    re.IGNORECASE,
)


def frozen_replace_urls(text):
    """URL replacement that runs the full match on every token."""
    return " ".join("URL" if _FROZEN_URL_RE.fullmatch(token) else token for token in text.split())


def frozen_collapse_elongation(text, min_run=3):
    if min_run < 2:
        raise ConfigError("min_run must be >= 2")
    out = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        end = pos + 1
        if ch.isalpha():
            while end < len(text) and text[end].lower() == ch.lower():
                end += 1
        out.append(ch if end - pos >= min_run else text[pos:end])
        pos = end
    return _squash("".join(out))


def frozen_run_pipeline(text, config, entries):
    """The fixed-point pipeline over the frozen rules and the library's unchanged ones."""

    def one_pass(text):
        if config.replace_emoji:
            text = frozen_replace_emoji(text, entries)
        if config.remove_mentions:
            text = remove_mentions(text)
        if config.replace_urls:
            text = frozen_replace_urls(text)
        if config.collapse_elongation:
            text = frozen_collapse_elongation(text, config.elongation_min_run)
        if config.segment_hashtags:
            text = segment_hashtags(text)
        if config.remove_non_ascii:
            text = frozen_remove_non_ascii(text)
        return _squash(text)

    previous = None
    current = _squash(text)
    for _ in range(max(8, len(current))):
        if current == previous:
            break
        previous = current
        current = one_pass(current)
    return current
