"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written with plain loops and math.* so it
shares no code with the library: dense TF-IDF, per-class F1 counting, MNB
closed-form estimates, finite-difference gradients and dense score
evaluation.  An L2 norm sums its squares left to right with functools.reduce,
as Python's sum did before 3.12 made it compensated.  The ``frozen_*``
functions keep earlier implementations that the library must reproduce: the
per-vector TF-IDF transform, idf and per-row scorer, the dense
gradient-descent step with its two objectives, the O(nnz) step of one model
on its own batch stream, the per-character normalizer rules and the
per-token URL rule, with the pipeline around them (which calls the
library's two rules that kept their code: mentions and hashtags), the
per-occurrence n-gram counter over word_terms and char_terms, and the
line-by-line block parser with one Token object per token line (which
builds the library's Tweet and Dataset).
"""

import math
import operator
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial, reduce
from itertools import groupby

import numpy as np
from scipy import sparse

from codemix.corpus import Dataset, LangTag, Sentiment, Tweet
from codemix.errors import ConfigError, DataError, NumericError, ParseError
from codemix.preprocess import remove_mentions, segment_hashtags
from codemix.vectorize import Vocabulary


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
    norm = math.sqrt(reduce(operator.add, (w * w for w in vector), 0.0))
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
    norm = math.sqrt(reduce(operator.add, (weight * weight for _, weight in items), 0.0))
    if norm == 0.0:
        return (), ()
    return tuple(index for index, _ in items), tuple(weight / norm for _, weight in items)


def frozen_count_terms(texts, analyzer, vocab=None):
    """Term-count matrix of texts (one row per text, indices sorted in each row).

    Without a vocabulary this fits one: terms get ids as they are first seen, are then
    renumbered in lexicographic order, and each term's document frequency is the number of
    rows it occurs in.  With a vocabulary, out-of-vocabulary terms are dropped as they are
    read.  ``analyzer`` needs kind (its value "word" or "char"), ngram_min and ngram_max.
    """
    fitting = vocab is None
    if fitting:
        term_index: dict[str, int] = defaultdict()
        term_index.default_factory = term_index.__len__
    else:
        term_index = vocab.term_index
    known = partial(operator.is_not, None)  # not None.__ne__: bool(NotImplemented) is deprecated
    ids: list[int] = []  # one id per known term occurrence
    bounds = [0]  # the CSR indptr: row r holds ids[bounds[r] : bounds[r + 1]]
    extract = word_terms if analyzer.kind.value == "word" else char_terms
    for text in texts:
        grams = extract(text, analyzer.ngram_min, analyzer.ngram_max)
        ids += map(term_index.__getitem__, grams) if fitting else filter(known, map(term_index.get, grams))
        bounds.append(len(ids))
    columns = np.array(ids, dtype=np.int64)
    del ids
    if fitting:  # renumber by rank; argsort inverts the lexicographic -> first-seen id permutation
        terms = sorted(term_index)
        columns = np.argsort([term_index[term] for term in terms])[columns]
    shape = (len(bounds) - 1, len(term_index))
    counts = sparse.csr_matrix((np.ones(len(columns)), columns, bounds), shape=shape)
    counts.sum_duplicates()  # sorts each row by column and adds up the 1.0 of each occurrence
    if fitting:
        df = np.bincount(counts.indices, minlength=len(terms))
        vocab = Vocabulary(tuple(terms), tuple(df.tolist()), shape[0])
    return vocab, counts


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
    exp = np.vectorize(math.exp, otypes=[float])(logits)  # libm's exp, as the library takes it
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


def frozen_sparse_gradient_descent(X, y_idx, n_classes, cfg, score_loss):
    """The O(nnz) step of one model on its own batch stream: W = s * V.T, and a batch's
    distinct columns found with a slot array, read with V[columns] and written back with
    V[columns] = updated.  score_loss is the library's loss of the score rows."""
    rng = np.random.default_rng(cfg.seed)
    n, dim = X.shape
    V = np.zeros((dim, n_classes))
    b = np.zeros(n_classes)
    s, sq_norm = 1.0, 0.0  # W = s * V.T and sq_norm = ||V||^2
    slot = np.zeros(dim, dtype=np.intp)
    lr = cfg.resolved_learning_rate
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            batch = X[rows]
            indices = batch.indices.astype(np.intp)
            occurrence = np.arange(indices.size)
            slot[indices] = occurrence
            columns = indices.compress(slot.take(indices) == occurrence)
            slot[columns] = np.arange(columns.size)
            local = sparse.csr_matrix((batch.data, slot.take(indices), batch.indptr), shape=(len(rows), columns.size))
            block = V[columns]
            loss, grad_scores = score_loss(s * (local @ block) + b, y_idx[rows])
            if not math.isfinite(loss + 0.5 * cfg.l2_lambda * s * s * sq_norm):
                raise NumericError(f"training loss became non-finite at epoch {epoch}")
            s *= 1.0 - lr * cfg.l2_lambda
            if s < 1e-9:
                V *= s
                block *= s
                s, sq_norm = 1.0, float(np.sum(V * V))
            updated = block - (lr / s) * (local.T @ grad_scores)
            sq_norm += float(np.sum(updated * updated)) - float(np.sum(block * block))
            V[columns] = updated
            b -= lr * grad_scores.sum(axis=0)
    V *= s
    return np.ascontiguousarray(V.T), b


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


def frozen_pipeline_pass(text, config, entries):
    """One ordered pass over the frozen rules and the library's unchanged ones."""
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


def frozen_run_pipeline(text, config, entries):
    """The fixed-point pipeline over frozen_pipeline_pass, with its first bound: max(8, len) passes."""
    previous = None
    current = _squash(text)
    for _ in range(max(8, len(current))):
        if current == previous:
            break
        previous = current
        current = frozen_pipeline_pass(current, config, entries)
    return current


@dataclass(frozen=True)
class _FrozenToken:
    text: str
    lang: LangTag

    def __post_init__(self):
        if not self.text:
            raise DataError("token text must be non-empty")
        if any(ch in self.text for ch in "\t\n\r"):
            raise DataError(f"token text may not contain tabs or newlines: {self.text!r}")


def _frozen_parse_meta(line, line_no):
    parts = line.split()
    if parts[:1] != ["meta"] or len(parts) not in (2, 3):
        raise ParseError(f"malformed meta line {line!r}", line=line_no)
    sentiment = None
    if len(parts) == 3:
        try:
            sentiment = Sentiment.from_label(parts[2])
        except DataError as exc:
            raise ParseError(str(exc), line=line_no) from None
    return parts[1], sentiment


def _frozen_parse_token_line(line, line_no):
    parts = line.split("\t")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ParseError(f"malformed token line {line!r}", line=line_no)
    text, tag = parts
    try:
        return _FrozenToken(text=text, lang=LangTag.from_tag(tag))
    except DataError as exc:
        raise ParseError(str(exc), line=line_no) from None


def frozen_parse_conll(source, name="dataset"):
    """The line-by-line block parser with one Token object per token line; it builds the library's types."""
    numbered = enumerate((raw.rstrip("\r\n") for raw in source.split("\n")), start=1)
    tweets = []
    for blank, block in groupby(numbered, key=lambda item: not item[1].strip()):
        if blank:
            continue
        (meta_line, meta), *token_lines = block
        tweet_id, sentiment = _frozen_parse_meta(meta, meta_line)
        tokens = tuple(_frozen_parse_token_line(line, line_no) for line_no, line in token_lines)
        if not tokens:
            raise ParseError(f"tweet {tweet_id!r} has no token lines", line=meta_line)
        tweets.append(
            Tweet(tweet_id, tuple(token.text for token in tokens), tuple(token.lang for token in tokens), sentiment)
        )
    return Dataset(name=name, tweets=tuple(tweets))
