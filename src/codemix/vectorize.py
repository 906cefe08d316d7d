"""Dual word/character TF-IDF vectorization with two document-preparation modes.

A fitted model holds a word-level and a character-level vocabulary over the
same training documents; transforming texts gives one CSR matrix row per
text that concatenates the two blocks (word indices first, then char
indices offset by the word vocabulary size) and is L2-normalized.  Weights
use raw term counts and smoothed inverse document frequency
ln((1 + N) / (1 + df)) + 1.
"""

import math
import re
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat

import numpy as np
from scipy import sparse

from .corpus import Dataset, Sentiment
from .errors import ConfigError, DataError

FORMAT_VERSION = "tfidf v1"


class DocMode(Enum):
    """How training text is grouped into documents before fitting."""

    PER_CLASS_CONCATENATED = "per_class_concatenated"
    ALL_DOCUMENTS = "all_documents"

    @property
    def display_label(self) -> str:
        if self is DocMode.PER_CLASS_CONCATENATED:
            return "concatenated docs per class"
        return "all documents"

    @classmethod
    def from_value(cls, value: str) -> "DocMode":
        try:
            return cls(value)
        except ValueError:
            raise ConfigError(f"unknown doc mode {value!r}") from None


class AnalyzerKind(Enum):
    WORD = "word"
    CHAR = "char"


_WORD_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class Analyzer:
    """N-gram extractor.  Word analyzers lowercase and split on runs of
    non-alphanumeric characters; char analyzers take raw-string n-grams
    (spaces included) of the lowercased text."""

    kind: AnalyzerKind
    ngram_min: int = 1
    ngram_max: int = 1

    def __post_init__(self):
        if not (1 <= self.ngram_min <= self.ngram_max <= 8):
            raise ConfigError("analyzer n-gram range must satisfy 1 <= min <= max <= 8")

    def terms(self, text: str) -> list[str]:
        lowered = text.lower()
        grams: list[str] = []
        if self.kind is AnalyzerKind.WORD:
            tokens = _WORD_TOKEN_RE.findall(lowered)
            for n in range(self.ngram_min, self.ngram_max + 1):
                grams.extend(" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
        else:
            for n in range(self.ngram_min, self.ngram_max + 1):
                grams.extend(lowered[i : i + n] for i in range(len(lowered) - n + 1))
        return grams


DEFAULT_WORD_ANALYZER = Analyzer(AnalyzerKind.WORD, 1, 1)
DEFAULT_CHAR_ANALYZER = Analyzer(AnalyzerKind.CHAR, 2, 5)


@dataclass(frozen=True)
class Vocabulary:
    """Term -> dense feature index plus document frequencies, both keyed by
    the same terms in the same order."""

    term_index: dict[str, int]
    document_frequency: dict[str, int]
    n_documents: int

    def __len__(self) -> int:
        return len(self.term_index)

    @cached_property
    def idf(self) -> np.ndarray:
        """Smoothed idf by feature index, via math.log (so weights do not depend on the
        numpy build) once per distinct df; np.unique's temporaries raised peak RSS."""
        by_df = {df: math.log((1 + self.n_documents) / (1 + df)) + 1.0 for df in set(self.document_frequency.values())}
        idf = np.empty(len(self))
        indices = np.fromiter(self.term_index.values(), np.int64, len(self))
        idf[indices] = np.fromiter(map(by_df.__getitem__, self.document_frequency.values()), np.float64, len(self))
        return idf


@dataclass(frozen=True)
class TfIdfModel:
    word_vocab: Vocabulary
    char_vocab: Vocabulary
    word_analyzer: Analyzer
    char_analyzer: Analyzer
    mode: DocMode

    def __post_init__(self):
        if self.word_analyzer.kind is not AnalyzerKind.WORD:
            raise ConfigError("word_analyzer must have kind WORD")
        if self.char_analyzer.kind is not AnalyzerKind.CHAR:
            raise ConfigError("char_analyzer must have kind CHAR")

    @property
    def dim(self) -> int:
        return len(self.word_vocab) + len(self.char_vocab)


def prepare_documents(dataset: Dataset, mode: DocMode, preprocessed: Sequence[str]) -> list[str]:
    """Group preprocessed tweet texts into TF-IDF input documents.

    ALL_DOCUMENTS keeps one document per tweet; PER_CLASS_CONCATENATED
    space-joins each class's tweets into exactly three documents ordered
    negative, neutral, positive.
    """
    texts = list(preprocessed)
    if len(texts) != len(dataset):
        raise DataError(
            f"got {len(texts)} preprocessed texts for {len(dataset)} tweets in {dataset.name!r}"
        )
    if mode is DocMode.ALL_DOCUMENTS:
        return texts
    buckets: dict[Sentiment, list[str]] = {sentiment: [] for sentiment in Sentiment}
    for tweet, text in zip(dataset, texts):
        if tweet.sentiment is None:
            raise DataError(f"tweet {tweet.id!r} is unlabeled; per-class concatenation needs labels")
        buckets[tweet.sentiment].append(text)
    return [" ".join(buckets[sentiment]) for sentiment in Sentiment]


def count_terms(
    texts: Iterable[str], analyzer: Analyzer, vocab: Vocabulary | None = None
) -> tuple[Vocabulary, sparse.csr_matrix]:
    """Term-count matrix of texts (one row per text, indices sorted in each row).

    Without a vocabulary this fits one: terms get ids as they are first seen,
    are then renumbered in lexicographic order, and each term's document
    frequency is the number of rows it occurs in.  With a vocabulary,
    out-of-vocabulary terms are dropped.
    """
    fitting = vocab is None
    if fitting:
        term_index: dict[str, int] = defaultdict()
        term_index.default_factory = term_index.__len__
    else:
        term_index = vocab.term_index
    ids: list[int] = []  # one id per term occurrence, -1 when out of vocabulary
    bounds = [0]
    for text in texts:
        grams = analyzer.terms(text)
        ids += map(term_index.__getitem__, grams) if fitting else map(term_index.get, grams, repeat(-1))
        bounds.append(len(ids))
    columns = np.array(ids, dtype=np.int64)
    del ids
    if fitting:  # renumber by rank; argsort inverts the lexicographic -> first-seen id permutation
        terms = sorted(term_index)
        columns = np.argsort([term_index[term] for term in terms])[columns]
    known = columns >= 0
    indptr = np.concatenate(([0], np.cumsum(known)))[bounds]
    shape = (len(bounds) - 1, len(term_index))
    counts = sparse.csr_matrix((np.ones(indptr[-1]), columns[known], indptr), shape=shape)
    counts.sum_duplicates()  # sorts each row by column and adds up the 1.0 of each occurrence
    if fitting:
        df = np.bincount(counts.indices, minlength=len(terms))
        vocab = Vocabulary(
            term_index=dict(zip(terms, range(len(terms)))),
            document_frequency=dict(zip(terms, df.tolist())),
            n_documents=shape[0],
        )
    return vocab, counts


def _tfidf(model: TfIdfModel, word_counts: sparse.csr_matrix, char_counts: sparse.csr_matrix) -> sparse.csr_matrix:
    """Weight both count blocks by idf, join them and L2-normalize every row."""
    for counts, vocab in ((word_counts, model.word_vocab), (char_counts, model.char_vocab)):
        counts.data *= vocab.idf[counts.indices]
    matrix = sparse.hstack([word_counts, char_counts], format="csr")
    # Python's sum over each row in index order, the reference arithmetic in
    # tests/oracles.py: np.add.reduceat sums pairwise, which changes the last
    # bits of the weights and so the saved models.
    squares = matrix.data * matrix.data
    bounds = matrix.indptr.tolist()
    norms = [math.sqrt(sum(squares[a:b].tolist())) for a, b in zip(bounds, bounds[1:])]
    matrix.data /= np.repeat(norms, np.diff(matrix.indptr))
    return matrix


def fit_transform(
    docs: Iterable[str],
    mode: DocMode,
    word_analyzer: Analyzer = DEFAULT_WORD_ANALYZER,
    char_analyzer: Analyzer = DEFAULT_CHAR_ANALYZER,
) -> tuple[TfIdfModel, sparse.csr_matrix]:
    """Fit the word and char vocabularies on docs and return the docs' TF-IDF
    matrix, reading each document once."""
    docs = list(docs)
    if not docs:
        raise DataError("cannot fit a vocabulary on an empty document list")
    word_vocab, word_counts = count_terms(docs, word_analyzer)
    char_vocab, char_counts = count_terms(docs, char_analyzer)
    model = TfIdfModel(
        word_vocab=word_vocab,
        char_vocab=char_vocab,
        word_analyzer=word_analyzer,
        char_analyzer=char_analyzer,
        mode=mode,
    )
    return model, _tfidf(model, word_counts, char_counts)


def fit_tfidf(*args, **kwargs) -> TfIdfModel:
    """The model of fit_transform(*args, **kwargs), without the matrix."""
    return fit_transform(*args, **kwargs)[0]


def transform_batch(model: TfIdfModel, texts: Iterable[str]) -> sparse.csr_matrix:
    """TF-IDF matrix of texts, one row per text; out-of-vocabulary terms are ignored."""
    texts = list(texts)
    word_counts = count_terms(texts, model.word_analyzer, model.word_vocab)[1]
    char_counts = count_terms(texts, model.char_analyzer, model.char_vocab)[1]
    return _tfidf(model, word_counts, char_counts)


def _escape_term(term: str) -> str:
    return (
        term.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")
    )


def _unescape_term(escaped: str) -> str:
    if "\\" not in escaped:  # almost every term: skip the per-character loop
        return escaped
    out = []
    chars = iter(escaped)
    for ch in chars:
        if ch != "\\":
            out.append(ch)
            continue
        escape = next(chars, None)
        mapped = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(escape or "")
        if mapped is None:
            raise DataError(f"invalid escape sequence in term {escaped!r}")
        out.append(mapped)
    return "".join(out)


def _format_ngrams(analyzer: Analyzer) -> str:
    return f"{analyzer.ngram_min}-{analyzer.ngram_max}"


def _parse_ngrams(field: str, kind: AnalyzerKind) -> Analyzer:
    try:
        low, high = field.split("-", 1)
        return Analyzer(kind, int(low), int(high))
    except (ValueError, ConfigError):
        raise DataError(f"invalid n-gram range field {field!r}") from None


def format_tfidf(model: TfIdfModel) -> str:
    """Versioned text serialization; load_tfidf/parse_tfidf invert it."""
    lines = [
        f"{FORMAT_VERSION} {model.mode.value} {_format_ngrams(model.word_analyzer)}"
        f" {_format_ngrams(model.char_analyzer)}"
        f" {model.word_vocab.n_documents} {model.char_vocab.n_documents}"
    ]
    for block, vocab in (("w", model.word_vocab), ("c", model.char_vocab)):
        for term, index in sorted(vocab.term_index.items(), key=lambda item: item[1]):
            lines.append(f"{block}\t{_escape_term(term)}\t{index}\t{vocab.document_frequency[term]}")
    return "\n".join(lines) + "\n"


def parse_tfidf(text: str) -> TfIdfModel:
    lines = text.removesuffix("\n").split("\n")  # not splitlines(): terms may hold "\x0b", "\x85", "\u2028", ...
    if not lines[0].startswith(FORMAT_VERSION + " "):
        raise DataError("not a tfidf v1 file")
    fields = lines[0].split(" ")
    if len(fields) != 7:
        raise DataError(f"malformed tfidf header {lines[0]!r}")
    try:
        mode = DocMode(fields[2])
    except ValueError:
        raise DataError(f"unknown doc mode {fields[2]!r}") from None
    word_analyzer = _parse_ngrams(fields[3], AnalyzerKind.WORD)
    char_analyzer = _parse_ngrams(fields[4], AnalyzerKind.CHAR)
    try:
        n_docs = {"w": int(fields[5]), "c": int(fields[6])}
    except ValueError:
        raise DataError(f"malformed tfidf header {lines[0]!r}") from None
    if any(n < 1 for n in n_docs.values()):
        raise DataError("tfidf document counts must be >= 1")

    term_index: dict[str, dict[str, int]] = {"w": {}, "c": {}}
    doc_freq: dict[str, dict[str, int]] = {"w": {}, "c": {}}
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 4 or parts[0] not in ("w", "c"):
            raise DataError(f"malformed tfidf term line {line_no}")
        block, escaped, index, df = parts
        term = _unescape_term(escaped)
        try:
            term_index[block][term] = int(index)
            doc_freq[block][term] = int(df)
        except ValueError:
            raise DataError(f"malformed tfidf term line {line_no}") from None

    def build(block: str) -> Vocabulary:
        indices = sorted(term_index[block].values())
        if indices != list(range(len(indices))):
            raise DataError(f"tfidf {block} block indices are not a dense 0-based range")
        if any(not (1 <= df <= n_docs[block]) for df in doc_freq[block].values()):
            raise DataError(f"tfidf {block} block has document frequencies outside [1, n_documents]")
        return Vocabulary(
            term_index=term_index[block],
            document_frequency=doc_freq[block],
            n_documents=n_docs[block],
        )

    return TfIdfModel(
        word_vocab=build("w"),
        char_vocab=build("c"),
        word_analyzer=word_analyzer,
        char_analyzer=char_analyzer,
        mode=mode,
    )


def save_tfidf(model: TfIdfModel, path: str, text: str | None = None) -> None:
    """Write format_tfidf(model) to path; text, when given, is that text already formatted."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_tfidf(model) if text is None else text)


def load_tfidf(path: str) -> TfIdfModel:
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_tfidf(handle.read())
