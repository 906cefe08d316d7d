"""Dual word/character TF-IDF vectorization with two document-preparation modes.

A fitted model holds a word-level and a character-level vocabulary over the
same training documents; transforming texts gives one CSR matrix row per
text that concatenates the two blocks (word indices first, then char
indices offset by the word vocabulary size) and is L2-normalized.  Weights
use raw term counts and smoothed inverse document frequency
ln((1 + N) / (1 + df)) + 1.
"""

import math
import operator
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, islice, pairwise, repeat

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


DEFAULT_WORD_ANALYZER = Analyzer(AnalyzerKind.WORD, 1, 1)
DEFAULT_CHAR_ANALYZER = Analyzer(AnalyzerKind.CHAR, 2, 5)


@dataclass(frozen=True)
class Vocabulary:
    """Terms and document frequencies by feature index: feature i is terms[i],
    seen in document_frequency[i] of the n_documents fitted documents.  A fit
    numbers terms in lexicographic order."""

    terms: tuple[str, ...]
    document_frequency: tuple[int, ...]
    n_documents: int

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def term_index(self) -> dict[str, int]:
        """Term -> feature index, built on the first lookup (transform)."""
        return dict(zip(self.terms, range(len(self))))

    @cached_property
    def idf(self) -> np.ndarray:
        """Smoothed idf by feature index, via math.log (so weights do not depend on the
        numpy build) once per distinct df; np.unique's temporaries raised peak RSS."""
        by_df = {df: math.log((1 + self.n_documents) / (1 + df)) + 1.0 for df in set(self.document_frequency)}
        return np.fromiter(map(by_df.__getitem__, self.document_frequency), np.float64, len(self))


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


def _int_type(bound: int) -> type:
    """int32 if it holds every integer below bound, else int64."""
    return np.int32 if bound <= 2**31 else np.int64


_SLOTS_PER_KEY = 4  # 4 slots of 9 traced bytes (bools, cumsum's int32 copy, sums) <= np.unique's 36-48 per key


def _dense_rank(keys: np.ndarray, space: int) -> tuple[np.ndarray, int]:
    """Each key's rank among the distinct keys (in [0, space)) and their number, by a presence table or np.unique."""
    if 0 < space <= _SLOTS_PER_KEY * keys.size:
        table = np.zeros(space, bool)
        table[keys] = True
        table = np.cumsum(table, dtype=_int_type(space))
        ranks = table.take(keys)
        ranks -= 1  # in place: one more temporary here put a 12k train in a 30 MB higher peak RSS mode
        return ranks, int(table[-1])
    distinct, ranks = np.unique(keys, return_inverse=True)
    return ranks, len(distinct)


def _symbols(texts: list[str], kind: AnalyzerKind) -> tuple[str | list[str], list[int], np.ndarray, int]:
    """The units of the lowercased texts back to back (code points of one string, or word tokens), the
    number of units in each text, each unit's rank in str order among the distinct units, and their number.

    Each text is lowercased on its own: "İ".lower() is two code points and a final sigma depends on
    its neighbour, so the joined lowercase is not the join of the lowercased texts."""
    if kind is AnalyzerKind.WORD:
        tokens = [_WORD_TOKEN_RE.findall(text.lower()) for text in texts]
        sizes = list(map(len, tokens))
        units = list(chain.from_iterable(tokens))
        alphabet = sorted(set(units))
        rank = dict(zip(alphabet, range(len(alphabet))))
        return units, sizes, np.fromiter(map(rank.__getitem__, units), np.int32, len(units)), len(alphabet)
    lowered = [text.lower() for text in texts]
    sizes = list(map(len, lowered))
    units = "".join(lowered)
    # UTF-32 gives one unit per code point, valued as the code point (str order); surrogatepass keeps lone surrogates.
    codes = np.frombuffer(units.encode("utf-32-le", "surrogatepass"), np.uint32)
    ranks, n_symbols = _dense_rank(codes, int(codes.max(initial=0)) + 1)
    return units, sizes, ranks.astype(np.int32, copy=False), n_symbols


def _count_levels(
    texts: list[str], analyzer: Analyzer, vocab: Vocabulary | None = None, offset: int = 0
) -> tuple[Vocabulary, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The vocabulary of texts (vocab itself if given) and their term counts as one canonical CSR part
    (int32 counts, int32 columns + offset, indptr) per n-gram length.

    The n-gram at position p gets the dense rank of (rank of the (n-1)-gram at p, rank of unit p+n-1) where it fits
    in its text: the rank-pair step of suffix-array prefix doubling (Manber & Myers 1993), one unit at a time, with
    their bucket step as a presence table (np.unique above 4 slots per key).  Ranks follow str order within a length,
    and one occurrence of each distinct n-gram is decoded.  A fit sorts these strings to number terms in str order, a
    transform looks them up, and one loop maps each level's ranks to columns, dropping unknown ones.
    """
    units, sizes, symbols, n_symbols = _symbols(texts, analyzer.kind)
    n_texts, n_units = len(texts), len(symbols)
    position = _int_type(n_units + 1)
    room = np.repeat(np.cumsum(sizes, dtype=position), sizes)  # units from each position to its text's end
    room -= np.arange(n_units, dtype=position)
    text_of = np.repeat(np.arange(n_texts, dtype=np.int32), sizes)
    grams: list[str] = []  # the distinct n-grams, level by level
    parts = []  # per level: counts, ranks, indptr and the index of the level's first n-gram in grams
    rank, width = symbols.copy(), n_symbols  # the n-gram rank at each position where it fits; distinct n-grams
    # Every array is dropped right after its last use: the level temporaries, not the counts, set the
    # peak memory, and keeping any one of them longer raised a 12k-tweet train's peak RSS by 30-40 MB.
    for n in range(1, analyzer.ngram_max + 1):
        fits = np.flatnonzero(room >= n)
        if n > 1:
            key = rank[fits].astype(_int_type(width * n_symbols))
            key *= n_symbols
            key += symbols[n - 1 :][fits]
            rank[fits], width = _dense_rank(key, width * n_symbols)  # ranks follow key order
            del key
        if n < analyzer.ngram_min:
            continue
        level = rank[fits]
        starts = np.empty(width, np.intp)
        starts[level] = fits  # one occurrence of each distinct n-gram
        pair_type = _int_type(n_texts * width + 1)
        pair = text_of[fits].astype(pair_type)
        del fits
        pair *= width
        pair += level
        del level
        pairs, counts = np.unique(pair, return_counts=True)  # sorted by text, then rank
        del pair
        indptr = np.searchsorted(pairs, np.arange(n_texts + 1, dtype=pair_type) * width)
        parts.append((counts.astype(np.int32), (pairs % width).astype(np.int32), indptr, len(grams)))
        del pairs, counts
        pieces = map(units.__getitem__, map(slice, starts.tolist(), (starts + n).tolist()))
        grams += map(" ".join, pieces) if analyzer.kind is AnalyzerKind.WORD else pieces
    del units, symbols, rank, room, text_of
    fitting = vocab is None
    if fitting:
        order = sorted(range(len(grams)), key=grams.__getitem__)
        column = np.empty(len(grams), np.int32)
        column[order] = np.arange(len(grams), dtype=np.int32)
        df = np.zeros(len(grams), np.int64)
    else:
        column = np.fromiter(map(vocab.term_index.get, grams, repeat(-1)), np.int32, len(grams))
    for i, (counts, ranks, indptr, first) in enumerate(parts):
        columns = column[ranks + first]  # a fit's rise with rank within a level, so each row stays sorted
        known = columns >= 0  # all of a fit's; a transform drops the n-grams its vocabulary lacks
        indptr = np.concatenate(([0], np.cumsum(known)))[indptr]
        columns = columns[known]
        if fitting:
            df += np.bincount(columns, minlength=len(grams))
        columns += offset
        parts[i] = counts[known], columns, indptr
    if fitting:
        vocab = Vocabulary(tuple(map(grams.__getitem__, order)), tuple(df.tolist()), n_texts)
    return vocab, parts


def _join(parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]], shape: tuple[int, int]) -> sparse.csr_matrix:
    """One canonical CSR matrix of int32 counts from canonical CSR parts whose columns are disjoint.
    Each part is merged in and freed in turn, smallest first, so no part is held twice."""
    parts.sort(key=lambda part: len(part[0]), reverse=True)
    counts = sparse.csr_matrix(shape, dtype=np.int32)
    while parts:
        counts = counts + sparse.csr_matrix(parts.pop(), shape=shape)
    return counts


def _tfidf(model: TfIdfModel, counts: sparse.csr_matrix) -> sparse.csr_matrix:
    """The joined word+char counts weighted by idf, each row L2-normalized in place."""
    weights = np.concatenate((model.word_vocab.idf, model.char_vocab.idf))[counts.indices]
    weights *= counts.data
    counts.data = weights
    for a, b in pairwise(counts.indptr.tolist()):
        if a < b:
            row = weights[a:b]
            # A sequential sum of the squares in index order, the reference arithmetic in
            # tests/oracles.py.  np.add.reduceat sums pairwise and Python's sum compensates
            # from 3.12 on; either changes the last bits of the weights and so the saved models.
            row /= math.sqrt(np.add.accumulate(row * row)[-1])
    return counts


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
    word_vocab, word_parts = _count_levels(docs, word_analyzer)
    char_vocab, char_parts = _count_levels(docs, char_analyzer, offset=len(word_vocab))
    model = TfIdfModel(
        word_vocab=word_vocab,
        char_vocab=char_vocab,
        word_analyzer=word_analyzer,
        char_analyzer=char_analyzer,
        mode=mode,
    )
    return model, _tfidf(model, _join(word_parts + char_parts, (len(docs), model.dim)))


def fit_tfidf(*args, **kwargs) -> TfIdfModel:
    """The model of fit_transform(*args, **kwargs), without the matrix."""
    return fit_transform(*args, **kwargs)[0]


def transform_batch(model: TfIdfModel, texts: Iterable[str]) -> sparse.csr_matrix:
    """TF-IDF matrix of texts, one row per text; out-of-vocabulary terms are ignored."""
    texts = list(texts)
    word_parts = _count_levels(texts, model.word_analyzer, model.word_vocab)[1]
    char_parts = _count_levels(texts, model.char_analyzer, model.char_vocab, len(model.word_vocab))[1]
    return _tfidf(model, _join(word_parts + char_parts, (len(texts), model.dim)))


def _escape_term(term: str) -> str:
    return (
        term.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")
    )


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _unescape_term(escaped: str) -> str:
    """The term _escape_term wrote as escaped; DataError for any field it cannot have written."""
    if "\\" not in escaped and "\r" not in escaped:  # almost every term
        return escaped
    term = re.sub(r"\\(.)", lambda match: _UNESCAPES.get(match[1], match[0]), escaped)
    if _escape_term(term) != escaped:
        raise DataError(f"term field {escaped!r} is not a term as _escape_term writes it")
    return term


def _tfidf_header(model: TfIdfModel) -> str:
    """The first line format_tfidf writes; parse_tfidf refuses a file whose header differs."""
    word, char = model.word_analyzer, model.char_analyzer
    return (
        f"{FORMAT_VERSION} {model.mode.value} {word.ngram_min}-{word.ngram_max} {char.ngram_min}-{char.ngram_max}"
        f" {model.word_vocab.n_documents} {model.char_vocab.n_documents}"
    )


def format_tfidf(model: TfIdfModel) -> str:
    """Versioned text serialization; load_tfidf/parse_tfidf invert it."""
    lines = [_tfidf_header(model)]
    for block, vocab in (("w", model.word_vocab), ("c", model.char_vocab)):
        for index, (term, df) in enumerate(zip(vocab.terms, vocab.document_frequency)):
            lines.append(f"{block}\t{_escape_term(term)}\t{index}\t{df}")
    return "\n".join(lines) + "\n"


def parse_tfidf(text: str) -> TfIdfModel:
    """The model format_tfidf wrote as text.  Only that layout loads: "\n" line ends (the last
    one too), the header format_tfidf writes for the parsed model, with equal word and char document
    counts, then the word block's term lines and the char block's, each in index order with its terms
    strictly ascending in str order, as a fit numbers them, and with decimal indices and dfs as str()
    writes them.  Nothing is repaired: anything else is a DataError."""
    if not text.endswith("\n"):
        raise DataError("tfidf file does not end in a line feed")
    lines = text[:-1].split("\n")  # not splitlines(): terms may hold "\x0b", "\x85", "\u2028", ...
    header = lines[0]
    if not header.startswith(FORMAT_VERSION + " "):
        raise DataError("not a tfidf v1 file")
    try:
        _, _, mode_value, word_range, char_range, n_word, n_char = header.split(" ")
        mode = DocMode.from_value(mode_value)
        word_analyzer = Analyzer(AnalyzerKind.WORD, *map(int, word_range.split("-", 1)))
        char_analyzer = Analyzer(AnalyzerKind.CHAR, *map(int, char_range.split("-", 1)))
        n_docs = int(n_word)
    except ValueError:
        raise DataError(f"malformed tfidf header {header!r}") from None
    except ConfigError as exc:  # an unknown doc mode or an n-gram range out of bounds
        raise DataError(str(exc)) from None
    if n_char != n_word or n_docs < 1:  # a fit counts one or more documents, the same ones for both blocks
        raise DataError(f"malformed tfidf header {header!r}")

    columns: dict[str, tuple[list[str], list[int]]] = {"w": ([], []), "c": ([], [])}  # terms, dfs
    char_terms = columns["c"][0]
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            block, escaped, index, df_text = line.split("\t")
            terms, dfs = columns[block]
            df = int(df_text)
        except (ValueError, KeyError):
            raise DataError(f"malformed tfidf term line {line_no}") from None
        if block == "w" and char_terms:
            raise DataError(f"tfidf term line {line_no} is a word term after the char block")
        if index != str(len(terms)):
            raise DataError(f"tfidf term line {line_no} is not at index {len(terms)} of its block")
        if str(df) != df_text or not 1 <= df <= n_docs:
            raise DataError(f"tfidf term line {line_no} has df {df_text!r}, not a count in [1, {n_docs}]")
        terms.append(_unescape_term(escaped))
        dfs.append(df)

    # The order is checked per block after the loop: map(operator.lt) costs less than a comparison per line.
    for (terms, _), first in zip(columns.values(), (2, 2 + len(columns["w"][0]))):
        if not all(map(operator.lt, terms, islice(terms, 1, None))):
            at = next(i for i, pair in enumerate(pairwise(terms), start=1) if pair[0] >= pair[1])
            raise DataError(f"tfidf term line {first + at} does not follow the term before it in str order")
    word, char = (Vocabulary(tuple(terms), tuple(dfs), n_docs) for terms, dfs in columns.values())
    model = TfIdfModel(word, char, word_analyzer, char_analyzer, mode)
    if _tfidf_header(model) != header:
        raise DataError(f"malformed tfidf header {header!r}")
    return model


def save_tfidf(model: TfIdfModel, path: str, text: str | None = None) -> None:
    """Write format_tfidf(model) to path; text, when given, is that text already formatted."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_tfidf(model) if text is None else text)


def load_tfidf(path: str) -> TfIdfModel:
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_tfidf(handle.read())
