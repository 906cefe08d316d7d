import math
import operator
import random
import string
import tracemalloc
from collections import Counter
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import oracles
from synth import make_tweet, synthetic_dataset
from codemix.corpus import Dataset, Sentiment
from codemix.errors import ConfigError, DataError
from codemix.vectorize import (
    DEFAULT_CHAR_ANALYZER,
    Analyzer,
    AnalyzerKind,
    DocMode,
    TfIdfModel,
    Vocabulary,
    _count_levels,
    _dense_rank,
    _join,
    _tfidf,
    fit_tfidf,
    fit_transform,
    format_tfidf,
    load_tfidf,
    parse_tfidf,
    prepare_documents,
    save_tfidf,
    transform_batch,
)

WORD = Analyzer(AnalyzerKind.WORD, 1, 1)
CHAR2 = Analyzer(AnalyzerKind.CHAR, 2, 2)

TOY_DOCS = ["the cat sat", "the dog sat down", "cat and dog and cat"]


def count(texts, analyzer, vocab=None):
    """The vocabulary and the int32 term-count matrix that fit_transform and transform_batch weight."""
    vocab, parts = _count_levels(texts, analyzer, vocab)
    return vocab, _join(parts, (len(texts), len(vocab)))


class TestAnalyzer:
    def test_word_unigrams(self):
        vocab, counts = count(["The cat, the CAT!"], WORD)
        assert vocab.terms == ("cat", "the")
        assert counts.toarray().tolist() == [[2, 2]]

    def test_word_bigrams(self):
        vocab, counts = count(["a b c"], Analyzer(AnalyzerKind.WORD, 1, 2))
        assert vocab.terms == ("a", "a b", "b", "b c", "c")
        assert counts.toarray().tolist() == [[1, 1, 1, 1, 1]]

    def test_char_ngrams_include_spaces(self):
        assert fit_vocabulary(["ab c"], CHAR2).terms == (" c", "ab", "b ")

    def test_char_range(self):
        assert fit_vocabulary(["abc"], Analyzer(AnalyzerKind.CHAR, 2, 3)).terms == ("ab", "abc", "bc")

    @pytest.mark.parametrize("low,high", [(0, 1), (3, 2), (1, 9)])
    def test_invalid_ranges(self, low, high):
        with pytest.raises(ConfigError):
            Analyzer(AnalyzerKind.WORD, low, high)

    def test_word_terms_match_oracle(self):
        for text in TOY_DOCS + ["¡Hola! ¿qué tal?", "under_score splits"]:
            for rng in [(1, 1), (1, 2), (2, 3)]:
                vocab, counts = count([text], Analyzer(AnalyzerKind.WORD, *rng))
                assert dict(zip(vocab.terms, counts.toarray()[0].tolist())) == Counter(oracles.word_terms(text, *rng))

    def test_char_terms_match_oracle(self):
        for text in TOY_DOCS:
            for rng in [(2, 2), (2, 5), (1, 3)]:
                vocab, counts = count([text], Analyzer(AnalyzerKind.CHAR, *rng))
                assert dict(zip(vocab.terms, counts.toarray()[0].tolist())) == Counter(oracles.char_terms(text, *rng))


def fit_vocabulary(docs, analyzer):
    return _count_levels(docs, analyzer)[0]


class TestFitVocabulary:
    def test_two_docs(self):
        vocab, counts = count(["a b", "b c"], WORD)
        assert vocab.terms == ("a", "b", "c")
        assert vocab.document_frequency == (1, 2, 1)
        assert vocab.n_documents == 2
        assert counts.toarray().tolist() == [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]

    def test_char_single_doc(self):
        vocab = fit_vocabulary(["ab"], CHAR2)
        assert vocab.terms == ("ab",)
        assert vocab.document_frequency == (1,)

    def test_empty_docs_rejected(self):
        with pytest.raises(DataError):
            fit_tfidf([], DocMode.ALL_DOCUMENTS)

    def test_df_counted_once_per_document(self):
        vocab, counts = count(["cat cat cat", "cat"], WORD)
        assert vocab.document_frequency[vocab.term_index["cat"]] == 2
        assert counts.toarray().tolist() == [[3.0], [1.0]]

    def test_df_matches_counting_oracle(self):
        vocab = fit_vocabulary(TOY_DOCS, WORD)
        df = oracles.document_frequencies(TOY_DOCS, oracles.word_terms, 1, 1)
        assert dict(zip(vocab.terms, vocab.document_frequency)) == df

    def test_indices_are_lexicographic_bijection(self):
        vocab = fit_vocabulary(TOY_DOCS, WORD)
        terms = sorted(vocab.term_index)
        assert [vocab.term_index[t] for t in terms] == list(range(len(terms)))
        assert all(1 <= df <= vocab.n_documents for df in vocab.document_frequency)

    def test_fit_is_deterministic(self):
        a = fit_vocabulary(TOY_DOCS, WORD)
        b = fit_vocabulary(list(TOY_DOCS), WORD)
        assert a == b

    def test_fixed_vocabulary_drops_unknown_terms(self):
        vocab = fit_vocabulary(["a b"], WORD)
        same, counts = count(["b q b", "", "q"], WORD, vocab)
        assert same is vocab
        assert counts.shape == (3, 2)
        assert counts.toarray().tolist() == [[0.0, 2.0], [0.0, 0.0], [0.0, 0.0]]

    def test_counting_streams_the_grams_of_a_long_document(self):
        # Holding a text's n-grams in a list peaks at about 90 traced bytes per occurrence (a
        # pointer and a string each); streaming them peaked at 20 to 28, mostly the ids.  The array
        # counter peaked at 14.0 (fit) and 13.7 (transform) with a hand-rolled rank step, at 18.3
        # for both with np.unique, whose argsort and inverse are intp, and at 14.8 for both with a
        # presence table: its int32 ranks and one level's temporaries.
        rng = random.Random(7)
        words = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 9))) for _ in range(100)]
        doc = " ".join(rng.choices(words, k=10_000))
        occurrences = sum(len(doc) - n + 1 for n in range(2, 6))
        vocab = fit_vocabulary([doc], DEFAULT_CHAR_ANALYZER)
        vocab.term_index  # built once per vocabulary, outside the counts it serves
        peaks = []
        for fitted in (None, vocab):  # a fit, then a transform
            tracemalloc.start()
            try:
                count([doc], DEFAULT_CHAR_ANALYZER, fitted)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 40 * occurrences, (peaks, occurrences)

    def test_documents_without_terms_give_an_empty_vocabulary(self):
        model, matrix = fit_transform(["", " "], DocMode.ALL_DOCUMENTS, WORD, Analyzer(AnalyzerKind.CHAR, 3, 3))
        assert model.dim == 0
        assert matrix.shape == (2, 0)


# Pieces that trip an array counter: separators, NUL, a capital whose lowercase is two code points
# ("İ"), both sigmas (lowercasing "Σ" depends on its neighbours), an astral emoji (one code point,
# two UTF-16 units), a lone surrogate, and "_", which ends a word token.
_COUNT_PIECES = [" ", "\x00", "\t", "İ", "Σ", "σ", "ς", "\U0001F600", "\ud800", "a", "b", "ab", "_", "7"]
_COUNT_TEXT = st.lists(st.sampled_from(_COUNT_PIECES), max_size=9).map("".join)
_ALL_RANGES = [(low, high) for low in range(1, 9) for high in range(low, 9)]


@pytest.fixture
def inverse_ranks(monkeypatch):
    """The number of keys of each np.unique call that returns an inverse (vectorize.np is numpy), as the
    rank fallback of _dense_rank does: no call means a presence table ranked every level."""
    sizes = []
    unique = np.unique

    def spy(keys, *args, **kwargs):
        if kwargs.get("return_inverse"):
            sizes.append(np.size(keys))
        return unique(keys, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    return sizes


def assert_counts_equal(counted, frozen):
    (vocab, counts), (frozen_vocab, frozen_counts) = counted, frozen
    assert vocab == frozen_vocab
    assert counts.shape == frozen_counts.shape
    assert counts.data.dtype == np.int32
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(counts, name), getattr(frozen_counts, name)), name


class TestCountTermsMatchesFrozenCounter:
    """_count_levels and _join against the per-occurrence counter they replaced, for both analyzers and every range."""

    @pytest.mark.parametrize("ngram_range", _ALL_RANGES)
    @settings(max_examples=12, deadline=None)
    @given(texts=st.lists(_COUNT_TEXT, max_size=6), others=st.lists(_COUNT_TEXT, max_size=6))
    def test_fit_and_transform(self, ngram_range, texts, others):
        for kind in AnalyzerKind:
            analyzer = Analyzer(kind, *ngram_range)
            assert_counts_equal(count(texts, analyzer), oracles.frozen_count_terms(texts, analyzer))
            # A vocabulary fitted on other texts, so grams out of it are dropped.
            vocab = oracles.frozen_count_terms(others, analyzer)[0]
            counted = count(texts, analyzer, vocab)
            assert counted[0] is vocab
            assert_counts_equal(counted, oracles.frozen_count_terms(texts, analyzer, vocab))

    def test_keys_wider_than_int32(self, inverse_ranks):
        # 200k code points drawn from 100k give about 86k symbols and 200k distinct bigrams, so the
        # trigram key (bigram rank * symbols + symbol) reaches about 4 * 2**32: built in int32, it
        # would wrap and merge distinct trigrams.
        rng = random.Random(3)
        alphabet = [chr(code) for code in range(0x4E00, 0x4E00 + 100_000)]
        texts, others = (["".join(rng.choices(alphabet, k=size))] for size in (200_000, 50_000))
        analyzer = Analyzer(AnalyzerKind.CHAR, 3, 3)
        counted = count(texts, analyzer)
        # The code points fit a table (about 120k slots for 200k keys); the bigram and trigram key
        # spaces (about 86k * 86k and 200k * 86k) do not, so np.unique ranks both levels.
        assert inverse_ranks == [199_999, 199_998]
        assert_counts_equal(counted, oracles.frozen_count_terms(texts, analyzer))
        vocab = count(others, analyzer)[0]
        assert_counts_equal(count(texts, analyzer, vocab), oracles.frozen_count_terms(texts, analyzer, vocab))
        # 30k texts and about 90k distinct unigrams: the (text, unigram) pair key passes 2**31 too.
        texts = ["".join(rng.choices(alphabet, k=8)) for _ in range(30_000)]
        unigrams = Analyzer(AnalyzerKind.CHAR, 1, 1)
        assert_counts_equal(count(texts, unigrams), oracles.frozen_count_terms(texts, unigrams))

    def test_examples_hold_every_piece(self):
        text = "".join(_COUNT_PIECES) + " ΣΣ σς İİ"
        for ngram_range in [(1, 1), (1, 8), (2, 5), (8, 8)]:
            for kind in AnalyzerKind:
                analyzer = Analyzer(kind, *ngram_range)
                texts = [text, "", "a", text[::-1]]
                assert_counts_equal(count(texts, analyzer), oracles.frozen_count_terms(texts, analyzer))

    def test_ascii_tweets_rank_every_char_level_with_a_table(self, inverse_ranks):
        texts = [tweet.text for tweet in synthetic_dataset("train", 600, seed=5)]
        vocab, counts = count(texts, DEFAULT_CHAR_ANALYZER)
        transformed = count(texts[::-2], DEFAULT_CHAR_ANALYZER, vocab)
        assert inverse_ranks == []  # no sort ranked the code points or the char 2-5 levels
        assert_counts_equal((vocab, counts), oracles.frozen_count_terms(texts, DEFAULT_CHAR_ANALYZER))
        assert_counts_equal(transformed, oracles.frozen_count_terms(texts[::-2], DEFAULT_CHAR_ANALYZER, vocab))

    @pytest.mark.parametrize(
        "texts, inverses",
        [
            # 4 distinct code points below 4 and 4 bigrams: 4 * 4 = 16 = 4 * 4 slots, the largest table.
            (["\x00\x01\x02\x03\x00"], []),
            # 3 distinct code points below 3 and 2 bigrams: 3 * 3 = 9 = 4 * 2 + 1 slots go to np.unique.
            (["\x00\x01\x02"], [2]),
        ],
    )
    def test_four_slots_per_key_is_the_last_table(self, inverse_ranks, texts, inverses):
        analyzer = Analyzer(AnalyzerKind.CHAR, 1, 2)
        counted = count(texts, analyzer)
        assert inverse_ranks == inverses
        assert_counts_equal(counted, oracles.frozen_count_terms(texts, analyzer))

    @pytest.mark.parametrize("kind", AnalyzerKind)
    @pytest.mark.parametrize("texts", [["ab", "", "c d", "x"], ["", ""], []])
    def test_texts_shorter_than_n(self, inverse_ranks, kind, texts):
        # No text holds a 4-gram, so levels 4 and 5 have no key and no table slot to read.
        analyzer = Analyzer(kind, 4, 5)
        counted = count(texts, analyzer)
        assert inverse_ranks[-2:] == [0, 0]
        assert_counts_equal(counted, oracles.frozen_count_terms(texts, analyzer))

    def test_a_lone_astral_code_point(self, inverse_ranks):
        # One key whose table would need 0x1F601 slots: np.unique ranks it.
        texts = ["\U0001F600"]
        analyzer = Analyzer(AnalyzerKind.CHAR, 1, 2)
        counted = count(texts, analyzer)
        assert inverse_ranks == [1, 0]
        assert_counts_equal(counted, oracles.frozen_count_terms(texts, analyzer))


class TestDenseRank:
    """_dense_rank on its own: the same integers as np.unique's inverse, from a table or from np.unique itself."""

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64])
    @pytest.mark.parametrize("space, size", [(1, 1), (40, 1000), (400, 100), (401, 100), (100_000, 1000), (2**31, 50)])
    def test_matches_the_inverse_of_np_unique(self, inverse_ranks, dtype, space, size):
        keys = np.random.default_rng(space + size).integers(0, space, size).astype(dtype)
        ranks, n_distinct = _dense_rank(keys, space)
        assert inverse_ranks == ([] if space <= 4 * size else [size])  # a table up to 4 slots per key
        distinct, inverse = np.unique(keys, return_inverse=True)
        assert np.array_equal(ranks, inverse)
        assert n_distinct == len(distinct)

    @pytest.mark.parametrize("space", [0, 1, 9])
    def test_no_keys(self, space):
        ranks, n_distinct = _dense_rank(np.empty(0, np.int64), space)
        assert ranks.size == 0
        assert n_distinct == 0


class TestPrepareDocuments:
    def five_tweets(self):
        sentiments = [
            Sentiment.POSITIVE,
            Sentiment.POSITIVE,
            Sentiment.NEUTRAL,
            Sentiment.NEUTRAL,
            Sentiment.NEGATIVE,
        ]
        tweets = tuple(make_tweet(str(i), [f"w{i}"], s) for i, s in enumerate(sentiments))
        return Dataset("d", tweets)

    def test_all_documents(self):
        dataset = self.five_tweets()
        texts = [t.text for t in dataset]
        assert prepare_documents(dataset, DocMode.ALL_DOCUMENTS, texts) == texts

    def test_per_class_is_three_rows(self):
        dataset = self.five_tweets()
        texts = [t.text for t in dataset]
        docs = prepare_documents(dataset, DocMode.PER_CLASS_CONCATENATED, texts)
        assert docs == ["w4", "w2 w3", "w0 w1"]  # negative, neutral, positive

    def test_empty_dataset_all_documents(self):
        assert prepare_documents(Dataset("d", ()), DocMode.ALL_DOCUMENTS, []) == []

    def test_empty_dataset_per_class_still_three(self):
        assert prepare_documents(Dataset("d", ()), DocMode.PER_CLASS_CONCATENATED, []) == ["", "", ""]

    def test_unlabeled_tweet_rejected_per_class(self):
        dataset = Dataset("d", (make_tweet("0", ["w"], Sentiment.NEUTRAL), make_tweet("u1", ["x"])))
        with pytest.raises(DataError, match="u1"):
            prepare_documents(dataset, DocMode.PER_CLASS_CONCATENATED, ["w", "x"])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            prepare_documents(self.five_tweets(), DocMode.ALL_DOCUMENTS, ["only one"])


def transform_one(model, text):
    """(indices, weights) of a single text's row."""
    row = transform_batch(model, [text])
    assert row.shape == (1, model.dim)
    return tuple(row.indices.tolist()), tuple(row.data.tolist())


class TestTransform:
    def test_single_doc_single_term(self):
        # idf = ln(2/2) + 1 = 1, tf = 1, so the lone weight normalizes to 1.0
        model = fit_tfidf(["a"], DocMode.ALL_DOCUMENTS, WORD, CHAR2)
        assert transform_one(model, "a") == ((0,), (1.0,))
        assert model.dim == 1

    def test_oov_only_text_is_zero_vector(self):
        model = fit_tfidf(TOY_DOCS, DocMode.ALL_DOCUMENTS, WORD, CHAR2)
        assert transform_one(model, "zzzzq") == ((), ())

    def test_matches_dense_oracle_on_toy_corpus(self):
        model = fit_tfidf(TOY_DOCS, DocMode.ALL_DOCUMENTS, WORD, Analyzer(AnalyzerKind.CHAR, 2, 5))
        queries = TOY_DOCS + ["the cat", "unseen words"]
        matrix = transform_batch(model, queries)
        for row, query in enumerate(queries):
            expected = oracles.dense_tfidf(TOY_DOCS, query, (1, 1), (2, 5))
            actual = oracles.row_to_dense(matrix, row)
            assert len(expected) == len(actual)
            assert all(abs(e - a) < 1e-12 for e, a in zip(expected, actual))

    def test_norm_is_one_or_zero(self):
        model = fit_tfidf(TOY_DOCS, DocMode.ALL_DOCUMENTS)
        matrix = transform_batch(model, TOY_DOCS + ["cat", "", "qqq"])
        for norm in sparse.linalg.norm(matrix, axis=1):
            assert norm == 0.0 or abs(norm - 1.0) < 1e-9

    def test_word_and_char_blocks_are_disjoint(self):
        model = fit_tfidf(["ab cd"], DocMode.ALL_DOCUMENTS, WORD, CHAR2)
        n_word = len(model.word_vocab)
        indices, _ = transform_one(model, "zz ab xq")  # word hit "ab"; char grams all OOV except "ab"
        assert any(i < n_word for i in indices)
        assert all(i < model.dim for i in indices)
        char_index = model.char_vocab.term_index["ab"] + n_word
        assert char_index in indices
        assert indices[0] == model.word_vocab.term_index["ab"]

    def test_transform_batch_matches_per_item(self):
        model = fit_tfidf(TOY_DOCS, DocMode.ALL_DOCUMENTS)
        rng = random.Random(0)
        alphabet = ["the", "cat", "dog", "sat", "and", "down", "zap"]
        texts = [" ".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6))) for _ in range(100)]
        matrix = transform_batch(model, texts)
        assert matrix.has_sorted_indices
        rows = [transform_one(model, text) for text in texts]
        assert [len(indices) for indices, _ in rows] == np.diff(matrix.indptr).tolist()
        assert [i for indices, _ in rows for i in indices] == matrix.indices.tolist()
        assert [w for _, weights in rows for w in weights] == matrix.data.tolist()

    def test_transform_batch_empty_and_singleton(self):
        model = fit_tfidf(["a"], DocMode.ALL_DOCUMENTS)
        assert transform_batch(model, []).shape == (0, model.dim)
        assert transform_one(model, "a") == ((0,), (1.0,))

    def test_fit_transform_equals_fit_then_transform(self):
        model, matrix = fit_transform(TOY_DOCS, DocMode.ALL_DOCUMENTS)
        assert model == fit_tfidf(TOY_DOCS, DocMode.ALL_DOCUMENTS)
        again = transform_batch(model, TOY_DOCS)
        assert np.array_equal(matrix.indptr, again.indptr)
        assert np.array_equal(matrix.indices, again.indices)
        assert np.array_equal(matrix.data, again.data)


# Training texts draw from a smaller alphabet than queries, so queries carry
# out-of-vocabulary terms; tabs, newlines, accents and emoji end up in terms.
_TRAIN_TEXT = st.text(alphabet="ab é\tñ😀_,", max_size=14)
_QUERY_TEXT = st.text(alphabet="abz é\tñ😀_,\nQ", max_size=14)
_RANGE = st.integers(1, 8).flatmap(lambda low: st.tuples(st.just(low), st.integers(low, 8)))


def assert_rows_match_frozen_path(model, matrix, texts):
    assert matrix.shape == (len(texts), model.dim)
    rows = [oracles.frozen_transform(model, text) for text in texts]
    assert np.diff(matrix.indptr).tolist() == [len(indices) for indices, _ in rows]
    assert matrix.indices.tolist() == [i for indices, _ in rows for i in indices]
    # Same operations in the same order (math.log idf, a left-to-right sum of
    # squares over each row in index order), so the weights are equal, not
    # merely within 1e-12.
    assert matrix.data.tolist() == [w for _, weights in rows for w in weights]


class TestMatchesFrozenPerVectorPath:
    @settings(max_examples=150, deadline=None)
    @given(
        texts=st.lists(_TRAIN_TEXT, min_size=1, max_size=8),
        queries=st.lists(_QUERY_TEXT, max_size=5),
        word_range=_RANGE,
        char_range=_RANGE,
        per_class=st.booleans(),
    )
    def test_fit_transform_and_transform_batch(self, texts, queries, word_range, char_range, per_class):
        word = Analyzer(AnalyzerKind.WORD, *word_range)
        char = Analyzer(AnalyzerKind.CHAR, *char_range)
        if per_class:
            # negative, neutral, positive concatenations of tweets labeled i % 3
            docs = [" ".join(texts[c::3]) for c in range(3)]
            model = fit_tfidf(docs, DocMode.PER_CLASS_CONCATENATED, word, char)
        else:
            docs = texts
            model, fitted = fit_transform(docs, DocMode.ALL_DOCUMENTS, word, char)
            assert_rows_match_frozen_path(model, fitted, docs)
        for extractor, analyzer, vocab in (
            (oracles.word_terms, word, model.word_vocab),
            (oracles.char_terms, char, model.char_vocab),
        ):
            df = oracles.document_frequencies(docs, extractor, analyzer.ngram_min, analyzer.ngram_max)
            assert vocab.terms == tuple(sorted(df))
            assert vocab.document_frequency == tuple(map(df.__getitem__, vocab.terms))
        assert_rows_match_frozen_path(model, transform_batch(model, texts + queries), texts + queries)


def frozen_idf_array(vocab):
    idf = np.empty(len(vocab))
    for term, index in vocab.term_index.items():
        idf[index] = oracles.frozen_idf(vocab, term)
    return idf


def idf_model():
    docs = [f"{a} {b} hola amigo" for a in ("que", "the", "la") for b in ("tal", "cat", "ok", "dog")]
    return fit_tfidf(docs, DocMode.ALL_DOCUMENTS, WORD, Analyzer(AnalyzerKind.CHAR, 1, 4))


def shuffled_term_lines(text):
    header, *lines = text.splitlines()
    random.Random(3).shuffle(lines)
    return "\n".join([header, *lines]) + "\n"


class TestRowNorms:
    """_tfidf divides each row by the root of its squares summed left to right in index order,
    functools.reduce's arithmetic: Python's sum compensates from 3.12 on, and gives other bits."""

    # Six squares of 1.1 summed left to right are 7.260000000000001; exactly rounded, 7.260000000000002.
    SIX_ELEVENS = [1.1] * 6

    @given(st.lists(st.lists(st.floats(0.01, 100.0), max_size=12), min_size=1, max_size=6))
    @example([SIX_ELEVENS, []])
    @example([[], [3.0], SIX_ELEVENS[:3]])
    def test_rows_are_divided_by_the_sequential_norm(self, rows):
        # One feature per entry, counted once, with its weight as idf.
        idf = np.array([weight for row in rows for weight in row])
        indptr = np.cumsum([0] + [len(row) for row in rows])
        counts = sparse.csr_matrix(
            (np.ones(idf.size, dtype=np.int32), np.arange(idf.size), indptr), shape=(len(rows), idf.size)
        )
        model = SimpleNamespace(word_vocab=SimpleNamespace(idf=idf), char_vocab=SimpleNamespace(idf=np.empty(0)))
        norms = [math.sqrt(reduce(operator.add, (weight * weight for weight in row), 0.0)) for row in rows]
        assert _tfidf(model, counts).data.tolist() == [w / norm for row, norm in zip(rows, norms) for w in row]

    def test_example_row_tells_the_sums_apart(self):
        squares = [weight * weight for weight in self.SIX_ELEVENS]
        assert reduce(operator.add, squares, 0.0) != math.fsum(squares)
        assert 1.1 / math.sqrt(reduce(operator.add, squares, 0.0)) != 1.1 / math.sqrt(math.fsum(squares))


class TestIdf:
    """Vocabulary.idf takes one math.log per distinct document frequency; the
    per-term log in oracles.py is the reference, bit for bit."""

    @given(
        dfs=st.lists(st.integers(1, 40), max_size=80),
        extra_documents=st.integers(0, 10**6),
        seed=st.integers(0, 1000),
    )
    def test_equals_per_term_log_on_random_vocabularies(self, dfs, extra_documents, seed):
        order = random.Random(seed).sample(range(len(dfs)), len(dfs))  # terms in any feature order
        vocab = Vocabulary(
            terms=tuple(f"t{i}" for i in order),
            document_frequency=tuple(dfs),
            n_documents=max(dfs, default=1) + extra_documents,
        )
        assert np.array_equal(vocab.idf, frozen_idf_array(vocab))

    def test_fitted_and_parsed_vocabularies(self):
        model = idf_model()
        restored = parse_tfidf(format_tfidf(model))
        for vocab, parsed in ((model.word_vocab, restored.word_vocab), (model.char_vocab, restored.char_vocab)):
            assert np.array_equal(vocab.idf, frozen_idf_array(vocab))
            assert np.array_equal(parsed.idf, vocab.idf)


class TestPersistence:
    def roundtrip(self, model):
        return parse_tfidf(format_tfidf(model))

    def test_round_trip_equality(self):
        model = fit_tfidf(TOY_DOCS, DocMode.PER_CLASS_CONCATENATED, Analyzer(AnalyzerKind.WORD, 1, 2), CHAR2)
        assert self.roundtrip(model) == model

    def test_round_trip_with_awkward_terms(self):
        # every separator str.splitlines() breaks at, besides the escaped \n and \r
        docs = ["tab\there", "back\\slash", "new line ok", "v\x0bf\x0cfs\x1cgs\x1drs\x1enel\x85ls\u2028ps\u2029"]
        model = fit_tfidf(docs, DocMode.ALL_DOCUMENTS, WORD, Analyzer(AnalyzerKind.CHAR, 2, 4))
        restored = self.roundtrip(model)
        assert restored == model
        text = "tab\there too"
        assert transform_one(restored, text) == transform_one(model, text)

    def test_escaped_terms_in_both_blocks_round_trip(self, tmp_path):
        # A fit writes no escape in the word block (word tokens are alphanumeric), so the model is built here.
        terms = ("\t", "\n", "\r", "\\", "a\\b", "a\\tb", "x")  # in str order
        vocab = Vocabulary(terms, (1,) * len(terms), 2)
        model = TfIdfModel(vocab, vocab, WORD, CHAR2, DocMode.ALL_DOCUMENTS)
        text = format_tfidf(model)
        assert [line.split("\t")[1] for line in text.split("\n")[1:-1]] == 2 * [
            "\\t", "\\n", "\\r", "\\\\", "a\\\\b", "a\\\\tb", "x"
        ]
        path = tmp_path / "tfidf.txt"
        save_tfidf(model, str(path))
        assert parse_tfidf(text) == load_tfidf(str(path)) == model
        assert format_tfidf(parse_tfidf(text)) == text

    @pytest.mark.parametrize("block", ["w", "c"])
    def test_a_raw_carriage_return_in_a_term_is_refused_where_no_term_is_escaped(self, block):
        text = format_tfidf(fit_tfidf(TOY_DOCS, DocMode.ALL_DOCUMENTS))
        assert "\\" not in text and "\r" not in text
        lines = text.split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{block}\t"))
        fields = lines[at].split("\t")
        lines[at] = "\t".join([fields[0], fields[1] + "\r", *fields[2:]])
        with pytest.raises(DataError, match="is not a term as _escape_term writes it"):
            parse_tfidf("\n".join(lines))

    def test_file_round_trip(self, tmp_path):
        model = fit_tfidf(TOY_DOCS, DocMode.ALL_DOCUMENTS)
        path = tmp_path / "tfidf.txt"
        save_tfidf(model, str(path))
        assert load_tfidf(str(path)) == model

    def test_header_carries_mode_and_ranges(self):
        model = fit_tfidf(TOY_DOCS, DocMode.PER_CLASS_CONCATENATED)
        header = format_tfidf(model).splitlines()[0]
        assert header == "tfidf v1 per_class_concatenated 1-1 2-5 3 3"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "nonsense\n",
            "tfidf v1 all_documents 1-1 2-5 3\n",  # missing field
            "tfidf v1 sideways 1-1 2-5 3 3\n",  # bad mode
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tterm\tNaN\t1\n",  # bad index
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tterm\t1\t1\n",  # sparse index range
            "tfidf v1 all_documents 1-1 2-5 3 3\nq\tterm\t0\t1\n",  # bad block
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tterm\\\t0\t1\n",  # trailing lone backslash
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tterm\t0\t1\nw\tterm\t0\t1\n",  # same term line twice
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tterm\t0\t1\nw\tterm\t1\t1\n",  # one term at two indices
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tterm\t0\t1\nw\tother\t0\t1\n",  # two terms at one index
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tterm\t0\t4\n",  # df above n_documents
            "tfidf v1 all_documents 1-1 2-5 3 0\n",  # no char documents
            "tfidf v1 all_documents 1-1 2-5 3 3\r\nw\tterm\t0\t1\r\n",  # CRLF line ends
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tb\t1\t1\nw\ta\t0\t1\n",  # term lines in reverse index order
            pytest.param(shuffled_term_lines(format_tfidf(idf_model())), id="term lines in random order"),
            "tfidf v1 all_documents 1-1 2-5 +3 3\n",  # document count with a sign
            "tfidf v1 all_documents 01-1 2-5 3 3\n",  # n-gram bound with a leading zero
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tterm\t 0\t1\n",  # index with a leading space
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tterm\t0\t0_1\n",  # df that int() reads as 1
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tx\\q\t0\t1\n",  # unknown escape
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tte\rm\t0\t1\n",  # unescaped carriage return in a term
            "tfidf v1 all_documents 1-1 2-5 3 3\nc\tab\t0\t1\nw\tterm\t0\t1\n",  # word line after the char block
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tterm\t0\t1",  # no final line feed
            "tfidf v1 all_documents 1-1 2-5 3 4\nw\tterm\t0\t1\n",  # unequal word and char document counts
            "tfidf v1 all_documents 1-1 2-5 3 3\nw\tb\t0\t1\nw\ta\t1\t1\n",  # terms out of str order
        ],
    )
    def test_malformed_files_rejected(self, text):
        with pytest.raises(DataError):
            parse_tfidf(text)

    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(_TRAIN_TEXT, min_size=1, max_size=8),
        word_range=_RANGE,
        char_range=_RANGE,
        per_class=st.booleans(),
        block=st.sampled_from(["w", "c"]),
        data=st.data(),
    )
    def test_only_a_fits_term_order_and_document_count_load(self, texts, word_range, char_range, per_class, block, data):
        word = Analyzer(AnalyzerKind.WORD, *word_range)
        char = Analyzer(AnalyzerKind.CHAR, *char_range)
        if per_class:
            model = fit_tfidf([" ".join(texts[c::3]) for c in range(3)], DocMode.PER_CLASS_CONCATENATED, word, char)
        else:
            model = fit_tfidf(texts, DocMode.ALL_DOCUMENTS, word, char)
        text = format_tfidf(model)
        assert parse_tfidf(text) == model
        header, *lines = text[:-1].split("\n")
        # Exchange two term lines of one block, terms and dfs, keeping their index fields.  Term k of the block
        # is on line first + k + 2 (the header is line 1), and the term after the first of the two is the first
        # one that does not follow its predecessor.
        first, size = (0, len(model.word_vocab)) if block == "w" else (len(model.word_vocab), len(model.char_vocab))
        assume(size >= 2)
        i, j = sorted(data.draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True)))
        a, b = (lines[first + k].split("\t") for k in (i, j))
        lines[first + i], lines[first + j] = "\t".join([*b[:2], a[2], b[3]]), "\t".join([*a[:2], b[2], a[3]])
        exchanged = "\n".join([header, *lines]) + "\n"
        with pytest.raises(DataError, match=f"^tfidf term line {first + i + 3} does not follow the term before it"):
            parse_tfidf(exchanged)
        # Unequal document counts: refused as a header error, before any term line is read.
        n = model.word_vocab.n_documents
        other = data.draw(st.integers(1, 50 * n).filter(lambda k: k != n))
        counts = data.draw(st.sampled_from([f"{n} {other}", f"{other} {n}"]))
        unequal = header.rsplit(" ", 2)[0] + f" {counts}"
        for body in (text, exchanged):
            with pytest.raises(DataError, match="^malformed tfidf header"):
                parse_tfidf(body.replace(header, unequal, 1))

    def test_serialization_deterministic(self):
        a = format_tfidf(fit_tfidf(TOY_DOCS, DocMode.ALL_DOCUMENTS))
        b = format_tfidf(fit_tfidf(list(TOY_DOCS), DocMode.ALL_DOCUMENTS))
        assert a == b
