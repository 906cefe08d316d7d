import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import oracles
from codemix.corpus import Dataset, LangTag, Sentiment, Token, Tweet
from codemix.errors import ConfigError, DataError
from codemix.vectorize import (
    Analyzer,
    AnalyzerKind,
    DocMode,
    Vocabulary,
    count_terms,
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


def labeled_tweet(tweet_id, words, sentiment):
    return Tweet(
        id=tweet_id,
        tokens=tuple(Token(w, LangTag.LANG1) for w in words),
        sentiment=sentiment,
    )


class TestAnalyzer:
    def test_word_unigrams(self):
        assert WORD.terms("The cat, the CAT!") == ["the", "cat", "the", "cat"]

    def test_word_bigrams(self):
        analyzer = Analyzer(AnalyzerKind.WORD, 1, 2)
        assert analyzer.terms("a b c") == ["a", "b", "c", "a b", "b c"]

    def test_char_ngrams_include_spaces(self):
        assert CHAR2.terms("ab c") == ["ab", "b ", " c"]

    def test_char_range(self):
        analyzer = Analyzer(AnalyzerKind.CHAR, 2, 3)
        assert analyzer.terms("abc") == ["ab", "bc", "abc"]

    @pytest.mark.parametrize("low,high", [(0, 1), (3, 2), (1, 9)])
    def test_invalid_ranges(self, low, high):
        with pytest.raises(ConfigError):
            Analyzer(AnalyzerKind.WORD, low, high)

    def test_word_terms_match_oracle(self):
        for text in TOY_DOCS + ["¡Hola! ¿qué tal?", "under_score splits"]:
            for rng in [(1, 1), (1, 2), (2, 3)]:
                assert Analyzer(AnalyzerKind.WORD, *rng).terms(text) == oracles.word_terms(text, *rng)

    def test_char_terms_match_oracle(self):
        for text in TOY_DOCS:
            for rng in [(2, 2), (2, 5), (1, 3)]:
                assert Analyzer(AnalyzerKind.CHAR, *rng).terms(text) == oracles.char_terms(text, *rng)


def fit_vocabulary(docs, analyzer):
    return count_terms(docs, analyzer)[0]


class TestFitVocabulary:
    def test_two_docs(self):
        vocab, counts = count_terms(["a b", "b c"], WORD)
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
        vocab, counts = count_terms(["cat cat cat", "cat"], WORD)
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
        same, counts = count_terms(["b q b", "", "q"], WORD, vocab)
        assert same is vocab
        assert counts.shape == (3, 2)
        assert counts.toarray().tolist() == [[0.0, 2.0], [0.0, 0.0], [0.0, 0.0]]

    def test_documents_without_terms_give_an_empty_vocabulary(self):
        model, matrix = fit_transform(["", " "], DocMode.ALL_DOCUMENTS, WORD, Analyzer(AnalyzerKind.CHAR, 3, 3))
        assert model.dim == 0
        assert matrix.shape == (2, 0)


class TestPrepareDocuments:
    def five_tweets(self):
        sentiments = [
            Sentiment.POSITIVE,
            Sentiment.POSITIVE,
            Sentiment.NEUTRAL,
            Sentiment.NEUTRAL,
            Sentiment.NEGATIVE,
        ]
        tweets = tuple(labeled_tweet(str(i), [f"w{i}"], s) for i, s in enumerate(sentiments))
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
        dataset = Dataset("d", (labeled_tweet("0", ["w"], Sentiment.NEUTRAL), Tweet("u1", (Token("x", LangTag.LANG1),))))
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
    # Same operations in the same order (math.log idf, Python's sum of squares
    # over each row in index order), so the weights are equal, not merely
    # within 1e-12.
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
        ],
    )
    def test_malformed_files_rejected(self, text):
        with pytest.raises(DataError):
            parse_tfidf(text)

    def test_serialization_deterministic(self):
        a = format_tfidf(fit_tfidf(TOY_DOCS, DocMode.ALL_DOCUMENTS))
        b = format_tfidf(fit_tfidf(list(TOY_DOCS), DocMode.ALL_DOCUMENTS))
        assert a == b
