import string
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

import oracles
from codemix.corpus import (
    Dataset,
    LangTag,
    Sentiment,
    Tweet,
    concat_datasets,
    format_conll,
    parse_conll,
    parse_monolingual_csv,
    require_labels,
)
from codemix.errors import ConfigError, DataError, ParseError
from synth import make_tweet


class TestSentiment:
    def test_ordinal_order(self):
        assert Sentiment.NEGATIVE < Sentiment.NEUTRAL < Sentiment.POSITIVE
        assert [int(s) for s in Sentiment] == [0, 1, 2]

    @pytest.mark.parametrize("label", ["positive", "POSITIVE", " Positive "])
    def test_parse_case_insensitive(self, label):
        assert Sentiment.from_label(label) is Sentiment.POSITIVE

    def test_unknown_label_rejected(self):
        with pytest.raises(DataError, match="meh"):
            Sentiment.from_label("meh")

    def test_labels_round_trip(self):
        for sentiment in Sentiment:
            assert Sentiment.from_label(sentiment.label) is sentiment


class TestLangTag:
    def test_exactly_eight_tags(self):
        assert {tag.value for tag in LangTag} == {
            "lang1", "lang2", "other", "ne", "unk", "ambiguous", "mixed", "fw",
        }

    def test_unknown_tag_rejected(self):
        with pytest.raises(DataError, match="foo"):
            LangTag.from_tag("foo")


class TestDomainTypes:
    def test_tweet_rejects_empty_token(self):
        with pytest.raises(DataError, match="non-empty"):
            make_tweet("1", ["a", ""])

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"])
    def test_tweet_rejects_tab_and_newline_in_a_token(self, bad):
        with pytest.raises(DataError, match="tabs or newlines"):
            make_tweet("1", ["ok", bad])

    def test_tweet_needs_tokens(self):
        with pytest.raises(DataError, match="t1"):
            Tweet(id="t1", tokens=(), tags=())

    def test_tweet_needs_one_tag_per_token(self):
        with pytest.raises(DataError, match="2 tokens but 1 tags"):
            Tweet("t1", ("a", "b"), (LangTag.LANG1,))

    def test_tweet_text_joins_tokens(self):
        tweet = make_tweet("1", ["ha", "u", "know"])
        assert tweet.text == "ha u know"

    def test_dataset_rejects_duplicate_ids(self):
        tweets = (make_tweet("1", ["a"]), make_tweet("1", ["b"]))
        with pytest.raises(DataError, match="duplicate"):
            Dataset(name="d", tweets=tweets)


class TestParseConll:
    def test_single_block(self):
        dataset = parse_conll("meta 1 positive\nha\tlang2\nu\tlang1\n")
        assert len(dataset) == 1
        tweet = dataset[0]
        assert tweet.id == "1"
        assert tweet.sentiment is Sentiment.POSITIVE
        assert tweet.tokens == ("ha", "u")
        assert tweet.tags == (LangTag.LANG2, LangTag.LANG1)
        assert tweet.text == "ha u"

    def test_empty_stream(self):
        assert len(parse_conll("")) == 0

    def test_unknown_lang_tag_names_tag_and_line(self):
        with pytest.raises(ParseError, match="foo") as excinfo:
            parse_conll("meta 1 positive\nxyz\tfoo\n")
        assert "line 2" in str(excinfo.value)

    def test_unlabeled_block(self):
        dataset = parse_conll("meta 42\nhola\tlang2\n")
        assert dataset[0].sentiment is None

    def test_multiple_blocks_order_preserved(self):
        text = "meta a negative\nx\tlang1\n\nmeta b neutral\ny\tlang2\nz\tother\n"
        dataset = parse_conll(text)
        assert [tweet.id for tweet in dataset] == ["a", "b"]
        assert dataset[1].tokens == ("y", "z")

    @pytest.mark.parametrize(
        "text,line",
        [
            ("banana 1 positive\nx\tlang1\n", 1),
            ("meta\nx\tlang1\n", 1),
            ("meta 1 positive extra\nx\tlang1\n", 1),
            ("meta 1 wat\nx\tlang1\n", 1),
        ],
    )
    def test_malformed_meta_line(self, text, line):
        with pytest.raises(ParseError) as excinfo:
            parse_conll(text)
        assert f"line {line}" in str(excinfo.value)

    def test_empty_block_rejected(self):
        with pytest.raises(ParseError, match="line 1: tweet '1' has no token lines"):
            parse_conll("meta 1 positive\n\nmeta 2 negative\nx\tlang1\n")

    def test_malformed_token_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_conll("meta 1 positive\nno-tab-here\n")

    def test_crlf_input(self):
        dataset = parse_conll("meta 1 positive\r\nha\tlang2\r\n")
        assert dataset[0].tokens == ("ha",)

    def test_parse_is_order_stable(self):
        text = format_conll(
            Dataset("d", (make_tweet("1", ["a", "b"], Sentiment.NEUTRAL), make_tweet("2", ["c"])))
        )
        assert parse_conll(text) == parse_conll(text)

    def test_extra_blank_lines_between_blocks(self):
        text = "meta 1 positive\nx\tlang1\n\n\n\nmeta 2 negative\ny\tlang1\n"
        assert [t.id for t in parse_conll(text)] == ["1", "2"]


ids = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=6)
token_texts = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r"), min_size=1, max_size=8
)
tags = st.sampled_from(list(LangTag))
sentiments = st.sampled_from([None, *Sentiment])


@st.composite
def datasets(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    tweets = []
    for i in range(n):
        tokens = draw(st.lists(token_texts, min_size=1, max_size=4))
        tweets.append(Tweet(f"t{i}-{draw(ids)}", tuple(tokens), tuple(draw(tags) for _ in tokens), draw(sentiments)))
    return Dataset(name="gen", tweets=tuple(tweets))


class TestRoundTrip:
    @given(datasets())
    def test_parse_inverts_format(self, dataset):
        assert parse_conll(format_conll(dataset), name="gen") == dataset

    @given(datasets())
    def test_format_is_stable(self, dataset):
        text = format_conll(dataset)
        assert format_conll(parse_conll(text, name="gen")) == text


class TestParserTraps:
    """Inputs where a bulk parser could part from the line-by-line one, each pinned by name."""

    TWO = "meta 1 positive\nx\tlang1\n\nmeta 2 negative\ny\tlang2\n"

    def test_whitespace_only_lines_separate_blocks(self):
        for separator in (" ", "\t", " \t ", "\x0b", "\x85", "\u2028", "\u3000"):
            text = self.TWO.replace("\n\n", f"\n{separator}\n")
            assert parse_conll(text) == parse_conll(self.TWO), repr(separator)

    def test_runs_of_several_blank_lines(self):
        text = self.TWO.replace("\n\n", "\n\n \n\t\n\n")
        assert parse_conll(text) == parse_conll(self.TWO)

    def test_leading_blank_lines_shift_the_line_numbers(self):
        assert parse_conll("\n \n\n" + self.TWO) == parse_conll(self.TWO)
        with pytest.raises(ParseError, match="line 5: malformed token line 'bad'"):
            parse_conll("\n \n\nmeta 1\nbad\n")

    def test_no_final_newline(self):
        assert parse_conll(self.TWO.rstrip("\n")) == parse_conll(self.TWO)

    def test_crlf_line_ends_and_separators(self):
        crlf = self.TWO.replace("\n", "\r\n").replace("\r\n\r\n", "\r\n \r\n")
        assert parse_conll(crlf) == parse_conll(self.TWO)

    def test_line_breaking_codepoints_stay_inside_tokens(self):
        text = "meta 1\na\x0bb\tlang1\nc\x85\tother\n\u2028d\tne\n"
        dataset = parse_conll(text)
        assert dataset[0].tokens == ("a\x0bb", "c\x85", "\u2028d")
        assert format_conll(dataset) == text

    def test_carriage_return_inside_a_token_is_refused(self):
        with pytest.raises(ParseError, match=r"line 3: token text may not contain tabs or newlines: 'a\\rb'"):
            parse_conll("meta 1\nx\tlang1\na\rb\tlang1\n")

    def test_token_with_a_space_round_trips(self):
        text = "meta 1 neutral\na b\tlang1\n c \tlang2\n"
        dataset = parse_conll(text)
        assert dataset[0].tokens == ("a b", " c ")
        assert dataset[0].text == "a b  c "
        assert format_conll(dataset) == text

    @pytest.mark.parametrize("text,line", [("meta 1 positive\n", 1), ("meta 1\nx\tlang1\n\nmeta 2", 4)])
    def test_meta_line_without_token_lines(self, text, line):
        with pytest.raises(ParseError, match="has no token lines") as excinfo:
            parse_conll(text)
        assert excinfo.value.line == line

    def test_duplicate_ids_are_a_data_error_after_the_whole_source(self):
        text = "meta 1\nx\tlang1\n\nmeta 1\ny\tlang1\n"
        with pytest.raises(DataError, match="duplicate tweet id '1' in dataset 'd'") as excinfo:
            parse_conll(text, name="d")
        assert type(excinfo.value) is DataError


# Lines that are valid, malformed, blank or hold a line-breaking codepoint, for files the
# line-by-line parser refuses or reads in a different way than a naive bulk split would.
LINE_PIECES = [
    "meta 1", "meta 2 positive", " meta 3 Neutral ", "meta 1 negative", "meta", "meta 4 wat", "meta 5 a b",
    "beta 6", "x\tlang1", "y z\tfw", "\u2028\tne", "a\x0bb\tother", "a\x85\tunk", "\tlang1", "x\t", "x",
    "x\tlang1\tlang2", "x\tLANG1", "x\rz\tlang2", "x\tlang1\r", "\r", "", " ", "\t", "\x85", "\x0b", "\u2028",
]
line_pieces = st.one_of(st.sampled_from(LINE_PIECES), st.text(alphabet="meta 12\tlang\r\x85 ", max_size=8))


@st.composite
def block_sources(draw):
    """A block file, valid or corrupted, with "\n" or "\r\n" line ends."""
    if draw(st.booleans()):
        lines = format_conll(draw(datasets())).split("\n")
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(line_pieces))
    else:
        lines = draw(st.lists(line_pieces, max_size=16))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def _outcome(parse, source):
    try:
        return parse(source, name="gen")
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


class TestMatchesFrozenParser:
    @given(source=block_sources())
    @example(source="meta 1\nx\tlang1\na\rb\tfoo\n")  # the tag is checked before the token
    @example(source="meta 1\na\rb\tlang1\nbad\n")  # the first bad line is reported
    @example(source="meta 1\nx\tlang1\n\nmeta 1\nbad\n")  # a parse error before the duplicate id
    @example(source="meta 1 poſitive\nx\tlang1\n")  # "ſ".upper() == "S"
    def test_same_dataset_or_same_error(self, source):
        assert _outcome(parse_conll, source) == _outcome(oracles.frozen_parse_conll, source)


CSV_TWO_ROWS = "id,text,label\n1,good stuff,positive\n2,bad stuff,negative\n"


class TestParseMonolingualCsv:
    def test_two_rows(self):
        dataset = parse_monolingual_csv(CSV_TWO_ROWS, label_column="label", text_column="text")
        assert len(dataset) == 2
        assert dataset[0].sentiment is Sentiment.POSITIVE
        assert dataset[1].sentiment is Sentiment.NEGATIVE
        assert dataset[0].tokens == ("good", "stuff")

    def test_all_tokens_share_lang_tag(self):
        dataset = parse_monolingual_csv(CSV_TWO_ROWS, "label", "text", lang=LangTag.LANG2)
        assert {tag for tweet in dataset for tag in tweet.tags} == {LangTag.LANG2}

    def test_header_only(self):
        dataset = parse_monolingual_csv("text,label\n", "label", "text")
        assert len(dataset) == 0

    def test_bad_label_reports_row_index(self):
        csv_text = "text,label\nfine,positive\nhuh,meh\n"
        with pytest.raises(DataError, match="row 1"):
            parse_monolingual_csv(csv_text, "label", "text")

    def test_missing_column_is_config_error(self):
        with pytest.raises(ConfigError, match="sentiment"):
            parse_monolingual_csv(CSV_TWO_ROWS, "sentiment", "text")

    def test_quoted_fields(self):
        csv_text = 'text,label\n"hola, amigo mio",neutral\n'
        dataset = parse_monolingual_csv(csv_text, "label", "text")
        assert dataset[0].tokens == ("hola,", "amigo", "mio")

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "bare_cr"])
    def test_line_ends_read_as_line_feeds(self, line_end):
        text = CSV_TWO_ROWS.replace("\n", line_end)
        assert parse_monolingual_csv(text, "label", "text") == parse_monolingual_csv(CSV_TWO_ROWS, "label", "text")

    @pytest.mark.parametrize(
        "csv_text, line",
        [(f"text,label\nok,neutral\n{'a' * 200_000},positive\n", 3), (f"{'a' * 200_000},label\nok,neutral\n", 1)],
        ids=["data", "header"],
    )
    def test_field_over_the_csv_limit_is_data_error(self, csv_text, line):
        with pytest.raises(DataError, match=rf"^CSV line {line}: field larger than field limit \(131072\)$"):
            parse_monolingual_csv(csv_text, "label", "text")

    def test_empty_text_reports_row(self):
        with pytest.raises(DataError, match="row 0"):
            parse_monolingual_csv("text,label\n,neutral\n", "label", "text")


class TestRequireLabels:
    def test_labels_in_dataset_order(self):
        labels = [Sentiment.POSITIVE, Sentiment.NEGATIVE, Sentiment.POSITIVE]
        dataset = Dataset("d", tuple(make_tweet(str(i), ["w"], s) for i, s in enumerate(labels)))
        assert require_labels(dataset) == labels

    def test_unlabeled_tweet_identified(self):
        dataset = Dataset("d", (make_tweet("good", ["w"], Sentiment.NEUTRAL), make_tweet("oops", ["w"])))
        with pytest.raises(DataError, match="oops"):
            require_labels(dataset)


class TestConcatDatasets:
    def test_order_and_length(self):
        a = Dataset("a", (make_tweet("1", ["x"], Sentiment.POSITIVE),))
        b = Dataset("b", (make_tweet("1", ["y"], Sentiment.NEGATIVE),))
        combined = concat_datasets(a, b)
        assert len(combined) == 2
        assert [t.id for t in combined] == ["a:1", "b:1"]
        assert [t.tokens for t in combined] == [("x",), ("y",)]
        assert [t.text for t in combined] == ["x", "y"]

    def test_concat_with_empty(self):
        a = Dataset("a", (make_tweet("1", ["x"], Sentiment.POSITIVE),))
        combined = concat_datasets(a, Dataset("b", ()))
        assert [t.id for t in combined] == ["a:1"]
        assert combined[0].tokens == a[0].tokens

    @given(datasets(), datasets())
    def test_distribution_is_additive(self, a, b):
        a = Dataset("left", tuple(t if t.sentiment else Tweet(t.id, t.tokens, t.tags, Sentiment.NEUTRAL) for t in a))
        b = Dataset("right", tuple(t if t.sentiment else Tweet(t.id, t.tokens, t.tags, Sentiment.NEGATIVE) for t in b))
        combined = concat_datasets(a, b)
        assert len(combined) == len(a) + len(b)
        assert Counter(require_labels(combined)) == Counter(require_labels(a)) + Counter(require_labels(b))
