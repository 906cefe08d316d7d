"""Corpus handling: language-tagged tweets, file parsing, dataset operations.

Labeled tweets are stored in a plain-text block format:

    meta <id> [<sentiment>]
    <token>\t<lang_tag>
    ...

with blocks separated by one blank line.  Auxiliary monolingual data is
read from RFC-4180 CSV files with a mandatory header row.
"""

import csv
import enum
import io
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import groupby

from .errors import ConfigError, DataError, ParseError


class Sentiment(enum.IntEnum):
    """Tweet polarity.  The ordinal order is fixed and used everywhere:
    class vectors, confusion matrices and prediction tie-breaking."""

    NEGATIVE = 0
    NEUTRAL = 1
    POSITIVE = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Sentiment":
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise DataError(f"unknown sentiment label {label!r}") from None


class LangTag(enum.Enum):
    """Word-level language tag."""

    LANG1 = "lang1"  # English
    LANG2 = "lang2"  # Spanish
    OTHER = "other"  # emoji, usernames, URLs, symbols, punctuation
    NE = "ne"  # named entity
    UNK = "unk"  # gibberish / unintelligible
    AMBIGUOUS = "ambiguous"  # could be either language
    MIXED = "mixed"  # code-mixed morphemes
    FW = "fw"  # word from a third language

    @classmethod
    def from_tag(cls, tag: str) -> "LangTag":
        try:
            return cls(tag)
        except ValueError:
            raise DataError(f"unknown language tag {tag!r}") from None


@dataclass(frozen=True)
class Token:
    text: str
    lang: LangTag

    def __post_init__(self):
        if not self.text:
            raise DataError("token text must be non-empty")
        if any(ch in self.text for ch in "\t\n\r"):
            raise DataError(f"token text may not contain tabs or newlines: {self.text!r}")


@dataclass(frozen=True)
class Tweet:
    id: str
    tokens: tuple[Token, ...]
    sentiment: Sentiment | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise DataError(f"tweet {self.id!r} has no tokens")

    @property
    def text(self) -> str:
        """Surface text: token texts joined by single spaces."""
        return " ".join(token.text for token in self.tokens)


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of tweets with distinct ids."""

    name: str
    tweets: tuple[Tweet, ...]

    def __post_init__(self):
        object.__setattr__(self, "tweets", tuple(self.tweets))
        seen = set()
        for tweet in self.tweets:
            if tweet.id in seen:
                raise DataError(f"duplicate tweet id {tweet.id!r} in dataset {self.name!r}")
            seen.add(tweet.id)

    def __len__(self) -> int:
        return len(self.tweets)

    def __iter__(self) -> Iterator[Tweet]:
        return iter(self.tweets)

    def __getitem__(self, index: int) -> Tweet:
        return self.tweets[index]


@dataclass(frozen=True)
class ClassDistribution:
    counts: dict[Sentiment, int]
    total: int


def _parse_meta(line: str, line_no: int) -> tuple[str, Sentiment | None]:
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


def _parse_token_line(line: str, line_no: int) -> Token:
    parts = line.split("\t")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ParseError(f"malformed token line {line!r}", line=line_no)
    text, tag = parts
    try:
        return Token(text=text, lang=LangTag.from_tag(tag))
    except DataError as exc:
        raise ParseError(str(exc), line=line_no) from None


def parse_conll(source: str | Iterable[str], name: str = "dataset") -> Dataset:
    """Parse block-format tweets from a string or a stream of lines."""
    # Split on \n only: str.splitlines() also breaks on codepoints like
    # \x0b that are legal inside token text.
    lines = source.split("\n") if isinstance(source, str) else source
    numbered = enumerate((raw.rstrip("\r\n") for raw in lines), start=1)
    tweets: list[Tweet] = []
    for blank, block in groupby(numbered, key=lambda item: not item[1].strip()):
        if blank:
            continue
        (meta_line, meta), *token_lines = block
        tweet_id, sentiment = _parse_meta(meta, meta_line)
        tokens = tuple(_parse_token_line(line, line_no) for line_no, line in token_lines)
        if not tokens:
            raise ParseError(f"tweet {tweet_id!r} has no token lines", line=meta_line)
        tweets.append(Tweet(id=tweet_id, tokens=tokens, sentiment=sentiment))
    return Dataset(name=name, tweets=tuple(tweets))


def format_conll(dataset: Dataset) -> str:
    """Render a dataset in the block format; parse_conll inverts this."""
    blocks = []
    for tweet in dataset:
        meta = f"meta {tweet.id}"
        if tweet.sentiment is not None:
            meta += f" {tweet.sentiment.label}"
        lines = [meta] + [f"{token.text}\t{token.lang.value}" for token in tweet.tokens]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def parse_monolingual_csv(
    source: str | io.TextIOBase,
    label_column: str,
    text_column: str,
    lang: LangTag = LangTag.LANG1,
    name: str = "csv",
) -> Dataset:
    """Parse a labeled monolingual CSV; every token gets the same language tag.

    Rows are whitespace-tokenized and ids are the 0-based data row indices.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise ConfigError("CSV input has no header row")
    for column in (label_column, text_column):
        if column not in reader.fieldnames:
            raise ConfigError(f"CSV is missing required column {column!r}")
    tweets = []
    for index, row in enumerate(reader):
        try:
            sentiment = Sentiment.from_label(row[label_column] or "")
        except DataError as exc:
            raise DataError(f"row {index}: {exc}") from None
        words = (row[text_column] or "").split()
        if not words:
            raise DataError(f"row {index}: empty text")
        tokens = tuple(Token(text=word, lang=lang) for word in words)
        tweets.append(Tweet(id=str(index), tokens=tokens, sentiment=sentiment))
    return Dataset(name=name, tweets=tuple(tweets))


def class_distribution(dataset: Dataset) -> ClassDistribution:
    """Per-class tweet counts; every tweet must be labeled."""
    counts = {sentiment: 0 for sentiment in Sentiment}
    for tweet in dataset:
        if tweet.sentiment is None:
            raise DataError(f"tweet {tweet.id!r} has no sentiment label")
        counts[tweet.sentiment] += 1
    return ClassDistribution(counts=counts, total=len(dataset))


def require_labels(dataset: Dataset) -> list[Sentiment]:
    """Gold labels in dataset order; fails on the first unlabeled tweet."""
    labels = []
    for tweet in dataset:
        if tweet.sentiment is None:
            raise DataError(f"tweet {tweet.id!r} has no sentiment label")
        labels.append(tweet.sentiment)
    return labels


def concat_datasets(a: Dataset, b: Dataset) -> Dataset:
    """Concatenate two datasets, prefixing every id with its source name."""
    tweets = [replace(tweet, id=f"{a.name}:{tweet.id}") for tweet in a]
    tweets += [replace(tweet, id=f"{b.name}:{tweet.id}") for tweet in b]
    return Dataset(name=f"{a.name}+{b.name}", tweets=tuple(tweets))
