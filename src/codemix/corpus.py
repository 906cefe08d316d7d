"""Corpus handling: language-tagged tweets, file parsing, dataset operations.

Labeled tweets are stored in a plain-text block format.  parse_conll
enforces exactly this grammar:

- Lines end only at "\\n", in files too (the CLI keeps their line ends), and
  lose any trailing "\\r", so "\\r\\n" ends read like "\\n", while a lone "\\r",
  "\\x0b", "\\x85" and "\\u2028" stay inside their line.
- Empty and whitespace-only (str.isspace) lines separate blocks; any number
  of them may stand before, between and after the blocks.
- A block's first line is "meta <id> [<sentiment>]", split on whitespace,
  with the label matched case-insensitively.  Each further line is
  "<token>\\t<lang_tag>": a non-empty token without "\\r" (spaces
  are allowed), one tab and a LangTag value, matched exactly.  A block has
  at least one token line, and no two blocks share an id.

A violation raises ParseError with the number of the first bad line; a
shared id raises DataError once the whole source is read.  Auxiliary
monolingual data is read from RFC-4180 CSV files with a mandatory header row.
"""

import csv
import enum
import io
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import chain

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


_LANG_OF = {tag.value: tag for tag in LangTag}


@dataclass(frozen=True, slots=True)
class Tweet:
    """A tweet's tokens with one language tag each; text is the tokens joined by single spaces."""

    id: str
    tokens: tuple[str, ...]
    tags: tuple[LangTag, ...]
    sentiment: Sentiment | None = None
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.tokens:
            raise DataError(f"tweet {self.id!r} has no tokens")
        if len(self.tags) != len(self.tokens):
            raise DataError(f"tweet {self.id!r} has {len(self.tokens)} tokens but {len(self.tags)} tags")
        if "" in self.tokens:
            raise DataError("token text must be non-empty")
        text = " ".join(self.tokens)
        if "\t" in text or "\n" in text or "\r" in text:
            bad = next(token for token in self.tokens if "\t" in token or "\n" in token or "\r" in token)
            raise DataError(f"token text may not contain tabs or newlines: {bad!r}")
        object.__setattr__(self, "text", text)


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


def _token_line_error(line: str, line_no: int) -> ParseError:
    """Why a token line is refused, checked in the grammar's order: its shape, its tag, its token."""
    parts = line.split("\t")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        return ParseError(f"malformed token line {line!r}", line=line_no)
    try:
        LangTag.from_tag(parts[1])
    except DataError as exc:
        return ParseError(str(exc), line=line_no)
    return ParseError(f"token text may not contain tabs or newlines: {parts[0]!r}", line=line_no)


def parse_conll(source: str, name: str = "dataset") -> Dataset:
    """Parse block-format tweets from a string, in one pass."""
    tweets: list[Tweet] = []
    meta = None  # (line number, id, sentiment) of the block being read
    tokens: list[str] = []
    tags: list[LangTag] = []
    # A trailing blank line ends the last block.  Lines end at "\n" only: str.splitlines() also breaks on
    # "\x0b" and others legal in tokens.  Streamed: a list of all lines raised a 12k train's peak RSS ~12 MB.
    for line_no, raw in enumerate(chain(io.StringIO(source, newline="\n"), [""]), start=1):
        line = raw.rstrip("\r\n")
        if not line or line.isspace():
            if meta is not None:
                meta_line, tweet_id, sentiment = meta
                if not tokens:
                    raise ParseError(f"tweet {tweet_id!r} has no token lines", line=meta_line)
                tweets.append(Tweet(tweet_id, tuple(tokens), tuple(tags), sentiment))
                meta, tokens, tags = None, [], []
        elif meta is None:
            meta = (line_no, *_parse_meta(line, line_no))
        else:
            token, _, tag = line.partition("\t")
            lang = _LANG_OF.get(tag)
            if lang is None or not token or "\r" in token:
                raise _token_line_error(line, line_no)
            tokens.append(token)
            tags.append(lang)
    return Dataset(name=name, tweets=tuple(tweets))


def format_conll(dataset: Dataset) -> str:
    """Render a dataset in the block format; parse_conll inverts this."""
    blocks = []
    for tweet in dataset:
        meta = f"meta {tweet.id}"
        if tweet.sentiment is not None:
            meta += f" {tweet.sentiment.label}"
        lines = [meta] + [f"{token}\t{tag.value}" for token, tag in zip(tweet.tokens, tweet.tags)]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def parse_monolingual_csv(
    source: str,
    label_column: str,
    text_column: str,
    lang: LangTag = LangTag.LANG1,
    name: str = "csv",
) -> Dataset:
    """Parse a labeled monolingual CSV from a string; every token gets the same language tag.

    Records end at "\r\n", "\n" or "\r", as the csv module reads them.  Rows are
    whitespace-tokenized and ids are the 0-based data row indices.  A record that the
    csv module refuses is a DataError.
    """
    reader = csv.DictReader(io.StringIO(source, newline=""))
    try:
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
            tweets.append(Tweet(str(index), tuple(words), (lang,) * len(words), sentiment))
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise DataError(f"CSV line {reader.reader.line_num}: {exc}") from None
    return Dataset(name=name, tweets=tuple(tweets))


def require_labels(dataset: Dataset) -> list[Sentiment]:
    """Gold labels in dataset order; fails on the first unlabeled tweet."""
    labels = [tweet.sentiment for tweet in dataset]
    if None in labels:
        raise DataError(f"tweet {dataset[labels.index(None)].id!r} has no sentiment label")
    return labels


def concat_datasets(a: Dataset, b: Dataset) -> Dataset:
    """Concatenate two datasets, prefixing every id with its source name."""
    tweets = [replace(tweet, id=f"{a.name}:{tweet.id}") for tweet in a]
    tweets += [replace(tweet, id=f"{b.name}:{tweet.id}") for tweet in b]
    return Dataset(name=f"{a.name}+{b.name}", tweets=tuple(tweets))
