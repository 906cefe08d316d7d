"""Tweet text normalization.

Six rules, each individually toggleable, applied in a fixed order:
emoticon/emoji replacement, mention removal, URL replacement, elongation
collapsing, hashtag segmentation, non-ASCII removal.  Non-ASCII removal
runs last so emoji are textualized before they could be stripped.  Every
rule returns single-space-separated text with no leading or trailing
whitespace, which makes each rule (and the whole pipeline) idempotent.
A pass runs a rule only where an exact test says it could change the text.
"""

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import groupby

from .errors import ConfigError

_LEXICON_RESOURCE = "data/emoticons.tsv"
_MAX_RUN = 4294967295  # re compiles a repeat count {n,} only up to this minus 1


def _squash(text: str) -> str:
    return " ".join(text.split())


class EmojiLexicon:
    """Maps emoji and ASCII emoticons to textual names, longest match first."""

    def __init__(self, entries: Mapping[str, str]):
        for key, value in entries.items():
            if not key:
                raise ConfigError("emoji lexicon keys must be non-empty")
            if not value:
                raise ConfigError(f"emoji lexicon entry {key!r} has an empty name")
        self._entries = dict(entries)
        # Longest keys first: the first alternative that matches at a position is the longest key
        # there (equal-length keys cannot both match).  The lookahead, a bitmap for ASCII plus one
        # range, cheaply skips the positions no key can start at.  ASCII text can hold only ASCII
        # keys, and re's own first-character test suits the pattern of those alone.
        keys = sorted(self._entries, key=len, reverse=True)
        starts = "".join(re.escape(key[0]) for key in keys if key[0].isascii())
        alternatives = "|".join(map(re.escape, keys)) or "(?!)"  # an empty lexicon matches nothing
        self._pattern = re.compile(rf"(?=[{starts}\x80-\U0010FFFF])(?:{alternatives})")
        self._ascii_pattern = re.compile("|".join(re.escape(key) for key in keys if key.isascii()) or "(?!)")

    def name_of(self, key: str) -> str:
        return self._entries[key]

    def spell(self, text: str) -> tuple[str, int]:
        """text with each key, longest first, replaced by its name between spaces; and the number replaced.
        On ASCII text the ASCII keys' own pattern finds the same keys."""
        pattern = self._ascii_pattern if text.isascii() else self._pattern
        return pattern.subn(lambda match: f" {self._entries[match.group()]} ", text)

    @classmethod
    def from_lines(cls, lines: Iterable[str], origin: str = "<lexicon>") -> "EmojiLexicon":
        entries: dict[str, str] = {}
        for line_no, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.startswith("#"):
                continue
            key, sep, value = line.partition("\t")
            if not sep or not key or not value:
                raise ConfigError(f"{origin}: line {line_no}: expected 'key<TAB>name'")
            if key in entries and entries[key] != value:
                raise ConfigError(f"{origin}: line {line_no}: conflicting duplicate key {key!r}")
            entries[key] = value
        return cls(entries)

    @classmethod
    def from_file(cls, path: str) -> "EmojiLexicon":
        """Lines end only at a line feed, as in from_lines: a lone carriage return stays inside its line."""
        with open(path, encoding="utf-8", newline="") as handle:
            return cls.from_lines(handle.read().split("\n"), origin=str(path))


@lru_cache(maxsize=None)
def default_lexicon() -> EmojiLexicon:
    """The bundled lexicon: CLDR-style emoji names plus ASCII emoticons."""
    text = resources.files(__package__).joinpath(_LEXICON_RESOURCE).read_bytes().decode("utf-8")
    return EmojiLexicon.from_lines(text.split("\n"), origin=_LEXICON_RESOURCE)


@dataclass(frozen=True)
class PipelineConfig:
    replace_emoji: bool = True
    remove_mentions: bool = True
    replace_urls: bool = True
    collapse_elongation: bool = True
    segment_hashtags: bool = True
    remove_non_ascii: bool = True
    elongation_min_run: int = 3

    def __post_init__(self):
        if not 2 <= self.elongation_min_run <= _MAX_RUN:
            raise ConfigError(f"elongation_min_run must be between 2 and {_MAX_RUN}")


def replace_emoji(text: str, lexicon: EmojiLexicon) -> str:
    """Replace every lexicon match with its textual name, longest match first."""
    return _squash(lexicon.spell(text)[0])


def remove_mentions(text: str) -> str:
    """Drop every whitespace-delimited token that starts with '@'."""
    return " ".join(token for token in text.split() if not token.startswith("@"))


def remove_non_ascii(text: str) -> str:
    """Delete every codepoint above 0x7F."""
    return _squash(text.encode("ascii", "ignore").decode("ascii"))


# URL-shaped tokens: explicit scheme, www. prefix, or bare domain ending in
# one of a small closed set of TLDs (optionally followed by a path or query).
_TLDS = ("com", "net", "org", "edu", "gov", "mil", "io", "co", "es", "uk")
_LABEL = r"[a-z0-9](?:[a-z0-9-]*[a-z0-9])?"
_URL_RE = re.compile(
    r"[a-z][a-z0-9+.-]*://\S*"
    r"|www\.\S+"
    r"|(?:{label}\.)+(?:{tlds})(?:[/?]\S*)?".format(label=_LABEL, tlds="|".join(_TLDS)),
    re.IGNORECASE,
)


def _is_url(token: str) -> bool:
    # Every alternative of _URL_RE holds a literal "." or ":", which no other character case-folds to.
    return ("." in token or ":" in token) and _URL_RE.fullmatch(token) is not None


def replace_urls(text: str) -> str:
    """Replace every URL-shaped token with the literal token URL."""
    return " ".join("URL" if _is_url(token) else token for token in text.split())


@lru_cache(maxsize=32)
def _run_pattern(min_run: int, ascii_only: bool) -> re.Pattern:
    # On ASCII text, re.ASCII matches the same letters and folds their case the same way, faster.
    return re.compile(rf"([^\W\d_])\1{{{min_run - 1},}}", re.IGNORECASE | (re.ASCII if ascii_only else 0))


def collapse_elongation(text: str, min_run: int = 3) -> str:
    """Reduce runs of >= min_run identical letters to a single letter.

    Runs are matched case-insensitively and keep the first letter's case;
    digits and punctuation are never collapsed.
    """
    if not 2 <= min_run <= _MAX_RUN:
        raise ConfigError(f"min_run must be between 2 and {_MAX_RUN}")

    def collapse(match: re.Match) -> str:
        # The regex's case folding is coarser than str.lower() ("İ" matches "i"),
        # so split its run into runs of equal str.lower() before collapsing.
        runs = ("".join(run) for _, run in groupby(match.group(), str.lower))
        return "".join(run[0] if len(run) >= min_run and run[0].isalpha() else run for run in runs)

    return _squash(_run_pattern(min_run, text.isascii()).sub(collapse, text))


_HASHTAG_BOUNDARY = re.compile(
    r"(?<=[a-z])(?=[A-Z])"  # lowercase -> uppercase
    r"|(?<=[A-Za-z])(?=[0-9])"  # letter -> digit
    r"|(?<=[0-9])(?=[A-Za-z])"  # digit -> letter
)
_HASHTAG_BODY_RE = re.compile(r"\w+", re.UNICODE)


def _split_hashtag_body(body: str) -> str:
    pieces = []
    for chunk in body.split("_"):
        if chunk:
            pieces.extend(piece for piece in _HASHTAG_BOUNDARY.split(chunk) if piece)
    return " ".join(pieces)


def segment_hashtags(text: str) -> str:
    """Strip leading '#'s and split hashtag bodies at case, digit and '_' boundaries.

    Only word-character bodies are segmented; a '#' token whose body holds
    other punctuation is left alone, so segmentation never resurfaces
    mention- or URL-shaped tokens after those rules already ran.
    """
    out = []
    for token in text.split():
        if token.startswith("#"):
            body = token.lstrip("#")
            if not body:
                continue
            if not _HASHTAG_BODY_RE.fullmatch(body):
                out.append(token)
                continue
            segmented = _split_hashtag_body(body)
            if segmented:
                out.append(segmented)
        else:
            out.append(token)
    return " ".join(out)


def _pipeline_pass(text: str, config: PipelineConfig, lexicon: EmojiLexicon) -> str:
    # text is squashed, and so is what every rule returns.  On squashed text each test below is
    # false only where its rule would return the text unchanged.
    if config.replace_emoji:
        spelled, hits = lexicon.spell(text)  # one scan tests and replaces
        if hits:
            text = _squash(spelled)
    if config.remove_mentions and "@" in text:
        text = remove_mentions(text)
    if config.replace_urls and ("." in text or ":" in text):  # as in _is_url
        text = replace_urls(text)
    if config.collapse_elongation and _run_pattern(config.elongation_min_run, text.isascii()).search(text):
        text = collapse_elongation(text, config.elongation_min_run)
    if config.segment_hashtags and "#" in text:
        text = segment_hashtags(text)
    if config.remove_non_ascii and not text.isascii():
        text = remove_non_ascii(text)
    return text


def run_pipeline(text: str, config: PipelineConfig, lexicon: EmojiLexicon | None = None) -> str:
    """Apply the enabled rules, in the fixed pipeline order, until stable.

    A single ordered pass can expose material for rules that already ran
    (stripping a non-ASCII character may uncover a mention, removing a
    mention may join the halves of an emoticon), so the pass repeats until
    a fixed point: the pipeline is a projection.  Each pass only consumes
    finite, never-recreated material (non-ASCII codepoints, lexicon
    matches, '@'/'#'/URL tokens, letter runs), so the bound below is never
    reached in practice.
    """
    lexicon = default_lexicon() if lexicon is None else lexicon
    previous = None
    current = _squash(text)
    for _ in range(max(8, len(current))):
        if current == previous:
            break
        previous = current
        current = _pipeline_pass(current, config, lexicon)
    return current
