"""Seeded, SemEval-shaped synthetic Spanglish corpus for the benchmark.

The shape is fixed here and must not be re-tuned to flatter a change:

- one fixed lexicon of 30,000 word types, drawn with a Zipf law (exponent
  1) over their ranks: about 45% English-like, 45% Spanish-like (a third of
  those with an accent or a tilde), the rest named entities, code-mixed
  stems and third-language words;
- 8 to 20 tokens per tweet, a quarter of the words casually misspelled;
- mentions, hashtags, emoji, ASCII emoticons, URLs, elongations, numbers
  and punctuation, tagged ``other``; named entities ``ne``; gibberish
  ``unk``; words shared by both languages ``ambiguous``; code-mixed stems
  ``mixed``; third-language words ``fw``;
- labels skewed like the shared-task release: 50% positive, 33% neutral,
  17% negative.  Each tweet carries three to five sentiment cue words and
  often one emoji that lean towards its label, with noise, so a few epochs
  learn the task.

A 12k-tweet split gives a word + char (2-5) feature space of about 395k
dimensions.  The seed draws the tweets; the lexicon is the same for every
seed, like one language shared by every sample.

Every generated token is built so that its normalized form is known by
construction: mentions vanish, URLs become ``URL``, emoji and emoticons
become their lexicon names, elongations collapse back to their base word,
hashtags split at case and digit boundaries and non-ASCII letters are
dropped.  ``Tweet.normalized`` holds that expected text, from which the
expected TF-IDF vocabulary sizes follow without running the program.
"""

import bisect
import functools
import gc
import itertools
import random
import re
import time
from dataclasses import dataclass

SENTIMENTS = ("negative", "neutral", "positive")
CLASS_MIX = (0.17, 0.33, 0.50)
N_WORD_TYPES = 30_000
ZIPF_EXPONENT = 1.0
TWEET_LENGTH = (8, 20)
CUES_PER_CLASS = 40
CUE_OWN_CLASS = 0.85
TYPO_RATE = 0.25
LEXICON_SEED = 2020
REFERENCE_TWEETS = 200

# Emoji and ASCII emoticons with the names the normalizer must give them,
# grouped by the label they lean towards.
EMOJI = {
    "negative": [
        ("\U0001F622", "crying face"), ("\U0001F62D", "loudly crying face"),
        ("\U0001F621", "pouting face"), ("\U0001F620", "angry face"),
        ("\U0001F494", "broken heart"), ("\U0001F44E", "thumbs down"),
        ("\U0001F612", "unamused face"), ("\U0001F629", "weary face"),
        (":(", "sad face"), (":'(", "crying face"), ("-_-", "expressionless face"),
    ],
    "neutral": [
        ("\U0001F914", "thinking face"), ("\U0001F610", "neutral face"),
        ("\U0001F440", "eyes"), ("☕", "hot beverage"), ("⚽", "soccer ball"),
        ("\U0001F3B5", "musical note"), ("\U0001F3C0", "basketball"),
        (":/", "skeptical face"), (":|", "neutral face"), (":O", "surprised face"),
    ],
    "positive": [
        ("\U0001F602", "face with tears of joy"), ("\U0001F60D", "smiling face with heart-eyes"),
        ("\U0001F60A", "smiling face with smiling eyes"), ("\U0001F525", "fire"),
        ("\U0001F389", "party popper"), ("\U0001F44D", "thumbs up"), ("\U0001F64F", "folded hands"),
        ("\U0001F4AF", "hundred points"), ("✨", "sparkles"), ("\U0001F60E", "smiling face with sunglasses"),
        (":)", "smiley face"), (":D", "grinning face"), (";)", "winking face"), ("<3", "heart"),
        ("^_^", "happy face"), (":P", "face with tongue"),
    ],
}
PUNCTUATION = ("!", "?", "...", "!!", "?!")
AMBIGUOUS = ("no", "me", "a", "come", "sole", "pan", "red", "fin", "son", "mar", "plan", "real", "hoy")
MIXED = ("parkear", "textear", "lonchear", "chequear", "janguear", "likear", "postear", "printear")
FOREIGN = ("merci", "ciao", "danke", "grazie", "arigato", "bonjour", "prego", "obrigado", "salut")
URL_TLDS = ("com", "co", "es", "net", "org", "io")

EN_ONSETS = ("b", "bl", "br", "c", "ch", "cl", "cr", "d", "dr", "dw", "f", "fl", "fr", "g", "gl", "gr",
             "gw", "h", "j", "k", "kn", "l", "m", "n", "p", "ph", "pl", "pr", "qu", "r", "s", "sc", "sh",
             "shr", "sk", "sl", "sm", "sn", "sp", "spl", "spr", "squ", "st", "str", "sw", "t", "th", "thr",
             "tr", "tw", "v", "w", "wh", "wr", "y", "z", "")
EN_VOWELS = ("a", "e", "i", "o", "u", "ea", "ee", "oo", "ou", "ai", "ay", "ie", "y", "oa", "oi", "au",
             "ei", "ey", "ow", "aw", "ew", "ue")
EN_CODAS = ("", "", "b", "ck", "d", "ft", "g", "k", "l", "ld", "lf", "lk", "ll", "lm", "lp", "lt", "m",
            "mp", "n", "nch", "nd", "ng", "nk", "nt", "p", "pt", "r", "rb", "rd", "rf", "rk", "rl", "rm",
            "rn", "rp", "rt", "s", "sh", "sk", "sp", "ss", "st", "t", "tch", "th", "x", "ve", "ze")
ES_ONSETS = ("b", "c", "ch", "d", "f", "g", "h", "j", "l", "ll", "m", "n", "p", "qu", "r", "rr", "s",
             "t", "v", "y", "z", "br", "bl", "cr", "cl", "dr", "fr", "fl", "gr", "gl", "gu", "pl", "pr",
             "tr", "ñ", "")
ES_VOWELS = ("a", "e", "i", "o", "u", "ia", "ie", "ue", "io", "ua", "ai", "ei", "oi", "au", "eu", "uo")
ES_ACCENTED = ("á", "é", "í", "ó", "ú")
ES_CODAS = ("", "", "", "", "n", "s", "r", "l", "z", "d", "x", "ns", "bs")

_RUN3 = re.compile(r"([a-z])\1\1", re.IGNORECASE)
_WORD_RE = re.compile(r"[^\W_]+")


@dataclass(frozen=True)
class Tweet:
    id: str
    label: str
    tokens: tuple[tuple[str, str], ...]  # (token text, language tag)
    normalized: str  # the text the six-rule normalizer must produce


@dataclass(frozen=True)
class Corpus:
    train: tuple[Tweet, ...]
    dev: tuple[Tweet, ...]


def _ascii(text: str) -> str:
    return "".join(ch for ch in text if ord(ch) <= 0x7F)


def _valid_word(word: str) -> bool:
    # No run of three equal letters before or after accent stripping, so the
    # elongation rule leaves every plain word alone.
    stripped = _ascii(word)
    return len(stripped) >= 2 and not _RUN3.search(word) and not _RUN3.search(stripped)


def _english_word(rng: random.Random) -> str:
    return "".join(
        rng.choice(EN_ONSETS) + rng.choice(EN_VOWELS) + rng.choice(EN_CODAS)
        for _ in range(rng.choice((1, 2, 3, 3, 4, 4)))
    )


def _spanish_word(rng: random.Random) -> str:
    syllables = [rng.choice(ES_ONSETS) + rng.choice(ES_VOWELS) for _ in range(rng.choice((2, 3, 4, 4, 5, 5)))]
    if rng.random() < 0.33:
        # Accent one vowel of a syllable.
        i = rng.randrange(len(syllables))
        vowels = [j for j, ch in enumerate(syllables[i]) if ch in "aeiou"]
        j = vowels[-1]
        syllables[i] = syllables[i][:j] + ES_ACCENTED["aeiou".index(syllables[i][j])] + syllables[i][j + 1 :]
    return "".join(syllables) + rng.choice(ES_CODAS)


class _Lexicon:
    """The 30k word types with their tags, Zipf weights and class cues."""

    def __init__(self, rng: random.Random):
        seen: set[str] = set()
        words: list[tuple[str, str]] = []
        while len(words) < N_WORD_TYPES:
            roll = rng.random()
            if roll < 0.45:
                word, tag = _english_word(rng), "lang1"
            elif roll < 0.90:
                word, tag = _spanish_word(rng), "lang2"
            elif roll < 0.95:
                word, tag = _spanish_word(rng).capitalize(), "ne"
            elif roll < 0.98:
                word, tag = _english_word(rng) + rng.choice(("ear", "ear", "eando")), "mixed"
            else:
                word, tag = _english_word(rng) + rng.choice(("ski", "zig", "ko", "ette")), "fw"
            key = word.lower()
            if key in seen or not _valid_word(word):
                continue
            seen.add(key)
            words.append((word, tag))
        self.words = words
        self.cum_weights = list(itertools.accumulate(1.0 / (rank + 2.7) ** ZIPF_EXPONENT for rank in range(N_WORD_TYPES)))
        # Cue words come from the mid-frequency band, disjoint between classes.
        band = rng.sample(range(100, 3000), 3 * CUES_PER_CLASS)
        self.cues = {label: band[i * CUES_PER_CLASS : (i + 1) * CUES_PER_CLASS] for i, label in enumerate(SENTIMENTS)}

    def zipf(self, rng: random.Random) -> tuple[str, str]:
        index = bisect.bisect_left(self.cum_weights, rng.random() * self.cum_weights[-1])
        return self.words[min(index, N_WORD_TYPES - 1)]


@functools.cache
def _lexicon() -> _Lexicon:
    return _Lexicon(random.Random(LEXICON_SEED))


def _elongate(rng: random.Random, word: str) -> str | None:
    """Repeat one ASCII letter 3-6 times where the run collapses back to it."""
    spots = [
        i for i, ch in enumerate(word)
        if ch.isascii() and ch.isalpha()
        and (i == 0 or word[i - 1].lower() != ch.lower())
        and (i == len(word) - 1 or word[i + 1].lower() != ch.lower())
    ]
    if not spots:
        return None
    i = rng.choice(spots)
    return word[:i] + word[i] * rng.randint(3, 6) + word[i + 1 :]


def _typo(rng: random.Random, word: str) -> str:
    """Drop, double-up, swap or replace one letter, as casual spelling does."""
    i = rng.randrange(len(word))
    edit = rng.randrange(4)
    if edit == 0 and len(word) > 3:
        typo = word[:i] + word[i + 1 :]
    elif edit == 1:
        typo = word[: i + 1] + word[i] + word[i + 1 :]
    elif edit == 2 and i + 1 < len(word):
        typo = word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    else:
        typo = word[:i] + rng.choice("abcdefghijklmnopqrstuvwxyz") + word[i + 1 :]
    return typo if _valid_word(typo) else word


def _token(rng: random.Random, lexicon: _Lexicon) -> tuple[str, str, str]:
    """One (surface, tag, normalized) token; normalized may be empty."""
    roll = rng.random()
    if roll < 0.04:
        name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(4, 10)))
        return "@" + name + str(rng.randint(0, 99)) * rng.randint(0, 1), "other", ""
    if roll < 0.07:
        parts = [_ascii(lexicon.zipf(rng)[0]).lower() for _ in range(rng.randint(1, 3))]
        body = "".join(part.capitalize() for part in parts)
        if _RUN3.search(body):
            parts, body = parts[:1], parts[0].capitalize()
        suffix = str(rng.randint(10, 2030)) if rng.random() < 0.2 else ""
        expected = " ".join(part.capitalize() for part in parts) + (" " + suffix if suffix else "")
        return "#" + body + suffix, "other", expected
    if roll < 0.09:
        host = _ascii(lexicon.zipf(rng)[0]).lower()
        path = "".join(rng.choice("abcdefghijkmnpqrstuvwxyz0123456789") for _ in range(rng.randint(4, 9)))
        prefix = "www." if rng.random() < 0.5 else ""
        return f"{prefix}{host}.{rng.choice(URL_TLDS)}/{path}", "other", "URL"
    if roll < 0.12:
        surface, name = rng.choice(EMOJI[rng.choice(SENTIMENTS)])
        return surface, "other", name
    if roll < 0.15:
        surface = rng.choice(PUNCTUATION)
        return surface, "other", surface
    if roll < 0.16:
        surface = str(rng.randint(0, 2030))
        return surface, "other", surface
    if roll < 0.17:
        surface = rng.choice(AMBIGUOUS)
        return surface, "ambiguous", surface
    if roll < 0.175:
        surface = rng.choice(MIXED)
        return surface, "mixed", surface
    if roll < 0.18:
        surface = rng.choice(FOREIGN)
        return surface, "fw", surface
    if roll < 0.19:
        surface = "".join(rng.choice("jsxdkqwz") for _ in range(rng.randint(3, 7)))
        if _RUN3.search(surface):
            surface = "jsjs"
        return surface, "unk", surface
    word, tag = lexicon.zipf(rng)
    if rng.random() < TYPO_RATE:
        word = _typo(rng, word)
    if rng.random() < 0.03:
        elongated = _elongate(rng, word)
        if elongated is not None:
            return elongated, tag, _ascii(word)
    if rng.random() < 0.04:
        word = word.capitalize()
    return word, tag, _ascii(word)


def _tweet(rng: random.Random, lexicon: _Lexicon, tweet_id: str, label: str) -> Tweet:
    length = rng.randint(*TWEET_LENGTH)
    tokens = [_token(rng, lexicon) for _ in range(length)]
    for _ in range(rng.randint(3, 5)):
        cue_label = label if rng.random() < CUE_OWN_CLASS else rng.choice(SENTIMENTS)
        word, tag = lexicon.words[rng.choice(lexicon.cues[cue_label])]
        tokens[rng.randrange(length)] = (word, tag, _ascii(word))
    if rng.random() < 0.5:
        emoji_label = label if rng.random() < CUE_OWN_CLASS else rng.choice(SENTIMENTS)
        surface, name = rng.choice(EMOJI[emoji_label])
        tokens[rng.randrange(length)] = (surface, "other", name)
    normalized = " ".join(expected for _, _, expected in tokens if expected)
    return Tweet(
        id=tweet_id,
        label=label,
        tokens=tuple((surface, tag) for surface, tag, _ in tokens),
        normalized=normalized,
    )


def generate(seed: int, n_train: int, n_dev: int) -> Corpus:
    """Deterministic corpus: the same seed and sizes give the same tweets.

    The word types are those of one fixed lexicon, like a language shared by
    every sample; the seed draws the tweets.
    """
    lexicon = _lexicon()
    rng = random.Random(seed)
    labels = rng.choices(SENTIMENTS, weights=CLASS_MIX, k=n_train + n_dev)
    tweets = [_tweet(rng, lexicon, str(100_000 + i), label) for i, label in enumerate(labels)]
    return Corpus(train=tuple(tweets[:n_train]), dev=tuple(tweets[n_train:]))


def format_blocks(tweets) -> str:
    """The block format: a ``meta <id> <label>`` line, then token<TAB>tag lines."""
    blocks = [
        "\n".join([f"meta {tweet.id} {tweet.label}"] + [f"{text}\t{tag}" for text, tag in tweet.tokens])
        for tweet in tweets
    ]
    return "\n\n".join(blocks) + "\n"


def write_blocks(path: str, tweets) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_blocks(tweets))


def expected_vocab(tweets, doc_mode: str) -> dict[str, int]:
    """Word and char vocabulary sizes a default TF-IDF fit (words, chars 2-5) must report."""
    if doc_mode == "all_documents":
        docs = [tweet.normalized.lower() for tweet in tweets]
    else:
        docs = [
            " ".join(tweet.normalized for tweet in tweets if tweet.label == label).lower()
            for label in SENTIMENTS
        ]
    words = {word for doc in docs for word in _WORD_RE.findall(doc)}
    # Every n-gram of a document is the prefix of the (n+1)-gram at the same
    # place, except the document's last n-gram; so each size follows from
    # the distinct grams one longer, which are far fewer than the places.
    grams = {doc[i : i + 5] for doc in docs for i in range(len(doc) - 4)}
    chars = set(grams)
    for n in (4, 3, 2):
        grams = {gram[:n] for gram in grams} | {doc[-n:] for doc in docs if len(doc) >= n}
        chars |= grams
    return {"word_vocab_size": len(words), "char_vocab_size": len(chars), "dimension": len(words) + len(chars)}


def time_reference() -> list[float]:
    """``[moment, seconds]``: when and how long a fixed pure-Python workload ran.

    The workload does string, random and set work like the program's.  Its
    time measures how fast the machine runs at that moment, and never
    changes with the program.  The garbage collector is off meanwhile, so
    that the objects other code in the process keeps alive do not count.
    """
    _lexicon()  # built once per process, outside the timing
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        expected_vocab(generate(0, REFERENCE_TWEETS, 0).train, "all_documents")
        end = time.perf_counter()
    finally:
        gc.enable()
    return [(start + end) / 2, end - start]


def shape(tweets) -> dict[str, object]:
    """Tweet, token and type counts plus the label and tag mix."""
    tokens = [token for tweet in tweets for token in tweet.tokens]
    tags: dict[str, int] = {}
    for _, tag in tokens:
        tags[tag] = tags.get(tag, 0) + 1
    labels = {label: sum(tweet.label == label for tweet in tweets) for label in SENTIMENTS}
    return {
        "tweets": len(tweets),
        "tokens": len(tokens),
        "types": len({text.lower() for text, _ in tokens}),
        "labels": labels,
        "tags": dict(sorted(tags.items())),
    }


def main(argv=None) -> int:
    """Self-check: the shape of the train_svm split and its feature-space size."""
    import argparse

    from run import SCALES

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    corpus = generate(args.seed, SCALES["full"].svm_train, 0)
    counts = shape(corpus.train)
    dimension = expected_vocab(corpus.train, "all_documents")["dimension"]
    print(f"tweets {counts['tweets']}, tokens {counts['tokens']}, types {counts['types']}")
    print(f"labels {counts['labels']}")
    print(f"tags {counts['tags']}")
    near = abs(dimension - 400_000) <= 40_000
    print(f"train_svm feature-space dimension {dimension}: {'near' if near else 'NOT near'} 400k")
    return 0 if near else 1


if __name__ == "__main__":
    raise SystemExit(main())
