"""Synthetic corpus generation for end-to-end tests.

Tweets draw most of their words from a class-specific pool plus some
shared filler, so the corpora are separable by any of the classifiers.
"""

import random

from codemix.corpus import Dataset, LangTag, Sentiment, Tweet

CLASS_WORDS = {
    Sentiment.NEGATIVE: [
        "terrible", "horrible", "awful", "sad", "angry",
        "worst", "hate", "malo", "fatal", "triste",
    ],
    Sentiment.NEUTRAL: [
        "maybe", "meeting", "schedule", "normal", "regular",
        "manana", "office", "update", "news", "quizas",
    ],
    Sentiment.POSITIVE: [
        "love", "great", "awesome", "happy", "best",
        "amazing", "genial", "bueno", "win", "feliz",
    ],
}
SHARED_WORDS = ["the", "a", "is", "que", "el", "la", "today", "this", "very", "so"]


def make_tweet(tweet_id, words, sentiment=None, lang=LangTag.LANG1) -> Tweet:
    """A tweet whose tokens all carry the same language tag."""
    return Tweet(tweet_id, tuple(words), (lang,) * len(words), sentiment)


def synthetic_tweet(rng: random.Random, tweet_id: str, sentiment: Sentiment) -> Tweet:
    length = rng.randint(4, 8)
    words = [
        rng.choice(CLASS_WORDS[sentiment]) if rng.random() < 0.6 else rng.choice(SHARED_WORDS)
        for _ in range(length)
    ]
    tags = tuple(LangTag.LANG1 if rng.random() < 0.5 else LangTag.LANG2 for _ in words)
    return Tweet(tweet_id, tuple(words), tags, sentiment)


def synthetic_dataset(name: str, size: int, seed: int, id_offset: int = 0) -> Dataset:
    rng = random.Random(seed)
    tweets = tuple(
        synthetic_tweet(rng, str(id_offset + i), list(Sentiment)[i % 3]) for i in range(size)
    )
    return Dataset(name=name, tweets=tweets)
