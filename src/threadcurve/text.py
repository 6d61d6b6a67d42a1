"""Tokenization, per-text statistics and idf shared by features and title
vectors. `text_stats` tokenizes a text once and keeps only the last text
it saw: the featurizers run every formula of one text before the next."""

import functools
import math
import re
from collections import Counter

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_SENTENCE_RE = re.compile(r"[.!?]+")
_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_CLOSING_RE = re.compile(r"[.!?]")


def tokenize(text):
    """Lowercase alphanumeric tokens, punctuation stripped."""
    return _TOKEN_RE.findall(text.lower())


@functools.lru_cache(maxsize=1)
def text_stats(text):
    """(pairs, sentence count, URL count, closing-punctuation count) of a
    text; pairs holds (token, tf) in order of first occurrence."""
    return (tuple(Counter(tokenize(text)).items()), len(sentences(text)),
            count_urls(text), count_closing_punct(text))


def idf_table(docs):
    """idf = log(D / (1 + df)) of every token over D tokenized documents."""
    df = {}
    for doc in docs:
        for t in set(doc):
            df[t] = df.get(t, 0) + 1
    n_docs = max(1, len(docs))
    return {t: math.log(n_docs / (1 + k)) for t, k in df.items()}


def sentences(text):
    """Non-empty sentence chunks, split on closing punctuation . ! ?"""
    return [s for s in (p.strip() for p in _SENTENCE_RE.split(text)) if s]


def count_urls(text):
    return len(_URL_RE.findall(text))


def count_closing_punct(text):
    return len(_CLOSING_RE.findall(text))
