"""Tokenization, per-text records and idf shared by features and title
vectors.

`text_stats` tokenizes a text once into a record. `merge_stats` gives the
record of texts joined by " " from their records alone, so a prefix of a
discussion grows window by window without tokenizing anything again (a
running merge: each step's record is the last one plus one window)."""

import math
import re
from collections import Counter
from typing import NamedTuple

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_SENTENCE_RE = re.compile(r"[.!?]+")
_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_CLOSING_RE = re.compile(r"[.!?]")


class TextStats(NamedTuple):
    """What every text formula reads of one text. `head` and `tail` say
    whether the chunk before the first closing mark and the chunk after the
    last one are non-blank: a " " join runs those two chunks of its sides
    into one sentence."""
    pairs: tuple      # (token, tf) in order of first occurrence
    sentences: int
    urls: int
    closing: int      # closing marks . ! ?
    head: bool
    tail: bool


def tokenize(text):
    """Lowercase alphanumeric tokens, punctuation stripped."""
    return _TOKEN_RE.findall(text.lower())


def text_stats(text):
    """The record of one text."""
    chunks = [chunk.strip() for chunk in _SENTENCE_RE.split(text)]
    return TextStats(tuple(Counter(tokenize(text)).items()),
                     sum(map(bool, chunks)), count_urls(text),
                     count_closing_punct(text), bool(chunks[0]),
                     bool(chunks[-1]))


def merge_stats(records):
    """The record of the texts of `records` joined by " ", in order.

    Token counts merge in order of first occurrence, and URL and closing
    counts add: neither a token nor a URL nor a run of marks spans the
    joining space. Sentences add too, less one wherever a non-blank tail
    meets a non-blank head. The joined text's first chunk is the first
    text's, grown by what follows while no closing mark has come; its last
    chunk likewise from the other end.
    """
    records = iter(records)
    first = next(records, None)
    if first is None:
        return text_stats("")
    counts = dict(first.pairs)
    n, urls, closing, head, tail = first[1:]
    for r in records:
        for t, tf in r.pairs:
            counts[t] = counts.get(t, 0) + tf
        n += r.sentences - (tail and r.head)
        head = head if closing else head or r.head
        tail = r.tail if r.closing else tail or r.tail
        urls += r.urls
        closing += r.closing
    return TextStats(tuple(counts.items()), n, urls, closing, head, tail)


def idf_table(docs):
    """idf = log(D / (1 + df)) of every token over D tokenized documents."""
    df = {}
    for doc in docs:
        for t in set(doc):
            df[t] = df.get(t, 0) + 1
    n_docs = max(1, len(docs))
    return {t: math.log(n_docs / (1 + k)) for t, k in df.items()}


def count_urls(text):
    return len(_URL_RE.findall(text))


def count_closing_punct(text):
    return len(_CLOSING_RE.findall(text))
