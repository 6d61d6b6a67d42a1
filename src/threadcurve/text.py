"""Tokenization and text records shared by features and title vectors.

`Texts` tokenizes texts once: every distinct token gets one integer id, and
each text keeps its ids in order. `Texts.join` gives the records of runs of
consecutive texts joined by " " from those ids and per-text counts alone,
so a discussion's prefix (its post and first comments) is the concatenated
id stream of its texts, and building it tokenizes nothing again.
`text_stats` is the record of one string, the form the tests check the
joins against. `title_rows` gives the title vectors of many titles from one
pass over their token ids.
"""

import math
import re
from collections import Counter
from itertools import chain
from typing import NamedTuple

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_SENTENCE_RE = re.compile(r"[.!?]+")
_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_CLOSING_RE = re.compile(r"[.!?]")

BATCH = 2048  # texts tokenized at a time; bounds the token strings held


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


def _marks(text):
    """The fields of a text's record after its pairs."""
    chunks = [chunk.strip() for chunk in _SENTENCE_RE.split(text)]
    return (sum(map(bool, chunks)), count_urls(text),
            count_closing_punct(text), bool(chunks[0]), bool(chunks[-1]))


def text_stats(text):
    """The record of one text."""
    return TextStats(tuple(Counter(tokenize(text)).items()), *_marks(text))


def ranges(lo, hi):
    """(owner, index) of every index in the ranges lo[r] <= index < hi[r],
    range after range."""
    lo = np.asarray(lo, dtype=np.intp)
    size = np.asarray(hi, dtype=np.intp) - lo
    owner = np.repeat(np.arange(len(lo)), size)
    return owner, np.arange(len(owner)) + (lo - np.cumsum(size) + size)[owner]


class Records(NamedTuple):
    """Text records as arrays. Term j is token id `ids[j]`, found `tf[j]`
    times in record `record[j]`; records come in order, and each one's terms
    in order of first occurrence."""
    record: np.ndarray
    ids: np.ndarray
    tf: np.ndarray
    sentences: np.ndarray  # per record
    urls: np.ndarray
    closing: np.ndarray


def _first_terms(record, ids, tf, vocabulary_size):
    """(record, id, tf) of each record's distinct ids, in order of first
    occurrence, from (record, id, tf) listed record after record: one
    unique (record, id) pair per term, kept at its first position, with
    the counts of all its positions added."""
    key = record * max(1, vocabulary_size) + ids
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    total = np.zeros(len(key), dtype=tf.dtype)
    total[order[first]] = np.add.reduceat(tf[order], first)
    terms = np.flatnonzero(total)
    return record[terms], ids[terms], total[terms]


class Texts:
    """Texts tokenized once. `vocabulary` holds the token of each id, in
    order of first sight. Text t's record is `ids` and `tf` from
    `starts[t]` to `starts[t + 1]`, its distinct token ids in order of first
    occurrence and their counts, and entry t of `sentences`, `urls`,
    `closing`, `head` and `tail` (`TextStats`' fields)."""

    def __init__(self, texts):
        index, ids, tf = {}, [], []
        lengths = [np.zeros(1, dtype=np.intp)]
        marks = [np.zeros((0, 5), dtype=np.intp)]
        for start in range(0, len(texts), BATCH):
            batch = texts[start:start + BATCH]
            marks.append(np.array([_marks(text) for text in batch],
                                  dtype=np.intp))
            tokens = [tokenize(text) for text in batch]
            flat = list(chain.from_iterable(tokens))
            for t in dict.fromkeys(flat):
                index.setdefault(t, len(index))
            text, k, n = _first_terms(
                np.repeat(np.arange(len(tokens)), list(map(len, tokens))),
                np.fromiter(map(index.__getitem__, flat), np.int32, len(flat)),
                np.ones(len(flat), dtype=np.int32), len(index))
            ids.append(k)
            tf.append(n)
            lengths.append(np.bincount(text, minlength=len(tokens)))
        self.vocabulary = list(index)
        self.ids = np.concatenate([np.zeros(0, dtype=np.int32)] + ids)
        self.tf = np.concatenate([np.zeros(0, dtype=np.int32)] + tf)
        self.starts = np.cumsum(np.concatenate(lengths))
        self.sentences, self.urls, self.closing, head, tail = np.concatenate(
            marks).T
        self.head, self.tail = head.astype(bool), tail.astype(bool)

    def document_frequency(self, docs):
        """How many of the texts `docs` hold each token id."""
        at = ranges(self.starts[docs], self.starts[docs + 1])[1]
        return np.bincount(self.ids[at], minlength=len(self.vocabulary))

    def join(self, lo, hi):
        """The records of texts lo[r] .. hi[r] - 1 joined by " ", for
        every r.

        Neither a token nor a URL nor a run of closing marks spans a joining
        space, so the joined text's terms are its texts' terms end to end,
        each kept where it first occurs, and its URL and closing counts add.
        Sentences add too, less one at each join where the text so far ends
        in a non-blank chunk and the next text starts with one: the join
        runs the two into one sentence. The text so far ends in a non-blank
        chunk when some text from its last closing mark on (that text's
        tail, then whole texts) is non-blank.
        """
        lo, hi = np.asarray(lo, dtype=np.intp), np.asarray(hi, dtype=np.intp)
        owner, t = ranges(lo, hi)
        closed = np.maximum.accumulate(
            np.where(self.closing > 0, np.arange(len(self.closing)), -1))
        tails = np.concatenate([[0], np.cumsum(self.tail)])
        since = np.maximum(closed[t - 1], lo[owner])
        runs = (t > lo[owner]) & self.head[t] & (tails[t] > tails[since])

        def add(values):
            return np.bincount(owner, values,
                               minlength=len(lo)).astype(np.intp)

        record, at = ranges(self.starts[lo], self.starts[hi])
        return Records(*_first_terms(record, self.ids[at], self.tf[at],
                                     len(self.vocabulary)),
                       add(self.sentences[t] - runs), add(self.urls[t]),
                       add(self.closing[t]))


def title_rows(titles, word_vectors, idf, stopwords):
    """The title vector of each title, as rows, from one `Texts` pass.

    A title's kept tokens are those in `word_vectors` and not in
    `stopwords`. Its vector is the mean of their vectors weighted by
    tf * idf, over those whose weight is positive; their plain mean when no
    weight is; the zero vector when no token is kept. `idf` is a dict, or
    None for idf = log(D / (1 + df)) over the D titles themselves.
    `np.bincount` adds a title's terms in order of first occurrence, from
    +0.0, as a loop over them does, and a term of weight 0 adds +0.0 or
    -0.0, which changes no sum.
    """
    texts = Texts(titles)
    vocabulary, ids, starts = texts.vocabulary, texts.ids, texts.starts
    if idf is None:
        df = texts.document_frequency(np.arange(len(titles))).tolist()
        idf = {t: math.log(max(1, len(titles)) / (1 + k))
               for t, k in zip(vocabulary, df)}
    zero = np.zeros(len(next(iter(word_vectors.values()))))
    kept = np.array([t in word_vectors and t not in stopwords
                     for t in vocabulary], dtype=bool)
    vectors = np.array([word_vectors[t] if k else zero for t, k in
                        zip(vocabulary, kept)]).reshape(-1, zero.size)
    idf_of = np.array([idf.get(t, 0.0) for t in vocabulary], dtype=float)
    R = len(titles)
    record = np.repeat(np.arange(R), np.diff(starts))
    weight = texts.tf * np.where(kept & (idf_of > 0), idf_of, 0.0)[ids]
    total = np.bincount(record, weight, minlength=R)
    out = np.zeros((R, zero.size))
    for column, vector in zip(out.T, vectors.T):
        column[:] = np.bincount(record, weight * vector[ids], minlength=R)
    out /= np.where(total > 0, total, 1.0)[:, None]
    fallback = (total == 0) & (np.bincount(record, kept[ids], minlength=R) > 0)
    for r in np.flatnonzero(fallback).tolist():
        terms = ids[starts[r]:starts[r + 1]]
        out[r] = np.mean(vectors[terms[kept[terms]]], axis=0)
    return out


def count_urls(text):
    return len(_URL_RE.findall(text))


def count_closing_punct(text):
    return len(_CLOSING_RE.findall(text))
