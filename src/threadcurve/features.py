"""Content, surface, latent-semantic and user features for posts and comments."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .corpus import CorpusError
from .text import Texts, ranges

CONTENT_NAMES = ["avg_tfidf", "lix", "term_entropy", "polarity_sum",
                 "pos_words", "neg_words"]
SURFACE_NAMES = ["sentence_count", "avg_words_per_sentence", "url_count",
                 "tree_depth", "seconds_since_post", "closing_punct_count"]


@dataclass(frozen=True)
class Lexicons:
    idf: dict
    word_vectors: dict
    sentiment: dict
    stopwords: frozenset
    vocab_size: int  # |T|: unique tokens in the training corpus

    @property
    def d_w(self):
        return len(next(iter(self.word_vectors.values()), ()))


class LexiconError(CorpusError):
    """A word-vector, sentiment or stopwords file that cannot be read; the
    message names the file and the line."""


def _rows(path):
    """(line number, fields) of every non-blank line of a lexicon file."""
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                fields = raw.decode("utf-8").split()
            except UnicodeDecodeError:
                raise LexiconError("%s line %d is not UTF-8"
                                   % (path, number)) from None
            if fields:
                yield number, fields


def _finite(path, number, fields):
    """The fields of line `number` of `path` as floats."""
    values = []
    for field in fields:
        try:
            value = float(field)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise LexiconError("%s line %d: %r is not a finite number"
                               % (path, number, field))
        values.append(value)
    return values


def load_word_vectors(path):
    """word -> vector. Every line is a word and its values, and every
    vector has the width of the first one."""
    table, width = {}, None
    for number, parts in _rows(path):
        vec = np.array(_finite(path, number, parts[1:]))
        if not vec.size:
            raise LexiconError("%s line %d: %r has no values"
                               % (path, number, parts[0]))
        if width is None:
            width, first = vec.size, number
        elif vec.size != width:
            raise LexiconError("%s line %d: %r has %d values, line %d has %d"
                               % (path, number, parts[0], vec.size, first,
                                  width))
        table[parts[0]] = vec
    if not table:
        raise LexiconError("%s holds no word vectors" % path)
    return table


def load_sentiment(path):
    """word -> score, one pair per line."""
    table = {}
    for number, parts in _rows(path):
        if len(parts) != 2:
            raise LexiconError("%s line %d: expected a word and a score, got "
                               "%d fields" % (path, number, len(parts)))
        table[parts[0]] = _finite(path, number, parts[1:])[0]
    return table


def load_stopwords(path):
    """The whitespace-separated words of a stopwords file."""
    return frozenset(w for _, words in _rows(path) for w in words)


def build_lexicons(corpus, word_vectors, sentiment, stopwords=frozenset(),
                   rows=None):
    """idf table and vocabulary size from the training discussions `rows`
    of a `corpus.Corpus` (by default, all of them).

    Documents are every post and every comment; idf = log(D / (1 + df)).
    df counts one unique (document, token id) pair per document.
    """
    if rows is None:
        rows = np.arange(len(corpus.ids))
    title = corpus.title[rows]
    comments = ranges(title + 2, title + 2 + corpus.sizes[rows])[1]
    # each post joins its title and body
    docs = np.concatenate([title, comments])
    ends = np.concatenate([title + 2, comments + 1])
    vocabulary = corpus.texts.vocabulary
    df = corpus.texts.document_frequency(docs, ends)
    n_docs = max(1, len(docs))
    seen = np.flatnonzero(df)
    idf = {vocabulary[k]: math.log(n_docs / (1 + n))
           for k, n in zip(seen.tolist(), df[seen].tolist())}
    return Lexicons(idf=idf, word_vectors=dict(word_vectors),
                    sentiment=dict(sentiment), stopwords=frozenset(stopwords),
                    vocab_size=max(1, len(seen)))


# ------------------------------------------------------------------ content

TEXT_WIDTH = len(CONTENT_NAMES) + len(SURFACE_NAMES)


class TermTables(NamedTuple):
    """A lexicon's tables over the token ids of a `text.Texts`: what
    `text_rows` reads. A token outside a table reads 0 there."""
    idf: np.ndarray
    in_idf: np.ndarray     # bool
    score: np.ndarray      # sentiment
    vectors: np.ndarray    # (V, d_w) word vectors
    in_vectors: np.ndarray
    long: np.ndarray       # longer than six characters
    vocab_size: int


def term_tables(lexicons, vocabulary):
    """`TermTables` of `lexicons` for the tokens of `vocabulary`, by id."""
    if lexicons.vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    idf, vectors = lexicons.idf, lexicons.word_vectors
    rows = np.zeros((len(vocabulary), lexicons.d_w))
    for k, t in enumerate(vocabulary):
        if t in vectors:
            rows[k] = vectors[t]

    def per_id(value, dtype=float):
        return np.array([value(t) for t in vocabulary], dtype=dtype)

    return TermTables(per_id(lambda t: idf.get(t, 0.0)),
                      per_id(idf.__contains__, bool),
                      per_id(lambda t: lexicons.sentiment.get(t, 0.0)),
                      rows, per_id(vectors.__contains__, bool),
                      per_id(lambda t: len(t) > 6, bool),
                      lexicons.vocab_size)


def text_rows(records, tables, depth, seconds):
    """The content and surface columns, then the latent vector, of every
    record of a `text.Records` batch: an (R, TEXT_WIDTH + d_w) array, with
    `tables` the lexicon's `TermTables`. `depth` and `seconds` give each
    record's tree depth and seconds since the post.

    Counts are integer sums. Each float sum adds a record's terms one at a
    time, in order of first occurrence, from +0.0 (`np.bincount` adds in
    index order): the additions, and their order, of a loop over one text's
    terms, so a row does not depend on the rest of the batch. A term
    outside a table adds +0.0 or -0.0, which changes no sum.
      avg_tfidf     mean of tf * idf over the terms in the idf table
      lix           |w|/|s| + 100 * |words longer than six|/|w|
      term_entropy  (1/|T|) * sum of tf * (log|T| - log tf)
      polarity      score sum, positive and negative counts over the terms
      latent        (1/|C|) * sum of tf * idf * vector over the |C| terms
                    with a word vector (idf 0 outside the table)
    """
    R = len(records.sentences)
    record, k = records.record, records.ids
    tf = records.tf.astype(float)

    def count(weights):
        return np.bincount(record, weights, minlength=R)

    # per distinct count, with the logs from `math`, as in a loop over terms
    log_v = math.log(tables.vocab_size)
    counts = np.flatnonzero(np.bincount(records.tf))
    entropy = np.zeros(counts[-1] + 1 if len(counts) else 0)
    entropy[counts] = [f * (log_v - math.log(f)) for f in counts.tolist()]
    weight = tf * tables.idf[k]
    score = tables.score[k]
    n_words = count(tf)
    n_idf = count(tables.in_idf[k])
    n_vec = count(tables.in_vectors[k])
    latent = np.zeros((R, tables.vectors.shape[1]))
    for column, vector in zip(latent.T, tables.vectors.T):
        column[:] = count(weight * vector[k])

    n_sent = records.sentences.astype(float)
    out = np.empty((R, TEXT_WIDTH + latent.shape[1]))
    out[:, 0] = np.where(n_idf > 0, count(weight) / np.maximum(n_idf, 1), 0.0)
    out[:, 1] = np.where(n_words > 0, n_words / np.maximum(n_sent, 1)
                         + 100.0 * count(tf * tables.long[k])
                         / np.maximum(n_words, 1), 0.0)
    out[:, 2] = count(entropy[records.tf]) / tables.vocab_size
    out[:, 3] = count(score)
    out[:, 4] = count(score > 0)
    out[:, 5] = count(score < 0)
    out[:, 6] = n_sent
    out[:, 7] = np.where(n_sent > 0, n_words / np.maximum(n_sent, 1), 0.0)
    out[:, 8] = records.urls
    out[:, 9] = depth
    out[:, 10] = seconds
    out[:, 11] = records.closing
    out[:, TEXT_WIDTH:] = latent / np.maximum(n_vec, 1)[:, None]
    return out


# tables for the formulas that read none, or only one
_NO_TABLES = Lexicons(idf={}, word_vectors={}, sentiment={},
                      stopwords=frozenset(), vocab_size=1)


def _text_row(text, lexicons, depth=0, seconds_since_post=0):
    """`text_rows` of one text."""
    texts = Texts([text])
    return text_rows(texts.join([0], [1]),
                     term_tables(lexicons, texts.vocabulary), [depth],
                     [seconds_since_post])[0]


def lix(text):
    """|w|/|s| + 100*|cw|/|w| with cw = words longer than six characters."""
    return float(_text_row(text, _NO_TABLES)[1])


def term_entropy(text, vocab_size):
    """(1/|T|) * sum over text terms of tf * (log|T| - log tf)."""
    return float(_text_row(text, replace(_NO_TABLES,
                                         vocab_size=vocab_size))[2])


def polarity(text, sentiment):
    """(score sum, positive count, negative count) over unique in-table
    terms, summed in order of first occurrence."""
    row = _text_row(text, replace(_NO_TABLES, sentiment=sentiment))
    return float(row[3]), int(row[4]), int(row[5])


# ------------------------------------------------------------------- layout

@dataclass(frozen=True)
class FeatureLayout:
    """Ordered (name, size) feature blocks; the fixed column contract."""
    blocks: tuple

    @property
    def width(self):
        return sum(s for _, s in self.blocks)

    def slice_of(self, name):
        pos = 0
        for block, size in self.blocks:
            if block == name:
                return slice(pos, pos + size)
            pos += size
        raise KeyError(name)

    def has(self, name):
        return any(b == name for b, _ in self.blocks)

    def without(self, name):
        kept = tuple((b, s) for b, s in self.blocks if b != name)
        if len(kept) == len(self.blocks):
            raise KeyError(name)
        return FeatureLayout(kept)


def comment_layout(d_w, d):
    return FeatureLayout((("content", 6), ("surface", 6),
                          ("latent", d_w), ("user", d)))


def post_layout(d_w, d):
    return FeatureLayout((("content", 6), ("surface", 6),
                          ("latent", d_w), ("user", d), ("title", d_w)))


# ----------------------------------------------------------------- featurize

def _text_block(text, lexicons, depth, seconds_since_post):
    """The content then the surface features of one text."""
    return _text_row(text, lexicons, depth, seconds_since_post)[:TEXT_WIDTH]


def _user_block(author, embedding):
    if embedding is not None and author in embedding.index:
        return embedding.vector(author)
    d = embedding.dim if embedding is not None else 0
    return np.zeros(d)


def featurize_comment(comment, discussion, lexicons, embedding):
    return np.concatenate([
        _text_row(comment.text, lexicons, comment.depth,
                  comment.timestamp - discussion.post.timestamp),
        _user_block(comment.author, embedding),
    ])


def featurize_post(discussion, lexicons, embedding, title_vec):
    post = discussion.post
    return np.concatenate([
        _text_row(post.title + " " + post.body, lexicons),
        _user_block(post.author, embedding),
        np.asarray(title_vec, dtype=float),
    ])


# ------------------------------------------------------------------ ablation

def ablate(X, layout, group, mode, n_train, rngs=None, valid=None):
    """Drop a feature group's columns, or fill them with Gaussian noise
    matching the training rows.

    `X` has the feature columns on its last axis and one row per
    discussion on axis 0, the `n_train` training rows first. `valid`
    (shape X.shape[:-1], default all true) marks the vectors that hold
    data; only those feed the statistics and receive noise. Noise mode
    draws training and test noise from the two generators in `rngs`.
    Returns (new_X, new_layout).
    """
    if not layout.has(group):
        raise KeyError("unknown feature group %r" % group)
    sl = layout.slice_of(group)
    if mode == "drop":
        return np.delete(X, sl, axis=-1), layout.without(group)
    if mode != "noise":
        raise ValueError("unknown ablation mode %r" % mode)
    if valid is None:
        valid = np.ones(X.shape[:-1], dtype=bool)
    ref = X[:n_train][valid[:n_train]][:, sl]
    mean, std = ref.mean(axis=0), ref.std(axis=0)
    out = np.array(X, dtype=float)
    for part, keep, rng in zip((out[:n_train], out[n_train:]),
                               (valid[:n_train], valid[n_train:]), rngs):
        part[keep, sl] = rng.normal(mean, std, size=(int(keep.sum()), len(mean)))
    return out, layout
