"""Content, surface, latent-semantic and user features for posts and comments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusError
from .text import idf_table, text_stats, tokenize

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
        return len(next(iter(self.word_vectors.values())))


class LexiconError(CorpusError):
    """A word-vector or sentiment file that cannot be read; the message
    names the file and the line."""


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
    with open(path) as fh:
        return frozenset(w.strip() for w in fh if w.strip())


def build_lexicons(discussions, word_vectors, sentiment, stopwords=frozenset()):
    """idf table and vocabulary size from the training corpus.

    Documents are every post and every comment; idf = log(D / (1 + df)).
    """
    docs = []
    for d in discussions:
        docs.append(tokenize(d.post.title + " " + d.post.body))
        for c in d.comments:
            docs.append(tokenize(c.text))
    return Lexicons(idf=idf_table(docs), word_vectors=dict(word_vectors),
                    sentiment=dict(sentiment), stopwords=frozenset(stopwords),
                    vocab_size=max(1, len(set().union(*docs))))


# ------------------------------------------------------------------ content

def avg_tfidf(text, lexicons):
    scored = [(tf * lexicons.idf[t]) for t, tf in text_stats(text)[0]
              if t in lexicons.idf]
    if not scored:
        return 0.0
    return float(sum(scored) / len(scored))


def lix(text):
    """|w|/|s| + 100*|cw|/|w| with cw = words longer than six characters."""
    pairs, n_sent = text_stats(text)[:2]
    n_words = sum(tf for _, tf in pairs)
    if not n_words:
        return 0.0
    long_words = sum(tf for t, tf in pairs if len(t) > 6)
    return n_words / max(1, n_sent) + 100.0 * long_words / n_words


def term_entropy(text, vocab_size):
    """(1/|T|) * sum over text terms of tf * (log|T| - log tf)."""
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    acc = sum(tf * (math.log(vocab_size) - math.log(tf))
              for _, tf in text_stats(text)[0])
    return acc / vocab_size


def polarity(text, sentiment):
    """(score sum, positive count, negative count) over unique in-table
    terms, summed in order of first occurrence."""
    total, pos, neg = 0.0, 0, 0
    for t, _ in text_stats(text)[0]:
        score = sentiment.get(t)
        if score is None:
            continue
        total += score
        if score > 0:
            pos += 1
        elif score < 0:
            neg += 1
    return total, pos, neg


def latent_vector(text, lexicons):
    """(1/|C|) * sum of tf-idf weighted word vectors over unique terms."""
    in_vocab = [(t, tf) for t, tf in text_stats(text)[0]
                if t in lexicons.word_vectors]
    acc = np.zeros(lexicons.d_w)
    if not in_vocab:
        return acc
    for t, tf in in_vocab:
        acc += tf * lexicons.idf.get(t, 0.0) * lexicons.word_vectors[t]
    return acc / len(in_vocab)


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
    pairs, n_sent, n_urls, n_closing = text_stats(text)
    n_words = sum(tf for _, tf in pairs)
    pol, pos, neg = polarity(text, lexicons.sentiment)
    return [avg_tfidf(text, lexicons), lix(text),
            term_entropy(text, lexicons.vocab_size), pol, float(pos),
            float(neg), float(n_sent), n_words / n_sent if n_sent else 0.0,
            float(n_urls), float(depth), float(seconds_since_post),
            float(n_closing)]


def _user_block(author, embedding):
    if embedding is not None and author in embedding.index:
        return embedding.vector(author)
    d = embedding.dim if embedding is not None else 0
    return np.zeros(d)


def featurize_comment(comment, discussion, lexicons, embedding):
    text = comment.text
    parts = [
        _text_block(text, lexicons, comment.depth,
                    comment.timestamp - discussion.post.timestamp),
        latent_vector(text, lexicons),
        _user_block(comment.author, embedding),
    ]
    return np.concatenate(parts)


def featurize_post(discussion, lexicons, embedding, title_vec):
    post = discussion.post
    text = post.title + " " + post.body
    parts = [
        _text_block(text, lexicons, 0, 0),
        latent_vector(text, lexicons),
        _user_block(post.author, embedding),
        np.asarray(title_vec, dtype=float),
    ]
    return np.concatenate(parts)


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
