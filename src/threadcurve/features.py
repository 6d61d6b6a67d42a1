"""Content, surface, latent-semantic and user features for posts and comments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .text import (count_closing_punct, count_urls, idf_table, sentences,
                   tokenize)

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


def load_word_vectors(path):
    table = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts:
                table[parts[0]] = np.array([float(x) for x in parts[1:]])
    return table


def load_sentiment(path):
    table = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) >= 2:
                table[parts[0]] = float(parts[1])
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
    tokens = tokenize(text)
    counts = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    scored = [(tf * lexicons.idf[t]) for t, tf in counts.items() if t in lexicons.idf]
    if not scored:
        return 0.0
    return float(sum(scored) / len(scored))


def lix(text):
    """|w|/|s| + 100*|cw|/|w| with cw = words longer than six characters."""
    words = tokenize(text)
    if not words:
        return 0.0
    sents = sentences(text)
    n_sent = max(1, len(sents))
    long_words = sum(1 for w in words if len(w) > 6)
    return len(words) / n_sent + 100.0 * long_words / len(words)


def term_entropy(text, vocab_size):
    """(1/|T|) * sum over text terms of tf * (log|T| - log tf)."""
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    counts = {}
    for t in tokenize(text):
        counts[t] = counts.get(t, 0) + 1
    acc = sum(tf * (math.log(vocab_size) - math.log(tf)) for tf in counts.values())
    return acc / vocab_size


def polarity(text, sentiment):
    """(score sum, positive count, negative count) over unique in-table terms."""
    terms = set(tokenize(text))
    total, pos, neg = 0.0, 0, 0
    for t in terms:
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
    counts = {}
    for t in tokenize(text):
        counts[t] = counts.get(t, 0) + 1
    in_vocab = [t for t in counts if t in lexicons.word_vectors]
    if not in_vocab:
        return np.zeros(lexicons.d_w)
    acc = np.zeros(lexicons.d_w)
    for t in in_vocab:
        w = counts[t] * lexicons.idf.get(t, 0.0)
        acc += w * lexicons.word_vectors[t]
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

def _content_block(text, lexicons):
    pol, pos, neg = polarity(text, lexicons.sentiment)
    return [avg_tfidf(text, lexicons), lix(text),
            term_entropy(text, lexicons.vocab_size), pol, float(pos), float(neg)]


def _surface_block(text, depth, seconds_since_post):
    sents = sentences(text)
    words = tokenize(text)
    n_sent = len(sents)
    avg_words = len(words) / n_sent if n_sent else 0.0
    return [float(n_sent), avg_words, float(count_urls(text)), float(depth),
            float(seconds_since_post), float(count_closing_punct(text))]


def _user_block(author, embedding):
    if embedding is not None and author in embedding.index:
        return embedding.vector(author)
    d = embedding.dim if embedding is not None else 0
    return np.zeros(d)


def featurize_comment(comment, discussion, lexicons, embedding):
    text = comment.text
    parts = [
        np.asarray(_content_block(text, lexicons)),
        np.asarray(_surface_block(text, comment.depth,
                                  comment.timestamp - discussion.post.timestamp)),
        latent_vector(text, lexicons),
        _user_block(comment.author, embedding),
    ]
    return np.concatenate(parts)


def featurize_post(discussion, lexicons, embedding, title_vec):
    post = discussion.post
    text = post.title + " " + post.body
    parts = [
        np.asarray(_content_block(text, lexicons)),
        np.asarray(_surface_block(text, 0, 0)),
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
