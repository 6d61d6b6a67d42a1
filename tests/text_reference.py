"""The text features one text at a time, as plain Python loops over its
terms: the reference that the array passes (`text.Texts`,
`features.text_rows`) and the pack assembly are tested against. Logreg's
prefix features come from the merged string of the prefix and a walk over
its reply edges, and the other per-step arrays of the pack from a walk
over a discussion's windows."""

import math
import re
from collections import Counter
from typing import NamedTuple

import numpy as np

from threadcurve.clustering import time_coordinate
from cooccur_reference import reply_edges, tokenize
from threadcurve.corpus import growth_target, windowize

_SENTENCE_RE = re.compile(r"[.!?]+")
_URL_RE = re.compile(r"https?://\S+|www\.\S+")


class TextStats(NamedTuple):
    """What every text formula reads of one text: the fields of its
    `text.Texts` record, with its terms as (token, tf) pairs."""
    pairs: tuple      # (token, tf) in order of first occurrence
    sentences: int
    urls: int
    closing: int      # closing marks . ! ?
    head: bool
    tail: bool


def count_closing_punct(text):
    """Closing marks . ! ? in a text."""
    return text.count(".") + text.count("!") + text.count("?")


def text_stats(text):
    """The record of one text, from its chunks between closing marks."""
    closing = count_closing_punct(text)
    chunks = [chunk.strip() for chunk in _SENTENCE_RE.split(text)]
    return TextStats(tuple(Counter(tokenize(text)).items()),
                     sum(map(bool, chunks)), len(_URL_RE.findall(text)),
                     closing, bool(chunks[0]), bool(chunks[-1]))


def sentences(text):
    """Non-empty sentence chunks, split on closing punctuation . ! ?"""
    return [s for s in (p.strip() for p in re.split(r"[.!?]+", text)) if s]


def avg_tfidf(text, lexicons):
    scored = [(tf * lexicons.idf[t]) for t, tf in text_stats(text).pairs
              if t in lexicons.idf]
    if not scored:
        return 0.0
    return float(sum(scored) / len(scored))


def lix(text):
    record = text_stats(text)
    n_words = sum(tf for _, tf in record.pairs)
    if not n_words:
        return 0.0
    long_words = sum(tf for t, tf in record.pairs if len(t) > 6)
    return n_words / max(1, record.sentences) + 100.0 * long_words / n_words


def term_entropy(text, vocab_size):
    acc = sum(tf * (math.log(vocab_size) - math.log(tf))
              for _, tf in text_stats(text).pairs)
    return acc / vocab_size


def polarity(text, sentiment):
    total, pos, neg = 0.0, 0, 0
    for t, _ in text_stats(text).pairs:
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
    in_vocab = [(t, tf) for t, tf in text_stats(text).pairs
                if t in lexicons.word_vectors]
    acc = np.zeros(lexicons.d_w)
    if not in_vocab:
        return acc
    for t, tf in in_vocab:
        acc += tf * lexicons.idf.get(t, 0.0) * lexicons.word_vectors[t]
    return acc / len(in_vocab)


def text_block(text, lexicons, depth, seconds_since_post):
    """The content then the surface columns of one text."""
    record = text_stats(text)
    n_sent = record.sentences
    n_words = sum(tf for _, tf in record.pairs)
    pol, pos, neg = polarity(text, lexicons.sentiment)
    return [avg_tfidf(text, lexicons), lix(text),
            term_entropy(text, lexicons.vocab_size), pol, float(pos),
            float(neg), float(n_sent), n_words / n_sent if n_sent else 0.0,
            float(record.urls), float(depth), float(seconds_since_post),
            float(record.closing)]


def text_row(text, lexicons, depth=0, seconds_since_post=0):
    """What `features.text_rows` gives for one text."""
    return np.concatenate([text_block(text, lexicons, depth,
                                      seconds_since_post),
                           latent_vector(text, lexicons)])


def aggregate_step_features(prefix, cluster_model, lexicons, embedding):
    """Logreg's (n, width) rows of a prefix: the block of its merged text,
    then per cluster the mean vector and mean reply degree of its engaged
    users."""
    merged = prefix.post.title + " " + prefix.post.body
    for c in prefix.comments:
        merged += " " + c.text
    depth = max((c.depth for c in prefix.comments), default=0)
    shared = np.asarray(text_block(merged, lexicons, depth,
                                   prefix.t_end - prefix.t_start))
    degree = {}
    for child, parent in reply_edges(prefix):
        if child != parent:
            degree[child] = degree.get(child, 0) + 1
            degree[parent] = degree.get(parent, 0) + 1
    out = np.zeros((cluster_model.n, shared.size + embedding.dim + 1))
    out[:, :shared.size] = shared
    for cluster in range(cluster_model.n):
        engaged = sorted({c.author for c in prefix.comments
                          if cluster_model.assignment.get(c.author) == cluster})
        if engaged:
            out[cluster, shared.size:-1] = np.mean(
                [embedding.vector(u) for u in engaged], axis=0)
            out[cluster, -1] = np.mean([degree.get(u, 0) for u in engaged])
    return out


def spacetime_centers(cluster_model, windowed):
    """Per step of a windowed discussion, the (n, d+1) centres after the
    time coordinate of the span from the post to the last comment the step
    has seen (the post's own time at step 0)."""
    post_t = windowed.discussion.post.timestamp
    n, d = cluster_model.centers.shape
    out = np.empty((windowed.N, n, d + 1))
    last_seen = post_t
    for i in range(windowed.N):
        if i > 0 and windowed.windows[i - 1].valid:
            last_seen = windowed.windows[i - 1].comments[-1].timestamp
        out[i, :, 0] = time_coordinate(last_seen - post_t)
        out[i, :, 1:] = cluster_model.centers
    return out


def step_rows(discussion, w, N, embedding, cluster_model):
    """A discussion's pack rows other than the text features: per comment
    position its author's vector and whether it has one, and per step the
    comments before it from each cluster, the clusters its window raises,
    whether the window is valid, its growth and the spacetime centres."""
    assignment, n = cluster_model.assignment, cluster_model.n
    windowed = windowize(discussion, w, N)
    out = {"user_vectors": np.zeros((N * w, embedding.dim)),
           "user_mask": np.zeros(N * w, dtype=bool),
           "engaged_counts": np.zeros((N, n)), "labels": np.zeros((N, n)),
           "mask": np.zeros(N, dtype=bool), "growth": np.zeros(N),
           "centers": spacetime_centers(cluster_model, windowed)}
    for pos, c in enumerate(discussion.comments[:N * w]):
        if c.author in embedding.index:
            out["user_vectors"][pos] = embedding.vector(c.author)
            out["user_mask"][pos] = True
    seen = np.zeros(n)
    for k, window in enumerate(windowed.windows):
        out["engaged_counts"][k] = seen
        for c in window.comments:
            if c.author in assignment:
                seen[assignment[c.author]] += 1
        if window.valid:
            out["labels"][k] = seen > out["engaged_counts"][k]
            out["mask"][k] = True
            out["growth"][k] = growth_target(window)[1]
    return out
