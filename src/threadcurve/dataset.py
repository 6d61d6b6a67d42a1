"""Assemble model-ready instances from corpus artifacts.

Every post and comment is tokenized once per run into integer token ids
(`features.DiscussionTexts`), and the idf table counts from those ids. Text
features then come from one array pass, `features.text_rows`, per chunk of
discussions. It covers three kinds of text record: every post, every
windowed comment and, for logreg, the prefix before every valid step (the
post and the comments of the windows before it). A prefix is the
concatenated id stream of its texts (`text.Texts.join`), so nothing is
tokenized again. The per-step arrays (window means, labels, growth, logreg's
social blocks) are array operations over the chunk's comment positions.
"""

from __future__ import annotations

import math

import numpy as np

from . import features as F
from . import logreg
from .clustering import spacetime_centers
from .cooccur import title_vectors
from .corpus import windowize
from .text import ranges

CHUNK = 128  # discussions per array pass; bounds the records held at once


def _chunks(discussions):
    for start in range(0, len(discussions), CHUNK):
        yield start, discussions[start:start + CHUNK]


def _post_rows(discussions, text_rows, embedding, tvecs):
    """x1 rows: each post's text row, its author's vector (zeros when the
    author is not embedded) and its title vector."""
    users = np.zeros((len(discussions), embedding.dim))
    for r, disc in enumerate(discussions):
        users[r] = F._user_block(disc.post.author, embedding)
    return np.concatenate([text_rows, users,
                           [tvecs[disc.id] for disc in discussions]], axis=1)


def _tables(discussions, lexicons, texts):
    """The run's tokenized texts (by default, `discussions`' own) and the
    lexicon's tables over their ids, built once per run."""
    if texts is None:
        texts = F.DiscussionTexts(discussions)
    return texts, F.term_tables(lexicons, texts.texts.vocabulary)


def build_temporal_dataset(discussions, w, N, lexicons, embedding,
                           cluster_model, texts=None):
    """Returns (pack, post_layout, comment_layout).

    `pack` maps each model input to an array with one row per discussion:
    the inputs of the curvature model and the Newtonian baseline, logreg's
    prefix features per (step, cluster) and, per step, how many of the
    comments before it came from each cluster. Steps whose window is empty
    keep zero labels, growth and logreg features, and a false mask.
    `texts` is the discussions' `features.DiscussionTexts`, if the run has
    tokenized them already.
    """
    d = embedding.dim
    post_layout = F.post_layout(lexicons.d_w, d)
    comment_layout = F.comment_layout(lexicons.d_w, d)
    tvecs = title_vectors(discussions, lexicons.word_vectors, lexicons.idf,
                          lexicons.stopwords)
    texts, tables = _tables(discussions, lexicons, texts)
    n, D = cluster_model.n, len(discussions)
    pack = {
        "x1": np.zeros((D, post_layout.width)),
        "x2": np.zeros((D, N, comment_layout.width)),
        "centers": np.zeros((D, N, n, d + 1)),
        "labels": np.zeros((D, N, n)),
        "mask": np.zeros((D, N), dtype=bool),
        "growth": np.zeros((D, N)),
        "user_vectors": np.zeros((D, N * w, d)),
        "user_mask": np.zeros((D, N * w), dtype=bool),
        "logreg_features": np.zeros((D, N, n, logreg.feature_width(d))),
        "engaged_counts": np.zeros((D, N, n)),
    }
    for start, chunk in _chunks(discussions):
        rows = {key: value[start:start + len(chunk)]
                for key, value in pack.items()}
        rows["x1"][:] = _fill_steps(rows, chunk, texts, tables, w, N,
                                    embedding, cluster_model, tvecs)
        for r, disc in enumerate(chunk):
            rows["centers"][r] = spacetime_centers(cluster_model,
                                                   windowize(disc, w, N))
    return pack, post_layout, comment_layout


def _fill_steps(rows, chunk, texts, tables, w, N, embedding, cluster_model,
                tvecs):
    """Fill the per-step and per-comment rows of a chunk of discussions (a
    view of the pack), and return their x1 rows.

    Comment j of a discussion lies in window j // w, and a window is valid
    when it holds a comment; the step before window k is valid with it. A
    valid window's label is 1 for each cluster with an assigned author among
    its comments: the clusters whose running count it raises. Cluster
    indices are 0-based."""
    B, n = len(chunk), cluster_model.n
    comments = [disc.comments[:N * w] for disc in chunk]
    flat = [c for cs in comments for c in cs]
    m = np.array([len(cs) for cs in comments], dtype=np.intp)
    steps = -(-m // w)                          # valid steps of each
    owner, j = ranges(np.zeros(B), m)           # every windowed comment
    step_owner, k = ranges(np.zeros(B), steps)  # every valid step
    step = step_owner * N + k
    first = np.cumsum(m)[step_owner] - m[step_owner] + k * w  # of its window
    size = np.minimum(w, m[step_owner] - k * w)

    # text rows: posts, comments, then the prefix before each step, with
    # the depth of its deepest comment and the seconds of its last one
    post = np.array([texts.first[disc.id] for disc in chunk], dtype=np.intp)
    depth = np.zeros((B, N * w), dtype=np.intp)
    depth[owner, j] = [c.depth for c in flat]
    times = np.array([c.timestamp for c in flat], dtype=np.intp)
    seconds = times - np.array([d.post.timestamp for d in chunk])[owner]
    prefix = np.flatnonzero(k)
    prefix_depth = np.zeros(len(k), dtype=np.intp)
    prefix_depth[prefix] = np.maximum.accumulate(depth, axis=1)[
        step_owner[prefix], k[prefix] * w - 1]
    prefix_seconds = np.zeros(len(k), dtype=np.intp)
    prefix_seconds[prefix] = seconds[first[prefix] - 1]
    text = F.text_rows(
        texts.texts.join(np.concatenate([post, post[owner] + 1 + j,
                                         post[step_owner]]),
                         np.concatenate([post + 1, post[owner] + 2 + j,
                                         post[step_owner] + 1 + k * w])),
        tables, np.concatenate([np.zeros(B), depth[owner, j], prefix_depth]),
        np.concatenate([np.zeros(B), seconds, prefix_seconds]))

    # per comment: its author's vector, if embedded, and cluster
    authors = [c.author for c in flat]
    user = np.array([embedding.index.get(a, -1) for a in authors],
                    dtype=np.intp)
    cluster = np.array([cluster_model.assignment.get(a, -1) for a in authors],
                       dtype=np.intp)
    vectors = np.zeros((len(flat), embedding.dim))
    vectors[user >= 0] = embedding.vectors[user[user >= 0]]
    rows["user_vectors"][owner, j] = vectors
    rows["user_mask"][owner, j] = user >= 0

    # per valid window: np.mean of its rows adds them one at a time from
    # +0.0, in order, then divides by the count
    sums = np.zeros((len(k), rows["x2"].shape[-1]))
    np.add.at(sums, np.cumsum(steps)[owner] - steps[owner] + j // w,
              np.concatenate([text[B:B + len(flat)], vectors], axis=1))
    rows["x2"][step_owner, k] = sums / size[:, None]
    rows["mask"][step_owner, k] = True
    dt = np.maximum(1, times[first + size - 1] - times[first])
    rows["growth"][step_owner, k] = [math.log(v) for v in
                                     (1.0 + size / dt).tolist()]
    engaged = np.zeros((B, N, n))
    assigned = cluster >= 0
    np.add.at(engaged, (owner[assigned], j[assigned] // w, cluster[assigned]),
              1)
    rows["labels"][:] = engaged > 0
    rows["engaged_counts"][:] = np.cumsum(engaged, axis=1) - engaged
    rows["logreg_features"][step_owner, k, :, :F.TEXT_WIDTH] = text[
        B + len(flat):, None, :F.TEXT_WIDTH]
    rows["logreg_features"][step_owner, k, :, F.TEXT_WIDTH:] = (
        logreg.social_blocks(chunk, step_owner, k * w, cluster_model,
                             embedding))
    return _post_rows(chunk, text[:B], embedding, tvecs)


def build_nontemporal_dataset(discussions, lexicons, embedding, texts=None):
    """Returns (pack, post_layout): post features and the binary label
    (any comment at all), one row per discussion. `texts` is as for
    `build_temporal_dataset`."""
    post_layout = F.post_layout(lexicons.d_w, embedding.dim)
    tvecs = title_vectors(discussions, lexicons.word_vectors, lexicons.idf,
                          lexicons.stopwords)
    texts, tables = _tables(discussions, lexicons, texts)
    x1 = np.zeros((len(discussions), post_layout.width))
    for start, chunk in _chunks(discussions):
        post = np.array([texts.first[disc.id] for disc in chunk],
                        dtype=np.intp)
        zeros = np.zeros(len(chunk))
        text = F.text_rows(texts.texts.join(post, post + 1), tables, zeros,
                           zeros)
        x1[start:start + len(chunk)] = _post_rows(chunk, text, embedding,
                                                  tvecs)
    pack = {
        "x1": x1,
        "label": np.array([1.0 if d.comments else 0.0 for d in discussions]),
    }
    return pack, post_layout


def unstack(arrays, rows):
    """One dict per row r in `rows`: every array's row r (`ids` aside)."""
    return [{key: value[r] for key, value in arrays.items() if key != "ids"}
            for r in rows]


def standardize_instances(train, test, keys):
    """Z-score the stacked rows (..., f) of each key with per-column
    statistics over every training row.

    Raw feature scales span orders of magnitude (readability vs. counts vs.
    probabilities) and saturate the downstream squashing layers; per-dimension
    standardization fixes the conditioning. Embedding-space inputs
    (user_vectors, centers) stay raw: they are positions, not features.
    """
    for key in keys:
        X = train[key]
        if not len(X):
            continue
        flat = X.reshape(-1, X.shape[-1])
        mu = flat.mean(axis=0)
        sd = flat.std(axis=0)
        sd[sd < 1e-8] = 1.0
        train[key] = (X - mu) / sd
        test[key] = (test[key] - mu) / sd
    return train, test


def holdout_count(total, holdout_fraction):
    """How many of `total` instances the split holds out: at least one."""
    return max(1, int(round(holdout_fraction * total)))


def split_dataset(instances, holdout_fraction, seed):
    """Deterministic shuffled split into (train, test)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(instances))
    n_test = holdout_count(len(instances), holdout_fraction)
    test_idx = set(order[:n_test].tolist())
    train = [inst for k, inst in enumerate(instances) if k not in test_idx]
    test = [inst for k, inst in enumerate(instances) if k in test_idx]
    return train, test
