"""Assemble model-ready instances from corpus artifacts.

Text features come from one array pass, `features.text_rows`, per chunk of
discussions. It covers three kinds of text record: every post, every
windowed comment and, for logreg, the prefix before every valid step (the
post and the comments of the windows before it). A prefix record is the
last one merged with one window's records (`text.merge_stats`), so no text
is tokenized twice.
"""

from __future__ import annotations

import numpy as np

from . import features as F
from . import logreg
from .clustering import spacetime_centers
from .cooccur import title_vectors
from .corpus import growth_target, windowize
from .text import merge_stats, text_stats

CHUNK = 128  # discussions per array pass; bounds the records held at once


def _chunks(discussions):
    for start in range(0, len(discussions), CHUNK):
        yield start, discussions[start:start + CHUNK]


def _post_text(disc):
    return text_stats(disc.post.title + " " + disc.post.body)


def _post_row(disc, text_row, embedding, tvec):
    return np.concatenate([text_row, F._user_block(disc.post.author,
                                                   embedding), tvec])


def _temporal_records(disc, w, N):
    """A discussion's text records with the depth and the seconds since the
    post of each: the post, its first N*w comments, then one prefix per
    valid step."""
    comments = disc.comments[:N * w]
    records = [_post_text(disc)] + [text_stats(c.text) for c in comments]
    depth = [0] + [c.depth for c in comments]
    seconds = [0] + [c.timestamp - disc.post.timestamp for c in comments]
    prefix = records[0]
    for k in range(0, len(comments), w):  # the step before comment k
        if k:
            prefix = merge_stats([prefix] + records[k - w + 1:k + 1])
        records.append(prefix)
        depth.append(max(depth[:k + 1]))
        seconds.append(seconds[k])
    return records, depth, seconds


def build_temporal_dataset(discussions, w, N, lexicons, embedding,
                           cluster_model):
    """Returns (pack, post_layout, comment_layout).

    `pack` maps each model input to an array with one row per discussion:
    the inputs of the curvature model and the Newtonian baseline, logreg's
    prefix features per (step, cluster) and, per step, how many of the
    comments before it came from each cluster. Steps whose window is empty
    keep zero labels, growth and logreg features, and a false mask.
    """
    d = embedding.dim
    post_layout = F.post_layout(lexicons.d_w, d)
    comment_layout = F.comment_layout(lexicons.d_w, d)
    tvecs = title_vectors(discussions, lexicons.word_vectors, lexicons.idf,
                          lexicons.stopwords)
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
        records, depth, seconds, sizes = [], [], [], []
        for disc in chunk:
            more = _temporal_records(disc, w, N)
            records += more[0]
            depth += more[1]
            seconds += more[2]
            sizes.append(len(more[0]))
        rows = F.text_rows(records, lexicons, depth, seconds)
        for r, disc, text in zip(range(start, D), chunk,
                                 np.split(rows, np.cumsum(sizes)[:-1])):
            pack["x1"][r] = _post_row(disc, text[0], embedding,
                                      tvecs[disc.id])
            _fill_steps(pack, r, disc, text, w, N, embedding, cluster_model)
    return pack, post_layout, comment_layout


def _fill_steps(pack, r, disc, text, w, N, embedding, cluster_model):
    """Row r of every per-step and per-comment array of a temporal pack,
    from the discussion's text rows (`_temporal_records` order).

    A valid window's label is 1 for each cluster with an assigned author
    among its comments: the clusters whose running count it raises.
    Cluster indices are 0-based."""
    assignment, n = cluster_model.assignment, cluster_model.n
    wd = windowize(disc, w, N)
    comments = disc.comments[:N * w]
    m = len(comments)
    for pos, c in enumerate(comments):
        if c.author in embedding.index:
            pack["user_vectors"][r, pos] = embedding.vector(c.author)
            pack["user_mask"][r, pos] = True
    comment_rows = np.concatenate([text[1:m + 1],
                                   pack["user_vectors"][r, :m]], axis=1)
    seen = np.zeros(n)
    for k, win in enumerate(wd.windows):
        pack["engaged_counts"][r, k] = seen
        for c in win.comments:
            if c.author in assignment:
                seen[assignment[c.author]] += 1
        if not win.valid:
            continue
        # np.mean of the stacked rows adds them row by row, in window order
        pack["x2"][r, k] = np.mean(
            comment_rows[k * w:k * w + win.actual_count], axis=0)
        pack["labels"][r, k] = seen > pack["engaged_counts"][r, k]
        pack["mask"][r, k] = True
        pack["growth"][r, k] = growth_target(win)[1]
    steps = range(0, m, w)
    logreg_rows = pack["logreg_features"][r, :len(steps)]
    logreg_rows[..., :F.TEXT_WIDTH] = text[m + 1:, None, :F.TEXT_WIDTH]
    logreg_rows[..., F.TEXT_WIDTH:] = logreg.social_blocks(
        disc, steps, cluster_model, embedding)
    pack["centers"][r] = spacetime_centers(cluster_model, wd)


def build_nontemporal_dataset(discussions, lexicons, embedding):
    """Returns (pack, post_layout): post features and the binary label
    (any comment at all), one row per discussion."""
    post_layout = F.post_layout(lexicons.d_w, embedding.dim)
    tvecs = title_vectors(discussions, lexicons.word_vectors, lexicons.idf,
                          lexicons.stopwords)
    x1 = np.zeros((len(discussions), post_layout.width))
    for start, chunk in _chunks(discussions):
        zeros = [0] * len(chunk)
        rows = F.text_rows([_post_text(disc) for disc in chunk], lexicons,
                           zeros, zeros)
        for r, (disc, row) in enumerate(zip(chunk, rows), start):
            x1[r] = _post_row(disc, row, embedding, tvecs[disc.id])
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
