"""Assemble model-ready instances from the corpus store.

`ingest` tokenizes every title, body and comment once into integer token
ids (`corpus.Corpus`), and the idf table counts from those ids. Text
features then come from one array pass, `features.text_rows`, per chunk of
discussions. It covers three kinds of text record: every post (its title
and body), every windowed comment and, for logreg, the prefix before every
valid step (the post and the comments of the windows before it). A record
is the concatenated id stream of its texts (`text.Texts.join`), so nothing
is tokenized again. The per-step arrays (window means, cluster counts,
growth, elapsed seconds, logreg's social blocks) are array operations over
the chunk's comment positions; `model_arrays` rebuilds the model inputs.
"""

from __future__ import annotations

import math

import numpy as np

from . import features as F
from . import logreg
from .clustering import spacetime_centers
# benchmark/tracing.py counts calls to `windowize` under this name; the
# windows are array positions here, so the count reads 0
from .corpus import windowize  # noqa: F401
from .text import ranges, title_rows

CHUNK = 128  # discussions per array pass; bounds the records held at once


def _inputs(corpus, rows, lexicons, embedding):
    """The pack's discussions (`rows`, by default every one), the
    lexicon's tables over the store's token ids, the title vector of each
    pack row and the embedding row of each author code (-1 for none)."""
    if rows is None:
        rows = np.arange(len(corpus.ids))
    rows = np.asarray(rows, dtype=np.intp)
    tvecs = title_rows(corpus.texts, corpus.title[rows],
                       lexicons.word_vectors, lexicons.idf,
                       lexicons.stopwords)
    return (rows, F.term_tables(lexicons, corpus.texts.vocabulary), tvecs,
            corpus.codes(embedding.index))


def _chunks(rows):
    for start in range(0, len(rows), CHUNK):
        yield slice(start, start + CHUNK), rows[start:start + CHUNK]


def _user_vectors(embedding, user):
    """The embedding's rows `user`, zeros where a row is -1."""
    return np.vstack([embedding.vectors, np.zeros(embedding.dim)])[user]


def _post_rows(corpus, chunk, text_rows, embedding, users, tvecs):
    """x1 rows: each post's text row, its author's vector (zeros when the
    author is not embedded) and its title vector."""
    vectors = _user_vectors(embedding, users[corpus.post_author[chunk]])
    return np.concatenate([text_rows, vectors, tvecs], axis=1)


def build_temporal_dataset(corpus, w, N, lexicons, embedding, cluster_model,
                           rows=None):
    """Returns (pack, post_layout, comment_layout) of the discussions
    `rows` of a `corpus.Corpus`, by default every one, in that order.

    `pack` holds each fact once, one row per discussion: x1, x2, the valid
    steps' `mask` and `growth`, each windowed comment's author's embedding
    row (`users`, -1 for none), the seconds each step has seen (`elapsed`),
    each window's comments per cluster (`engaged`) and logreg's prefix text
    (`prefix_text`) and social blocks (`social`). Empty windows keep zeros.
    """
    post_layout = F.post_layout(lexicons.d_w, embedding.dim)
    comment_layout = F.comment_layout(lexicons.d_w, embedding.dim)
    rows, tables, tvecs, users = _inputs(corpus, rows, lexicons, embedding)
    d, n, D = embedding.dim, cluster_model.n, len(rows)
    pack = {
        "x1": np.zeros((D, post_layout.width)),
        "x2": np.zeros((D, N, comment_layout.width)),
        "mask": np.zeros((D, N), dtype=bool),
        "growth": np.zeros((D, N)),
        "users": np.full((D, N * w), -1, dtype=np.int32),
        "elapsed": np.zeros((D, N), dtype=np.int64),
        "engaged": np.zeros((D, N, n)),
        "prefix_text": np.zeros((D, N, F.TEXT_WIDTH)),
        "social": np.zeros((D, N, n, d + 1)),
    }
    for part, chunk in _chunks(rows):
        view = {key: value[part] for key, value in pack.items()}
        view["x1"][:] = _fill_steps(view, corpus, chunk, tables, w, N,
                                    embedding, users, cluster_model,
                                    tvecs[part])
    return pack, post_layout, comment_layout


def _fill_steps(rows, corpus, chunk, tables, w, N, embedding, users,
                cluster_model, tvecs):
    """Fill the per-step and per-comment rows of the discussions `chunk`
    (a view of the pack), and return their x1 rows.

    Comment j of a discussion lies in window j // w, and a window is valid
    when it holds a comment; the step before window k is valid with it. A
    window's `engaged` row counts its comments by the cluster of their
    author, if assigned. Cluster indices are 0-based."""
    B, n = len(chunk), cluster_model.n
    owner, j, at = corpus.comments(chunk, N * w)  # every windowed comment
    m = np.minimum(corpus.sizes[chunk], N * w)
    steps = -(-m // w)                          # valid steps of each
    step_owner, k = ranges(np.zeros(B), steps)  # every valid step
    before = np.cumsum(m) - m                   # of each one's comments
    first = before[step_owner] + k * w          # of each step's window
    size = np.minimum(w, m[step_owner] - k * w)

    # text rows: posts, comments, then the prefix before each step, with
    # the depth of its deepest comment and the seconds of its last one
    post = corpus.title[chunk]
    depth = np.zeros((B, N * w), dtype=np.intp)
    depth[owner, j] = corpus.depth[at]
    times = corpus.time[at]
    seconds = times - corpus.post_time[chunk][owner]
    prefix = np.flatnonzero(k)
    prefix_depth = np.zeros(len(k), dtype=np.intp)
    prefix_depth[prefix] = np.maximum.accumulate(depth, axis=1)[
        step_owner[prefix], k[prefix] * w - 1]
    prefix_seconds = np.zeros(len(k), dtype=np.intp)
    prefix_seconds[prefix] = seconds[first[prefix] - 1]
    text = F.text_rows(
        corpus.texts.join(np.concatenate([post, post[owner] + 2 + j,
                                          post[step_owner]]),
                          np.concatenate([post + 2, post[owner] + 3 + j,
                                          post[step_owner] + 2 + k * w])),
        tables, np.concatenate([np.zeros(B), depth[owner, j], prefix_depth]),
        np.concatenate([np.zeros(B), seconds, prefix_seconds]))

    # per comment: its author's vector, if embedded, and cluster
    user = users[corpus.author[at]]
    cluster = corpus.codes(cluster_model.assignment)[corpus.author[at]]
    vectors = _user_vectors(embedding, user)
    rows["users"][owner, j] = user

    # per valid window: np.mean of its rows adds them one at a time from
    # +0.0, in order, then divides by the count
    sums = np.zeros((len(k), rows["x2"].shape[-1]))
    np.add.at(sums, np.cumsum(steps)[owner] - steps[owner] + j // w,
              np.concatenate([text[B:B + len(at)], vectors], axis=1))
    rows["x2"][step_owner, k] = sums / size[:, None]
    rows["mask"][step_owner, k] = True
    dt = np.maximum(1, times[first + size - 1] - times[first])
    rows["growth"][step_owner, k] = [math.log(v) for v in
                                     (1.0 + size / dt).tolist()]
    assigned = cluster >= 0
    np.add.at(rows["engaged"], (owner[assigned], j[assigned] // w,
                                cluster[assigned]), 1)
    rows["prefix_text"][step_owner, k] = text[B + len(at):, :F.TEXT_WIDTH]
    rows["social"][step_owner, k] = logreg.social_blocks(
        corpus, chunk, step_owner, k * w, cluster_model, embedding)

    # step i sees the post and the windows before it: its time is the
    # seconds from the post to the last comment it sees, if any
    seen = np.minimum(m[:, None], np.arange(N) * w)
    last = np.append(seconds, 0)[before[:, None] + seen - 1]
    rows["elapsed"][:] = np.where(seen > 0, last, 0)
    return _post_rows(corpus, chunk, text[:B], embedding, users, tvecs)


def model_arrays(pack, embedding, cluster_model):
    """The model inputs of a temporal `pack`, gathered and broadcast from
    its values, the embedding and the centres: per step the spacetime
    centres, labels (clusters with a comment in its window), comments per
    cluster before it and logreg's (cluster, feature) rows; per comment
    position its author's vector and whether it has one."""
    users, engaged, social = pack["users"], pack["engaged"], pack["social"]
    text = np.repeat(pack["prefix_text"][:, :, None], social.shape[2], axis=2)
    return dict(
        {key: pack[key] for key in ("x1", "x2", "mask", "growth")},
        centers=spacetime_centers(cluster_model, pack["elapsed"]),
        labels=(engaged > 0).astype(float),
        engaged_counts=np.cumsum(engaged, axis=1) - engaged,
        user_vectors=_user_vectors(embedding, users), user_mask=users >= 0,
        logreg_features=np.concatenate([text, social], axis=-1))


def build_nontemporal_dataset(corpus, lexicons, embedding, rows=None):
    """Returns (pack, post_layout): post features and the binary label
    (any comment at all), one row per discussion of `rows`, as for
    `build_temporal_dataset`."""
    post_layout = F.post_layout(lexicons.d_w, embedding.dim)
    rows, tables, tvecs, users = _inputs(corpus, rows, lexicons, embedding)
    x1 = np.zeros((len(rows), post_layout.width))
    for part, chunk in _chunks(rows):
        post = corpus.title[chunk]
        zeros = np.zeros(len(chunk))
        text = F.text_rows(corpus.texts.join(post, post + 2), tables, zeros,
                           zeros)
        x1[part] = _post_rows(corpus, chunk, text, embedding, users,
                              tvecs[part])
    pack = {"x1": x1, "label": (corpus.sizes[rows] > 0).astype(float)}
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
