"""Logistic-regression engagement baseline.

Per-cluster binary classifiers over aggregated prefix features: merged-text
content/surface block plus a per-cluster social block (mean member vector
and mean reply-graph degree of the cluster's engaged users).
"""

from __future__ import annotations

import numpy as np

from .corpus import Corpus
from .curvature import sigmoid
from .features import TEXT_WIDTH, _text_block
from .optim import OptimError, ParameterStore, fit
from .text import ranges

# full-batch Adam settings of every logistic unit
EPOCHS = 300
LR = 0.1


def feature_width(d):
    """Length of `aggregate_step_features` for a d-dimensional embedding."""
    return TEXT_WIDTH + d + 1


def social_blocks(corpus, discussions, owner, ends, cluster_model,
                  embedding):
    """The social blocks (len(ends), n, d + 1) of the prefixes of
    `corpus.Corpus` discussions `discussions[owner[j]]` that hold their
    first `ends[j]` comments, with `owner` ascending.

    Row l of a block holds the mean member vector of cluster l's engaged
    users (its users among the prefix's authors, added in name order) and
    their mean degree in the prefix's reply graph. An edge between two
    authors counts from the first prefix that holds both of its comments,
    as a parent can come later in time order than its reply.
    """
    n, d = cluster_model.n, embedding.dim
    discussions = np.asarray(discussions, dtype=np.intp)
    owner = np.asarray(owner, dtype=np.intp)
    ends = np.asarray(ends, dtype=np.intp)
    top = np.zeros(len(discussions), dtype=np.intp)
    np.maximum.at(top, owner, ends)
    # every comment a prefix can hold: its discussion, its author's code
    # and its parent's position (-1 for the post, -2 for none); author
    # codes sort as names do
    disc, k, at = corpus.comments(discussions, top)
    author, parent = corpus.author[at], corpus.parent[at]
    parent = np.where(parent < top[disc], parent, -2)
    poster = corpus.post_author[discussions]
    U = len(corpus.authors)
    cluster = corpus.codes(cluster_model.assignment)
    row = corpus.codes(embedding.index)
    first = np.searchsorted(disc, np.arange(len(discussions)))

    def groups(at, user, held):
        """(item, row * n + cluster) of every prefix row that holds an item:
        user `user` of discussion `at`, held by prefixes of `held` comments
        or more."""
        item, j = ranges(np.searchsorted(owner, at),
                         np.searchsorted(owner, at, "right"))
        keep = ends[j] >= held[item]
        return item[keep], j[keep] * n + cluster[user[item[keep]]]

    # engaged users: a prefix holds one from its first comment on
    engaged = np.flatnonzero(cluster[author] >= 0)
    users, at = np.unique(disc[engaged] * U + author[engaged],
                          return_index=True)
    at = engaged[at]  # by discussion, then name
    member, group = groups(disc[at], author[at], k[at] + 1)
    count = np.bincount(group, minlength=len(ends) * n)
    sums = np.zeros((len(ends) * n, d))
    np.add.at(sums, group, embedding.vectors[row[author[at[member]]]])

    # each side of a reply edge between two authors, counted from the first
    # prefix that holds both comments and its user's first one
    edge = np.flatnonzero(parent >= -1)
    replied = np.where(parent[edge] >= 0,
                       author[first[disc[edge]] + np.maximum(parent[edge], 0)],
                       poster[disc[edge]])
    mutual = author[edge] != replied
    edge, replied = edge[mutual], replied[mutual]
    side_disc = np.tile(disc[edge], 2)
    side_user = np.concatenate([author[edge], replied])
    side_key = side_disc * U + side_user
    known = np.isin(side_key, users)
    held = np.maximum(np.tile(np.maximum(k[edge], parent[edge]) + 1, 2)[known],
                      k[at[np.searchsorted(users, side_key[known])]] + 1)
    degree = np.bincount(groups(side_disc[known], side_user[known], held)[1],
                         minlength=len(ends) * n)

    out = np.zeros((len(ends) * n, d + 1))
    has = count > 0
    # np.mean's additions: one member at a time from +0.0, then the count
    out[has, :-1] = sums[has] / count[has, None]
    out[has, -1] = degree[has] / count[has]
    return out.reshape(len(ends), n, d + 1)


def aggregate_step_features(prefix, cluster_model, lexicons, embedding):
    """Feature rows (n, width) of a discussion cut at a step, one per
    cluster; `prefix` holds the post and the comments before the step.

    Content/surface blocks come from the merged text of the post and the
    prefix comments, and every row shares them; the social block of row l
    is `social_blocks`' for the whole prefix.
    """
    merged = prefix.post.title + " " + prefix.post.body
    for c in prefix.comments:
        merged += " " + c.text
    depth = max((c.depth for c in prefix.comments), default=0)
    out = np.zeros((cluster_model.n, feature_width(embedding.dim)))
    out[:, :TEXT_WIDTH] = _text_block(merged, lexicons, depth,
                                      prefix.t_end - prefix.t_start)
    out[:, TEXT_WIDTH:] = social_blocks(Corpus.of([prefix]), [0], [0],
                                        [len(prefix.comments)],
                                        cluster_model, embedding)[0]
    return out


def logreg_loss(store, X, y, l2):
    """Mean BCE + l2 penalty; fills store gradients. Returns the loss."""
    w = store.get("w")
    b = store.get("b")[0]
    p = sigmoid(X @ w + b)
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
                 + l2 * (np.dot(w, w) + b * b))
    resid = (p - y) / len(y)
    store.set_grad("w", X.T @ resid + 2 * l2 * w)
    store.set_grad("b", np.array([resid.sum() + 2 * l2 * b]))
    return loss


def fit_binary(X, y, l2=1e-4):
    """Fit one logistic unit by full-batch Adam from zero weights; returns
    (w, b, epoch losses)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) == 0:
        raise OptimError("empty training set")
    store = ParameterStore()
    store.register("w", np.zeros(X.shape[1]))
    store.register("b", np.zeros(1))
    losses = fit(store, [(X, y)], lambda s, batch: logreg_loss(s, *batch, l2),
                 EPOCHS, LR)
    return store.get("w").copy(), float(store.get("b")[0]), losses


def predict_proba(model, x):
    """Engagement probability per cluster of every (..., n, f) row, from a
    `train_temporal` model."""
    z = np.matmul(x[..., None, :], model["weights"][..., None])[..., 0, 0]
    return sigmoid(z + model["Biases"])


def train_temporal(per_cluster_data):
    """per_cluster_data: list (length n) of (X, y) arrays. Returns the
    model, {"weights": (n, f), "Biases": (n,)}, and each epoch's loss
    averaged over the clusters."""
    weights, biases, losses = zip(*(fit_binary(X, y)
                                    for X, y in per_cluster_data))
    return ({"weights": np.stack(weights), "Biases": np.array(biases)},
            np.mean(losses, axis=0).tolist())
