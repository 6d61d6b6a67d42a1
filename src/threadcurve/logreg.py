"""Logistic-regression engagement baseline.

Per-cluster binary classifiers over aggregated prefix features: merged-text
content/surface block plus a per-cluster social block (mean member vector
and mean reply-graph degree of the cluster's engaged users).
"""

from __future__ import annotations

import numpy as np

from .curvature import sigmoid
from .features import TEXT_WIDTH, _text_block
from .optim import OptimError, ParameterStore, fit

# full-batch Adam settings of every logistic unit
EPOCHS = 300
LR = 0.1


def feature_width(d):
    """Length of `aggregate_step_features` for a d-dimensional embedding."""
    return TEXT_WIDTH + d + 1


def social_blocks(discussion, ends, cluster_model, embedding):
    """The social blocks (len(ends), n, d + 1) of the prefixes
    comments[:e] of a discussion, for ascending ends e.

    Row l of a block holds the mean member vector of cluster l's engaged
    users (its users among the prefix's authors, in name order) and their
    mean degree in the prefix's reply graph. Degrees are running counts: an
    edge between two authors counts from the first prefix that holds both
    of its comments, as a parent can come later in time order than its
    reply.
    """
    post, comments = discussion.post, discussion.comments
    assignment, n = cluster_model.assignment, cluster_model.n
    position = {c.id: k for k, c in enumerate(comments)}
    edges = []  # (comments the prefix needs, child author, parent author)
    for k, c in enumerate(comments):
        if c.parent_id == post.id:
            need, parent = k + 1, post.author
        elif c.parent_id in position:
            j = position[c.parent_id]
            need, parent = max(k, j) + 1, comments[j].author
        else:
            continue
        if parent != c.author:
            edges.append((need, c.author, parent))
    edges.sort(key=lambda edge: edge[0])
    degree, engaged = {}, [set() for _ in range(n)]
    members = [[] for _ in range(n)]  # sorted engaged users, as last taken
    out = np.zeros((len(ends), n, embedding.dim + 1))
    added = start = 0
    for row, end in enumerate(ends):
        while added < len(edges) and edges[added][0] <= end:
            for author in edges[added][1:]:
                degree[author] = degree.get(author, 0) + 1
            added += 1
        for c in comments[start:end]:
            if c.author in assignment:
                engaged[assignment[c.author]].add(c.author)
        start = end
        for cluster, users in enumerate(engaged):
            if not users:
                continue
            if len(users) != len(members[cluster]):
                members[cluster] = sorted(users)
                mean = np.mean([embedding.vector(u)
                                for u in members[cluster]], axis=0)
            else:
                mean = out[row - 1, cluster, :-1]
            out[row, cluster, :-1] = mean
            # an exact integer sum over a count: np.mean's value
            out[row, cluster, -1] = (sum(degree.get(u, 0)
                                         for u in members[cluster])
                                     / len(users))
    return out


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
    out[:, TEXT_WIDTH:] = social_blocks(prefix, [len(prefix.comments)],
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
