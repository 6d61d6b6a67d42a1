"""Logistic-regression engagement baseline.

Per-cluster binary classifiers over aggregated prefix features: merged-text
content/surface block plus a per-cluster social block (mean member vector
and mean reply-graph degree of the cluster's engaged users).
"""

from __future__ import annotations

import numpy as np

from .cooccur import reply_edges
from .curvature import sigmoid
from .features import CONTENT_NAMES, SURFACE_NAMES, _text_block
from .optim import OptimError, ParameterStore, fit

# full-batch Adam settings of every logistic unit
EPOCHS = 300
LR = 0.1


def feature_width(d):
    """Length of `aggregate_step_features` for a d-dimensional embedding."""
    return len(CONTENT_NAMES) + len(SURFACE_NAMES) + d + 1


def aggregate_step_features(prefix, cluster_model, lexicons, embedding):
    """Feature rows (n, width) of a discussion cut at a step, one per
    cluster; `prefix` holds the post and the comments before the step.

    Content/surface blocks come from the merged text of the post and the
    prefix comments, and every row shares them; the social block of row l
    holds the mean member vector of cluster l's engaged users and their
    mean degree in the prefix's reply graph.
    """
    merged = prefix.post.title + " " + prefix.post.body
    for c in prefix.comments:
        merged += " " + c.text
    depth = max((c.depth for c in prefix.comments), default=0)
    shared = np.asarray(_text_block(merged, lexicons, depth,
                                    prefix.t_end - prefix.t_start))
    degree = {}
    for child, parent in reply_edges(prefix):
        if child != parent:
            degree[child] = degree.get(child, 0) + 1
            degree[parent] = degree.get(parent, 0) + 1
    d = embedding.dim
    out = np.zeros((cluster_model.n, feature_width(d)))
    out[:, :shared.size] = shared
    for cluster in range(cluster_model.n):
        engaged = sorted({c.author for c in prefix.comments
                          if cluster_model.assignment.get(c.author) == cluster})
        if engaged:
            out[cluster, shared.size:-1] = np.mean(
                [embedding.vector(u) for u in engaged], axis=0)
            out[cluster, -1] = np.mean([degree.get(u, 0) for u in engaged])
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


class LogRegModel:
    """One weight vector per cluster (temporal) or a single unit."""

    def __init__(self, weights, biases):
        self.weights = np.asarray(weights, dtype=float)
        self.biases = np.asarray(biases, dtype=float)

    def predict_proba(self, x):
        """Engagement probability per cluster of every (..., n, f) row."""
        z = np.matmul(x[..., None, :], self.weights[..., None])[..., 0, 0]
        return sigmoid(z + self.biases)


def train_temporal(per_cluster_data):
    """per_cluster_data: list (length n) of (X, y) arrays. Returns the
    model and each epoch's loss averaged over the clusters."""
    weights, biases, losses = zip(*(fit_binary(X, y)
                                    for X, y in per_cluster_data))
    return (LogRegModel(np.stack(weights), np.array(biases)),
            np.mean(losses, axis=0).tolist())
