"""The logistic baseline's fit one unit at a time: the reference that the
stacked fit (`logreg.fit_binary`) is tested against. Each unit runs its
own full-batch Adam through `optim.fit`, with the two-log BCE."""

import numpy as np

from threadcurve.curvature import sigmoid
from threadcurve.logreg import EPOCHS, LR
from threadcurve.optim import ParameterStore, fit


def logreg_loss(store, X, y, l2):
    """Mean BCE + l2 penalty of one unit; fills store gradients."""
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


def fit_unit(X, y, l2=1e-4):
    """(w, b, epoch losses) of one unit, rows X (m, f), labels y (m,)."""
    store = ParameterStore()
    store.register("w", np.zeros(X.shape[1]))
    store.register("b", np.zeros(1))
    losses = fit(store, [(X, y)], lambda s, batch: logreg_loss(s, *batch, l2),
                 EPOCHS, LR)
    return store.get("w").copy(), float(store.get("b")[0]), losses
