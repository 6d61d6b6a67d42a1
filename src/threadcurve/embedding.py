"""Global user embedding: factorize log(1 + A) into vectors and biases.

The objective, over unordered nonzero pairs of the co-occurrence matrix:

    J = sum log(1+A_ij) * (v_i . v_j + b_i + b_j - log(1+A_ij))^2
"""

from __future__ import annotations

import numpy as np

from .optim import ParameterStore, fit
from .storage import TableError, read_table


class EmbeddingModel:
    def __init__(self, user_ids, vectors, biases):
        self.user_ids = list(user_ids)
        self.index = {u: k for k, u in enumerate(self.user_ids)}
        self.vectors = np.asarray(vectors, dtype=float)
        self.biases = np.asarray(biases, dtype=float)

    @property
    def dim(self):
        return self.vectors.shape[1]

    def vector(self, user_id):
        return self.vectors[self.index[user_id]]

    def save(self, path):
        with open(path, "w") as fh:
            for k, uid in enumerate(self.user_ids):
                cols = " ".join("%.17g" % c for c in self.vectors[k])
                fh.write("%s %s %.17g\n" % (uid, cols, self.biases[k]))

    @classmethod
    def load(cls, path):
        user_ids, rows = read_table(path, True)
        if rows.shape[1] == 1:
            raise TableError("%s holds one value per user: a row needs a "
                             "vector and a bias" % path)
        # the bias is each row's last value; an empty file gives no rows
        return cls(user_ids, rows[:, :-1], rows[:, -1:].ravel())


def _pair_arrays(A):
    ii, jj, values = A.arrays()
    if not len(values):
        raise ValueError("empty co-occurrence matrix")
    return ii, jj, np.log1p(values)


def guvec_loss_and_grad(vectors, biases, ii, jj, logw):
    """Loss and exact analytic gradients over unordered nonzero pairs."""
    residual = (np.einsum("kd,kd->k", vectors[ii], vectors[jj])
                + biases[ii] + biases[jj] - logw)
    loss = float(np.sum(logw * residual ** 2))
    coeff = 2.0 * logw * residual
    grad_v = np.zeros_like(vectors)
    grad_b = np.zeros_like(biases)
    np.add.at(grad_v, ii, coeff[:, None] * vectors[jj])
    np.add.at(grad_v, jj, coeff[:, None] * vectors[ii])
    np.add.at(grad_b, ii, coeff)
    np.add.at(grad_b, jj, coeff)
    return loss, grad_v, grad_b


def train_guvec(A, user_ids, d, seed=0, lr=0.05, epochs=30, return_losses=False):
    """Fit user vectors and biases with Adam; deterministic per seed."""
    if d <= 0:
        raise ValueError("embedding dimension must be positive")
    rng = np.random.default_rng(seed)
    n = len(user_ids)
    vectors = rng.uniform(-0.5 / d, 0.5 / d, size=(n, d))
    biases = np.zeros(n)
    ii, jj, logw = _pair_arrays(A)

    store = ParameterStore()
    store.register("vectors", vectors)
    store.register("biases", biases)

    def loss(s, _):
        value, gv, gb = guvec_loss_and_grad(
            s.get("vectors"), s.get("biases"), ii, jj, logw)
        s.set_grad("vectors", gv)
        s.set_grad("biases", gb)
        return value

    losses = fit(store, [None], loss, epochs, lr)
    model = EmbeddingModel(user_ids, store.get("vectors"), store.get("biases"))
    if return_losses:
        return model, losses
    return model
