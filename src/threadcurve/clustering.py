"""K-means over the user embedding plus spacetime center construction."""

from __future__ import annotations

import math

import numpy as np

from .storage import TableError, read_table

T_CAP_SECONDS = 30 * 86400  # cap for the log-compressed time coordinate
MAX_ITER = 100  # Lloyd iterations at most
TOL = 1e-6      # stop once no center moves farther than this


class ClusterModel:
    def __init__(self, centers, assignment):
        self.centers = np.asarray(centers, dtype=float)
        self.assignment = dict(assignment)

    @property
    def n(self):
        return self.centers.shape[0]

    def save(self, assignments_path, centers_path):
        with open(assignments_path, "w") as fh:
            for uid in sorted(self.assignment):
                fh.write("%s %d\n" % (uid, self.assignment[uid]))
        with open(centers_path, "w") as fh:
            for row in self.centers:
                fh.write(" ".join("%.17g" % c for c in row) + "\n")

    @classmethod
    def load(cls, assignments_path, centers_path):
        centers = read_table(centers_path, False)[1]
        if not len(centers):
            raise TableError("%s holds no cluster centre" % centers_path)
        users, labels = read_table(assignments_path, True, (len(centers),),
                                   "a user name and a cluster")
        return cls(centers, zip(users, labels[:, 0].astype(int).tolist()))


def _kmeans_pp_init(X, n, rng):
    centers = np.empty((n, X.shape[1]))
    centers[0] = X[rng.integers(len(X))]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for k in range(1, n):
        total = d2.sum()
        if total <= 0:
            idx = rng.integers(len(X))
        else:
            idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random()))
            idx = min(idx, len(X) - 1)
        centers[k] = X[idx]
        d2 = np.minimum(d2, np.sum((X - centers[k]) ** 2, axis=1))
    return centers


def kmeans(model, n, seed=0):
    """Lloyd iterations with k-means++ seeding on the embedding vectors.

    Empty clusters are re-seeded from the point farthest from its center.
    Deterministic for a fixed seed; returns a ClusterModel.
    """
    X = model.vectors
    if n > len(X):
        raise ValueError("n=%d exceeds number of embedded users (%d)" % (n, len(X)))
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(X, n, rng)
    labels = None
    prev_inertia = None
    for _ in range(MAX_ITER):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(len(X)), labels].sum())
        if prev_inertia is not None:
            assert inertia <= prev_inertia + 1e-9
        prev_inertia = inertia
        new_centers = centers.copy()
        for k in range(n):
            members = X[labels == k]
            if len(members) == 0:
                dist_to_own = d2[np.arange(len(X)), labels]
                new_centers[k] = X[int(np.argmax(dist_to_own))]
            else:
                new_centers[k] = members.mean(axis=0)
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if shift <= TOL:
            break
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    assignment = {uid: int(labels[k]) for k, uid in enumerate(model.user_ids)}
    return ClusterModel(centers, assignment)


def time_coordinate(elapsed_seconds):
    """Bounded log-compressed elapsed time in [0, 1]."""
    if elapsed_seconds <= 0:
        return 0.0
    return min(1.0, math.log1p(elapsed_seconds) / math.log1p(T_CAP_SECONDS))


def spacetime_centers(cm, elapsed):
    """The n x (d+1) time-prepended centers of every prediction step, an
    (..., n, d+1) array from the (...) seconds each step has seen.

    Step i observes the post plus windows 1..i; its time coordinate is the
    log-compressed span from the post to the last observed comment
    (step 0, or no comment yet: tau = 0).
    """
    elapsed = np.asarray(elapsed)
    tau = np.array([time_coordinate(s) for s in elapsed.ravel().tolist()])
    n, d = cm.centers.shape
    out = np.empty(elapsed.shape + (n, d + 1))
    out[..., 0] = tau.reshape(elapsed.shape + (1,))
    out[..., 1:] = cm.centers
    return out


def homogeneity_entropy(counts):
    """Shannon entropy of cluster membership among engaged users, from
    the number of engaged users in each cluster."""
    counts = np.asarray(counts)
    if not counts.sum():
        raise ValueError("no engaged users")
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())
