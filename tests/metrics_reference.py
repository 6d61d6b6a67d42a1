"""The diagnostic distances one inverse-metric row at a time: the
reference that the row-blocked `metrics._intra_distances` is tested
against."""

import numpy as np


def intra_distances(member_vecs, g_inv):
    """Mean pairwise member distances: the flat one, and the learned one
    under each row of the inverse metrics g_inv (R, d+1), whose time
    component is left out."""
    V = np.asarray(member_vecs, dtype=float)
    a, b = np.triu_indices(len(V), k=1)
    sq = (V[a] - V[b]) ** 2
    eu = np.sqrt(sq.sum(axis=1))
    md = [float(np.sqrt((sq / g[1:]).sum(axis=1)).mean()) for g in g_inv]
    return float(eu.mean()), md
