"""Multi-label metrics, growth-rate error, AUC and diagnostic bundles."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .clustering import homogeneity_entropy


@dataclass
class MultiLabelReport:
    hamming_loss: float
    micro_f1: float
    macro_f1: float
    subset_01: float

    def as_dict(self):
        return {"hamming_loss": self.hamming_loss, "micro_f1": self.micro_f1,
                "macro_f1": self.macro_f1, "subset_01": self.subset_01}


def multilabel_metrics(pred, truth):
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if pred.shape != truth.shape:
        raise ValueError("prediction/truth shape mismatch")
    m, L = pred.shape

    hamming = float(np.mean(pred != truth))

    inter = int(np.sum(pred & truth))
    denom = int(pred.sum() + truth.sum())
    micro = 2.0 * inter / denom if denom else 0.0

    per_label = []
    for k in range(L):
        d = int(pred[:, k].sum() + truth[:, k].sum())
        if d == 0:
            per_label.append(0.0)  # 0/0 convention
        else:
            per_label.append(2.0 * int(np.sum(pred[:, k] & truth[:, k])) / d)
    macro = float(np.mean(per_label))

    subset = float(np.mean(np.any(pred != truth, axis=1)))
    return MultiLabelReport(hamming, micro, macro, subset)


@dataclass
class GrowthErrorReport:
    per_step: list       # relative % errors over included steps
    mean_error: float
    excluded_zero_truth: int


def growth_error(pred, truth):
    """Relative %-error |v_true - v_pred| / |v_true| * 100 per step.

    Steps with zero truth are excluded and counted.
    """
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError("prediction/truth length mismatch")
    keep = truth != 0
    excluded = int(np.sum(~keep))
    if not np.any(keep):
        raise ValueError("all steps have zero truth")
    errs = np.abs(truth[keep] - pred[keep]) / np.abs(truth[keep]) * 100.0
    return GrowthErrorReport(per_step=errs.tolist(),
                             mean_error=float(errs.mean()),
                             excluded_zero_truth=excluded)


def auc(scores, labels):
    """P(random positive outscores random negative), ties 1/2: the
    Mann-Whitney U of average ranks, over the number of pairs."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels, dtype=int) == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    # 1-based rank of each score; tied scores share their mean rank
    s = np.sort(scores)
    ranks = (np.searchsorted(s, scores, "left")
             + np.searchsorted(s, scores, "right") + 1) / 2.0
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def pearson(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x - x.mean(), y - y.mean()
    denom = np.sqrt((xm ** 2).sum() * (ym ** 2).sum())
    if denom == 0:
        return 0.0
    return float((xm * ym).sum() / denom)


def diagnostics(scores, cluster_model, embedding, out_prefix):
    """Emit the diagnostic CSV bundle; returns summary correlations.

    `scores` holds one row per scored step: discussion_id, step, decision
    and truth (0/1, (R, n)), v_true, y2 (the growth estimate), g_inv
    (R, n, d+1) and engaged_counts (R, n), the comments before the step
    by cluster.
    """
    did, step = scores["discussion_id"], scores["step"]
    # per-window accuracy = 1 - per-window hamming loss
    accuracy = np.mean(scores["decision"] == scores["truth"], axis=1)
    counts = scores["engaged_counts"]
    engaged = np.flatnonzero(counts.sum(axis=1))
    entropy = [homogeneity_entropy(row) for row in counts[engaged]]
    v_true, v_pred = scores["v_true"], scores["y2"]
    grown = np.flatnonzero(v_true != 0)
    error = (np.abs(v_true[grown] - v_pred[grown]) / np.abs(v_true[grown])
             * 100.0)
    members = _members_by_cluster(cluster_model, embedding)
    g_inv = scores["g_inv"]
    dist = [(l,) + _intra_distances(members[l], g_inv[:, l])
            for l in range(cluster_model.n) if len(members[l]) >= 2]

    def write(name, header, rows):
        with open(out_prefix + name, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            wr.writerows(rows)
    write("_entropy.csv", ["discussion_id", "step", "entropy", "accuracy"],
          zip(did[engaged].tolist(), step[engaged].tolist(), entropy,
              accuracy[engaged].tolist()))
    write("_growth.csv",
          ["discussion_id", "step", "v_true", "relative_error_pct"],
          zip(did[grown].tolist(), step[grown].tolist(),
              v_true[grown].tolist(), error.tolist()))
    write("_distance.csv", ["discussion_id", "step", "cluster",
                            "euclidean_mean", "metric_mean"],
          ((d, s, l, eu, md[r])
           for r, (d, s) in enumerate(zip(did.tolist(), step.tolist()))
           for l, eu, md in dist))

    summary = {}
    if len(entropy) >= 2:
        summary["entropy_accuracy_pearson"] = pearson(entropy,
                                                      accuracy[engaged])
    if grown.size >= 2:
        summary["growth_error_pearson"] = pearson(v_true[grown], error)
    return summary


def _members_by_cluster(cluster_model, embedding):
    members = {l: [] for l in range(cluster_model.n)}
    for uid in sorted(cluster_model.assignment):
        if uid in embedding.index:
            members[cluster_model.assignment[uid]].append(embedding.vector(uid))
    return members


def _intra_distances(member_vecs, g_inv):
    """Mean pairwise member distances: the flat one, and the learned one
    under each row of the inverse metrics g_inv (R, d+1).

    Members share the window's time coordinate, so the time component of
    every difference vector is zero; only spatial components matter. The
    member differences are computed once and reduced one row at a time,
    so memory stays at one (pairs, d) block.
    """
    V = np.asarray(member_vecs, dtype=float)
    a, b = np.triu_indices(len(V), k=1)
    sq = (V[a] - V[b]) ** 2
    eu = np.sqrt(sq.sum(axis=1))
    md = [float(np.sqrt((sq / g[1:]).sum(axis=1)).mean()) for g in g_inv]
    return float(eu.mean()), md
