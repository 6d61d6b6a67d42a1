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


def diagnostics(records, cluster_model, embedding, out_prefix):
    """Emit the diagnostic CSV bundle; returns summary correlations.

    `records` is a list of per-step dicts with keys: discussion_id, step,
    engaged_clusters (list), pred (0/1 list), truth (0/1 list),
    v_true, v_pred and g_inv (n x (d+1)).
    """
    n = cluster_model.n
    member_vecs = _members_by_cluster(cluster_model, embedding)
    entropy_rows, growth_rows, dist_rows = [], [], []
    for rec in records:
        pred = np.asarray(rec["pred"], dtype=int)
        truth = np.asarray(rec["truth"], dtype=int)
        # per-window accuracy = 1 - per-window hamming loss
        accuracy = float(np.mean(pred == truth))
        if rec["engaged_clusters"]:
            h = homogeneity_entropy(rec["engaged_clusters"], n)
            entropy_rows.append((rec["discussion_id"], rec["step"], h, accuracy))
        if rec["v_true"] != 0:
            err = abs(rec["v_true"] - rec["v_pred"]) / abs(rec["v_true"]) * 100.0
            growth_rows.append((rec["discussion_id"], rec["step"],
                                rec["v_true"], err))
        g_inv = rec.get("g_inv")
        if g_inv is not None:
            for l in range(n):
                if len(member_vecs[l]) < 2:
                    continue
                eu, md = _intra_distances(member_vecs[l], g_inv[l])
                dist_rows.append((rec["discussion_id"], rec["step"], l, eu, md))

    with open(out_prefix + "_entropy.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        # accuracy = per-window complement of the hamming loss
        wr.writerow(["discussion_id", "step", "entropy", "accuracy"])
        wr.writerows(entropy_rows)
    with open(out_prefix + "_growth.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["discussion_id", "step", "v_true", "relative_error_pct"])
        wr.writerows(growth_rows)
    with open(out_prefix + "_distance.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["discussion_id", "step", "cluster",
                     "euclidean_mean", "metric_mean"])
        wr.writerows(dist_rows)

    summary = {}
    if len(entropy_rows) >= 2:
        summary["entropy_accuracy_pearson"] = pearson(
            [r[2] for r in entropy_rows], [r[3] for r in entropy_rows])
    if len(growth_rows) >= 2:
        summary["growth_error_pearson"] = pearson(
            [r[2] for r in growth_rows], [r[3] for r in growth_rows])
    return summary


def _members_by_cluster(cluster_model, embedding):
    members = {l: [] for l in range(cluster_model.n)}
    for uid in sorted(cluster_model.assignment):
        if uid in embedding.index:
            members[cluster_model.assignment[uid]].append(embedding.vector(uid))
    return members


def _intra_distances(member_vecs, g_inv_row):
    """Mean pairwise member distances, flat vs learned metric.

    Members share the window's time coordinate, so the time component of
    every difference vector is zero; only spatial components matter.
    """
    V = np.asarray(member_vecs, dtype=float)
    a, b = np.triu_indices(len(V), k=1)
    sq = (V[a] - V[b]) ** 2
    eu = np.sqrt(sq.sum(axis=1))
    md = np.sqrt((sq / np.asarray(g_inv_row, dtype=float)[1:]).sum(axis=1))
    return float(eu.mean()), float(md.mean())
