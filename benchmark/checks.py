"""Output checks computed apart from the program.

Every expected value here is recomputed from the generated inputs and the
pipeline's own files (`discussions.jsonl`, the lexicon files,
`clusters.txt`, ...) with this module's code; nothing is compared against a
stored copy of an earlier run's output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from collections import Counter

import numpy as np

TOKEN_RE = re.compile(r"[a-z0-9]+")
REL_TOL = 1e-9          # co-occurrence entries
ANGLE_EPS = 1e-9        # title angles this close to theta0 may go either way
PRINT_HALF_ULP = 5e-7   # half a unit in the last place of a %.6f print
ATTRACT_CLASS = "attract"


class Results:
    """Named pass/fail results with a one-line detail each."""

    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.items)

    def lines(self):
        return ["check %-34s %s  %s" % (name, "PASS" if ok else "FAIL", detail)
                for name, ok, detail in self.items]


# ----------------------------------------------------------------- reading

def read_discussions(path):
    """Discussions as plain dicts, comments sorted by (timestamp, id)."""
    out = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                d = json.loads(line)
                d["comments"].sort(key=lambda c: (c["timestamp"], c["id"]))
                out.append(d)
    return out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_word_vectors(path):
    table = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts:
                table[parts[0]] = np.array([float(x) for x in parts[1:]])
    return table


def read_words(path):
    with open(path) as fh:
        return {w.strip() for w in fh if w.strip()}


def read_clusters(workdir):
    assignment = {}
    with open(os.path.join(workdir, "clusters.txt")) as fh:
        for line in fh:
            parts = line.split()
            if parts:
                assignment[parts[0]] = int(parts[1])
    centers = np.loadtxt(os.path.join(workdir, "centers.txt"), ndmin=2)
    return assignment, centers


def read_embedding(workdir):
    users, rows = [], []
    with open(os.path.join(workdir, "embeddings.txt")) as fh:
        for line in fh:
            parts = line.split()
            if parts:
                users.append(parts[0])
                rows.append([float(x) for x in parts[1:-1]])
    return users, np.array(rows)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tokens(text):
    return TOKEN_RE.findall(text.lower())


def embedded_users(discussions, min_discussions=2):
    """Users who posted or commented in at least `min_discussions`."""
    activity = Counter()
    for d in discussions:
        activity.update({c["author"] for c in d["comments"]}
                        | {d["post"]["author"]})
    return sorted(u for u, k in activity.items() if k >= min_discussions)


# ------------------------------------------------------------ co-occurrence

def _title_matrix(discussions, word_vectors, stopwords):
    """tf-idf weighted mean word vector per title, idf over titles."""
    df = Counter()
    for d in discussions:
        df.update(set(tokens(d["post"]["title"])))
    n_docs = max(1, len(discussions))
    dim = len(next(iter(word_vectors.values())))
    T = np.zeros((len(discussions), dim))
    for row, d in enumerate(discussions):
        tf = Counter(t for t in tokens(d["post"]["title"])
                     if t not in stopwords and t in word_vectors)
        if not tf:
            continue
        weights = np.array([k * math.log(n_docs / (1 + df[t]))
                            for t, k in tf.items()])
        vecs = np.array([word_vectors[t] for t in tf])
        pos = weights > 0
        if pos.any():
            T[row] = weights[pos] @ vecs[pos] / weights[pos].sum()
        else:
            T[row] = vecs.mean(axis=0)
    return T


def _semantic(discussions, T, index, theta0):
    """User-pair increments from kept and from ambiguous title pairs, and
    the counts of skipped, kept and ambiguous title pairs."""
    D, U = len(discussions), len(index)
    norms = np.linalg.norm(T, axis=1)
    nonzero = norms > 0
    unit = T / np.where(nonzero, norms, 1.0)[:, None]
    angle = np.arccos(np.clip(unit @ unit.T, -1.0, 1.0))
    upper = np.triu(np.ones((D, D), dtype=bool), k=1)
    valid = upper & nonzero[:, None] & nonzero[None, :]
    skipped = int(upper.sum() - valid.sum())
    keep = valid & (angle <= theta0 - ANGLE_EPS)
    ambiguous = valid & (np.abs(angle - theta0) <= ANGLE_EPS)
    B = np.zeros((D, U))
    for row, d in enumerate(discussions):
        for c in d["comments"]:
            if c["author"] in index:
                B[row, index[c["author"]]] = 1.0

    def user_pairs(mask):
        M = B.T @ np.where(mask, np.cos(angle), 0.0) @ B
        S = M + M.T
        np.fill_diagonal(S, 0.0)
        return S
    return (user_pairs(keep), user_pairs(ambiguous), skipped, int(keep.sum()),
            int(ambiguous.sum()))


def _reply_and_temporal(discussions, index):
    A = np.zeros((len(index), len(index)))
    for d in discussions:
        author_of = {d["post"]["id"]: d["post"]["author"]}
        author_of.update((c["id"], c["author"]) for c in d["comments"])
        replied = set()
        for c in d["comments"]:
            parent = author_of.get(c["parent_id"])
            if parent is None or parent == c["author"]:
                continue
            replied.add(frozenset((c["author"], parent)))
            if c["author"] in index and parent in index:
                A[index[c["author"]], index[parent]] += 2.0
                A[index[parent], index[c["author"]]] += 2.0
        first = {}
        for c in d["comments"]:
            if c["author"] in index:
                first.setdefault(c["author"], c["timestamp"])
        t_end = (d["comments"][-1]["timestamp"] if d["comments"]
                 else d["post"]["timestamp"])
        span = t_end - d["post"]["timestamp"] + 1
        users = sorted(first)
        for a in range(len(users)):
            for b in range(a + 1, len(users)):
                if frozenset((users[a], users[b])) in replied:
                    continue
                alpha = span / (abs(first[users[a]] - first[users[b]]) + 1)
                inc = 1.0 / (1.0 + math.exp(-alpha))
                i, j = index[users[a]], index[users[b]]
                A[i, j] += inc
                A[j, i] += inc
    return A


def check_cooccurrence(res, workdir, inputs, theta0):
    """Recompute the three channels and compare with `cooccur.txt`."""
    discussions = read_discussions(os.path.join(workdir, "discussions.jsonl"))
    users = embedded_users(discussions)
    with open(os.path.join(workdir, "users.txt")) as fh:
        listed = [u.strip() for u in fh if u.strip()]
    res.add("cooccur.users", listed == users,
            "%d users, %d expected" % (len(listed), len(users)))
    if listed != users:
        return
    index = {u: k for k, u in enumerate(users)}
    T = _title_matrix(discussions,
                      read_word_vectors(os.path.join(inputs, "word_vectors.txt")),
                      read_words(os.path.join(inputs, "stopwords.txt")))
    sem, amb, skipped, kept, ambiguous = _semantic(discussions, T, index, theta0)
    lo = np.triu(_reply_and_temporal(discussions, index) + sem, k=1)
    hi = lo + np.triu(amb, k=1)
    got = np.zeros_like(lo)
    present = np.zeros(lo.shape, dtype=bool)
    with open(os.path.join(workdir, "cooccur.txt")) as fh:
        for line in fh:
            i, j, v = line.split()
            got[int(i), int(j)] = float(v)
            present[int(i), int(j)] = True
    must, may = lo > 0, hi > 0
    support_ok = bool(np.all(present[must]) and not np.any(present & ~may))
    ref = np.clip(got, lo, hi)[present]
    err = (float(np.max(np.abs(got[present] - ref) / np.maximum(ref, 1e-300)))
           if present.any() else 0.0)
    res.add("cooccur.oracle", support_ok and err <= REL_TOL,
            "nnz %d (expected %d), max rel err %.1e, %d title pairs kept, "
            "%d within rounding of theta0"
            % (int(present.sum()), int(must.sum()), err, kept, ambiguous))
    prof = read_json(os.path.join(workdir, "sparsity.json"))
    res.add("cooccur.skipped_title_pairs", prof["skipped_title_pairs"] == skipped,
            "%d reported, %d expected" % (prof["skipped_title_pairs"], skipped))


# -------------------------------------------------------------- properties

def check_nearest_center(res, workdir):
    assignment, centers = read_clusters(workdir)
    users, vectors = read_embedding(workdir)
    d2 = ((vectors[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    best = d2.min(axis=1)
    own = np.array([d2[k, assignment[u]] if u in assignment else np.inf
                    for k, u in enumerate(users)])
    bad = int(np.sum(own > best + 1e-12 * (1.0 + best)))
    res.add("cluster.nearest_center",
            bad == 0 and set(assignment) == set(users),
            "%d users, %d not at their nearest centre" % (len(users), bad))


def check_manifest(res, workdir):
    stages = read_json(os.path.join(workdir, "manifest.json"))["stages"]
    bad, total = [], 0
    for stage, entry in sorted(stages.items()):
        for name, digest in sorted(entry["outputs"].items()):
            total += 1
            if sha256(os.path.join(workdir, name)) != digest:
                bad.append("%s/%s" % (stage, name))
    res.add("manifest.output_hashes", not bad,
            "%d outputs, mismatched: %s" % (total, ", ".join(bad) or "none"))


def check_split(res, workdir, task_ids, holdout):
    meta = read_json(os.path.join(workdir, "features_meta.json"))
    train, test = set(meta["train_ids"]), set(meta["test_ids"])
    n_test = max(1, int(round(holdout * len(task_ids))))
    ok = (not train & test and train | test == set(task_ids)
          and len(test) == n_test)
    res.add("featurize.split", ok, "%d train, %d test of %d"
            % (len(train), len(test), len(task_ids)))
    return sorted(test)


def check_balance(res, workdir, discussions):
    ids = set(read_json(os.path.join(workdir, "balanced_ids.json"))["ids"])
    empty = {d["post"]["id"] for d in discussions if not d["comments"]}
    commented = ids - empty
    ok = empty <= ids and len(commented) == len(empty) and all(
        d["comments"] for d in discussions if d["post"]["id"] in commented)
    res.add("balance.classes", ok, "%d empty, %d commented"
            % (len(empty), len(commented)))
    return ids


def check_losses(res, logs):
    """Each logged loss curve ends below its first epoch."""
    for label, losses in logs:
        if len(losses) < 2:
            res.add("loss." + label, True,
                    "%d epoch(s) logged, nothing to compare" % len(losses))
            continue
        res.add("loss." + label, losses[-1] < losses[0],
                "first %.6g, last %.6g" % (losses[0], losses[-1]))


def check_diagnostics(res, workdir):
    rows = violations = 0
    with open(os.path.join(workdir, "diagnostics_distance.csv")) as fh:
        for rec in csv.DictReader(fh):
            rows += 1
            if float(rec["metric_mean"]) < float(rec["euclidean_mean"]):
                violations += 1
    res.add("diagnose.metric_ge_euclidean", rows > 0 and violations == 0,
            "%d rows, %d with metric mean below Euclidean mean"
            % (rows, violations))


def file_digests(workdir):
    """sha256 of every checkpoint, report, prediction and model artifact."""
    out = {}
    for name in sorted(os.listdir(workdir)):
        if (name.endswith(".ckpt") or name.startswith(("report_", "predictions_",
                                                       "diagnostics_"))
                or name in ("cooccur.txt", "users.txt", "embeddings.txt",
                            "clusters.txt", "centers.txt")):
            out[name] = sha256(os.path.join(workdir, name))
    return out


def check_determinism(res, digests):
    first = digests[0]
    differing = sorted({name for other in digests[1:]
                        for name in set(first) | set(other)
                        if first.get(name) != other.get(name)})
    res.add("determinism", len(digests) >= 2 and not differing,
            "%d rounds, %d files each, differing: %s"
            % (len(digests), len(first), ", ".join(differing) or "none"))


# ------------------------------------------------------ reports, temporal

def check_temporal_model(res, workdir, model, discussions, test_ids, w, N):
    """Recompute micro-F1 and growth error from the prediction file."""
    assignment, centers = read_clusters(workdir)
    n = centers.shape[0]
    by_id = {d["post"]["id"]: d for d in discussions}
    truth, growth = {}, {}
    for did in test_ids:
        comments = by_id[did]["comments"]
        for i in range(N):
            win = comments[i * w:(i + 1) * w]
            if not win:
                continue
            y = [0] * n
            for c in win:
                if c["author"] in assignment:
                    y[assignment[c["author"]]] = 1
            truth[(did, i)] = y
            dt = max(1, win[-1]["timestamp"] - win[0]["timestamp"])
            growth[(did, i)] = math.log(1.0 + len(win) / dt)
    with open(os.path.join(workdir, "predictions_%s_temporal.csv" % model)) as fh:
        rows = list(csv.DictReader(fh))
    keys = [(r["discussion_id"], int(r["step"])) for r in rows]
    res.add(model + ".prediction_rows", sorted(keys) == sorted(truth),
            "%d rows, %d valid test steps" % (len(keys), len(truth)))
    if sorted(keys) != sorted(truth):
        return None
    y1 = np.array([[float(r["y1_%d" % (c + 1)]) for c in range(n)] for r in rows])
    pred = np.array([[int(r["pred_%d" % (c + 1)]) for c in range(n)] for r in rows])
    y2 = np.array([float(r["y2"]) for r in rows])
    Y = np.array([truth[k] for k in keys])
    near = np.abs(y1 - 0.5) <= PRINT_HALF_ULP
    consistent = bool(np.all((pred == (y1 > 0.5)) | near))
    in_range = bool(np.all((y1 >= 0) & (y1 <= 1)))
    detail = "y1 in [0, 1], decisions follow y1 > 0.5"
    if model != "logreg":
        in_range = in_range and bool(np.all(y2 >= 0))
        detail += ", y2 >= 0"
    res.add(model + ".ranges", in_range and consistent, detail)
    denom = int(pred.sum() + Y.sum())
    micro = 2.0 * int(np.sum(pred & Y)) / denom if denom else 0.0
    report = read_json(os.path.join(workdir, "report_%s_temporal.json" % model))
    res.add(model + ".micro_f1", abs(micro - report["micro_f1"]) <= 1e-12,
            "recomputed %.6f, reported %.6f" % (micro, report["micro_f1"]))
    out = {"micro_f1": micro}
    if model == "logreg":
        return out
    v = np.array([growth[k] for k in keys])
    keep = v != 0
    err = float(np.mean(np.abs(v[keep] - y2[keep]) / np.abs(v[keep]) * 100.0))
    tol = float(np.mean(PRINT_HALF_ULP / np.abs(v[keep]) * 100.0)) + 1e-9
    got = report["growth_mean_error_pct"]
    res.add(model + ".growth_error", abs(err - got) <= tol,
            "recomputed %.4f%%, reported %.4f%%" % (err, got))
    out["growth_error_pct"] = err
    return out


# --------------------------------------------------- reports, one-shot task

def check_nontemporal_model(res, workdir, discussions, test_ids, attract_word):
    """Accuracy, F1 and AUC against the planted title keyword."""
    by_id = {d["post"]["id"]: d for d in discussions}
    with open(os.path.join(workdir, "predictions_rgnet_nontemporal.csv")) as fh:
        rows = list(csv.DictReader(fh))
    ids = [r["discussion_id"] for r in rows]
    res.add("rgnet.prediction_rows", sorted(ids) == sorted(test_ids),
            "%d rows, %d test posts" % (len(ids), len(test_ids)))
    if sorted(ids) != sorted(test_ids):
        return None
    y3 = np.array([float(r["y3"]) for r in rows])
    pred = np.array([r["class"] == ATTRACT_CLASS for r in rows])
    truth = np.array([attract_word in tokens(by_id[i]["post"]["title"])
                      for i in ids])
    consistent = bool(np.all((pred == (y3 > 0.5))
                             | (np.abs(y3 - 0.5) <= PRINT_HALF_ULP)))
    res.add("rgnet.ranges", bool(np.all((y3 >= 0) & (y3 <= 1))) and consistent,
            "y3 in [0, 1], class follows y3 > 0.5")
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    accuracy = float(np.mean(pred == truth))
    diff = y3[truth][:, None] - y3[~truth][None, :]
    pairs = max(1, diff.size)
    auc_lo = float(np.sum(diff > 2 * PRINT_HALF_ULP)) / pairs
    auc_hi = float(np.sum(diff >= -2 * PRINT_HALF_ULP)) / pairs
    report = read_json(os.path.join(workdir, "report_rgnet_nontemporal.json"))
    res.add("rgnet.accuracy_f1",
            abs(accuracy - report["accuracy"]) <= 1e-12
            and abs(f1 - report["f1"]) <= 1e-12,
            "recomputed accuracy %.4f F1 %.4f, reported %.4f %.4f; "
            "%d of %d test posts classed attract, min y3 %.6f"
            % (accuracy, f1, report["accuracy"], report["f1"],
               int(pred.sum()), len(pred), float(y3.min())))
    res.add("rgnet.auc", auc_lo - 1e-12 <= report["auc"] <= auc_hi + 1e-12,
            "reported %.4f, recomputed [%.4f, %.4f]"
            % (report["auc"], auc_lo, auc_hi))
    return {"auc": report["auc"]}
