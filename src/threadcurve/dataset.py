"""Assemble model-ready instances from corpus artifacts."""

from __future__ import annotations

import numpy as np

from . import features as F
from . import logreg
from .clustering import spacetime_centers
from .cooccur import title_vector
from .corpus import Discussion, growth_target, window_labels, windowize


def title_vectors(discussions, lexicons):
    return {
        d.id: title_vector(d.post.title, lexicons.word_vectors, lexicons.idf,
                           lexicons.stopwords)
        for d in discussions
    }


def build_temporal_dataset(discussions, w, N, lexicons, embedding,
                           cluster_model):
    """Returns (pack, post_layout, comment_layout).

    `pack` maps each model input to an array with one row per discussion:
    the inputs of the curvature model and the Newtonian baseline, logreg's
    prefix features per (step, cluster) and, per step, how many of the
    comments before it came from each cluster. Steps whose window is empty
    keep zero labels, growth and logreg features, and a false mask.
    """
    d = embedding.dim
    post_layout = F.post_layout(lexicons.d_w, d)
    comment_layout = F.comment_layout(lexicons.d_w, d)
    tvecs = title_vectors(discussions, lexicons)
    assignment, n = cluster_model.assignment, cluster_model.n
    rows = []
    for disc in discussions:
        wd = windowize(disc, w, N)
        x2 = np.zeros((N, comment_layout.width))
        labels = np.zeros((N, n))
        mask = np.zeros(N, dtype=bool)
        growth = np.zeros(N)
        logreg_features = np.zeros((N, n, logreg.feature_width(d)))
        engaged_counts = np.zeros((N, n))
        seen = np.zeros(n)
        for k, (win, lab) in enumerate(
                zip(wd.windows, window_labels(wd, assignment, n))):
            engaged_counts[k] = seen
            for c in win.comments:
                if c.author in assignment:
                    seen[assignment[c.author]] += 1
            if lab is None:
                continue
            x2[k] = np.mean([F.featurize_comment(c, disc, lexicons, embedding)
                             for c in win.comments], axis=0)
            labels[k] = lab
            mask[k] = True
            growth[k] = growth_target(win)[1]
            logreg_features[k] = logreg.aggregate_step_features(
                Discussion(disc.post, disc.comments[:k * w]), cluster_model,
                lexicons, embedding)

        user_vectors = np.zeros((N * w, d))
        user_mask = np.zeros(N * w, dtype=bool)
        for pos, c in enumerate(disc.comments[:N * w]):
            if c.author in embedding.index:
                user_vectors[pos] = embedding.vector(c.author)
                user_mask[pos] = True

        rows.append({
            "x1": F.featurize_post(disc, lexicons, embedding, tvecs[disc.id]),
            "x2": x2,
            "centers": spacetime_centers(cluster_model, wd),
            "labels": labels,
            "mask": mask,
            "growth": growth,
            "user_vectors": user_vectors,
            "user_mask": user_mask,
            "logreg_features": logreg_features,
            "engaged_counts": engaged_counts,
        })
    pack = {key: np.stack([r[key] for r in rows]) for key in rows[0]}
    return pack, post_layout, comment_layout


def build_nontemporal_dataset(discussions, lexicons, embedding):
    """Returns (pack, post_layout): post features and the binary label
    (any comment at all), one row per discussion."""
    post_layout = F.post_layout(lexicons.d_w, embedding.dim)
    tvecs = title_vectors(discussions, lexicons)
    pack = {
        "x1": np.array([F.featurize_post(d, lexicons, embedding, tvecs[d.id])
                        for d in discussions]),
        "label": np.array([1.0 if d.comments else 0.0 for d in discussions]),
    }
    return pack, post_layout


def unstack(arrays, rows, **shared):
    """One dict per row r in `rows`: every array's row r (`ids` aside),
    plus the `shared` values."""
    return [dict({key: value[r] for key, value in arrays.items()
                  if key != "ids"}, **shared) for r in rows]


def standardize_instances(train, test, keys=("x1", "x2")):
    """Z-score the stacked rows (..., f) of each key with per-column
    statistics over every training row.

    Raw feature scales span orders of magnitude (readability vs. counts vs.
    probabilities) and saturate the downstream squashing layers; per-dimension
    standardization fixes the conditioning. Embedding-space inputs
    (user_vectors, centers) stay raw: they are positions, not features.
    """
    for key in keys:
        X = train[key]
        if not len(X):
            continue
        flat = X.reshape(-1, X.shape[-1])
        mu = flat.mean(axis=0)
        sd = flat.std(axis=0)
        sd[sd < 1e-8] = 1.0
        train[key] = (X - mu) / sd
        test[key] = (test[key] - mu) / sd
    return train, test


def split_dataset(instances, holdout_fraction=0.2, seed=0):
    """Deterministic shuffled split into (train, test)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(instances))
    n_test = max(1, int(round(holdout_fraction * len(instances))))
    test_idx = set(order[:n_test].tolist())
    train = [inst for k, inst in enumerate(instances) if k not in test_idx]
    test = [inst for k, inst in enumerate(instances) if k in test_idx]
    return train, test
