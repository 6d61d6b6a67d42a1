import numpy as np
import pytest

from threadcurve import metrics as mt
from threadcurve.clustering import ClusterModel
from threadcurve.embedding import EmbeddingModel

import metrics_reference as ref


def test_perfect_prediction():
    truth = np.array([[1, 0, 1], [0, 1, 0]])
    rep = mt.multilabel_metrics(truth, truth)
    assert rep.hamming_loss == 0.0
    assert rep.micro_f1 == 1.0
    assert rep.macro_f1 == 1.0
    assert rep.subset_01 == 0.0


def test_frozen_half_wrong_example():
    truth = np.array([[1, 0, 1, 0]])
    pred = np.array([[1, 1, 0, 0]])
    rep = mt.multilabel_metrics(pred, truth)
    assert rep.hamming_loss == 0.5
    assert rep.subset_01 == 1.0
    # micro F1 = 2 * |inter| / (|pred| + |truth|) = 2*1/(2+2)
    assert rep.micro_f1 == pytest.approx(0.5)


def test_micro_f1_frozen_example():
    # intersection 2, pred sum 2, truth sum 3 -> 2*2/(2+3) = 0.8
    truth = np.array([[1, 1, 1, 0]])
    pred = np.array([[1, 1, 0, 0]])
    rep = mt.multilabel_metrics(pred, truth)
    assert rep.micro_f1 == pytest.approx(0.8)


def test_macro_f1_zero_over_zero_convention():
    truth = np.array([[1, 0], [1, 0]])
    pred = np.array([[1, 0], [1, 0]])
    rep = mt.multilabel_metrics(pred, truth)
    # second label never appears anywhere: per-label F1 contributes 0
    assert rep.macro_f1 == pytest.approx(0.5)
    with pytest.raises(ValueError):
        mt.multilabel_metrics(np.zeros((2, 2)), np.zeros((2, 3)))


def test_growth_error_frozen_example():
    rep = mt.growth_error([1.8], [2.0])
    assert rep.mean_error == pytest.approx(10.0)
    assert rep.excluded_zero_truth == 0


def test_growth_error_excludes_zero_truth():
    rep = mt.growth_error([1.0, 5.0], [0.0, 4.0])
    assert rep.excluded_zero_truth == 1
    assert rep.per_step == [pytest.approx(25.0)]
    with pytest.raises(ValueError):
        mt.growth_error([1.0], [0.0])


def test_auc_frozen_examples():
    assert mt.auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(0.75)
    assert mt.auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5  # all ties
    assert mt.auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    with pytest.raises(ValueError):
        mt.auc([0.5, 0.6], [1, 1])


def _pair_auc(scores, labels):
    """AUC by comparing every (positive, negative) pair, ties 1/2."""
    scores, labels = np.asarray(scores, float), np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (len(pos) * len(neg)))


def test_auc_by_ranks_equals_pair_formula_with_and_without_ties():
    rng = np.random.default_rng(3)
    for trial in range(40):
        size = int(rng.integers(2, 60))
        labels = (rng.random(size) < 0.4).astype(int)
        labels[0], labels[-1] = 1, 0
        scores = rng.random(size)
        if trial % 2:  # few distinct values: many ties, across classes
            scores = np.round(scores * 3) / 3
        assert mt.auc(scores, labels) == _pair_auc(scores, labels)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(0)
    scores = rng.random(30)
    labels = (rng.random(30) < 0.5).astype(int)
    labels[0], labels[1] = 1, 0  # both classes present
    a = mt.auc(scores, labels)
    b = mt.auc(np.exp(3 * scores) + 7, labels)
    assert a == pytest.approx(b, abs=1e-12)


def test_pearson_values():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert mt.pearson(x, 2 * x) == pytest.approx(1.0)
    assert mt.pearson(x, -x + 5) == pytest.approx(-1.0)
    assert mt.pearson(x, np.ones(4)) == 0.0  # degenerate: zero variance


def test_diagnostics_bundle(tmp_path):
    emb = EmbeddingModel(["a", "b", "c", "d"],
                         np.array([[0.0, 0.0], [1.0, 0.0],
                                   [0.0, 1.0], [1.0, 1.0]]),
                         np.zeros(4))
    cm = ClusterModel(np.array([[0.5, 0.0], [0.5, 1.0]]),
                      {"a": 0, "b": 0, "c": 1, "d": 1})
    g_inv = np.full((2, 3), 0.25)  # metric distance doubles every offset
    # one row per scored step; no engaged user before step 0
    scores = {
        "discussion_id": np.array(["d1", "d1", "d1"]),
        "step": np.array([0, 1, 2]),
        "engaged_counts": np.array([[0, 0], [1, 1], [2, 0]]),
        "decision": np.array([[0, 0], [1, 0], [1, 0]]),
        "truth": np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]),
        "v_true": np.array([0.0, 2.0, 1.0]),
        "y2": np.array([0.5, 1.8, 1.0]),
        "g_inv": np.stack([g_inv] * 3),
    }
    prefix = str(tmp_path / "diag")
    summary = mt.diagnostics(scores, cm, emb, prefix)
    assert "entropy_accuracy_pearson" in summary
    assert "growth_error_pearson" in summary

    ent = (tmp_path / "diag_entropy.csv").read_text().strip().splitlines()
    assert ent[0] == "discussion_id,step,entropy,accuracy"
    assert len(ent) == 3
    # step 1: clusters {0, 1} -> entropy log 2; accuracy 0.5
    row = ent[1].split(",")
    assert float(row[2]) == pytest.approx(np.log(2.0))
    assert float(row[3]) == 0.5

    assert ent[1].startswith("d1,1,")

    gro = (tmp_path / "diag_growth.csv").read_text().strip().splitlines()
    assert len(gro) == 3  # step 0 has zero true growth
    assert gro[1].startswith("d1,1,2.0,")
    assert float(gro[1].split(",")[3]) == pytest.approx(10.0)

    dist = (tmp_path / "diag_distance.csv").read_text().strip().splitlines()
    assert len(dist) == 1 + 3 * 2  # two clusters per row
    assert [line.split(",")[:3] for line in dist[1:3]] == [
        ["d1", "0", "0"], ["d1", "0", "1"]]
    for line in dist[1:]:
        parts = line.split(",")
        eu, md = float(parts[3]), float(parts[4])
        assert md >= eu  # learned metric never shrinks distances
        assert md == pytest.approx(2.0 * eu)  # g_inv = 1/4 exactly doubles


@pytest.mark.parametrize("members", [2, 3, 100])
def test_intra_distances_match_pair_loop(members):
    rng = np.random.default_rng(members)
    vecs = list(rng.normal(size=(members, 5)))
    g_inv = rng.uniform(0.05, 0.95, size=(4, 6))  # time component first
    eu, got = mt._intra_distances(vecs, g_inv)
    assert len(got) == len(g_inv)
    for row, md in zip(g_inv, got):
        flat, learned = [], []
        for a in range(members):
            for b in range(a + 1, members):
                diff = np.concatenate([[0.0], vecs[a] - vecs[b]])
                flat.append(np.linalg.norm(diff))
                learned.append(np.sqrt(np.sum(diff ** 2 / row)))
        np.testing.assert_allclose((eu, md), (np.mean(flat), np.mean(learned)),
                                   rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("members,d,rows", [
    (20, 5, 300),      # 950 elements a row: 68 rows a block, five blocks
    (7, 3, 1000),      # 63 a row: 1,040 rows a block, one partial block
    (129, 8, 3),       # 66,048 a row: one row, over the block
    (2, 2 ** 16, 2),   # 65,536 a row: one row fills the block exactly
])
def test_blocked_intra_distances_match_the_row_loop(members, d, rows):
    """The learned distances reduced a block of rows at a time have the
    bits of one row at a time, read from one cluster of (R, n, d+1)."""
    rng = np.random.default_rng(members)
    vecs = list(rng.normal(size=(members, d)))
    g_inv = rng.uniform(0.05, 0.95, size=(rows, 2, d + 1))[:, 1]
    got = mt._intra_distances(vecs, g_inv)
    assert len(got[1]) == rows
    assert got == ref.intra_distances(vecs, g_inv)
