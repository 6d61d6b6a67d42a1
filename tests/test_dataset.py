import numpy as np
import pytest

from threadcurve import dataset as ds
from threadcurve import logreg, synth
from threadcurve.clustering import ClusterModel
from threadcurve.corpus import Corpus, Discussion, parse_corpus
from threadcurve.embedding import EmbeddingModel
from threadcurve.features import (ablate, build_lexicons, load_sentiment,
                                 load_stopwords, load_word_vectors)
from conftest import make_lexicons


@pytest.fixture
def synth_materials(tmp_path):
    spec = synth.SynthSpec(clusters=2, users_per_cluster=4, discussions=6,
                           w=3, N=2, d_w=4, vocab_words=12, posts=12)
    synth.write_lexicon_files(spec, str(tmp_path), seed=0)
    corpus = str(tmp_path / "corpus.jsonl")
    synth.make_temporal_corpus(spec, 0, corpus, str(tmp_path / "truth.json"))
    discussions, _ = parse_corpus(corpus)
    lex = build_lexicons(Corpus.of(discussions),
                         load_word_vectors(str(tmp_path / "word_vectors.txt")),
                         load_sentiment(str(tmp_path / "sentiment.txt")),
                         load_stopwords(str(tmp_path / "stopwords.txt")))
    users = sorted({c.author for d in discussions for c in d.comments})
    rng = np.random.default_rng(1)
    emb = EmbeddingModel(users, rng.normal(size=(len(users), 3)),
                         np.zeros(len(users)))
    cm = ClusterModel(rng.normal(size=(2, 3)),
                      {u: k % 2 for k, u in enumerate(users)})
    return spec, discussions, lex, emb, cm


def test_temporal_pack_stores_each_fact_once(synth_materials):
    spec, discussions, lex, emb, cm = synth_materials
    pack, pl, cl = ds.build_temporal_dataset(
        Corpus.of(discussions), spec.w, spec.N, lex, emb, cm)
    R, N = len(discussions), spec.N
    # the embedding and the centres are not copied into the pack
    stored = {key: (value.dtype, value.shape) for key, value in pack.items()}
    assert stored == {
        "x1": (np.float64, (R, pl.width)),
        "x2": (np.float64, (R, N, cl.width)),
        "mask": (bool, (R, N)),
        "growth": (np.float64, (R, N)),
        "users": (np.int32, (R, N * spec.w)),
        "elapsed": (np.int64, (R, N)),
        "engaged": (np.float64, (R, N, 2)),
        "prefix_text": (np.float64, (R, N, 12)),
        "social": (np.float64, (R, N, 2, 4)),
    }


def test_temporal_instances_have_consistent_shapes(synth_materials):
    spec, discussions, lex, emb, cm = synth_materials
    pack, pl, cl = ds.build_temporal_dataset(
        Corpus.of(discussions), spec.w, spec.N, lex, emb, cm)
    pack = ds.model_arrays(pack, emb, cm)
    R = len(discussions)
    assert pack["x1"].shape == (R, pl.width)
    assert pack["x2"].shape == (R, spec.N, cl.width)
    assert pack["centers"].shape == (R, spec.N, 2, 4)   # n x (d+1)
    assert pack["labels"].shape == (R, spec.N, 2)
    assert pack["user_vectors"].shape == (R, spec.N * spec.w, 3)
    assert pack["logreg_features"].shape == (R, spec.N, 2,
                                             logreg.feature_width(3))
    assert pack["mask"].dtype == bool
    assert pl.width == cl.width + lex.d_w  # post adds the title block


def test_engaged_counts_cover_comments_before_each_step(synth_materials):
    spec, discussions, lex, emb, cm = synth_materials
    pack, _, _ = ds.build_temporal_dataset(
        Corpus.of(discussions), spec.w, spec.N, lex, emb, cm)
    pack = ds.model_arrays(pack, emb, cm)
    for r, d in enumerate(discussions):
        for i in range(spec.N):
            expect = np.zeros(2)
            for c in d.comments[:i * spec.w]:
                expect[cm.assignment[c.author]] += 1
            np.testing.assert_array_equal(pack["engaged_counts"][r, i], expect)


def _labels(discussion, w, N, assignment, n):
    """The labels and mask of one discussion's pack row."""
    users = ["alice", "bob", "carol"]
    emb = EmbeddingModel(users, np.eye(3), np.zeros(3))
    cm = ClusterModel(np.zeros((n, 3)), assignment)
    pack, _, _ = ds.build_temporal_dataset(Corpus.of([discussion]), w, N,
                                           make_lexicons(), emb, cm)
    pack = ds.model_arrays(pack, emb, cm)
    return pack["labels"][0].tolist(), pack["mask"][0].tolist()


def test_labels_are_zero_based_one_hot(tiny_corpus):
    # t1's comments come from bob, carol and bob
    discussion = tiny_corpus[0][0]
    labels, mask = _labels(discussion, 2, 2, {"bob": 2, "carol": 5}, n=8)
    # matches the {2, 5} -> [0,0,1,0,0,1,0,0] engagement vector convention;
    # bob engages again in the second window
    assert labels == [[0, 0, 1, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0]]
    assert mask == [True, True]


def test_labels_ignore_unassigned_authors(tiny_corpus):
    discussion = tiny_corpus[0][0]
    labels, _ = _labels(discussion, 3, 2, {"carol": 1}, n=4)
    assert labels[0] == [0, 1, 0, 0]
    labels, mask = _labels(discussion, 3, 2, {}, n=4)
    assert labels[0] == [0, 0, 0, 0] and mask[0]
    # the second window is empty: zero labels and a false mask
    assert labels[1] == [0, 0, 0, 0] and not mask[1]


def test_logreg_features_see_only_the_prefix(synth_materials):
    spec, discussions, lex, emb, cm = synth_materials
    base, _, _ = ds.build_temporal_dataset(
        Corpus.of(discussions), spec.w, spec.N, lex, emb, cm)
    base = ds.model_arrays(base, emb, cm)
    users = emb.user_ids[::-1]
    for r, disc in enumerate(discussions):
        for k in range(spec.N):
            # every comment from index k*w on gets another author and text
            # and answers the first comment, so it adds a reply edge to a
            # user who may have commented before step k
            start = k * spec.w
            parent = disc.comments[0].id if start else disc.post.id
            later = tuple(
                c._replace(author=users[j % len(users)],
                           text="bad alpha, great beta!", parent_id=parent)
                for j, c in enumerate(disc.comments[start:]))
            mutated = Discussion(disc.post, disc.comments[:start] + later)
            pack, _, _ = ds.build_temporal_dataset(
                Corpus.of([mutated]), spec.w, spec.N, lex, emb, cm)
            pack = ds.model_arrays(pack, emb, cm)
            np.testing.assert_array_equal(pack["logreg_features"][0, :k + 1],
                                          base["logreg_features"][r, :k + 1])


def test_drop_ablation_shrinks_both_layouts(synth_materials):
    spec, discussions, lex, emb, cm = synth_materials
    pack, pl, cl = ds.build_temporal_dataset(
        Corpus.of(discussions), spec.w, spec.N, lex, emb, cm)
    x1, pl2 = ablate(pack["x1"], pl, "user", "drop", 4)
    x2, cl2 = ablate(pack["x2"], cl, "user", "drop", 4, valid=pack["mask"])
    assert not pl2.has("user") and not cl2.has("user")
    assert x1.shape == (len(discussions), pl2.width)
    assert x2.shape == (len(discussions), spec.N, cl2.width)


def test_noise_ablation_keeps_width_but_changes_block(synth_materials):
    spec, discussions, lex, emb, cm = synth_materials
    pack, pl, cl = ds.build_temporal_dataset(
        Corpus.of(discussions), spec.w, spec.N, lex, emb, cm)
    rngs = [np.random.default_rng(3), np.random.default_rng(4)]
    x1, pl2 = ablate(pack["x1"], pl, "surface", "noise", 4, rngs)
    x2, _ = ablate(pack["x2"], cl, "surface", "noise", 4, rngs,
                   valid=pack["mask"])
    assert pl2.width == pl.width and x1.shape == pack["x1"].shape
    sl = pl.slice_of("surface")
    assert not np.allclose(pack["x1"][:, sl], x1[:, sl])
    other = pl.slice_of("content")
    np.testing.assert_allclose(pack["x1"][:, other], x1[:, other])
    # windows without comments keep their zero rows
    assert np.all(x2[~pack["mask"]] == 0.0)


def test_nontemporal_labels_follow_comment_presence(synth_materials, tmp_path):
    spec, _, lex, emb, cm = synth_materials
    corpus = str(tmp_path / "nt.jsonl")
    synth.make_nontemporal_corpus(spec, 0, corpus, str(tmp_path / "nt_truth.json"))
    discussions, _ = parse_corpus(corpus)
    pack, pl = ds.build_nontemporal_dataset(Corpus.of(discussions), lex, emb)
    assert set(pack["label"]) == {0.0, 1.0}
    assert pack["x1"].shape == (len(discussions), pl.width)
    for label, d in zip(pack["label"], discussions):
        assert label == (1 if d.comments else 0)


def test_standardize_uses_training_statistics():
    train = {"x1": np.array([[0.0, 10.0], [2.0, 30.0]])}
    test = {"x1": np.array([[1.0, 20.0]])}
    ds.standardize_instances(train, test, keys=("x1",))
    np.testing.assert_allclose(train["x1"], [[-1.0, -1.0], [1.0, 1.0]])
    np.testing.assert_allclose(test["x1"], [[0.0, 0.0]])


def test_standardize_pools_every_step_row_of_every_discussion():
    # (discussions, steps, f): statistics per column over all 4 step rows,
    # the all-zero (masked) step included
    train = {"x2": np.array([[[0.0, 1.0], [0.0, 0.0]],
                             [[4.0, 3.0], [4.0, 4.0]]])}
    test = {"x2": np.array([[[2.0, 2.0], [6.0, 2.0]]])}
    ds.standardize_instances(train, test, keys=("x2",))
    flat = np.array([[0.0, 1.0], [0.0, 0.0], [4.0, 3.0], [4.0, 4.0]])
    mu, sd = flat.mean(axis=0), flat.std(axis=0)
    np.testing.assert_allclose(train["x2"], (flat.reshape(2, 2, 2) - mu) / sd)
    np.testing.assert_allclose(test["x2"], [[[0.0, 0.0], [2.0, 0.0]]])


def test_standardize_floors_constant_dimensions():
    train = {"x1": np.array([[5.0, 1.0], [5.0, 3.0]])}
    test = {"x1": np.zeros((0, 2))}
    ds.standardize_instances(train, test, keys=("x1",))
    # zero-variance column: centered but not scaled by ~0
    np.testing.assert_allclose(train["x1"][:, 0], [0.0, 0.0])
    assert np.all(np.isfinite(train["x1"]))


def test_split_is_deterministic_and_disjoint():
    items = [{"id": k} for k in range(10)]
    tr1, te1 = ds.split_dataset(items, 0.2, seed=4)
    tr2, te2 = ds.split_dataset(items, 0.2, seed=4)
    assert tr1 == tr2 and te1 == te2
    assert len(te1) == 2
    assert len(tr1) + len(te1) == 10
    ids = {d["id"] for d in tr1} | {d["id"] for d in te1}
    assert ids == set(range(10))
    _, te3 = ds.split_dataset(items, 0.05, seed=0)
    assert len(te3) == 1  # at least one held-out item
