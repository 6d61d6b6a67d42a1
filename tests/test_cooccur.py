import math
import os
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import cooccur_reference as ref
from threadcurve import cooccur, synth
from threadcurve.cooccur import (CooccurrenceMatrix, accumulate_semantic,
                                 build_cooccurrence, sigmoid, title_angle,
                                 title_vector)
from threadcurve.corpus import Corpus, embedded_users, parse_corpus
from threadcurve.text import Texts, title_rows
from threadcurve.features import load_stopwords, load_word_vectors
from conftest import chain_comments, make_discussion_json, write_corpus

DATA = os.path.join(os.path.dirname(__file__), "data")


def _fixture_matrix():
    discussions, _ = parse_corpus(os.path.join(DATA, "cooccur_fixture.jsonl"))
    users = sorted(embedded_users(discussions))
    index = {u: k for k, u in enumerate(users)}
    wv = load_word_vectors(os.path.join(DATA, "cooccur_fixture_wordvecs.txt"))
    tvecs = {d.id: title_vector(d.post.title, wv, {}) for d in discussions}
    A, skipped = build_cooccurrence(discussions, index, tvecs, math.pi / 12)
    return A, skipped, users


def _entries(A):
    """The matrix's stored entries by (i, j), i < j."""
    return {(i, j): v for i, j, v in A.items()}


def _expected_entries():
    entries = {}
    with open(os.path.join(DATA, "cooccur_fixture_expected.txt")) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            i, j, v = line.split()
            entries[(int(i), int(j))] = float(v)
    return entries


def test_fixture_users_all_embedded():
    _, _, users = _fixture_matrix()
    assert users == ["alice", "bob", "carol", "dave", "erin", "frank"]


def test_fixture_matches_hand_derivation():
    A, skipped, _ = _fixture_matrix()
    expected = _expected_entries()
    assert skipped == 0
    got = {(i, j): v for i, j, v in A.items()}
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, abs=1e-9), key


def test_sigmoid_frozen_values():
    assert sigmoid(1.0) == pytest.approx(0.73106, abs=1e-5)
    assert sigmoid(100.0) == pytest.approx(1.0, abs=1e-9)
    assert sigmoid(-100.0) == pytest.approx(0.0, abs=1e-9)


def test_matrix_symmetry_and_monotonicity():
    A = CooccurrenceMatrix(4)
    A.add(2, 0, 1.5)
    assert _entries(A) == {(0, 2): 1.5}
    A.add(0, 2, 0.25)
    assert _entries(A) == {(0, 2): 1.75}
    A.add(1, 1, 9.0)  # diagonal ignored
    assert _entries(A) == {(0, 2): 1.75}
    with pytest.raises(ValueError):
        A.add(0, 1, -1.0)


def test_matrix_save_load_roundtrip(tmp_path):
    A = CooccurrenceMatrix(5)
    A.add(0, 3, 2.97)
    A.add(1, 2, 0.74117475564695467)
    path = tmp_path / "A.txt"
    A.save(str(path))
    B = CooccurrenceMatrix.load(str(path), 5)
    assert list(B.items()) == list(A.items())


def test_nnz_counts_unordered_pairs():
    A = CooccurrenceMatrix(4)
    for i in range(4):
        for j in range(4):
            A.add(i, j, 1.0)
    assert A.nnz == 6
    # each pair was added in both orders, into one entry
    assert set(_entries(A).values()) == {2.0}


def _one_discussion(comments, post_author="alice", post_t=0):
    raw = make_discussion_json("d", post_author, post_t, comments)
    import json, tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as fh:
        fh.write(json.dumps(raw) + "\n")
        path = fh.name
    discussions, _ = parse_corpus(path)
    os.unlink(path)
    return discussions[0]


def _channels(d, index):
    """The reply and temporal channels of one discussion."""
    A = CooccurrenceMatrix(len(index))
    A.add(*cooccur.discussion_channels(Corpus.of([d]), index))
    return A


def test_communicative_repeated_replies_accumulate():
    d = _one_discussion([
        {"id": "c0", "author": "u1", "parent_id": "d", "timestamp": 10, "body": "x"},
        {"id": "c1", "author": "u2", "parent_id": "c0", "timestamp": 20, "body": "x"},
        {"id": "c2", "author": "u2", "parent_id": "c0", "timestamp": 30, "body": "x"},
    ])
    index = {"u1": 0, "u2": 1, "alice": 2}
    A = _channels(d, index)
    # two replies -> +2 twice; comment -> post reply; u1 and u2 replied,
    # so they get no temporal term
    assert _entries(A) == {(0, 1): 4.0, (0, 2): 2.0}


def test_communicative_skips_self_reply_and_unembedded():
    d = _one_discussion([
        {"id": "c0", "author": "u1", "parent_id": "d", "timestamp": 10, "body": "x"},
        {"id": "c1", "author": "u1", "parent_id": "c0", "timestamp": 20, "body": "x"},
        {"id": "c2", "author": "ghost", "parent_id": "c1", "timestamp": 30, "body": "x"},
    ])
    A = _channels(d, {"u1": 0, "alice": 1})
    assert _entries(A) == {(0, 1): 2.0}  # only u1 -> post


def test_temporal_frozen_examples():
    # t_start=0, t_end=99; u1 at 50, u2 at 50 -> alpha=100 -> ~1.0
    d = _one_discussion([
        {"id": "c0", "author": "u1", "parent_id": "d", "timestamp": 50, "body": "x"},
        {"id": "c1", "author": "u2", "parent_id": "d", "timestamp": 50, "body": "x"},
        {"id": "c2", "author": "u3", "parent_id": "d", "timestamp": 99, "body": "x"},
    ])
    index = {"u1": 0, "u2": 1, "u3": 2}
    entries = _entries(_channels(d, index))
    assert entries[(0, 1)] == pytest.approx(1.0, abs=1e-9)        # sigmoid(100)
    # u1 at 0? span ratio for (u1,u3): alpha = 100/50 -> sigmoid(2)
    assert entries[(0, 2)] == pytest.approx(sigmoid(2.0), abs=1e-12)


def test_temporal_alpha_one_is_073106():
    d = _one_discussion([
        {"id": "c0", "author": "u1", "parent_id": "d", "timestamp": 0, "body": "x"},
        {"id": "c1", "author": "u2", "parent_id": "d", "timestamp": 99, "body": "x"},
    ])
    A = _channels(d, {"u1": 0, "u2": 1})
    assert _entries(A)[(0, 1)] == pytest.approx(0.73106, abs=1e-5)


def test_temporal_skips_replying_pairs_and_uses_earliest_time():
    d = _one_discussion([
        {"id": "c0", "author": "u1", "parent_id": "d", "timestamp": 10, "body": "x"},
        {"id": "c1", "author": "u2", "parent_id": "c0", "timestamp": 20, "body": "x"},
        {"id": "c2", "author": "u3", "parent_id": "d", "timestamp": 90, "body": "x"},
        {"id": "c3", "author": "u3", "parent_id": "d", "timestamp": 95, "body": "x"},
    ])
    index = {"u1": 0, "u2": 1, "u3": 2}
    entries = _entries(_channels(d, index))
    assert entries[(0, 1)] == 2.0  # the reply, and no temporal term
    span = 95 - 0 + 1
    assert entries[(0, 2)] == pytest.approx(sigmoid(span / (80 + 1)), abs=1e-12)
    assert entries[(1, 2)] == pytest.approx(sigmoid(span / (70 + 1)), abs=1e-12)


def test_title_vector_examples():
    wv = {"solar": np.array([1.0, 0.0]), "wind": np.array([0.0, 1.0])}
    idf = {"solar": 2.0, "wind": 2.0}
    np.testing.assert_allclose(title_vector("Solar", wv, idf), [1.0, 0.0])
    np.testing.assert_allclose(title_vector("solar wind", wv, idf), [0.5, 0.5])
    np.testing.assert_allclose(title_vector("the of", wv, idf,
                                            frozenset(["the", "of"])), [0.0, 0.0])


def _title_vectors(discussions, word_vectors, idf, stopwords):
    """Title vector per discussion id, from one `title_rows` pass over the
    titles; idf None is the titles' own idf."""
    titles = [d.post.title for d in discussions]
    return dict(zip([d.id for d in discussions], title_rows(
        Texts(titles), np.arange(len(titles)), word_vectors, idf,
        stopwords)))


def test_idf_title_vectors_weigh_rare_title_words():
    wv = {"solar": np.array([1.0, 0.0]), "wind": np.array([0.0, 1.0])}
    discs = [SimpleNamespace(id="d%d" % k, post=SimpleNamespace(title=t))
             for k, t in enumerate(["solar wind", "wind", "wind", "the"])]
    tv = _title_vectors(discs, wv, None, frozenset(["the"]))
    # idf = log(4 / (1 + df)): solar log 2, wind log 1 = 0, so the first
    # title is all solar
    np.testing.assert_allclose(tv["d0"], [1.0, 0.0])
    # a title whose words all have idf 0 falls back to the plain mean
    np.testing.assert_allclose(tv["d1"], [0.0, 1.0])
    np.testing.assert_allclose(tv["d3"], [0.0, 0.0])


def test_title_angle_guard():
    assert title_angle(np.zeros(2), np.ones(2)) is None
    assert title_angle(np.array([1.0, 0]), np.array([0, 1.0])) == pytest.approx(math.pi / 2)


def test_semantic_threshold_and_increment():
    # user 0 comments in discussion 0, user 1 in discussion 1
    commenters = [np.array([0]), np.array([1])]
    t = math.sqrt(1 - 0.97 ** 2)
    A = CooccurrenceMatrix(2)
    skipped = accumulate_semantic(A, 0, 1, commenters,
                                  np.array([[1.0, 0.0], [0.97, t]]),
                                  math.pi / 12)
    assert skipped == 0
    assert _entries(A)[(0, 1)] == pytest.approx(0.97, abs=1e-12)
    # orthogonal titles: no change
    B = CooccurrenceMatrix(2)
    accumulate_semantic(B, 0, 1, commenters, np.eye(2), math.pi / 12)
    assert B.nnz == 0
    # zero-norm title: skipped with count
    C = CooccurrenceMatrix(2)
    assert accumulate_semantic(C, 0, 1, commenters,
                               np.array([[0.0, 0.0], [1.0, 1.0]]),
                               math.pi / 12) == 1


# ------------------------------------------------- the all-pairs loop oracle

THETA0 = math.pi / 12


def _random_corpus(titles, seed):
    """One discussion per title row, each with a few comments by users
    from a small pool, so that title pairs share keys."""
    rng = np.random.default_rng(seed)
    discussions = []
    for k in range(len(titles)):
        # with the fields the corpus store reads, texts empty
        post = SimpleNamespace(id="p%d" % k, author="u%d" % rng.integers(12),
                               title="", body="", timestamp=0)
        comments, parents = [], [post.id]
        for c in range(int(rng.integers(0, 4))):
            comments.append(SimpleNamespace(
                id="p%d_c%d" % (k, c), author="u%d" % rng.integers(12),
                parent_id=parents[int(rng.integers(len(parents)))],
                timestamp=10 * (c + 1), text="", depth=0))
            parents.append(comments[-1].id)
        discussions.append(SimpleNamespace(id=post.id, post=post,
                                           comments=comments, t_start=0,
                                           t_end=10 * len(comments)))
    index = {"u%d" % u: u for u in range(10)}  # u10 and u11 not embedded
    return discussions, index, {d.id: t for d, t in zip(discussions, titles)}


def _at_angle(theta, scale=1.0):
    return scale * np.array([math.cos(theta), math.sin(theta), 0.0])


def _edge_titles(rng, count):
    """Random 3-d titles, many within theta0 of each other, plus zero rows,
    duplicates and pairs built at theta0 +- 1e-12."""
    titles = list(rng.normal(size=(count, 3)) + [3.0, 0.0, 0.0])
    titles[3] = np.zeros(3)
    titles[7] = titles[2].copy()                  # angle 0
    titles[8] = 2.5 * titles[2]                   # angle 0, other norm
    for k, delta in enumerate((-1e-12, 0.0, 1e-12)):
        titles[10 + 2 * k] = _at_angle(0.0, 0.7)
        titles[11 + 2 * k] = _at_angle(THETA0 + delta, 3.0)
    titles[16] = np.zeros(3)
    return np.array(titles)


def _assert_matches_oracle(titles, seed, theta0=THETA0):
    discussions, index, tvecs = _random_corpus(titles, seed)
    A, skipped = build_cooccurrence(discussions, index, tvecs, theta0)
    B, expected = ref.all_pairs(discussions, index, tvecs, theta0)
    assert list(A.items()) == list(B.items())   # same floats, same keys
    assert skipped == expected
    return A, skipped


@pytest.mark.parametrize("seed", range(4))
def test_blocked_semantic_matches_pairwise_loop(seed):
    rng = np.random.default_rng(seed)
    titles = _edge_titles(rng, 40)
    A, skipped = _assert_matches_oracle(titles, seed)
    # 39 pairs with the first zero row, 38 more with the second
    assert skipped == 39 + 38
    assert A.nnz > 0


def test_blocked_semantic_matches_at_the_threshold():
    """Pairs at theta0 - 1e-12, theta0 and theta0 + 1e-12 get the exact
    test's verdict, whichever side of the rounding it falls."""
    for scale in (1.0, 1e-3, 1e3):
        titles = np.array([_at_angle(0.0, scale)]
                          + [_at_angle(THETA0 + d, 2.0) for d in
                             (-1e-12, -1e-15, 0.0, 1e-15, 1e-12)])
        _assert_matches_oracle(titles, 5)


def test_candidates_keep_the_slack_and_drop_the_rest():
    titles = np.array([_at_angle(0.0), _at_angle(THETA0 - 1e-12),
                       _at_angle(THETA0 + 1e-12, 4.0),
                       _at_angle(THETA0 + 1e-6), np.zeros(3)])
    a, b, skipped = cooccur.semantic_candidates(titles, THETA0)
    # (0, 3) is 1e-6 outside theta0, beyond the slack; row 4 is zero
    assert list(zip(a.tolist(), b.tolist())) == [(0, 1), (0, 2), (1, 2),
                                                 (1, 3), (2, 3)]
    assert skipped == 4


@pytest.mark.parametrize("count", [0, 1, 2])
def test_blocked_semantic_tiny_corpora(count):
    titles = np.ones((count, 3))
    A, skipped = _assert_matches_oracle(titles, count)
    assert skipped == 0
    zeros = np.zeros((count, 3))
    assert _assert_matches_oracle(zeros, count)[1] == count * (count - 1) // 2


def test_blocked_semantic_across_blocks(monkeypatch):
    rng = np.random.default_rng(7)
    # more rows than one block at the module's size, zero rows in both
    titles = _edge_titles(rng, cooccur.BLOCK_ROWS + 44)
    titles[cooccur.BLOCK_ROWS + 1] = 0.0
    _assert_matches_oracle(titles, 7)
    # block edges at every offset
    for rows in (1, 2, 5, 17):
        monkeypatch.setattr(cooccur, "BLOCK_ROWS", rows)
        _assert_matches_oracle(_edge_titles(rng, 40), rows)


def test_semantic_pairs_go_through_the_module_name(monkeypatch):
    """Only the candidates reach `accumulate_semantic`, and they reach it
    through the module, where a tracer can wrap it."""
    calls = []
    exact = cooccur.accumulate_semantic

    def counted(A, m, n, *rest):
        calls.append((discussions[m].id, discussions[n].id))
        return exact(A, m, n, *rest)
    monkeypatch.setattr(cooccur, "accumulate_semantic", counted)
    titles = _edge_titles(np.random.default_rng(3), 40)
    discussions, index, tvecs = _random_corpus(titles, 3)
    build_cooccurrence(discussions, index, tvecs, THETA0)
    kept = [(dm.id, dn.id) for k, dm in enumerate(discussions)
            for dn in discussions[k + 1:]
            if title_angle(tvecs[dm.id], tvecs[dn.id]) is not None
            and title_angle(tvecs[dm.id], tvecs[dn.id]) <= THETA0]
    order = {d.id: k for k, d in enumerate(discussions)}
    assert kept and set(kept) <= set(calls) and len(calls) < 40 * 39 // 2
    assert calls == sorted(calls, key=lambda p: (order[p[0]], order[p[1]]))


# ------------------------------------- the array channels against the loops

def _channel_corpus(seed, count=30):
    """Discussions drawn so that every case of the reply and temporal
    channels occurs: replies to a parent later in time order (ties broken
    by id, as ingest sorts), self-replies, unembedded authors (u12 to u15),
    parents that are missing, equal timestamps and discussions with a single
    embedded commenter. The index numbers users in an order that is not
    their name order. Titles are `_edge_titles` rows."""
    rng = np.random.default_rng(seed)
    discussions = []
    for k in range(count):
        post = SimpleNamespace(id="p%d" % k, author="u%d" % rng.integers(16),
                               timestamp=int(rng.integers(0, 50)), title="",
                               body="")
        n = int(rng.integers(0, 9))
        pool = rng.choice(16, size=int(rng.integers(1, 5)), replace=False)
        ids = ["p%d_c%d" % (k, c) for c in range(n)]
        times = post.timestamp + np.sort(rng.integers(0, 6, size=n) * 10)
        comments = [SimpleNamespace(
            id=ids[c], author="u%d" % rng.choice(pool),
            # any comment of the discussion, an earlier or later one, the
            # post, or an id that is not there
            parent_id=str(rng.choice(ids + [post.id, "gone"])),
            timestamp=int(times[c]), text="", depth=0) for c in range(n)]
        t_end = comments[-1].timestamp if comments else post.timestamp
        discussions.append(SimpleNamespace(
            id=post.id, post=post, comments=comments,
            t_start=post.timestamp, t_end=t_end))
    codes = rng.permutation(12)
    index = {"u%d" % u: int(codes[u]) for u in range(12)}
    titles = _edge_titles(rng, count)
    return discussions, index, {d.id: t for d, t in zip(discussions, titles)}


def _channel_cases(discussions, index):
    """How often each case `_channel_corpus` promises occurs."""
    cases = Counter()
    for d in discussions:
        position = {c.id: k for k, c in enumerate(d.comments)}
        author_of = {c.id: c.author for c in d.comments}
        embedded = {c.author for c in d.comments if c.author in index}
        cases["one embedded commenter"] += len(embedded) == 1
        times = [c.timestamp for c in d.comments]
        cases["equal timestamps"] += len(set(times)) < len(times)
        for k, c in enumerate(d.comments):
            cases["parent later"] += position.get(c.parent_id, -1) > k
            cases["self-reply"] += author_of.get(c.parent_id) == c.author
            cases["unembedded"] += c.author not in index
            cases["missing parent"] += c.parent_id == "gone"
    return cases


def _assert_same_as_the_loops(discussions, index, tvecs, tmp_path):
    A, skipped = build_cooccurrence(discussions, index, tvecs, THETA0)
    B, expected = ref.all_pairs(discussions, index, tvecs, THETA0)
    assert list(A.items()) == list(B.items())
    assert skipped == expected
    A.save(str(tmp_path / "array.txt"))
    B.save(str(tmp_path / "dict.txt"))
    assert ((tmp_path / "array.txt").read_bytes()
            == (tmp_path / "dict.txt").read_bytes())
    return A


@pytest.mark.parametrize("seed", range(6))
def test_channels_match_the_dict_loops(seed, tmp_path):
    discussions, index, tvecs = _channel_corpus(seed)
    cases = _channel_cases(discussions, index)
    assert min(cases.values()) > 0 and len(cases) == 6, cases
    assert sorted(index, key=index.get) != sorted(index)
    A = _assert_same_as_the_loops(discussions, index, tvecs, tmp_path)
    assert A.nnz > 10
    # the channels alone, discussion by discussion
    for d in discussions:
        B = ref.DictMatrix(len(index))
        ref.accumulate_communicative(B, d, index)
        ref.accumulate_temporal(B, d, index)
        C = CooccurrenceMatrix(len(index))
        C.add(*cooccur.discussion_channels(Corpus.of([d]), index))
        assert list(C.items()) == list(B.items())


def test_channels_of_a_synthetic_corpus_match_the_dict_loops(tmp_path):
    spec = synth.SynthSpec(w=5, N=4, discussions=120)
    synth.write_lexicon_files(spec, str(tmp_path), seed=3)
    corpus = str(tmp_path / "corpus.jsonl")
    synth.make_temporal_corpus(spec, 3, corpus, str(tmp_path / "truth.json"))
    discussions, _ = parse_corpus(corpus)
    users = sorted(embedded_users(discussions))
    index = {u: k for k, u in enumerate(users)}
    wv = load_word_vectors(str(tmp_path / "word_vectors.txt"))
    stopwords = load_stopwords(str(tmp_path / "stopwords.txt"))
    tvecs = _title_vectors(discussions, wv, None, stopwords)
    expected = ref.idf_title_vectors(discussions, wv, stopwords)
    assert all(tvecs[d.id].tobytes() == expected[d.id].tobytes()
               for d in discussions)
    A = _assert_same_as_the_loops(discussions, index, tvecs, tmp_path)
    assert A.nnz > 100


def test_increments_keep_their_order():
    """A key's sum depends on the order of its increments; the matrix adds
    them in the order they were made, as the dict does, also when entries
    are read between additions."""
    steps = [(0, 1, 1.0), (1, 0, 1e16), (0, 1, 1.0), (2, 3, 1.0),
             ([0, 3, 1], [1, 2, 0], [1.0, 1e16, 1.0]), (0, 1, 2.5)]
    A, B = CooccurrenceMatrix(4), ref.DictMatrix(4)
    for step, (i, j, v) in enumerate(steps):
        A.add(i, j, v)
        for triple in zip(np.atleast_1d(i), np.atleast_1d(j),
                          np.atleast_1d(v)):
            B.add(*(x.item() for x in triple))
        if step % 2:
            assert list(A.items()) == list(B.items())
    assert list(A.items()) == list(B.items())
    assert A.nnz == 2
    # in the order made, (0, 1) loses each 1.0 after 1e16 to rounding;
    # summed from small to large it would keep them
    assert _entries(A)[(0, 1)] == 1e16 + 2.0
    assert sum(sorted([1.0, 1e16, 1.0, 1.0, 1.0, 2.5])) != 1e16 + 2.0


def test_add_drops_the_diagonal_and_refuses_bad_increments():
    A = CooccurrenceMatrix(4)
    A.add(1, 1, 9.0)
    A.add([0, 2, 3], [0, 3, 3], [-1.0, 0.5, math.inf])  # diagonal dropped
    assert _entries(A) == {(2, 3): 0.5}
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            A.add(0, 1, bad)
        with pytest.raises(ValueError):  # a block is refused whole
            A.add([0, 1, 2], [1, 2, 3], [1.0, bad, 1.0])
        with pytest.raises(ValueError):
            A.add([0, 1], [2, 3], bad)
    assert _entries(A) == {(2, 3): 0.5}
    A.add([0, 1], [2, 3], -0.0)   # -0.0 >= 0 passes, and adds nothing
    assert _entries(A) == {(0, 2): 0.0, (1, 3): 0.0, (2, 3): 0.5}


def test_sigmoid_is_libm_per_value():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(scale=5, size=2000),
                        rng.uniform(1, 4000, size=2000),
                        [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300]])
    got = cooccur.sigmoid(x)
    assert got.tobytes() == np.array([ref.sigmoid(v) for v in x]).tobytes()
    assert cooccur.sigmoid(x.reshape(2, -1)).tobytes() == got.tobytes()


# ---------------------------------------- title vectors against the loop

TITLE_WORDS = ["solar", "wind", "grid", "storage", "common", "negzero",
               "the", "of", "unknown", "more"]


def _title_lexicon(rng):
    """Word vectors (`unknown` has none) with some components +0.0 and
    -0.0, and a lexicon idf with zero, negative and missing entries."""
    vectors = {t: rng.normal(size=4) for t in TITLE_WORDS
               if t != "unknown"}
    vectors["negzero"] = np.array([-0.0, 0.0, -0.0, 1.5])
    vectors["common"][0] = -0.0
    idf = {"solar": 1.3, "wind": 0.0, "grid": -0.4, "storage": 2.5,
           "negzero": 0.7, "the": 1.0, "more": 0.9}
    return vectors, idf


def _random_titles(rng, count):
    titles = ["the of", "The, OF!", "unknown", "", "common", "negzero",
              "wind", "wind grid", "common negzero", "solar solar wind"]
    for _ in range(count - len(titles)):
        words = rng.choice(TITLE_WORDS, size=int(rng.integers(0, 7)))
        titles.append(" ".join(w.upper() if rng.random() < 0.2 else w
                               for w in words) + rng.choice(["", ".", "?"]))
    return titles


def _assert_same_bytes(got, expected, discussions):
    for d in discussions:
        assert got[d.id].tobytes() == expected[d.id].tobytes(), d.post.title


@pytest.mark.parametrize("seed", range(4))
def test_title_vectors_match_the_loop(seed):
    """Title idf (the semantic channel) and a lexicon's idf (featurize):
    the one pass equals the one-title loop in bytes, signed zeros included,
    for stopword-only titles (zero), titles whose weights are all 0 or
    negative (the plain mean) and titles with no known token."""
    rng = np.random.default_rng(seed)
    vectors, idf = _title_lexicon(rng)
    stopwords = frozenset(["the", "of"])
    titles = _random_titles(rng, 80)
    discussions = [SimpleNamespace(id="d%d" % k, post=SimpleNamespace(title=t))
                   for k, t in enumerate(titles)]
    got = _title_vectors(discussions, vectors, idf, stopwords)
    expected = ref.title_vectors(discussions, vectors, idf, stopwords)
    _assert_same_bytes(got, expected, discussions)
    rows = np.array([expected[d.id] for d in discussions])
    assert not rows[:4].any()                     # stopwords, unknown, empty
    assert (rows[4] == vectors["common"]).all()   # no idf: the plain mean
    for d in discussions[:12]:
        assert (title_vector(d.post.title, vectors, idf, stopwords).tobytes()
                == expected[d.id].tobytes())
    # title idf: "common" in all titles but the first, so its idf is 0 and
    # a title of it alone takes the plain mean
    for d in discussions[1:]:
        d.post.title += " common"
    got = _title_vectors(discussions, vectors, None, stopwords)
    expected = ref.idf_title_vectors(discussions, vectors, stopwords)
    _assert_same_bytes(got, expected, discussions)
    assert not expected["d0"].any()
    assert (expected["d4"] == vectors["common"]).all()
    assert _title_vectors([], vectors, idf, stopwords) == {}
