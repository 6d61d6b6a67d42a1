"""Joined text records, the array pass over them and the pack built from
its rows, against one text at a time (`text_reference`)."""

import json
import random

import numpy as np
import pytest

import text_reference as ref
from cooccur_reference import idf_table, title_vectors
from threadcurve import dataset as ds
from threadcurve import features as ft
from threadcurve import logreg, synth, text
from threadcurve.clustering import ClusterModel
from threadcurve.corpus import Corpus, Discussion, parse_corpus
from threadcurve.embedding import EmbeddingModel
from threadcurve.text import Texts
from text_reference import text_stats

# blank and empty pieces, closing marks at either end of a text, a
# dangling "www.", URLs, repeated and long tokens; whitespace above ASCII
# and below the space, NUL, a lone surrogate, and letters whose lowercase
# is longer (U+0130), ASCII (U+212A) or depends on the next letter (Σ)
PIECES = ["", " ", "\t", "a", "Abc", "abc", ".", "!", "?", "...", "!?", "x.",
          ".y", " . ", "end.", "  lead", "trail  ", "www.", "www.x.org",
          "http://a.b/c", "https://q", "longerword", "w01 w02", "\u00a0",
          "\u2028", "\u3000", "\x1c", "\x00", "\ud800", "\u03a3",
          "\u0130", "\u212a"]


def _random_text(rng):
    return "".join(rng.choice(PIECES) for _ in range(rng.randrange(5)))


def _records(texts, lo, hi):
    """`Texts.join` of texts lo[r] .. hi[r] - 1, as one (pairs, sentences,
    URLs, closing marks) tuple per record: `text_stats`' fields."""
    batch = Texts(texts)
    records = batch.join(lo, hi)
    return [(tuple((batch.vocabulary[k], int(tf)) for k, tf in
                   zip(records.ids[records.record == r],
                       records.tf[records.record == r])),
             int(records.sentences[r]), int(records.urls[r]),
             int(records.closing[r])) for r in range(len(lo))]


def test_join_matches_the_joined_text():
    """Any run of texts in a batch, the empty run too: the texts before it
    must not reach its record."""
    rng = random.Random(0)
    for _ in range(5000):
        texts = [_random_text(rng) for _ in range(rng.randrange(9))]
        lo = rng.randrange(len(texts) + 1)
        hi = rng.randrange(lo, len(texts) + 1)
        assert (_records(texts, [lo], [hi])
                == [text_stats(" ".join(texts[lo:hi]))[:4]]), (texts, lo, hi)


def test_texts_match_text_stats():
    """Every field of every text's record, over batches of random texts
    and a batch boundary: terms, sentences, URLs, closing marks, head and
    tail."""
    rng = random.Random(4)
    texts = [_random_text(rng) for _ in range(text.BATCH + 300)]
    texts += PIECES + [a + b for a in PIECES for b in PIECES]
    batch = Texts(texts)
    for t, one in enumerate(texts):
        lo, hi = batch.starts[t], batch.starts[t + 1]
        assert (tuple((batch.vocabulary[k], int(tf)) for k, tf in
                      zip(batch.ids[lo:hi], batch.tf[lo:hi])),
                int(batch.sentences[t]), int(batch.urls[t]),
                int(batch.closing[t]), bool(batch.head[t]),
                bool(batch.tail[t])) == text_stats(one), repr(one)


def test_whitespace_is_what_isspace_says():
    assert text.WHITESPACE == "".join(
        c for c in map(chr, range(0x110000)) if c.isspace())


def test_prefixes_match_every_joined_prefix():
    """The records of logreg's prefixes, the post and the comments of the
    windows before each step, from one join: each equals the record of the
    joined prefix."""
    rng = random.Random(1)
    for _ in range(500):
        texts = [_random_text(rng) for _ in range(rng.randrange(1, 12))]
        w = rng.randrange(1, 4)
        ends = [1] + [min(k + w, len(texts))
                      for k in range(1, len(texts), w)]
        assert (_records(texts, [0] * len(ends), ends)
                == [text_stats(" ".join(texts[:end]))[:4] for end in ends]
                ), texts


WORDS = ["alpha", "beta", "gamma", "good", "bad", "idfzero", "neg",
         "longerword", "x", "w01", "w02", "oov", "unknownword", ".", "!",
         "?", "www.a", "http://b.c", "Alpha"]


def _lexicons(d_w=3):
    rng = np.random.default_rng(5)
    vectors = {t: rng.normal(size=d_w) for t in
               ["alpha", "beta", "gamma", "good", "bad", "idfzero",
                "longerword", "w01"]}
    # idf 0: every term of its latent sum is tf * 0 * v, -0.0 where v < 0
    vectors["idfzero"] = -np.abs(vectors["idfzero"])
    idf = {"alpha": 0.3, "beta": 1.7, "good": 0.1, "idfzero": 0.0,
           "neg": -0.2, "longerword": 2.5, "x": 1e-3, "w01": 0.7}
    sentiment = {"good": 0.8, "bad": -0.5, "gamma": 0.1, "x": -0.3,
                 "w02": 0.35}
    return ft.Lexicons(idf=idf, word_vectors=vectors, sentiment=sentiment,
                       stopwords=frozenset(), vocab_size=37)


EDGE_TEXTS = ["", " ", "oov unknownword", "oov. unknownword!", "idfzero",
              "idfzero idfzero.", "good bad good.", "bad x x?",
              "longerword alpha, beta!", "www.a http://b.c."]


def _texts():
    rng = random.Random(2)
    return EDGE_TEXTS + [" ".join(rng.choice(WORDS)
                                  for _ in range(rng.randrange(60)))
                         for _ in range(400)]


def test_text_rows_match_the_loops_over_terms():
    lex = _lexicons()
    texts = _texts()
    rng = random.Random(3)
    depth = [rng.randrange(10) for _ in texts]
    seconds = [rng.randrange(10 ** 6) for _ in texts]
    batch = Texts(texts)
    rows = ft.text_rows(batch.join(range(len(texts)), range(1, len(texts) + 1)),
                        ft.term_tables(lex, batch.vocabulary), depth, seconds)
    expected = np.array([ref.text_row(t, lex, d, s)
                         for t, d, s in zip(texts, depth, seconds)])
    assert rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()
    # the sums of an idf-0 text start from +0.0
    assert not np.signbit(rows[EDGE_TEXTS.index("idfzero")]).any()


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_one_text_functions_match_the_loops(text):
    lex = _lexicons()

    def same(a, b):
        assert np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()
    row = ft._text_row(text, lex)
    same(row[0], ref.avg_tfidf(text, lex))
    same(ft.lix(text), ref.lix(text))
    same(ft.term_entropy(text, lex.vocab_size),
         ref.term_entropy(text, lex.vocab_size))
    assert ft.polarity(text, lex.sentiment) == ref.polarity(text,
                                                            lex.sentiment)
    same(ft.polarity(text, lex.sentiment)[0],
         ref.polarity(text, lex.sentiment)[0])
    same(row[ft.TEXT_WIDTH:], ref.latent_vector(text, lex))
    same(ft._text_block(text, lex, 2, 30), ref.text_block(text, lex, 2, 30))


@pytest.fixture
def corpus(tmp_path):
    """A small planted corpus in which one reply is timestamped before its
    parent, a user without an embedding comments, and a sentiment lexicon
    scores every pool word. Returns (spec, discussions, lexicons,
    embedding, cluster model)."""
    spec = synth.SynthSpec(clusters=2, users_per_cluster=4, discussions=7,
                           w=3, N=3, d_w=4, vocab_words=12)
    synth.write_lexicon_files(spec, str(tmp_path), seed=0)
    path = tmp_path / "corpus.jsonl"
    synth.make_temporal_corpus(spec, 0, str(path), str(tmp_path / "t.json"))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    first = lines[0]["comments"]
    first[1]["parent_id"] = first[4]["id"]  # answers a later comment
    first[4]["parent_id"] = lines[0]["post"]["id"]
    first[5]["author"] = "stranger"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    discussions, _ = parse_corpus(str(path))
    sentiment = {"w%02d" % k: (k - 5.5) / 10 for k in range(12)}
    lex = ft.build_lexicons(
        Corpus.of(discussions),
        ft.load_word_vectors(str(tmp_path / "word_vectors.txt")), sentiment)
    users = sorted({c.author for d in discussions for c in d.comments}
                   - {"stranger"})
    rng = np.random.default_rng(1)
    emb = EmbeddingModel(users, rng.normal(size=(len(users), 3)),
                         np.zeros(len(users)))
    cm = ClusterModel(rng.normal(size=(2, 3)),
                      {u: k % 2 for k, u in enumerate(users)})
    return spec, discussions, lex, emb, cm


def _user(author, emb):
    return emb.vector(author) if author in emb.index else np.zeros(emb.dim)


def _reference_pack(discussions, w, N, lex, emb, cm):
    """Every array of a temporal pack, one text and one discussion at a
    time (`text_reference`); the one-text entry points must give the same
    rows."""
    tvecs = title_vectors(discussions, lex.word_vectors, lex.idf,
                          lex.stopwords)
    D, n = len(discussions), cm.n
    pack = {"x1": [], "x2": np.zeros((D, N, ft.comment_layout(
        lex.d_w, emb.dim).width)), "logreg_features": np.zeros(
        (D, N, n, logreg.feature_width(emb.dim)))}
    for r, disc in enumerate(discussions):
        post = disc.post
        x1 = np.concatenate([ref.text_row(post.title + " " + post.body, lex),
                             _user(post.author, emb), tvecs[disc.id]])
        assert (ft.featurize_post(disc, lex, emb, tvecs[disc.id]).tobytes()
                == x1.tobytes())
        pack["x1"].append(x1)
        for k in range(N):
            window = disc.comments[k * w:(k + 1) * w]
            if not window:
                continue
            rows = [np.concatenate([
                ref.text_row(c.text, lex, c.depth,
                             c.timestamp - post.timestamp),
                _user(c.author, emb)]) for c in window]
            for c, row in zip(window, rows):
                assert (ft.featurize_comment(c, disc, lex, emb).tobytes()
                        == row.tobytes())
            pack["x2"][r, k] = np.mean(rows, axis=0)
            prefix = Discussion(post, disc.comments[:k * w])
            features = ref.aggregate_step_features(prefix, cm, lex, emb)
            assert (logreg.aggregate_step_features(prefix, cm, lex,
                                                   emb).tobytes()
                    == features.tobytes())
            pack["logreg_features"][r, k] = features
        for key, value in ref.step_rows(disc, w, N, emb, cm).items():
            pack.setdefault(key, []).append(value)
    return {key: np.asarray(value) for key, value in pack.items()}


def _assert_same_bytes(pack, expected):
    assert sorted(pack) == sorted(expected)
    for key, value in expected.items():
        assert pack[key].dtype == value.dtype, key
        assert pack[key].tobytes() == value.tobytes(), key


def test_pack_rows_match_one_text_at_a_time(corpus, monkeypatch):
    spec, discussions, lex, emb, cm = corpus
    w, N = spec.w, spec.N
    first = discussions[0].comments
    position = {c.id: k for k, c in enumerate(first)}
    assert any(position.get(c.parent_id, -1) > k for k, c in enumerate(first))
    monkeypatch.setattr(ds, "CHUNK", 3)  # three passes, the last one short
    pack, _, _ = ds.build_temporal_dataset(Corpus.of(discussions), w, N, lex,
                                           emb, cm)
    expected = _reference_pack(discussions, w, N, lex, emb, cm)
    _assert_same_bytes(ds.model_arrays(pack, emb, cm), expected)
    # the planted sentiment words reach the content block
    assert np.abs(expected["logreg_features"][..., 3]).max() > 0


def _comment(cid, author, parent, timestamp, body):
    return {"id": cid, "author": author, "parent_id": parent,
            "timestamp": timestamp, "body": body}


@pytest.fixture
def edge_corpus(tmp_path):
    """Train and test discussions with what the id-based lexicons must
    count or skip: training comments beyond N*w, a token only the test
    discussions hold, non-ASCII and digit-only tokens, a discussion with no
    comments, self-replies, a reply to a later comment, a post author who
    comments, an unembedded commenter and a prefix with three members of
    one cluster, first seen out of name order. One commenter's vector holds
    the smallest negative subnormal, so a window's mean underflows to
    -0.0."""
    lines = [
        {"post": {"id": "p1", "author": "ann", "title": "Café naïve 2024",
                  "body": "İstanbul über 007. Straße!", "timestamp": 100},
         "comments": [
             _comment("a", "bob", "p1", 110, "Über café, 2024 007 007!"),
             _comment("b", "tiny", "d", 120, "naïve? www.x.org ok."),
             _comment("c", "ann", "a", 130, "ünïcode 42 ann answers"),
             _comment("d", "bob", "p1", 140, "bob again. bob"),
             _comment("e", "bob", "d", 150, "self reply 007"),
             _comment("f", "stranger", "a", 160, "beyond the windows"),
             _comment("g", "cat", "f", 170, "laterword only here."),
         ]},
        {"post": {"id": "p2", "author": "bob", "title": "Quiet post",
                  "body": "nobody answers", "timestamp": 200},
         "comments": []},
        {"post": {"id": "p3", "author": "cat", "title": "Small talk",
                  "body": "tiny zero 42", "timestamp": 300},
         "comments": [
             _comment("h", "tiny", "p3", 310, "first. second"),
             _comment("i", "zero", "h", 310, "42 42 42"),
             _comment("j", "cat", "i", 400, "... !"),
         ]},
        {"post": {"id": "p4", "author": "zero", "title": "Held out",
                  "body": "zebra café", "timestamp": 500},
         "comments": [
             _comment("k", "zero", "p4", 520, "zebra zebra 2024."),
             _comment("l", "cat", "k", 530, "über alles"),
             _comment("m", "ann", "k", 540, "zebra café"),
             _comment("n", "bob", "m", 550, "late"),
         ]},
    ]
    path = tmp_path / "edges.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    discussions, _ = parse_corpus(str(path))
    users = ["ann", "bob", "cat", "tiny", "zero"]
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(5, 3))
    vectors[:, 0] = 0.0
    vectors[users.index("tiny"), 0] = -5e-324
    # (1 + 1e-16) - 1 is 0, but (-1 + 1e-16) + 1 is not: a sum in name order
    vectors[[0, 2, 4], 1] = 1.0, 1e-16, -1.0
    emb = EmbeddingModel(users, vectors, np.zeros(5))
    cm = ClusterModel(np.zeros((2, 3)), {u: k % 2 for k, u in
                                         enumerate(users)})
    words = ["caf", "2024", "007", "ber", "stanbul", "na", "ve", "42",
             "zebra", "laterword", "bob"]
    word_vectors = {t: rng.normal(size=4) for t in words}
    return discussions[:3], discussions[3:], word_vectors, emb, cm


def test_lexicons_and_pack_from_token_ids(edge_corpus, monkeypatch):
    train, test, word_vectors, emb, cm = edge_corpus
    w, N = 3, 2
    corpus = Corpus.of(train + test)  # tokenized once, as ingest does
    lex = ft.build_lexicons(corpus, word_vectors, {"caf": 0.5, "zebra": -1.0},
                            frozenset(["the"]), np.arange(len(train)))
    docs = [ref.tokenize(d.post.title + " " + d.post.body) for d in train]
    docs += [ref.tokenize(c.text) for d in train for c in d.comments]
    assert lex.idf == idf_table(docs)
    assert lex.vocab_size == len(idf_table(docs))
    own = ft.build_lexicons(Corpus.of(train), word_vectors, {})  # alone
    assert (own.idf, own.vocab_size) == (lex.idf, lex.vocab_size)
    # a comment beyond N*w counts; a test-only token does not
    assert "laterword" in lex.idf and "zebra" not in lex.idf
    assert {"stanbul", "2024", "007", "42"} <= set(lex.idf)

    monkeypatch.setattr(ds, "CHUNK", 3)  # the test discussion in a pass alone
    pack, _, _ = ds.build_temporal_dataset(corpus, w, N, lex, emb, cm)
    expected = _reference_pack(train + test, w, N, lex, emb, cm)
    _assert_same_bytes(ds.model_arrays(pack, emb, cm), expected)
    # the rows of a split, in its order
    order = [3, 0, 2, 1]
    shuffled, _, _ = ds.build_temporal_dataset(corpus, w, N, lex, emb, cm,
                                               order)
    _assert_same_bytes(ds.model_arrays(shuffled, emb, cm), _reference_pack(
        [(train + test)[k] for k in order], w, N, lex, emb, cm))
    # a window whose mean is -0.0: the subnormal over three comments
    negative_zero = (pack["x2"] == 0) & np.signbit(pack["x2"])
    assert negative_zero[2, 0].any()


def test_nontemporal_posts_match_one_text_at_a_time(corpus, monkeypatch):
    _, discussions, lex, emb, _ = corpus
    monkeypatch.setattr(ds, "CHUNK", 2)
    pack, _ = ds.build_nontemporal_dataset(Corpus.of(discussions), lex, emb)
    tvecs = title_vectors(discussions, lex.word_vectors, lex.idf,
                          lex.stopwords)
    x1 = np.array([np.concatenate([
        ref.text_row(d.post.title + " " + d.post.body, lex),
        _user(d.post.author, emb), tvecs[d.id]]) for d in discussions])
    assert pack["x1"].tobytes() == x1.tobytes()
