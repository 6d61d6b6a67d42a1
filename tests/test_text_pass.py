"""The running merge of text records, the array pass over them and the
pack built from its rows, against one text at a time (`text_reference`)."""

import json
import random

import numpy as np
import pytest

import text_reference as ref
from threadcurve import dataset as ds
from threadcurve import features as ft
from threadcurve import logreg, synth
from threadcurve.clustering import ClusterModel
from threadcurve.cooccur import title_vectors
from threadcurve.corpus import Discussion, parse_corpus
from threadcurve.embedding import EmbeddingModel
from threadcurve.text import merge_stats, text_stats

# blank and empty pieces, closing marks at either end of a text, a
# dangling "www.", URLs, repeated and long tokens
PIECES = ["", " ", "\t", "a", "Abc", "abc", ".", "!", "?", "...", "!?", "x.",
          ".y", " . ", "end.", "  lead", "trail  ", "www.", "www.x.org",
          "http://a.b/c", "https://q", "longerword", "w01 w02"]


def _random_text(rng):
    return "".join(rng.choice(PIECES) for _ in range(rng.randrange(5)))


def test_merge_matches_the_joined_text():
    rng = random.Random(0)
    for _ in range(5000):
        texts = [_random_text(rng) for _ in range(rng.randrange(6))]
        assert (merge_stats([text_stats(t) for t in texts])
                == text_stats(" ".join(texts))), texts


def test_running_merge_matches_every_prefix():
    """A prefix record merged window by window, as logreg's prefixes
    grow, equals the record of the joined prefix at every step."""
    rng = random.Random(1)
    for _ in range(500):
        texts = [_random_text(rng) for _ in range(rng.randrange(1, 12))]
        w = rng.randrange(1, 4)
        prefix = text_stats(texts[0])
        for k in range(1, len(texts), w):
            prefix = merge_stats([prefix] + [text_stats(t)
                                             for t in texts[k:k + w]])
            assert prefix == text_stats(" ".join(texts[:k + w])), texts


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
    rows = ft.text_rows([text_stats(t) for t in texts], lex, depth, seconds)
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
    row = ft.text_rows([text_stats(text)], lex, [0], [0])[0]
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
        discussions, ft.load_word_vectors(str(tmp_path / "word_vectors.txt")),
        sentiment)
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


def test_pack_rows_match_one_text_at_a_time(corpus, monkeypatch):
    spec, discussions, lex, emb, cm = corpus
    w, N = spec.w, spec.N
    first = discussions[0].comments
    position = {c.id: k for k, c in enumerate(first)}
    assert any(position.get(c.parent_id, -1) > k for k, c in enumerate(first))
    monkeypatch.setattr(ds, "CHUNK", 3)  # three passes, the last one short
    pack, _, _ = ds.build_temporal_dataset(discussions, w, N, lex, emb, cm)
    tvecs = title_vectors(discussions, lex.word_vectors, lex.idf,
                          lex.stopwords)
    x1 = np.zeros_like(pack["x1"])
    x2 = np.zeros_like(pack["x2"])
    features = np.zeros_like(pack["logreg_features"])
    for r, disc in enumerate(discussions):
        post = disc.post
        x1[r] = np.concatenate([ref.text_row(post.title + " " + post.body,
                                             lex),
                                _user(post.author, emb), tvecs[disc.id]])
        assert (ft.featurize_post(disc, lex, emb, tvecs[disc.id]).tobytes()
                == x1[r].tobytes())
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
            x2[r, k] = np.mean(rows, axis=0)
            prefix = Discussion(post, disc.comments[:k * w])
            features[r, k] = ref.aggregate_step_features(prefix, cm, lex, emb)
            assert (logreg.aggregate_step_features(prefix, cm, lex,
                                                   emb).tobytes()
                    == features[r, k].tobytes())
    assert pack["x1"].tobytes() == x1.tobytes()
    assert pack["x2"].tobytes() == x2.tobytes()
    assert pack["logreg_features"].tobytes() == features.tobytes()
    # the planted sentiment words reach the content block
    assert np.abs(features[..., 3]).max() > 0


def test_nontemporal_posts_match_one_text_at_a_time(corpus, monkeypatch):
    _, discussions, lex, emb, _ = corpus
    monkeypatch.setattr(ds, "CHUNK", 2)
    pack, _ = ds.build_nontemporal_dataset(discussions, lex, emb)
    tvecs = title_vectors(discussions, lex.word_vectors, lex.idf,
                          lex.stopwords)
    x1 = np.array([np.concatenate([
        ref.text_row(d.post.title + " " + d.post.body, lex),
        _user(d.post.author, emb), tvecs[d.id]]) for d in discussions])
    assert pack["x1"].tobytes() == x1.tobytes()
