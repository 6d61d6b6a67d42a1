import math

import numpy as np
import pytest

import text_reference as ref
from threadcurve import features as ft
from threadcurve.corpus import Corpus, parse_corpus
from threadcurve.storage import StoreError, TableError
from text_reference import count_closing_punct, text_stats, tokenize
from threadcurve.text import count_urls
from conftest import make_lexicons


def test_tokenize_lowercase_alnum():
    assert tokenize("Hello, world! 123 don't") == ["hello", "world", "123",
                                                   "don", "t"]
    assert tokenize("") == []


def test_sentences_split_on_closing_punct():
    assert ref.sentences("One. Two!! Three? ") == ["One", "Two", "Three"]
    assert ref.sentences("no terminator") == ["no terminator"]
    for text in ("One. Two!! Three? ", "no terminator", "", " . "):
        assert text_stats(text).sentences == len(ref.sentences(text))


def test_url_and_punct_counts():
    assert count_urls("see https://a.b/c and www.d.e now") == 2
    assert count_closing_punct("well... done! really?") == 5


def test_lix_frozen_example():
    # 10 words, 2 sentences, 3 words longer than six characters
    text = "epsilon omicron upsilon one two. three four five six seven."
    assert ft.lix(text) == pytest.approx(35.0, abs=1e-12)
    assert ft.lix("") == 0.0


def test_term_entropy_frozen_examples():
    # single term, tf=1, |T|=4 -> (1/4) * log 4
    assert ft.term_entropy("alpha", 4) == pytest.approx(math.log(4) / 4,
                                                        abs=1e-12)
    # single term with tf = |T| = 4 -> zero
    assert ft.term_entropy("alpha alpha alpha alpha", 4) == pytest.approx(
        0.0, abs=1e-12)
    with pytest.raises(ValueError):
        ft.term_entropy("alpha", 0)


def test_polarity_frozen_examples():
    table = {"good": 0.8, "bad": -0.5}
    assert ft.polarity("good bad neutral", table) == (pytest.approx(0.3), 1, 1)
    # unique terms only: repetition does not double-count
    assert ft.polarity("good good", table) == (pytest.approx(0.8), 1, 0)
    assert ft.polarity("nothing here", table) == (0.0, 0, 0)


def test_avg_tfidf_and_latent_vector():
    lex = ft.Lexicons(idf={"a": 2.0, "b": 1.0},
                      word_vectors={"a": np.array([1.0, 0.0]),
                                    "b": np.array([0.0, 1.0])},
                      sentiment={}, stopwords=frozenset(), vocab_size=2)
    # counts a:2, b:1 -> tf*idf scores [4, 1]
    assert ref.avg_tfidf("a a b", lex) == pytest.approx(2.5)
    assert ref.avg_tfidf("zzz", lex) == 0.0
    np.testing.assert_allclose(ref.latent_vector("a a b", lex), [2.0, 0.5])
    np.testing.assert_allclose(ref.latent_vector("zzz", lex), [0.0, 0.0])
    for text in ("a a b", "zzz"):
        row = ft._text_row(text, lex)
        assert row[0] == ref.avg_tfidf(text, lex)
        np.testing.assert_array_equal(row[ft.TEXT_WIDTH:],
                                      ref.latent_vector(text, lex))


def test_lexicon_files_load(tmp_path):
    wv = tmp_path / "wv.txt"
    wv.write_text("solar 1.5 -2\n\nwind 0 1e-3\n")
    table = ft.load_word_vectors(str(wv))
    assert list(table) == ["solar", "wind"]
    np.testing.assert_array_equal(table["solar"], [1.5, -2.0])
    np.testing.assert_array_equal(table["wind"], [0.0, 0.001])
    sent = tmp_path / "sent.txt"
    sent.write_text("good 2.5\n\nbad -1\n")
    assert ft.load_sentiment(str(sent)) == {"good": 2.5, "bad": -1.0}
    stop = tmp_path / "stop.txt"
    stop.write_text("the\n\n  of \r\n")
    assert ft.load_stopwords(str(stop)) == {"the", "of"}


@pytest.mark.parametrize("loader, content, message", [
    ("word_vectors", b"", "holds no word vectors"),
    ("word_vectors", b"\n  \n", "holds no word vectors"),
    ("word_vectors", b"a 1 2\nb 1 x\n", "line 2: 'x' is not a finite number"),
    ("word_vectors", b"a 1 2\nb 1 nan\n", "line 2: 'nan' is not a finite"),
    ("word_vectors", b"a 1 2\n\nb 1 2 3\n", "line 3: 'b' has 3 values, line 1 has 2"),
    ("word_vectors", b"a 1 2\nb 1\n", "line 2: 'b' has 1 values, line 1 has 2"),
    ("word_vectors", b"a\n", "line 1: 'a' has no values"),
    ("word_vectors", b"a 1\nb\xff 1\n", "line 2 is not UTF-8"),
    ("sentiment", b"good 1\nbad minus\n", "line 2: 'minus' is not a finite"),
    ("sentiment", b"good inf\n", "line 1: 'inf' is not a finite number"),
    ("sentiment", b"good 1\nbad\n", "line 2: expected a word and a score, got 1"),
    ("sentiment", b"cool stuff 3\n", "line 1: expected a word and a score, got 3"),
    ("sentiment", b"\xfe 1\n", "line 1 is not UTF-8"),
    ("stopwords", b"the\ncaf\xff\n", "line 2 is not UTF-8"),
])
def test_bad_lexicon_file_is_named(tmp_path, loader, content, message):
    path = tmp_path / "lexicon.txt"
    path.write_bytes(content)
    with pytest.raises(TableError) as info:
        getattr(ft, "load_" + loader)(str(path))
    assert str(info.value).startswith(str(path))
    assert message in str(info.value)
    assert isinstance(info.value, StoreError)  # the CLI's exit-2 errors


def test_build_lexicons_idf_and_vocab(tiny_corpus):
    discussions, _, _ = tiny_corpus
    wv = {"text": np.array([1.0])}
    lex = ft.build_lexicons(Corpus.of(discussions), wv, {})
    # 2 posts + 5 comments = 7 documents; "text" appears in every comment
    assert lex.idf["text"] == pytest.approx(math.log(7 / 6))
    assert lex.vocab_size == len(lex.idf)
    assert lex.d_w == 1


def test_layout_widths_and_slices():
    cl = ft.comment_layout(d_w=3, d=4)
    pl = ft.post_layout(d_w=3, d=4)
    assert cl.width == 6 + 6 + 3 + 4
    assert pl.width == cl.width + 3
    assert cl.slice_of("surface") == slice(6, 12)
    assert pl.slice_of("title") == slice(19, 22)
    with pytest.raises(KeyError):
        cl.slice_of("title")


# (text, (sentence count, words per sentence, URL count, closing marks))
SURFACE_CASES = [
    pytest.param("text 1.", (1.0, 2.0, 0.0, 1.0), id="text-1"),
    pytest.param("", (0.0, 0.0, 0.0, 0.0), id="empty"),
    pytest.param("no closing punctuation here", (1.0, 4.0, 0.0, 0.0),
                 id="no-closing"),
    pytest.param("Wow!!! Really?", (2.0, 1.0, 0.0, 4.0), id="marks"),
    pytest.param("See https://a.b/c. Then www.d.e now.",
                 (5.0, 2.0, 2.0, 5.0), id="urls"),
    pytest.param("alpha beta alpha. alpha gamma alpha!",
                 (2.0, 3.0, 0.0, 2.0), id="repeated"),
    pytest.param("good news, bad news. Good!", (2.0, 2.5, 0.0, 2.0),
                 id="sentiment"),
]


@pytest.mark.parametrize("text, surface", SURFACE_CASES)
def test_featurize_comment_matches_block_oracle(tiny_corpus, text, surface):
    discussions, _, _ = tiny_corpus
    d = discussions[0]
    lex = make_lexicons(d_w=3, extra_vocab=["text", "0", "1", "2"])
    c = d.comments[1]._replace(text=text)
    vec = ft.featurize_comment(c, d, lex, None)
    pol, pos, neg = ft.polarity(text, lex.sentiment)
    n_sent, avg_words, n_urls, n_closing = surface
    oracle = np.concatenate([
        [ref.avg_tfidf(text, lex), ft.lix(text),
         ft.term_entropy(text, lex.vocab_size), pol, pos, neg],
        [n_sent, avg_words, n_urls, float(c.depth),
         float(c.timestamp - d.post.timestamp), n_closing],
        ref.latent_vector(text, lex),
    ])
    np.testing.assert_allclose(vec, oracle, atol=1e-12)
    assert vec.shape == (ft.comment_layout(3, 0).width,)


def test_featurize_post_appends_title_vector(tiny_corpus):
    discussions, _, _ = tiny_corpus
    lex = make_lexicons(d_w=3)
    tv = np.array([0.1, 0.2, 0.3])
    vec = ft.featurize_post(discussions[0], lex, None, tv)
    assert vec.shape == (ft.post_layout(3, 0).width,)
    np.testing.assert_allclose(vec[-3:], tv)
    # surface block of a post uses depth 0 and zero elapsed seconds
    assert vec[9] == 0.0 and vec[10] == 0.0


def test_ablate_drop_shrinks_vector():
    layout = ft.comment_layout(d_w=2, d=3)
    X = np.arange(2 * layout.width, dtype=float).reshape(2, layout.width)
    out, new_layout = ft.ablate(X, layout, "latent", "drop", 1)
    assert out.shape == (2, layout.width - 2)
    assert not new_layout.has("latent")
    np.testing.assert_allclose(out, np.concatenate([X[:, :12], X[:, 14:]], axis=1))
    with pytest.raises(KeyError):
        ft.ablate(X, layout, "nope", "drop", 1)


def test_ablate_noise_uses_training_stats():
    layout = ft.comment_layout(d_w=2, d=3)
    X = np.arange(3 * layout.width, dtype=float).reshape(3, layout.width)
    X[:2] = 5.0  # two training rows: std is exactly zero
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    out, new_layout = ft.ablate(X, layout, "user", "noise", 2, rngs)
    sl = layout.slice_of("user")
    np.testing.assert_allclose(out[:, sl], 5.0)  # sigma=0 collapses to the mean
    np.testing.assert_allclose(out[:, :sl.start], X[:, :sl.start])
    assert new_layout is layout
    with pytest.raises(ValueError):
        ft.ablate(X, layout, "user", "shuffle", 2, rngs)


def test_ablate_noise_follows_training_split():
    """Test rows drawn from a shifted distribution get noise with the
    training split's mean and std; rows outside `valid` neither feed the
    statistics nor receive noise."""
    layout = ft.comment_layout(d_w=2, d=3)
    rng = np.random.default_rng(0)
    n_train, n_test, steps = 3000, 1000, 2
    X = rng.normal(0.0, 1.0, size=(n_train + n_test, steps, layout.width))
    X[n_train:] = rng.normal(50.0, 10.0, size=(n_test, steps, layout.width))
    valid = np.ones((n_train + n_test, steps), dtype=bool)
    valid[:, 1] = False
    X[:, 1] = 1e6  # rows without data; their values must not count
    rngs = [np.random.default_rng(1), np.random.default_rng(2)]
    out, _ = ft.ablate(X, layout, "surface", "noise", n_train, rngs, valid=valid)
    sl = layout.slice_of("surface")
    test_noise = out[n_train:, 0, sl]
    np.testing.assert_allclose(test_noise.mean(axis=0), 0.0, atol=0.15)
    np.testing.assert_allclose(test_noise.std(axis=0), 1.0, atol=0.1)
    np.testing.assert_array_equal(out[:, 1], X[:, 1])
    # train and test draw from their own streams
    assert not np.allclose(out[:n_test, 0, sl], test_noise)
