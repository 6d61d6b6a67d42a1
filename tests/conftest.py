import json

import numpy as np
import pytest

from threadcurve import curvature
from threadcurve.corpus import parse_corpus
from threadcurve.features import Lexicons


def make_discussion_json(disc_id="t1", post_author="poster", post_t=1000,
                         comments=()):
    return {
        "post": {"id": disc_id, "author": post_author, "title": "a title",
                 "body": "a body.", "timestamp": post_t},
        "comments": [dict(c) for c in comments],
    }


def write_corpus(path, discussions):
    with open(path, "w") as fh:
        for d in discussions:
            fh.write(json.dumps(d) + "\n")
    return str(path)


def chain_comments(disc_id, authors, start_t=1010, gap=10, parent="__post__"):
    """A reply chain: first comment answers the post, each next its parent."""
    out = []
    prev = disc_id if parent == "__post__" else parent
    for k, author in enumerate(authors):
        cid = "%s_c%d" % (disc_id, k)
        out.append({"id": cid, "author": author, "parent_id": prev,
                    "timestamp": start_t + k * gap, "body": "text %d." % k})
        prev = cid
    return out


@pytest.fixture
def tiny_corpus(tmp_path):
    discs = [
        make_discussion_json("t1", "alice", 1000,
                             chain_comments("t1", ["bob", "carol", "bob"])),
        make_discussion_json("t2", "bob", 2000,
                             chain_comments("t2", ["alice", "carol"])),
    ]
    path = write_corpus(tmp_path / "corpus.jsonl", discs)
    discussions, manifest = parse_corpus(path)
    return discussions, manifest, path


def make_lexicons(d_w=3, extra_vocab=()):
    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "delta", "good", "bad"] + list(extra_vocab)
    wv = {w: rng.normal(size=d_w) for w in words}
    idf = {w: 0.5 + 0.1 * k for k, w in enumerate(words)}
    return Lexicons(idf=idf, word_vectors=wv,
                    sentiment={"good": 0.8, "bad": -0.5},
                    stopwords=frozenset(["the"]), vocab_size=len(words))


def toy_config(f=5, d=4, n=3, N=3):
    return curvature.ModelConfig(comment_width=f, post_width=f + 2, d=d,
                                 n=n, N=N, h1=6, h2=4, h3=4)


def toy_instance(rng, cfg, w=2, valid=None):
    N, n, d, f = cfg.N, cfg.n, cfg.d, cfg.comment_width
    if valid is None:
        valid = [True] * N
    return {
        "x1": rng.normal(size=cfg.post_width),
        "x2": rng.normal(size=(N, f)),
        "centers": rng.normal(size=(N, n, d + 1)),
        "labels": (rng.random((N, n)) < 0.5).astype(float),
        "mask": np.asarray(valid, dtype=bool),
        "growth": rng.random(N),
        "user_vectors": rng.normal(size=(N * w, d)),
        "user_mask": rng.random(N * w) < 0.8,
    }


def toy_split(rng, cfg, w=2):
    """A test split of three discussions: valid at every step, with an
    invalid step, and with no comments at all (zero windows, no embedded
    commenter, time coordinate 0). Returns (per-discussion dicts, the
    same rows stacked)."""
    rows = [toy_instance(rng, cfg, w),
            toy_instance(rng, cfg, w, valid=[True] + [False] * (cfg.N - 1)),
            toy_instance(rng, cfg, w, valid=[False] * cfg.N)]
    empty = rows[-1]
    for key in ("x2", "labels", "growth", "user_vectors", "user_mask"):
        empty[key] = np.zeros_like(empty[key])
    empty["centers"][..., 0] = 0.0
    stacked = {key: np.stack([row[key] for row in rows]) for key in rows[0]}
    return rows, stacked
