"""Synthetic corpora with planted, recoverable engagement rules.

The temporal corpus plants a user-identity rule: every discussion has a
hidden topic (a user cluster); all engagement comes from that cluster, so
labels are recoverable from who participates, not from the text. Growth is
planted per window index. The non-temporal corpus makes attraction a
deterministic function of one title keyword.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

ATTRACT_WORD = "magnet"
REPEL_WORD = "pebble"

STOPWORDS = ["the", "a", "an", "of", "to", "and", "in", "is", "it"]
SENTIMENT = {"good": 0.8, "great": 0.6, "fine": 0.3,
             "bad": -0.5, "awful": -0.7, "poor": -0.4}

BASE_TIME = 1_600_000_000  # the first post's timestamp
WINDOW_GAP = 600           # seconds between window starts
EMPTY_FRACTION = 0.5       # share of one-shot posts without comments


@dataclass
class SynthSpec:
    clusters: int = 3
    users_per_cluster: int = 10
    discussions: int = 50
    w: int = 5
    N: int = 4
    d_w: int = 6
    vocab_words: int = 40
    posts: int = 120               # non-temporal corpus size


def _word_pool(spec):
    return ["w%02d" % k for k in range(spec.vocab_words)]


def write_lexicon_files(spec, out_dir, seed=0):
    """Synthetic word vectors, sentiment lexicon and stopword list."""
    rng = np.random.default_rng(seed)
    words = (_word_pool(spec) + STOPWORDS + list(SENTIMENT)
             + [ATTRACT_WORD, REPEL_WORD])
    wv_path = "%s/word_vectors.txt" % out_dir
    with open(wv_path, "w") as fh:
        for word in words:
            if word == ATTRACT_WORD:
                vec = np.zeros(spec.d_w)
                vec[0] = 1.0
            elif word == REPEL_WORD:
                vec = np.zeros(spec.d_w)
                vec[0] = -1.0
            else:
                # small filler vectors keep the planted keyword direction
                # dominant in tf-idf weighted title vectors
                vec = rng.normal(0, 0.2, spec.d_w)
            fh.write("%s %s\n" % (word, " ".join("%.8f" % c for c in vec)))
    sent_path = "%s/sentiment.txt" % out_dir
    with open(sent_path, "w") as fh:
        for word, score in SENTIMENT.items():
            fh.write("%s %.2f\n" % (word, score))
    stop_path = "%s/stopwords.txt" % out_dir
    with open(stop_path, "w") as fh:
        fh.write("\n".join(STOPWORDS) + "\n")
    return wv_path, sent_path, stop_path


def _words(rng, pool, n_words):
    """n_words words of `pool`, drawn in one call: the draws of
    `rng.choice(pool, size=n_words)`, without making the pool an array."""
    return " ".join(map(pool.__getitem__,
                        rng.integers(0, len(pool), size=n_words).tolist()))


def _sentence(rng, pool, n_words):
    return _words(rng, pool, n_words) + "."


def _user(cluster, k):
    return "u%d_%d" % (cluster, k)


def make_temporal_corpus(spec, seed, corpus_path, truth_path):
    """Plant: discussion topic c = index mod clusters; every comment author
    belongs to cluster c; window k spans k seconds (growth log(1 + w/k))."""
    rng = np.random.default_rng(seed)
    pool = _word_pool(spec)
    truth = {"rule": "window labels equal the one-hot topic cluster",
             "growth_shifted": {str(k): math.log(1.0 + spec.w / k)
                                for k in range(1, spec.N + 1)},
             "topics": {}}
    with open(corpus_path, "w") as fh:
        for j in range(spec.discussions):
            c = j % spec.clusters
            post_t = BASE_TIME + j * 50_000
            post_author = _user(c, j % spec.users_per_cluster)
            disc_id = "d%03d" % j
            truth["topics"][disc_id] = c
            title = _sentence(rng, pool, 4)[:-1]
            post = {"id": disc_id, "author": post_author, "title": title,
                    "body": _sentence(rng, pool, int(rng.integers(6, 12))),
                    "timestamp": post_t}
            comments = []
            cid = 0
            members = rng.permutation(spec.users_per_cluster).tolist()
            for k in range(1, spec.N + 1):
                start = post_t + k * WINDOW_GAP
                offsets = sorted(rng.integers(0, k + 1, size=spec.w - 2).tolist())
                times = [start] + [start + o for o in offsets] + [start + k]
                prev_id = post["id"] if k == 1 else comments[-1]["id"]
                for m in range(spec.w):
                    author = _user(c, members[(cid + m) % spec.users_per_cluster])
                    comment_id = "%s_c%02d" % (disc_id, cid + m)
                    # chain replies within the window; first comment of a
                    # window replies to the previous window's tail (or post)
                    parent = prev_id
                    prev_id = comment_id
                    comments.append({
                        "id": comment_id, "author": author, "parent_id": parent,
                        "timestamp": times[m],
                        "body": _sentence(rng, pool, int(rng.integers(5, 10))),
                    })
                cid += spec.w
            fh.write(json.dumps({"post": post, "comments": comments},
                                sort_keys=True) + "\n")
    with open(truth_path, "w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
    return corpus_path, truth_path


def make_nontemporal_corpus(spec, seed, corpus_path, truth_path):
    """Plant: a post attracts comments iff its title contains the attract
    keyword. Commenters/authors rotate over the full user population."""
    rng = np.random.default_rng(seed)
    pool = _word_pool(spec)
    n_users = spec.clusters * spec.users_per_cluster
    all_users = [_user(c, k) for c in range(spec.clusters)
                 for k in range(spec.users_per_cluster)]
    n_empty = int(round(spec.posts * EMPTY_FRACTION))
    truth = {"rule": "attracts iff title contains %r" % ATTRACT_WORD,
             "labels": {}}
    with open(corpus_path, "w") as fh:
        for j in range(spec.posts):
            attract = j >= n_empty
            disc_id = "p%04d" % j
            keyword = ATTRACT_WORD if attract else REPEL_WORD
            filler = _words(rng, pool, 2)
            # keyword twice: term frequency keeps it dominant after weighting
            title = "%s %s %s" % (keyword, keyword, filler)
            post_t = BASE_TIME + j * 10_000
            author = all_users[j % n_users]
            post = {"id": disc_id, "author": author, "title": title,
                    "body": _sentence(rng, pool, int(rng.integers(5, 10))),
                    "timestamp": post_t}
            comments = []
            if attract:
                for m in range(int(rng.integers(2, 5))):
                    commenter = all_users[int(rng.integers(n_users))]
                    comments.append({
                        "id": "%s_c%d" % (disc_id, m), "author": commenter,
                        "parent_id": disc_id,
                        "timestamp": post_t + 60 * (m + 1),
                        "body": _sentence(rng, pool, int(rng.integers(4, 9))),
                    })
            truth["labels"][disc_id] = int(attract)
            fh.write(json.dumps({"post": post, "comments": comments},
                                sort_keys=True) + "\n")
    with open(truth_path, "w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
    return corpus_path, truth_path


def nontemporal_balance(sizes, seed=0):
    """Indices of all zero-comment posts plus an equal-count sample of
    commented ones, from the comment count of each post."""
    sizes = np.asarray(sizes)
    empty, commented = np.flatnonzero(sizes == 0), np.flatnonzero(sizes > 0)
    if not len(empty) or not len(commented):
        raise ValueError("both classes must be present for balancing")
    rng = np.random.default_rng(seed)
    if len(commented) > len(empty):
        picked = rng.choice(len(commented), size=len(empty), replace=False)
        commented = commented[np.sort(picked, kind="stable")]
    return np.concatenate([empty, commented])
