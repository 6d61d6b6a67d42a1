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
BLOCK = 4096               # uint32 values a Draws reads ahead, at most
MASK32 = 0xFFFFFFFF
# json.dumps(sort_keys=True) lines: synth's strings need no JSON escape
COMMENT = ('{"author": "%s", "body": "%s.", "id": "%s", "parent_id": "%s", '
           '"timestamp": %d}')
LINE = ('{"comments": [%s], "post": {"author": "%s", "body": "%s.", '
        '"id": "%s", "timestamp": %d, "title": "%s"}}\n')


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


class Draws:
    """numpy's draws from a Generator's uint32 stream, in any order.
    `below(r)` is `rng.integers(r)` for 2 <= r <= 2**32: Lemire's
    multiply-shift `(x * r) >> 32`, drawn again while `(x * r) & MASK32 <
    2**32 % r`. `words(n)` joins the `pool` words at `rng.integers(len(pool),
    size=n)`. `permutation(n)` is `rng.permutation(n).tolist()`: Fisher-Yates
    from the top, its swap index `x & mask` drawn again while above i."""

    def __init__(self, rng, pool):
        self.rng, self.pool = rng, pool
        self._refill()

    def _refill(self):
        block = self.rng.integers(0, 2**32, size=BLOCK, dtype=np.uint32)
        m = block.astype(np.uint64) * len(self.pool)
        self.vals, self.pos = block.tolist(), 0
        self.table = list(map(self.pool.__getitem__, (m >> 32).tolist()))
        # the table serves words up to the first value words would reject
        rejected = np.flatnonzero((m & MASK32) < 2**32 % len(self.pool))
        self.clean = int(rejected[0]) if rejected.size else len(block)

    def _next(self):
        if self.pos == len(self.vals):
            self._refill()
        self.pos += 1
        return self.vals[self.pos - 1]

    def below(self, r):
        m = self._next() * r
        while m & MASK32 < r and m & MASK32 < 2**32 % r:
            m = self._next() * r
        return m >> 32

    def words(self, n):
        if self.pos + n <= self.clean:
            self.pos += n
            return " ".join(self.table[self.pos - n:self.pos])
        return " ".join([self.pool[self.below(len(self.pool))]
                         for _ in range(n)])

    def permutation(self, n):
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next() & mask
            while j > i:
                j = self._next() & mask
            out[i], out[j] = out[j], out[i]
        return out


def _user(cluster, k):
    return "u%d_%d" % (cluster, k)


def make_temporal_corpus(spec, seed, corpus_path, truth_path):
    """Plant: discussion topic c = index mod clusters; every comment author
    belongs to cluster c; window k spans k seconds (growth log(1 + w/k))."""
    draw = Draws(np.random.default_rng(seed), _word_pool(spec))
    truth = {"rule": "window labels equal the one-hot topic cluster",
             "growth_shifted": {str(k): math.log(1.0 + spec.w / k)
                                for k in range(1, spec.N + 1)},
             "topics": {}}
    with open(corpus_path, "w") as fh:
        for j in range(spec.discussions):
            c = j % spec.clusters
            post_t = BASE_TIME + j * 50_000
            disc_id = "d%03d" % j
            truth["topics"][disc_id] = c
            title = draw.words(4)
            body = draw.words(6 + draw.below(6))
            members = draw.permutation(spec.users_per_cluster)
            comments = []
            # chain replies: the first comment of a window replies to the
            # previous window's tail (or the post)
            parent = disc_id
            for k in range(1, spec.N + 1):
                start = post_t + k * WINDOW_GAP
                offsets = sorted(draw.below(k + 1) for _ in range(spec.w - 2))
                times = [start] + [start + o for o in offsets] + [start + k]
                for m in range(spec.w):
                    cid = (k - 1) * spec.w + m
                    comment_id = "%s_c%02d" % (disc_id, cid)
                    author = _user(c, members[cid % spec.users_per_cluster])
                    comments.append(COMMENT % (
                        author, draw.words(5 + draw.below(5)), comment_id,
                        parent, times[m]))
                    parent = comment_id
            fh.write(LINE % (", ".join(comments),
                             _user(c, j % spec.users_per_cluster), body,
                             disc_id, post_t, title))
    with open(truth_path, "w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
    return corpus_path, truth_path


def make_nontemporal_corpus(spec, seed, corpus_path, truth_path):
    """Plant: a post attracts comments iff its title contains the attract
    keyword. Commenters/authors rotate over the full user population."""
    draw = Draws(np.random.default_rng(seed), _word_pool(spec))
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
            # keyword twice: term frequency keeps it dominant after weighting
            title = "%s %s %s" % (keyword, keyword, draw.words(2))
            post_t = BASE_TIME + j * 10_000
            body = draw.words(5 + draw.below(5))
            comments = []
            if attract:
                for m in range(2 + draw.below(3)):
                    comments.append(COMMENT % (
                        all_users[draw.below(n_users)],
                        draw.words(4 + draw.below(5)), "%s_c%d" % (disc_id, m),
                        disc_id, post_t + 60 * (m + 1)))
            truth["labels"][disc_id] = int(attract)
            fh.write(LINE % (", ".join(comments), all_users[j % n_users],
                             body, disc_id, post_t, title))
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
