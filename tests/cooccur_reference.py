"""The co-occurrence channels and title vectors as plain Python loops: the
reference that the array code in `threadcurve.cooccur` is tested against.

`DictMatrix` sums each (i, j) key's increments in a dict, one at a time,
in the order they are made. The channel functions add to it one reply
edge, one user pair and one cross pair at a time, and `all_pairs` runs the
semantic test on every pair of discussions."""

import math
from collections import Counter

import numpy as np

from threadcurve.cooccur import title_angle
from threadcurve.text import tokenize


def sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class DictMatrix:
    """Symmetric accumulator keyed by (i, j) with i < j; no diagonal."""

    def __init__(self, dim):
        self.dim = dim
        self._data = {}

    def add(self, i, j, value):
        if i == j:
            return
        if value < 0 or not math.isfinite(value):
            raise ValueError("invalid increment %r" % value)
        key = (i, j) if i < j else (j, i)
        self._data[key] = self._data.get(key, 0.0) + value

    @property
    def nnz(self):
        return len(self._data)

    def items(self):
        """Sorted (i, j, value) triples, i < j."""
        for key in sorted(self._data):
            yield key[0], key[1], self._data[key]

    def save(self, path):
        with open(path, "w") as fh:
            for i, j, v in self.items():
                fh.write("%d %d %.17g\n" % (i, j, v))


def reply_edges(d):
    """Directed (child_author, parent_author) pairs, comment->post included."""
    author_of = {d.post.id: d.post.author}
    for c in d.comments:
        author_of[c.id] = c.author
    edges = []
    for c in d.comments:
        parent_author = author_of.get(c.parent_id)
        if parent_author is not None:
            edges.append((c.author, parent_author))
    return edges


def accumulate_communicative(A, d, index):
    """+2 per reply edge between distinct embedded users."""
    for child, parent in reply_edges(d):
        if child == parent:
            continue
        i, j = index.get(child), index.get(parent)
        if i is None or j is None:
            continue
        A.add(i, j, 2.0)


def _earliest_times(d, index):
    times = {}
    for c in d.comments:
        if c.author in index and c.author not in times:
            times[c.author] = c.timestamp
    return times


def accumulate_temporal(A, d, index):
    """sigmoid(span ratio) per unordered embedded pair that did not reply.

    Uses each user's earliest comment time in the discussion; one
    increment per pair per discussion.
    """
    times = _earliest_times(d, index)
    users = sorted(times)
    if len(users) < 2:
        return
    replied = set()
    for child, parent in reply_edges(d):
        if child != parent:
            replied.add(frozenset((child, parent)))
    span = d.t_end - d.t_start + 1
    for a_pos in range(len(users)):
        for b_pos in range(a_pos + 1, len(users)):
            ua, ub = users[a_pos], users[b_pos]
            if frozenset((ua, ub)) in replied:
                continue
            alpha = span / (abs(times[ua] - times[ub]) + 1)
            A.add(index[ua], index[ub], sigmoid(alpha))


def accumulate_semantic(A, dm, dn, tm, tn, index, theta0):
    """cos(theta) per embedded cross pair when titles are within theta0;
    returns 1 for a pair with a zero-norm title, else 0."""
    theta = title_angle(tm, tn)
    if theta is None:
        return 1
    if theta > theta0:
        return 0
    users_m = sorted({c.author for c in dm.comments if c.author in index})
    users_n = sorted({c.author for c in dn.comments if c.author in index})
    inc = math.cos(theta)
    for ui in users_m:
        for uj in users_n:
            if ui == uj:
                continue
            A.add(index[ui], index[uj], inc)
    return 0


def all_pairs(discussions, index, title_vecs, theta0):
    """The three channels into a `DictMatrix`: reply and temporal
    discussion after discussion, then the semantic test on every pair of
    discussions. Returns (A, skipped_title_pairs)."""
    A = DictMatrix(len(index))
    for d in discussions:
        accumulate_communicative(A, d, index)
        accumulate_temporal(A, d, index)
    skipped = 0
    for a in range(len(discussions)):
        for b in range(a + 1, len(discussions)):
            dm, dn = discussions[a], discussions[b]
            skipped += accumulate_semantic(
                A, dm, dn, title_vecs[dm.id], title_vecs[dn.id], index, theta0)
    return A, skipped


def idf_table(docs):
    """idf = log(D / (1 + df)) of every token over D tokenized documents."""
    df = {}
    for doc in docs:
        for t in set(doc):
            df[t] = df.get(t, 0) + 1
    n_docs = max(1, len(docs))
    return {t: math.log(n_docs / (1 + k)) for t, k in df.items()}


def title_vector(title, word_vectors, idf, stopwords=frozenset()):
    """tf-idf weighted mean of word vectors over in-vocabulary title tokens.

    Zero vector if no token survives. Falls back to the plain mean when
    the tf-idf weights sum to zero (all-new vocabulary).
    """
    dim = len(next(iter(word_vectors.values())))
    counts = [(t, tf) for t, tf in Counter(tokenize(title)).items()
              if t not in stopwords and t in word_vectors]
    if not counts:
        return np.zeros(dim)
    total_w = 0.0
    acc = np.zeros(dim)
    for t, tf in counts:
        wt = tf * idf.get(t, 0.0)
        if wt > 0:
            acc += wt * np.asarray(word_vectors[t], float)
            total_w += wt
    if total_w <= 0:
        vecs = [np.asarray(word_vectors[t], float) for t, _ in counts]
        return np.mean(vecs, axis=0)
    return acc / total_w


def title_vectors(discussions, word_vectors, idf, stopwords):
    """Title vector per discussion id, one title at a time."""
    return {d.id: title_vector(d.post.title, word_vectors, idf, stopwords)
            for d in discussions}


def idf_title_vectors(discussions, word_vectors, stopwords=frozenset()):
    """`title_vectors` with idf over the titles of `discussions`."""
    idf = idf_table([tokenize(d.post.title) for d in discussions])
    return title_vectors(discussions, word_vectors, idf, stopwords)
