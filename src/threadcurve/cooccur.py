"""Sparse symmetric user-user proximity accumulation.

Three additive channels: direct replies (+2 per reply edge), same-discussion
temporal closeness (sigmoid of the span ratio), and cross-discussion title
similarity (cos of the title angle, thresholded).

The semantic channel does not test every pair of discussions in Python.
It stacks the title vectors, counts the pairs with a zero-norm title in
closed form, and takes the Gram matrix of the unit titles in row blocks
of `BLOCK_ROWS`: a pair whose cosine is within `CANDIDATE_SLACK` of
cos(theta0) or above is a candidate (the blocked candidate step of
Bayardo, Ma & Srikant, "Scaling Up All Pairs Similarity Search", WWW
2007). Each candidate, in (a, b) order, then goes through the exact
`title_angle` test in `accumulate_semantic`, so every key gets the same
increments in the same order as the all-pairs loop.
"""

from __future__ import annotations

import math

import numpy as np

from .corpus import Corpus
from .text import Texts, ranges, title_rows

BLOCK_ROWS = 256         # Gram rows per block; bounds the (rows, D) temporary
CANDIDATE_SLACK = 1e-9   # far above the rounding gap between the two cosines


def sigmoid(x):
    """1 / (1 + exp(-x)) of each value of an array."""
    # One libm `math.exp` per value on purpose, not `curvature.sigmoid`:
    # numpy's exp and libm's differ in the last bit for some inputs (5,371
    # of 700,000 sigmoid values in one probe with numpy 2.4.6), and the
    # temporal channel sums these values into the bytes of cooccur.txt.
    x = np.asarray(x, dtype=float)
    neg = x < 0
    e = np.fromiter(map(math.exp, np.where(neg, x, -x).ravel().tolist()),
                    float, x.size).reshape(x.shape)
    return np.where(neg, e, 1.0) / (1.0 + e)


class CooccurrenceMatrix:
    """Symmetric accumulator keyed by (i, j) with i < j; no diagonal.

    Increments are kept as COO arrays in the order they are made. Reading
    the entries adds each key's increments in that order, from +0.0
    (`np.add.at` adds in index order): the sum that a dict updated one
    increment at a time gives, so cooccur.txt keeps its bytes."""

    def __init__(self, dim):
        self.dim = dim
        empty = np.zeros(0, dtype=np.intp)
        # (i, j, value) blocks; one block alone is the resolved entries
        self._parts = [(empty, empty, np.zeros(0))]

    def add(self, i, j, value):
        """Add `value` at (i, j); or, with arrays, value[k] (or the one
        value) at each (i[k], j[k]) in turn. The diagonal is dropped."""
        i, j = (np.asarray(k, dtype=np.intp).ravel() for k in (i, j))
        off = i != j
        value = np.full(off.shape, value, dtype=float)[off]
        bad = ~((value >= 0) & (value < math.inf))
        if bad.any():
            raise ValueError("invalid increment %r" % float(value[bad][0]))
        i, j = i[off], j[off]
        self._parts.append((np.minimum(i, j), np.maximum(i, j), value))

    def arrays(self):
        """(i, j, value) arrays of the entries, sorted by (i, j), i < j."""
        if len(self._parts) > 1:
            i, j, value = (np.concatenate(part) for part in zip(*self._parts))
            _, first, inverse = np.unique(i * (j.max(initial=0) + 1) + j,
                                          return_index=True,
                                          return_inverse=True)
            total = np.zeros(len(first))
            np.add.at(total, inverse, value)
            self._parts = [(i[first], j[first], total)]
        return self._parts[0]

    @property
    def nnz(self):
        return len(self.arrays()[0])

    def items(self):
        """Sorted (i, j, value) triples, i < j."""
        return zip(*(a.tolist() for a in self.arrays()))

    def save(self, path):
        with open(path, "w") as fh:
            fh.writelines("%d %d %.17g\n" % item for item in self.items())

    @classmethod
    def load(cls, path, dim):
        with open(path) as fh:
            rows = [line.split() for line in fh if line.strip()]
        mat = cls(dim)
        mat.add([int(r[0]) for r in rows], [int(r[1]) for r in rows],
                [float(r[2]) for r in rows])
        return mat


def title_vector(title, word_vectors, idf, stopwords=frozenset()):
    """The title's vector: `text.title_rows` of one title."""
    return title_rows(Texts([title]), [0], word_vectors, idf, stopwords)[0]


def discussion_channels(corpus, index):
    """(i, j, value) increments of the reply and temporal channels of a
    `Corpus`, made discussion after discussion.

    Reply: +2 per comment and the author of its parent (comment or post),
    both embedded; a self-reply falls on the diagonal, which the matrix
    drops. Temporal: sigmoid(span / (|ta - tb| + 1)) per pair of embedded
    commenters that did not reply to each other, at their first comment
    times, with span = t_end - t_start + 1. A pair gets one kind or the
    other in a discussion, so its increments come in discussion order.
    """
    n, lookup = len(index), corpus.codes(index)
    author, parent = lookup[corpus.author], lookup[corpus.parent_author()]
    disc, time = corpus.discussion(), corpus.time
    reply = (author >= 0) & (parent >= 0)

    def pair(k, i, j):
        return (k * n + np.minimum(i, j)) * n + np.maximum(i, j)

    # the first comment of each embedded commenter in a discussion, then
    # every pair of those in one discussion whose authors did not reply
    embedded = np.flatnonzero(author >= 0)
    first = embedded[np.unique(disc[embedded] * n + author[embedded],
                               return_index=True)[1]]
    a, b = ranges(np.arange(1, len(first) + 1),
                  np.searchsorted(disc[first], disc[first], side="right"))
    a, b = first[a], first[b]
    # sorted replied keys and a sentinel above all; not np.isin or the
    # default sort, which page in up to 2 MB of code the run needs nowhere else
    replied = np.append(np.sort(pair(disc[reply], author[reply],
                                     parent[reply]), kind="stable"),
                        np.iinfo(np.int64).max)
    key = pair(disc[a], author[a], author[b])
    keep = replied[np.searchsorted(replied, key)] != key
    a, b = a[keep], b[keep]
    alpha = (corpus.t_end() - corpus.post_time + 1)[disc[a]] / (
        np.abs(time[a] - time[b]) + 1)
    order = np.argsort(np.concatenate([disc[reply], disc[a]]), kind="stable")
    return (np.concatenate([author[reply], author[a]])[order],
            np.concatenate([parent[reply], author[b]])[order],
            np.concatenate([np.full(int(reply.sum()), 2.0),
                            sigmoid(alpha)])[order])


def title_angle(tm, tn):
    """Angle between two title vectors; None when either has zero norm."""
    nm, nn = np.linalg.norm(tm), np.linalg.norm(tn)
    if nm == 0 or nn == 0:
        return None
    c = float(np.dot(tm, tn) / (nm * nn))
    return math.acos(min(1.0, max(-1.0, c)))


def accumulate_semantic(A, m, n, commenters, titles, theta0):
    """cos(theta) per embedded cross pair of discussions m and n when their
    titles are within theta0. `commenters[k]` holds the matrix indices of
    discussion k's embedded commenters in name order, and `titles[k]` its
    title vector.

    Returns the number of skipped discussion pairs (0 or 1, zero-norm
    title guard).
    """
    theta = title_angle(titles[m], titles[n])
    if theta is None:
        return 1
    if theta > theta0:
        return 0
    # every (ui, uj) cross pair, row after row: one block of increments
    i, j = np.meshgrid(commenters[m], commenters[n], indexing="ij")
    A.add(i, j, math.cos(theta))
    return 0


def semantic_candidates(title_matrix, theta0):
    """Candidate title pairs of a (D, dim) matrix, and the pairs skipped.

    Returns (a, b, skipped): index arrays of the pairs a < b with both
    titles non-zero and cosine >= cos(theta0) - CANDIDATE_SLACK, in
    lexicographic order, and the number of pairs with a zero-norm title.
    The candidates are a superset of the pairs `title_angle` keeps.
    """
    norms = np.linalg.norm(title_matrix, axis=1)
    rows = np.flatnonzero(norms != 0)
    n, D = rows.size, len(title_matrix)
    skipped = D * (D - 1) // 2 - n * (n - 1) // 2
    unit = title_matrix[rows] / norms[rows, None]
    floor = math.cos(theta0) - CANDIDATE_SLACK
    a, b = [rows[:0]], [rows[:0]]
    for start in range(0, n, BLOCK_ROWS):
        gram = unit[start:start + BLOCK_ROWS] @ unit[start:].T
        i, j = np.nonzero(gram >= floor)
        later = j > i   # both count from `start`
        a.append(rows[start + i[later]])
        b.append(rows[start + j[later]])
    return np.concatenate(a), np.concatenate(b), skipped


def build_cooccurrence(corpus, index, title_vecs, theta0=math.pi / 12):
    """Run all three channels over a `Corpus` or a list of discussions.

    title_vecs maps discussion id -> title vector. Returns
    (A, skipped_title_pairs).
    """
    if not isinstance(corpus, Corpus):
        corpus = Corpus.of(corpus)
    A = CooccurrenceMatrix(len(index))
    A.add(*discussion_channels(corpus, index))
    D = len(corpus.ids)
    if D < 2:
        return A, 0
    titles = np.array([title_vecs[i] for i in corpus.ids], dtype=float)
    a, b, skipped = semantic_candidates(titles, theta0)
    # each discussion's embedded commenters, in name order as codes are;
    # np.unique by a stable sort (return_index), not by its hash table and
    # default sort, which would page in code the run needs nowhere else
    U = len(corpus.authors)
    member = np.unique(corpus.discussion() * U + corpus.author,
                       return_index=True)[0]
    user = corpus.codes(index)[member % U]
    held = user >= 0
    commenters = np.split(user[held], np.searchsorted(member[held] // U,
                                                      np.arange(1, D)))
    for m, n in zip(a.tolist(), b.tolist()):
        accumulate_semantic(A, m, n, commenters, titles, theta0)
    return A, skipped
