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

from .text import idf_table, text_stats, tokenize

BLOCK_ROWS = 256         # Gram rows per block; bounds the (rows, D) temporary
CANDIDATE_SLACK = 1e-9   # far above the rounding gap between the two cosines


def sigmoid(x):
    # Scalar libm code on purpose, not `curvature.sigmoid`: numpy's exp and
    # libm's differ in the last bit for some inputs (5,371 of 700,000
    # sigmoid values in one probe with numpy 2.4.6), and the temporal channel
    # sums these values into the bytes of cooccur.txt.
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class CooccurrenceMatrix:
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

    def query(self, i, j):
        if i == j:
            return 0.0
        key = (i, j) if i < j else (j, i)
        return self._data.get(key, 0.0)

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

    @classmethod
    def load(cls, path, dim):
        mat = cls(dim)
        with open(path) as fh:
            for line in fh:
                parts = line.split()
                if not parts:
                    continue
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
                mat.add(i, j, v)
        return mat


def title_vector(title, word_vectors, idf, stopwords=frozenset()):
    """tf-idf weighted mean of word vectors over in-vocabulary title tokens.

    Zero vector if no token survives. Falls back to the plain mean when
    the tf-idf weights sum to zero (all-new vocabulary).
    """
    dim = len(next(iter(word_vectors.values())))
    counts = [(t, tf) for t, tf in text_stats(title)[0]
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


def idf_title_vectors(discussions, word_vectors, stopwords=frozenset()):
    """Title vector per discussion id for the semantic channel, with idf
    over the titles of `discussions`."""
    idf = idf_table([tokenize(d.post.title) for d in discussions])
    return {d.id: title_vector(d.post.title, word_vectors, idf, stopwords)
            for d in discussions}


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


def title_angle(tm, tn):
    """Angle between two title vectors; None when either has zero norm."""
    nm, nn = np.linalg.norm(tm), np.linalg.norm(tn)
    if nm == 0 or nn == 0:
        return None
    c = float(np.dot(tm, tn) / (nm * nn))
    return math.acos(min(1.0, max(-1.0, c)))


def accumulate_semantic(A, dm, dn, tm, tn, index, theta0):
    """cos(theta) per embedded cross pair when titles are within theta0.

    Returns the number of skipped discussion pairs (0 or 1, zero-norm
    title guard).
    """
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


def build_cooccurrence(discussions, index, title_vecs, theta0=math.pi / 12):
    """Run all three channels over a corpus.

    title_vecs maps discussion id -> title vector. Returns
    (A, skipped_title_pairs).
    """
    A = CooccurrenceMatrix(len(index))
    for d in discussions:
        accumulate_communicative(A, d, index)
        accumulate_temporal(A, d, index)
    if len(discussions) < 2:
        return A, 0
    a, b, skipped = semantic_candidates(
        np.array([title_vecs[d.id] for d in discussions], dtype=float), theta0)
    for m, n in zip(a.tolist(), b.tolist()):
        dm, dn = discussions[m], discussions[n]
        accumulate_semantic(A, dm, dn, title_vecs[dm.id], title_vecs[dn.id],
                            index, theta0)
    return A, skipped


def sparsity_profile(A, n_users):
    """(|U|, nnz) pair for the complexity diagnostic."""
    return {"users": n_users, "nonzeros": A.nnz}
