"""Tokenization and text records shared by features and title vectors.

`Texts` tokenizes texts once: every distinct token gets one integer id, and
each text keeps its ids in order. It reads a batch of texts at a time, in
two array passes: one over the bytes of the lowercased texts, where every
byte outside a token is a space, so that one `split` gives the batch's
tokens; one over their code points, each classed as whitespace, closing
mark or other, which counts every text's sentences and closing marks.
`Texts.join` gives the records of runs of consecutive texts joined by " "
from those ids and per-text counts alone, so a discussion's prefix (its
post and first comments) is the concatenated id stream of its texts, and
building it tokenizes nothing again. `title_rows` gives the title vectors
of many titles from their token ids.
"""

import math
import re
from typing import NamedTuple

import numpy as np

_URL_RE = re.compile(r"https?://\S+|www\.\S+")

BATCH = 512  # texts tokenized at a time; bounds the token strings held

# `str.isspace`'s whitespace, which `str.strip` and the regex `\s` use too
WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
              "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008"
              "\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
SPACE, MARK, OTHER = 0, 1, 2
# the class of each code point up to U+3000, the last whitespace; one more
# entry, OTHER, stands for every code point above
_CLASS = np.full(0x3002, OTHER, dtype=np.int8)
_CLASS[[ord(c) for c in WHITESPACE]] = SPACE
_CLASS[[ord(c) for c in ".!?"]] = MARK
# each byte that a token holds, [a-z0-9], as itself; every other as a space
_WORD_BYTES = bytes(c if c in b"abcdefghijklmnopqrstuvwxyz0123456789" else 32
                    for c in range(256))


def _marks(texts):
    """(sentences, closing, head, tail) of each text, as `Texts` holds them.

    A text's chunks are split by its runs of closing marks; a sentence is a
    chunk with a character that is neither whitespace nor a mark. With the
    whitespace dropped, a sentence starts at each other character that
    comes first in its text or right after a mark; the first chunk is
    non-blank when the text's first character is other, the last when its
    last one is.
    """
    # one code point per character, a lone surrogate too
    point = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"),
                          dtype=np.uint32)
    kind = _CLASS[np.minimum(point, len(_CLASS) - 1)]
    owner = np.repeat(np.arange(len(texts)), [len(t) for t in texts])
    kept = kind != SPACE
    kind, owner = kind[kept], owner[kept]
    first = np.diff(owner, prepend=-1) != 0
    last = np.diff(owner, append=len(texts)) != 0
    other = kind == OTHER
    after_mark = np.concatenate([[False], kind[:-1] == MARK])

    def count(where):
        return np.bincount(owner[where], minlength=len(texts))
    return (count(other & (first | after_mark)), count(kind == MARK),
            count(other & first) > 0, count(other & last) > 0)


def _tokens(texts):
    """(tokens, owner): the tokens of every text as ASCII bytes, text after
    text, and the text of each.

    A token is a maximal run of [a-z0-9] in the lowercased text (the
    `tokenize` of `tests/cooccur_reference.py` finds them by regex). In the
    lowercased texts joined by a space, each character becomes one byte:
    a token's own, or else a space (every character above ASCII is "?"
    first). So `split` gives the tokens, and their starts say whose each
    one is.
    """
    lowered = [t.lower() for t in texts]
    data = " ".join(lowered).encode("ascii", "replace").translate(_WORD_BYTES)
    word = np.frombuffer(data, dtype=np.uint8) != 32
    starts = np.flatnonzero(word & ~np.concatenate([[False], word[:-1]]))
    ends = np.cumsum([len(t) + 1 for t in lowered])
    return data.split(), np.searchsorted(ends, starts, side="right")


def ranges(lo, hi):
    """(owner, index) of every index in the ranges lo[r] <= index < hi[r],
    range after range."""
    lo = np.asarray(lo, dtype=np.intp)
    size = np.asarray(hi, dtype=np.intp) - lo
    owner = np.repeat(np.arange(len(lo)), size)
    return owner, np.arange(len(owner)) + (lo - np.cumsum(size) + size)[owner]


class Records(NamedTuple):
    """Text records as arrays. Term j is token id `ids[j]`, found `tf[j]`
    times in record `record[j]`; records come in order, and each one's terms
    in order of first occurrence."""
    record: np.ndarray
    ids: np.ndarray
    tf: np.ndarray
    sentences: np.ndarray  # per record
    urls: np.ndarray
    closing: np.ndarray


def _first_terms(record, ids, tf, vocabulary_size):
    """(record, id, tf) of each record's distinct ids, in order of first
    occurrence, from (record, id, tf) listed record after record: one
    unique (record, id) pair per term, kept at its first position, with
    the counts of all its positions added."""
    key = record * max(1, vocabulary_size) + ids
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    total = np.zeros(len(key), dtype=tf.dtype)
    total[order[first]] = np.add.reduceat(tf[order], first)
    terms = np.flatnonzero(total)
    return record[terms], ids[terms], total[terms]


class Texts:
    """Texts tokenized once. `vocabulary` holds the token of each id, in
    order of first sight. Text t's record is `ids` and `tf` from
    `starts[t]` to `starts[t + 1]`, its distinct token ids in order of first
    occurrence and their counts, and entry t of `sentences`, `urls`,
    `closing` (its closing marks . ! ?), `head` and `tail`. `head` and
    `tail` say whether the chunk before its first closing mark and the
    chunk after its last one are non-blank: a " " join runs those two
    chunks of its sides into one sentence. `FIELDS` names the arrays."""

    FIELDS = ("ids", "tf", "starts", "sentences", "urls", "closing", "head",
              "tail")

    def __init__(self, texts):
        index, ids, tf, starts = {}, [], [], [np.zeros(1, dtype=np.intp)]
        marks = [np.zeros((4, 0), dtype=np.intp)]
        urls = np.fromiter(map(count_urls, texts), np.intp, len(texts))
        for start in range(0, len(texts), BATCH):
            batch = texts[start:start + BATCH]
            marks.append(np.array(_marks(batch), dtype=np.intp))
            tokens, owner = _tokens(batch)
            for t in dict.fromkeys(tokens):
                index.setdefault(t, len(index))
            text, k, n = _first_terms(
                owner, np.fromiter(map(index.__getitem__, tokens), np.int32,
                                   len(tokens)),
                np.ones(len(tokens), dtype=np.int32), len(index))
            ids.append(k)
            tf.append(n)
            starts.append(np.bincount(text, minlength=len(batch)))
        self.vocabulary = [t.decode() for t in index]
        self.ids = np.concatenate([np.zeros(0, dtype=np.int32)] + ids)
        self.tf = np.concatenate([np.zeros(0, dtype=np.int32)] + tf)
        self.starts = np.cumsum(np.concatenate(starts))
        self.urls = urls
        self.sentences, self.closing, head, tail = np.concatenate(marks, 1)
        self.head, self.tail = head.astype(bool), tail.astype(bool)

    @classmethod
    def of_arrays(cls, vocabulary, arrays):
        """The Texts whose vocabulary is `vocabulary` and whose field f is
        arrays[f], for each f of `FIELDS`."""
        texts = cls.__new__(cls)
        texts.vocabulary = vocabulary
        for name in cls.FIELDS:
            setattr(texts, name, arrays[name])
        return texts

    def document_frequency(self, lo, hi):
        """How many of the documents lo[r] .. hi[r] - 1 (runs of texts, as
        for `join`) hold each token id: a joined record holds each of its
        ids once."""
        return np.bincount(self.join(lo, hi).ids,
                           minlength=len(self.vocabulary))

    def join(self, lo, hi):
        """The records of texts lo[r] .. hi[r] - 1 joined by " ", for
        every r.

        Neither a token nor a URL nor a run of closing marks spans a joining
        space, so the joined text's terms are its texts' terms end to end,
        each kept where it first occurs, and its URL and closing counts add.
        Sentences add too, less one at each join where the text so far ends
        in a non-blank chunk and the next text starts with one: the join
        runs the two into one sentence. The text so far ends in a non-blank
        chunk when some text from its last closing mark on (that text's
        tail, then whole texts) is non-blank.
        """
        lo, hi = np.asarray(lo, dtype=np.intp), np.asarray(hi, dtype=np.intp)
        owner, t = ranges(lo, hi)
        closed = np.maximum.accumulate(
            np.where(self.closing > 0, np.arange(len(self.closing)), -1))
        tails = np.concatenate([[0], np.cumsum(self.tail)])
        since = np.maximum(closed[t - 1], lo[owner])
        runs = (t > lo[owner]) & self.head[t] & (tails[t] > tails[since])

        def add(values):
            return np.bincount(owner, values,
                               minlength=len(lo)).astype(np.intp)

        record, at = ranges(self.starts[lo], self.starts[hi])
        return Records(*_first_terms(record, self.ids[at], self.tf[at],
                                     len(self.vocabulary)),
                       add(self.sentences[t] - runs), add(self.urls[t]),
                       add(self.closing[t]))


def title_rows(texts, titles, word_vectors, idf, stopwords):
    """The title vector of each text `titles[r]` of a `Texts`, as rows.

    A title's kept tokens are those in `word_vectors` and not in
    `stopwords`. Its vector is the mean of their vectors weighted by
    tf * idf, over those whose weight is positive; their plain mean when no
    weight is; the zero vector when no token is kept. `idf` is a dict, or
    None for idf = log(D / (1 + df)) over the D titles themselves.
    `np.bincount` adds a title's terms in order of first occurrence, from
    +0.0, as a loop over them does, and a term of weight 0 adds +0.0 or
    -0.0, which changes no sum.
    """
    titles = np.asarray(titles, dtype=np.intp)
    vocabulary, R = texts.vocabulary, len(titles)
    lo, hi = texts.starts[titles], texts.starts[titles + 1]
    record, at = ranges(lo, hi)
    ids = texts.ids[at]
    first = np.cumsum(hi - lo) - (hi - lo)  # of each title's terms in ids
    if idf is None:
        df = texts.document_frequency(titles, titles + 1).tolist()
        idf_of = np.array([math.log(max(1, R) / (1 + k)) for k in df])
    else:
        idf_of = np.array([idf.get(t, 0.0) for t in vocabulary], dtype=float)
    zero = np.zeros(len(next(iter(word_vectors.values()))))
    kept = np.array([t in word_vectors and t not in stopwords
                     for t in vocabulary], dtype=bool)
    vectors = np.array([word_vectors[t] if k else zero for t, k in
                        zip(vocabulary, kept)]).reshape(-1, zero.size)
    weight = texts.tf[at] * np.where(kept & (idf_of > 0), idf_of, 0.0)[ids]
    total = np.bincount(record, weight, minlength=R)
    out = np.zeros((R, zero.size))
    for column, vector in zip(out.T, vectors.T):
        column[:] = np.bincount(record, weight * vector[ids], minlength=R)
    out /= np.where(total > 0, total, 1.0)[:, None]
    fallback = (total == 0) & (np.bincount(record, kept[ids], minlength=R) > 0)
    for r in np.flatnonzero(fallback).tolist():
        terms = ids[first[r]:first[r] + hi[r] - lo[r]]
        out[r] = np.mean(vectors[terms[kept[terms]]], axis=0)
    return out


def count_urls(text):
    # a URL holds "http" or "www.", and most texts hold neither
    if "http" in text or "www." in text:
        return len(_URL_RE.findall(text))
    return 0
