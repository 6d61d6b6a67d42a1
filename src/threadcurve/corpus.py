"""Discussion data model: parsing, user filtering, the one-pass ingest
into normalized lines and the columnar corpus store, comment windows,
growth."""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .text import Texts, ranges

# the author filter: comments by these tags are removed, and users active in
# fewer discussions than this stay unembedded
EXCLUDED_AUTHOR_TAGS = ("deleted", "DeltaBot")
MIN_USER_DISCUSSIONS = 2

# a line of `discussions.jsonl` and one of its comments, as
# `json.dumps(..., sort_keys=True)` writes them: keys in sorted order, ", "
# and ": " between items, strings as `encode_basestring_ascii` quotes them
_LINE = ('{"comments": [%s], "post": {"author": %s, "body": %s, "id": %s, '
         '"timestamp": %d, "title": %s}}\n')
_COMMENT = ('{"author": %s, "body": %s, "id": %s, "parent_id": %s, '
            '"timestamp": %d}')


class CorpusError(Exception):
    pass


# a post and its comments are named tuples: immutable and read by field
# name. `parse_corpus` builds them for callers that take records; `ingest`
# builds none
class Post(NamedTuple):
    id: str
    author: str
    title: str
    body: str
    timestamp: int


class Comment(NamedTuple):
    id: str
    author: str
    parent_id: str
    discussion_id: str
    timestamp: int
    text: str
    depth: int


@dataclass(frozen=True)
class Discussion:
    post: Post
    comments: tuple  # Comment, sorted ascending by timestamp

    @property
    def t_start(self):
        return self.post.timestamp

    @property
    def t_end(self):
        if not self.comments:
            return self.post.timestamp
        return self.comments[-1].timestamp

    @property
    def id(self):
        return self.post.id


@dataclass(frozen=True)
class Window:
    index: int            # 1-based window index
    comments: tuple
    valid: bool
    actual_count: int


@dataclass(frozen=True)
class WindowedDiscussion:
    discussion: Discussion
    w: int
    N: int
    windows: tuple  # length N
    dropped: int    # comments beyond N*w


@dataclass
class CorpusManifest:
    discussions: int = 0
    users: int = 0
    comments: int = 0
    removed_by_tag: int = 0
    orphans_reattached: int = 0
    single_activity_users: int = 0


def _lacks(key, owner, args):
    """The error for a missing key: a ValueError naming it and its owner,
    `owner % args`, which is formatted only then."""
    return ValueError("%s lacks key %r" % (owner % args, key))


def _get(raw, key, owner, *args):
    """raw[key]; a missing key is `_lacks`'s error."""
    try:
        return raw[key]
    except KeyError:
        raise _lacks(key, owner, args) from None


def _wrong(what, value, kind):
    """The error for a decoded JSON value that is not of `kind`: a
    ValueError naming `what`, then the value, cut at 40 characters."""
    shown = json.dumps(value)
    if len(shown) > 40:
        shown = shown[:37] + "..."
    return ValueError("%s %s, which is not %s" % (what, shown, kind))


def _timestamp(raw, owner, *args):
    """raw["timestamp"], a whole JSON number (1e3 reads as 1000), as an int
    in 0 <= t < 2**53, where every span and gap is exact in int64 and
    float64; else an error naming `owner % args`. A bool, a string and a
    fractional number are refused, not rounded."""
    try:  # `_get` inlined here and in `_name`: they run once per comment
        t = raw["timestamp"]
    except KeyError:
        raise _lacks("timestamp", owner, args) from None
    if type(t) is not int:
        if type(t) is not float or not t.is_integer():  # NaN and inf too
            raise _wrong("%s has timestamp" % (owner % args), t,
                         "an integer")
        t = int(t)
    if not 0 <= t < 2 ** 53:
        raise CorpusError("%s has timestamp %d, outside 0 <= t < 2**53"
                          % (owner % args, t))
    return t


def _name(raw, key, owner, *args):
    """raw[key] as a string, for an id or an author name. A null one, and
    one holding a lone surrogate, which no UTF-8 string can hold, is a
    ValueError naming the field and `owner % args`."""
    try:
        value = raw[key]
    except KeyError:
        raise _lacks(key, owner, args) from None
    if value is None:
        raise ValueError("%s has a null %r" % (owner % args, key))
    value = str(value)
    if not value.isascii():
        try:
            value.encode()
        except UnicodeEncodeError:
            raise ValueError("%s has %s %r, which holds a lone surrogate"
                             % (owner % args, key, value)) from None
    return value


def _body(raw):
    """raw["body"] as a string; a missing or null body is empty."""
    body = raw.get("body")
    return "" if body is None else str(body)


def _build_discussion(raw, manifest, excluded_tags):
    """The normalized form of one corpus line: (post, comments), plain
    tuples in the field order of `Post` and `Comment`, the comments sorted
    by (timestamp, id)."""
    if type(raw) is not dict:
        raise _wrong("the line is", raw, "an object")
    post_raw = _get(raw, "post", "the line")
    if type(post_raw) is not dict:
        raise _wrong("the post is", post_raw, "an object")
    post_id = _name(post_raw, "id", "the post")
    title = _get(post_raw, "title", "post %r", post_id)
    if type(title) is not str:
        raise _wrong("post %r has title" % post_id, title, "a string")
    if not title.strip():
        raise CorpusError("post %r has empty title" % post_raw["id"])
    post = (post_id, _name(post_raw, "author", "post %r", post_id), title,
            _body(post_raw), _timestamp(post_raw, "post %r", post_id))
    raw_comments = raw.get("comments", [])
    if type(raw_comments) is not list:
        raise _wrong("post %r has comments" % post_id, raw_comments, "a list")
    kept, removed, known = [], [], {post_id}
    for k, c in enumerate(raw_comments):
        try:
            cid = _name(c, "id", "comment %d of post %r", k, post_id)
        except TypeError:  # a comment that is no object
            raise _wrong("comment %d of post %r is" % (k, post_id), c,
                         "an object") from None
        if cid in known:  # a reply to it could not say which one it answers
            raise CorpusError("comment id %r in discussion %r is %s" % (
                cid, post_id, "the post's id" if cid == post_id
                else "used twice"))
        known.add(cid)
        author = _name(c, "author", "comment %r", cid)
        if author in excluded_tags:
            manifest.removed_by_tag += 1
            removed.append(cid)
        else:
            kept.append((cid, author, c))

    # every kept id is known before an orphan is reattached to the post
    known.difference_update(removed)
    t0, parent_of, comments = post[4], {}, []
    for cid, author, c in kept:
        timestamp = _timestamp(c, "comment %r", cid)
        parent = str(_get(c, "parent_id", "comment %r", cid))
        if parent not in known:
            parent = post_id
            manifest.orphans_reattached += 1
        parent_of[cid] = parent
        comments.append((cid, author, parent, post_id,
                         timestamp if timestamp > t0 else t0, _body(c)))
    depth = _depths(post_id, parent_of)
    comments.sort(key=itemgetter(4, 0))
    return post, [c + (depth[c[0]],) for c in comments]


def _depths(post_id, parent_of):
    """Depth of every comment id in `parent_of` (comment id -> parent id),
    along its chain of parents to the post (depth 0); a parent may come
    later than its reply. A chain that loops raises CorpusError."""
    depth_of = {post_id: 0}
    for cid, parent in parent_of.items():
        if parent in depth_of:  # most parents come before their replies
            depth_of[cid] = depth_of[parent] + 1
            continue
        chain, on_chain = [], set()  # cid and its unresolved ancestors
        while cid not in depth_of:
            if cid in on_chain:
                raise CorpusError("reply cycle through comment %r in "
                                  "discussion %r" % (cid, post_id))
            chain.append(cid)
            on_chain.add(cid)
            cid = parent_of[cid]
        known = depth_of[cid]
        for c in reversed(chain):
            known += 1
            depth_of[c] = known
    return depth_of


def _read(path, manifest, excluded_author_tags):
    """The normalized form (`_build_discussion`) of each discussion of a
    JSON-lines corpus, line by line; removed comments and reattached
    orphans are counted in `manifest`. A line that does not parse or
    validate, a post id that repeats and a file with no discussion raise
    CorpusError."""
    excluded = set(excluded_author_tags)
    line_of = {}
    # read as bytes, so that a line that is not UTF-8 fails inside the `try`
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                post, comments = _build_discussion(json.loads(line), manifest,
                                                   excluded)
            except CorpusError:
                raise
            except Exception as exc:
                raise CorpusError("malformed corpus line %d: %s" % (lineno, exc)) from exc
            # a repeated post's predictions could not be told apart
            if post[0] in line_of:
                raise CorpusError("post id %r on line %d repeats line %d" % (
                    post[0], lineno, line_of[post[0]]))
            line_of[post[0]] = lineno
            yield post, comments
    if not line_of:
        raise CorpusError("%s holds no discussion" % path)


def _totals(manifest, discussions, comments, activity, min_user_discussions):
    """The manifest with its totals filled in; `activity` holds each
    user's count of discussions posted or commented in."""
    activity = np.asarray(activity)
    manifest.discussions, manifest.comments = discussions, comments
    manifest.users = len(activity)
    manifest.single_activity_users = int(np.count_nonzero(
        activity < min_user_discussions))
    return manifest


def parse_corpus(path, excluded_author_tags=EXCLUDED_AUTHOR_TAGS,
                 min_user_discussions=MIN_USER_DISCUSSIONS):
    """Read a JSON-lines corpus into records; returns (discussions,
    manifest).

    Comments by excluded author tags are removed. Users below the
    min-discussion activity threshold stay in the discussions but are
    flagged in the manifest (callers exclude them from embedding,
    labels and user features). A file with no discussion raises
    CorpusError naming it.
    """
    manifest = CorpusManifest()
    discussions = []
    for post, comments in _read(path, manifest, excluded_author_tags):
        discussions.append(Discussion(Post._make(post), tuple(
            map(Comment._make, comments))))
    activity = Counter()
    for d in discussions:
        activity.update({c.author for c in d.comments} | {d.post.author})
    return discussions, _totals(manifest, len(discussions),
                                sum(len(d.comments) for d in discussions),
                                list(activity.values()), min_user_discussions)


def ingest(path, write, excluded_author_tags=EXCLUDED_AUTHOR_TAGS,
           min_user_discussions=MIN_USER_DISCUSSIONS):
    """Read a JSON-lines corpus in one pass, as `parse_corpus` does, but
    into the filtered corpus's lines and arrays; returns (corpus,
    manifest).

    Each discussion's normalized form goes to `write` as one JSON line,
    with sorted keys and a newline, as soon as it is encoded: the line
    `discussions.jsonl` holds. No line is kept, so a bad line further on
    raises after `write` has had the lines before it. corpus is the
    `Corpus` of what was written, built from typed columns (`_Columns`).
    No record is built.
    """
    manifest = CorpusManifest()
    quote = encode_basestring_ascii
    columns = _Columns()
    for post, comments in _read(path, manifest, excluded_author_tags):
        pid, poster, title, body, t0 = post
        write(_LINE % (", ".join([
            _COMMENT % (quote(author), quote(text), quote(cid), quote(parent),
                        t) for cid, author, parent, _, t, text, _ in comments]),
            quote(poster), quote(body), quote(pid), t0, quote(title)))
        columns.add(post, comments)
    corpus = columns.corpus()
    return corpus, _totals(manifest, len(corpus.ids), len(corpus.author),
                           corpus.activity(), min_user_discussions)


def embedded_users(corpus, min_user_discussions=MIN_USER_DISCUSSIONS):
    """Users eligible for embedding: active in >= min_user_discussions
    discussions of a `Corpus` or of a list of discussions."""
    if not isinstance(corpus, Corpus):
        corpus = Corpus.of(corpus)
    active = np.flatnonzero(corpus.activity() >= min_user_discussions)
    return {corpus.authors[k] for k in active.tolist()}


def _pack_strings(strings):
    """A list of strings as one UTF-8 blob and the int64 offsets of each
    string's bytes in it."""
    data = [t.encode() for t in strings]
    return (np.frombuffer(b"".join(data), dtype=np.uint8),
            np.cumsum([0] + [len(b) for b in data], dtype=np.int64))


def _unpack_strings(blob, offsets):
    """The strings that `_pack_strings` packed."""
    data = blob.tobytes()
    return [data[a:b].decode() for a, b in zip(offsets[:-1].tolist(),
                                                offsets[1:].tolist())]


class Corpus:
    """Discussions as arrays: what the stages after `ingest` read, from
    the tensor file that `ingest` writes (`tensors`).

    Discussion b has id `ids[b]`, post author `post_author[b]` and post
    timestamp `post_time[b]`. Its comments are entries `start[b]` to
    `start[b + 1]` of the per-comment arrays, in time order: `author`,
    `parent` (the parent's position among the discussion's comments, -1
    for the post, -2 for a parent outside the record), `time` and `depth`.
    Authors are codes into `authors`, the distinct names sorted, so codes
    sort as names do. `texts` is the `text.Texts` of each discussion's
    title, then body, then comments: the title of b is text `title[b]`,
    and its comment j is text `title[b] + 2 + j`. `Texts.join` of the title
    and the body is the post's record, which is that of title + " " +
    body.
    """

    ARRAYS = ("start", "post_author", "post_time", "author", "parent",
              "time", "depth")
    STRINGS = ("ids", "authors", "vocabulary")
    KEYS = (ARRAYS + tuple("text_" + name for name in Texts.FIELDS)
            + STRINGS + tuple(name + "_offsets" for name in STRINGS))

    def __init__(self, ids, authors, texts, **arrays):
        self.ids, self.authors, self.texts = ids, authors, texts
        for name in self.ARRAYS:
            setattr(self, name, arrays[name])
        self.sizes = np.diff(self.start)
        self.title = self.start[:-1] + 2 * np.arange(len(ids))

    @classmethod
    def of(cls, discussions):
        """The Corpus of a list of discussions."""
        columns = _Columns()
        for d in discussions:
            columns.add(d.post, d.comments)
        return columns.corpus()

    def tensors(self):
        """The name -> array mapping of the tensor file, under `KEYS`."""
        out = {name: getattr(self, name) for name in self.ARRAYS}
        out.update(("text_" + name, getattr(self.texts, name))
                   for name in Texts.FIELDS)
        for name, strings in zip(self.STRINGS, (self.ids, self.authors,
                                                self.texts.vocabulary)):
            out[name], out[name + "_offsets"] = _pack_strings(strings)
        return out

    @classmethod
    def from_tensors(cls, tensors):
        """The Corpus of a `tensors` mapping."""
        ids, authors, vocabulary = (
            _unpack_strings(tensors[name], tensors[name + "_offsets"])
            for name in cls.STRINGS)
        texts = Texts.of_arrays(vocabulary, {
            name: tensors["text_" + name] for name in Texts.FIELDS})
        return cls(ids, authors, texts,
                   **{name: tensors[name] for name in cls.ARRAYS})

    def codes(self, table):
        """table[name] (or -1) for each author code, with one more -1 at
        the end, so that code -1 reads -1 too."""
        return np.array([table.get(name, -1) for name in self.authors]
                        + [-1], dtype=np.intp)

    def discussion(self):
        """The discussion of each comment."""
        return np.repeat(np.arange(len(self.ids)), self.sizes)

    def parent_author(self):
        """The author code of each comment's parent; -1 for a parent
        outside the record."""
        own = self.parent >= 0
        return np.where(own, self.author[self.start[self.discussion()]
                                         + np.where(own, self.parent, 0)],
                        np.where(self.parent == -1,
                                 self.post_author[self.discussion()], -1))

    def t_end(self):
        """Each discussion's last timestamp: its last comment's, or its
        post's when it has none."""
        last = np.append(self.time, 0)[self.start[1:] - 1]
        return np.where(self.sizes > 0, last, self.post_time)

    def activity(self):
        """How many discussions each author code posted or commented in."""
        D, U = len(self.ids), len(self.authors)
        # return_index: a stable sort, as `cooccur.build_cooccurrence` does
        keys = np.unique(np.concatenate([
            self.discussion() * U + self.author,
            np.arange(D) * U + self.post_author]), return_index=True)[0]
        return np.bincount(keys % U, minlength=U)

    def comments(self, discussions, limit):
        """(owner, position, comment) of the first `limit` comments of each
        of `discussions`: owner r is discussions[r], position the comment's
        index in its discussion, comment its entry in the arrays."""
        first = self.start[discussions]
        owner, at = ranges(first, first + np.minimum(self.sizes[discussions],
                                                     limit))
        return owner, at - first[owner], at


class _Columns:
    """The columns of a `Corpus`, added discussion by discussion as the
    tuples of `_build_discussion` or as records, which have their fields:
    a parent outside the discussion (as in a cut prefix) gets position -2.

    The integer columns are `array('q')`, eight bytes a value with no
    Python object each: the comment offsets (`start`), post times, comment
    times, parent positions and depths, and the authors as codes in order
    of first sight, from one name -> code dict. `corpus` renumbers the
    codes once, so that they follow sorted names."""

    def __init__(self):
        self.ids, self.texts, self.code = [], [], {}
        self.start, self.post_author, self.post_time = (
            array("q", [0]), array("q"), array("q"))
        self.author, self.parent, self.time, self.depth = (
            array("q"), array("q"), array("q"), array("q"))

    def add(self, post, comments):
        # fields by position, as in `Comment`; a `zip(*comments)` transpose
        # here raised the benchmark's peak RSS by 0.3-0.6 MB
        pid, poster, title, body, t0 = post
        code, position = self.code, {c[0]: k for k, c in enumerate(comments)}
        position[pid] = -1
        self.ids.append(pid)
        self.post_author.append(code.setdefault(poster, len(code)))
        self.post_time.append(t0)
        self.author.extend([code.setdefault(c[1], len(code))
                            for c in comments])
        self.start.append(len(self.author))
        self.parent.extend([position.get(c[2], -2) for c in comments])
        self.time.extend([c[4] for c in comments])
        self.depth.extend([c[6] for c in comments])
        self.texts += [title, body]
        self.texts += [c[5] for c in comments]

    def corpus(self):
        """The Corpus of what was added; author codes follow sorted
        names."""
        authors = sorted(self.code)
        # the sorted rank of each first-sight code
        rank = np.empty(len(authors), np.int64)
        rank[[self.code[name] for name in authors]] = np.arange(len(authors))

        def column(values):
            return np.frombuffer(values, np.int64)
        return Corpus(self.ids, authors, Texts(self.texts),
                      start=column(self.start),
                      post_author=rank[column(self.post_author)],
                      post_time=column(self.post_time),
                      author=rank[column(self.author)],
                      parent=column(self.parent), time=column(self.time),
                      depth=column(self.depth))


def windowize(d, w, N):
    """Slice a discussion into N fixed-size comment windows with padding flags."""
    if w < 1 or N < 1:
        raise ValueError("w and N must be >= 1")
    windows = []
    for i in range(1, N + 1):
        chunk = d.comments[(i - 1) * w: i * w]
        windows.append(Window(index=i, comments=tuple(chunk),
                              valid=len(chunk) > 0, actual_count=len(chunk)))
    dropped = max(0, len(d.comments) - N * w)
    return WindowedDiscussion(discussion=d, w=w, N=N, windows=tuple(windows),
                              dropped=dropped)


def growth_target(win):
    """Growth of a window: (raw_v, shifted) with raw_v = log(m/dt).

    dt is clamped below at 1 second. The shifted target log(1 + m/dt) is
    non-negative and is what the regression head trains against; raw_v
    feeds the percentage-error report.
    """
    if not win.valid or win.actual_count < 1:
        raise ValueError("growth_target needs a valid non-empty window")
    m = win.actual_count
    dt = max(1, win.comments[-1].timestamp - win.comments[0].timestamp)
    raw_v = math.log(m / dt)
    shifted = math.log(1.0 + m / dt)
    return raw_v, shifted
