"""Discussion data model: parsing, user filtering, the columnar corpus
store, comment windows, growth."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .text import Texts, ranges

# the author filter: comments by these tags are removed, and users active in
# fewer discussions than this stay unembedded
EXCLUDED_AUTHOR_TAGS = ("deleted", "DeltaBot")
MIN_USER_DISCUSSIONS = 2


class CorpusError(Exception):
    pass


# a post and its comments are named tuples: immutable, read by field name
# and built at tuple speed, once per record of every corpus read
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


def _get(raw, key, owner, *args):
    """raw[key]; a missing key is a ValueError naming it and its owner,
    `owner % args`, which is formatted only then."""
    try:
        return raw[key]
    except KeyError:
        raise ValueError("%s lacks key %r" % (owner % args, key)) from None


def _timestamp(raw, owner, *args):
    """raw["timestamp"] as an int in 0 <= t < 2**53, where every span and
    gap is exact in int64 and float64; else a CorpusError naming `owner %
    args`."""
    t = int(_get(raw, "timestamp", owner, *args))
    if not 0 <= t < 2 ** 53:
        raise CorpusError("%s has timestamp %d, outside 0 <= t < 2**53"
                          % (owner % args, t))
    return t


def _build_discussion(raw, manifest, excluded_tags):
    post_raw = _get(raw, "post", "the line")
    post_id = str(_get(post_raw, "id", "the post"))
    title = _get(post_raw, "title", "post %r", post_id)
    if not title.strip():
        raise CorpusError("post %r has empty title" % post_raw["id"])
    post = Post(post_id, str(_get(post_raw, "author", "post %r", post_id)),
                title, str(post_raw.get("body", "")),
                _timestamp(post_raw, "post %r", post_id))
    kept, seen = [], {post.id}
    for k, c in enumerate(raw.get("comments", [])):
        cid = str(_get(c, "id", "comment %d of post %r", k, post.id))
        if cid in seen:  # a reply to it could not say which one it answers
            raise CorpusError("comment id %r in discussion %r is %s" % (
                cid, post.id, "the post's id" if cid == post.id
                else "used twice"))
        seen.add(cid)
        if str(_get(c, "author", "comment %r", cid)) in excluded_tags:
            manifest.removed_by_tag += 1
            continue
        kept.append(c)

    # every kept id is known before an orphan is reattached to the post
    known = {post.id} | {str(c["id"]) for c in kept}
    comments = []
    for c in kept:
        cid = str(c["id"])
        timestamp = _timestamp(c, "comment %r", cid)
        parent = str(_get(c, "parent_id", "comment %r", cid))
        if parent not in known:
            parent = post.id
            manifest.orphans_reattached += 1
        comments.append({"id": cid, "author": str(c["author"]),
                         "parent_id": parent,
                         "timestamp": max(timestamp, post.timestamp),
                         "body": str(c.get("body", ""))})
    return _discussion(post, comments)


def _discussion(post, comments):
    """The Discussion of a Post and its comments in the form
    `discussion_to_json` writes; depths follow the parents, and the
    comments are sorted by time, then id."""
    depth = _depths(post.id, {c["id"]: c["parent_id"] for c in comments})
    return Discussion(post, tuple(sorted(
        (Comment(c["id"], c["author"], c["parent_id"], post.id,
                 c["timestamp"], c["body"], depth[c["id"]])
         for c in comments), key=attrgetter("timestamp", "id"))))


def _depths(post_id, parent_of):
    """Depth of every comment id in `parent_of` (comment id -> parent id),
    along its chain of parents to the post (depth 0); a parent may come
    later than its reply. A chain that loops raises CorpusError."""
    depth_of = {post_id: 0}
    for cid in parent_of:
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


def parse_corpus(path, excluded_author_tags=EXCLUDED_AUTHOR_TAGS,
                 min_user_discussions=MIN_USER_DISCUSSIONS):
    """Read a JSON-lines corpus; returns (discussions, manifest).

    Comments by excluded author tags are removed. Users below the
    min-discussion activity threshold stay in the discussions but are
    flagged in the manifest (callers exclude them from embedding,
    labels and user features). A file with no discussion raises
    CorpusError naming it.
    """
    excluded = set(excluded_author_tags)
    manifest = CorpusManifest()
    discussions, line_of = [], {}
    # read as bytes, so that a line that is not UTF-8 fails inside the `try`
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                disc = _build_discussion(raw, manifest, excluded)
            except CorpusError:
                raise
            except Exception as exc:
                raise CorpusError("malformed corpus line %d: %s" % (lineno, exc)) from exc
            if disc.id in line_of:  # its predictions could not be told apart
                raise CorpusError("post id %r on line %d repeats line %d" % (
                    disc.id, lineno, line_of[disc.id]))
            line_of[disc.id] = lineno
            discussions.append(disc)
    if not discussions:
        raise CorpusError("%s holds no discussion" % path)

    activity = _activity(discussions)
    single = {u for u, k in activity.items() if k < min_user_discussions}

    manifest.discussions = len(discussions)
    manifest.comments = sum(len(d.comments) for d in discussions)
    manifest.users = len(activity)
    manifest.single_activity_users = len(single)
    return discussions, manifest


def _activity(discussions):
    """Discussions each user posted or commented in."""
    activity = Counter()
    for d in discussions:
        for author in {c.author for c in d.comments} | {d.post.author}:
            activity[author] += 1
    return activity


def embedded_users(corpus, min_user_discussions=MIN_USER_DISCUSSIONS):
    """Users eligible for embedding: active in >= min_user_discussions
    discussions of a `Corpus` or of a list of discussions."""
    if not isinstance(corpus, Corpus):
        corpus = Corpus.of(corpus)
    active = np.flatnonzero(corpus.activity() >= min_user_discussions)
    return {corpus.authors[k] for k in active.tolist()}


def serialize_corpus(discussions, path):
    """Write discussions back to the JSON-lines layout (round-trip safe)."""
    with open(path, "w") as fh:
        for d in discussions:
            fh.write(json.dumps(discussion_to_json(d), sort_keys=True) + "\n")


def discussion_to_json(d):
    return {
        "post": {
            "id": d.post.id, "author": d.post.author, "title": d.post.title,
            "body": d.post.body, "timestamp": d.post.timestamp,
        },
        "comments": [
            {"id": c.id, "author": c.author, "parent_id": c.parent_id,
             "timestamp": c.timestamp, "body": c.text}
            for c in d.comments
        ],
    }


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
        authors = sorted({d.post.author for d in discussions}
                         | {c.author for d in discussions for c in d.comments})
        code = {name: k for k, name in enumerate(authors)}
        strings, author, parent, time, depth = [], [], [], [], []
        for d in discussions:
            position = {c.id: k for k, c in enumerate(d.comments)}
            position[d.post.id] = -1
            strings += [d.post.title, d.post.body]
            for c in d.comments:
                strings.append(c.text)
                author.append(code[c.author])
                parent.append(position.get(c.parent_id, -2))
                time.append(c.timestamp)
                depth.append(c.depth)

        def column(values):
            return np.array(values, dtype=np.int64)
        return cls([d.id for d in discussions], authors, Texts(strings),
                   start=np.cumsum([0] + [len(d.comments)
                                          for d in discussions],
                                   dtype=np.int64),
                   post_author=column([code[d.post.author]
                                       for d in discussions]),
                   post_time=column([d.post.timestamp for d in discussions]),
                   author=column(author), parent=column(parent),
                   time=column(time), depth=column(depth))

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
