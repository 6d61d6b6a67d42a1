"""Discussion data model: parsing, user filtering, comment windows, growth."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

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


def read_discussions(path):
    """The discussions of a file that `serialize_corpus` wrote from
    `parse_corpus` output, without checking them again: that form is
    already filtered, repaired and sorted, so only the depths are rebuilt.
    A line that cannot be read raises CorpusError naming it."""
    discussions = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                discussions.append(_discussion(Post(**raw["post"]),
                                               raw["comments"]))
            except CorpusError as exc:
                raise CorpusError("%s line %d: %s"
                                  % (path, lineno, exc)) from None
            except (ValueError, KeyError, TypeError) as exc:
                raise CorpusError("%s line %d cannot be read: %r"
                                  % (path, lineno, exc)) from None
    return discussions


def _activity(discussions):
    """Discussions each user posted or commented in."""
    activity = Counter()
    for d in discussions:
        for author in {c.author for c in d.comments} | {d.post.author}:
            activity[author] += 1
    return activity


def embedded_users(discussions, min_user_discussions=MIN_USER_DISCUSSIONS):
    """Users eligible for embedding: active in >= min_user_discussions discussions."""
    activity = _activity(discussions)
    return {u for u, k in activity.items() if k >= min_user_discussions}


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
