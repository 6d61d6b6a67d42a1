"""The record path of `ingest`: the reference that the one-pass ingest
(`corpus.ingest`) is tested against. `parse_corpus` builds the records,
`serialize_corpus` writes them back as JSON lines and `corpus_of` builds
the store's arrays from them, one record at a time."""

import json

import numpy as np

from threadcurve.corpus import Corpus, parse_corpus
from threadcurve.text import Texts


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


def serialize_corpus(discussions, path):
    """Write discussions back to the JSON-lines layout (round-trip safe)."""
    with open(path, "w") as fh:
        for d in discussions:
            fh.write(json.dumps(discussion_to_json(d), sort_keys=True) + "\n")


def corpus_of(discussions):
    """The `Corpus` of a list of discussions."""
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
    return Corpus([d.id for d in discussions], authors, Texts(strings),
                  start=np.cumsum([0] + [len(d.comments) for d in discussions],
                                  dtype=np.int64),
                  post_author=column([code[d.post.author]
                                      for d in discussions]),
                  post_time=column([d.post.timestamp for d in discussions]),
                  author=column(author), parent=column(parent),
                  time=column(time), depth=column(depth))


def record_ingest(path, out, *args):
    """What `ingest` gives, by the record path: write the records' lines
    to `out`; returns (tensors, manifest)."""
    discussions, manifest = parse_corpus(path, *args)
    serialize_corpus(discussions, out)
    return corpus_of(discussions).tensors(), manifest
