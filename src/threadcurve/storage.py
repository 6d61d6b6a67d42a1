"""Deterministic on-disk artifacts: tensor container, atomic writes, hashes.

The tensor container is a versioned text format (one header line, then per
tensor: "tensor <name> <dim0> <dim1> ..." followed by one line of %.17g
values). Byte-identical for identical inputs, unlike zip-based formats.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

FORMAT_HEADER = "tensorstore v1"
WRITE_CHUNK = 4096     # values formatted per write


def atomic_write(write, *paths):
    """Call `write` with a temporary path per file, then move each into
    place, so that a reader never sees a half-written file."""
    tmps = [path + ".tmp" for path in paths]
    write(*tmps)
    for tmp, path in zip(tmps, paths):
        os.replace(tmp, path)


def atomic_write_text(path, content):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(content)
    os.replace(tmp, path)


def atomic_write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def save_store(tensors, path):
    """Write a name -> array mapping in the tensorstore format, a chunk of
    values at a time, so that no string of a whole tensor is ever built."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(FORMAT_HEADER + "\n")
        for name, value in tensors.items():
            fh.write("tensor %s %s\n" % (name, " ".join(str(s) for s in value.shape)))
            flat = value.ravel()
            for start in range(0, flat.size, WRITE_CHUNK):
                chunk = flat[start:start + WRITE_CHUNK].tolist()
                fh.write((" " if start else "")
                         + " ".join(["%.17g"] * len(chunk)) % tuple(chunk))
            fh.write("\n")
    os.replace(tmp, path)


def load_store(path):
    """The tensors of a tensorstore file, as a name -> array dict."""
    tensors = {}
    with open(path) as fh:
        if fh.readline().rstrip("\n") != FORMAT_HEADER:
            raise ValueError("unrecognized checkpoint format in %s" % path)
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] != "tensor":
                raise ValueError("bad tensor header %r" % line)
            shape = tuple(int(s) for s in parts[2:])
            text = next(fh, "")
            # numpy reads a blank line as [-1.0]: an empty tensor is read apart
            values = (np.zeros(0) if text.isspace()
                      else np.fromstring(text, sep=" "))
            tensors[parts[1]] = values.reshape(shape)
    return tensors
