"""Deterministic on-disk artifacts: tensor files, atomic writes, hashes.

A tensor file is a sequence of numpy records (`numpy.lib.format`): one
record of the tensor names, then one record per tensor in that order. Each
tensor keeps its shape and dtype, and equal tensors give equal bytes.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
from numpy.lib.format import read_array, write_array


class StoreError(ValueError):
    """A tensor file that `load_store` cannot read."""


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
    """Write a name -> array mapping (anything with `items()`) as a tensor
    file."""
    items = list(tensors.items())

    def write(tmp):
        with open(tmp, "wb") as fh:
            write_array(fh, np.array([name for name, _ in items], dtype=str))
            for _, value in items:
                write_array(fh, value, allow_pickle=False)
    atomic_write(write, path)


def load_store(path):
    """The tensors of a tensor file, as a name -> array dict; raises
    `StoreError` naming the file if it is not one."""
    try:
        with open(path, "rb") as fh:
            names = read_array(fh, allow_pickle=False)
            if names.dtype.kind != "U" or names.ndim != 1:
                raise ValueError("its first record is not a list of names")
            tensors = {name: read_array(fh, allow_pickle=False)
                       for name in names.tolist()}
            if fh.read(1):
                raise ValueError("bytes follow the last tensor")
    except ValueError as exc:
        raise StoreError("unreadable tensor file %s: %s" % (path, exc)) from exc
    return tensors
