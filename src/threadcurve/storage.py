"""Deterministic on-disk artifacts: tensor files, text tables, atomic
writes, hashes.

A tensor file is a sequence of numpy records (`numpy.lib.format`): one
record of the tensor names, then one record per tensor in that order. Each
tensor keeps its shape and dtype, and equal tensors give equal bytes. A
text table (a lexicon file, `users.txt`, `cooccur.txt`, `embeddings.txt`,
`clusters.txt`, `centers.txt`) has one row per non-blank UTF-8 line, split
on whitespace; each module writes its own, and `read_table` reads them.

An atomic write (`atomic_write`) hands its writer one temporary path per
file and moves the files into place once the writer returns. A writer may
stream into them as it goes, as `ingest` does with `discussions.jsonl`: if
it raises, the temporary files are removed and the old files stay.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from itertools import repeat

import numpy as np
from numpy.lib.format import read_array, write_array


class StoreError(ValueError):
    """A tensor file that `load_store` cannot read, or a text table."""


class TableError(StoreError):
    """A text table that `read_table` cannot read; the message names the
    file and, for a row, its line."""


def table_lines(path):
    """(line number, fields) of every non-blank line of a text table."""
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                fields = raw.decode("utf-8").split()
            except UnicodeDecodeError:
                raise TableError("%s line %d is not UTF-8"
                                 % (path, number)) from None
            if fields:
                yield number, fields


def read_table(path, named, bounds=None, row=""):
    """(names, values) of a text table: each line holds a name when `named`,
    one that no other line holds, then numbers, each read by `float` and
    finite. With `bounds`, a line holds one number per bound, as `row` says,
    and number k lies in [0, bounds[k]), a whole one when that bound is an
    int (None: any number). Without, a line holds at least one number, as
    many as line 1. `values` is a float64 array with one row per line."""
    def error(number, what, *args):
        return TableError("%s line %d" % (path, number) + what % args)

    names, rows, width = {}, [], None if bounds is None else len(bounds)
    for number, fields in table_lines(path):
        if bounds is not None and len(fields) != named + width:
            raise error(number, ": expected %s, got %d fields", row,
                        len(fields))
        values = []
        for field, bound in zip(fields[named:], bounds or repeat(None)):
            try:
                value = float(field)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise error(number, ": %r is not a finite number", field)
            whole = type(bound) is int
            if bound is not None and not (
                    0 <= value < bound and (value.is_integer() or not whole)):
                raise error(number, ": %r is not a %snumber in [0, %s)",
                            field, "whole " if whole else "", bound)
            values.append(value)
        label = ": %r" % fields[0] if named else ""
        if width is None:
            if not values:
                raise error(number, "%s has no values", label)
            width, first = len(values), number
        elif len(values) != width:
            raise error(number, "%s has %d values, line %d has %d", label,
                        len(values), first, width)
        if fields[0] in names:  # only a named table records its names
            raise error(number, "%s repeats line %d", label, names[fields[0]])
        if named:
            names[fields[0]] = number
        rows.append(values)
    return list(names), np.array(rows, float).reshape(len(rows), width or 0)


def atomic_write(write, *paths):
    """Call `write` with a temporary path per file, then move each into
    place, so that a reader never sees a half-written file; returns what
    `write` returns. `write` may stream into its files: if it raises, the
    temporary files go and every file in `paths` keeps its old bytes."""
    tmps = [path + ".tmp" for path in paths]
    try:
        out = write(*tmps)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    for tmp, path in zip(tmps, paths):
        os.replace(tmp, path)
    return out


def atomic_write_text(path, content):
    def write(tmp):
        with open(tmp, "w") as fh:
            fh.write(content)
    atomic_write(write, path)


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
