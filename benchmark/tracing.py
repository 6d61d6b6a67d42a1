"""Spans and call counts recorded around calls into threadcurve's modules.

Each wrapper replaces a function under the name its caller looks it up by:
`pipeline` imports most functions by name, `dataset` imports `windowize` and
`spacetime_centers` by name, and methods are patched on their class. A span
records name, start, end and parent; spans stay in memory until `write`.
Self time is a span's duration minus the durations of its direct children.
Hot, tiny functions (`Var.__init__`, `title_angle`, ...) are counted without
a span, so their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names = []              # span name per name id
        self._ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.counts = Counter()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def self_times(self):
        """Total self time per span name, in seconds."""
        n = len(self.start)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        out = Counter()
        for k in range(n):
            out[self.names[self.span_name[k]]] += (
                self.end[k] - self.start[k] - child[k])
        return out

    def write(self, path):
        """One JSON array per span: name, start, end, parent index."""
        with open(path, "w") as fh:
            for k in range(len(self.start)):
                fh.write(json.dumps([self.names[self.span_name[k]],
                                     self.start[k], self.end[k],
                                     self.parent[k]]) + "\n")


def _span(tracer, name, fn, after=None):
    nid = tracer.name_id(name)
    names, starts, ends, parents = (tracer.span_name, tracer.start,
                                    tracer.end, tracer.parent)
    stack, counts, clock = tracer.stack, tracer.counts, time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(starts)
        names.append(nid)
        parents.append(stack[-1] if stack else -1)
        ends.append(0.0)
        stack.append(idx)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            stack.pop()
        counts[name] += 1
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _count(tracer, name, fn, after=None):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        counts[name] += 1
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _update(tracer, name, fn, after=None):
    """Span around a loss-and-gradient call; also counts the tape nodes
    built inside it, for nodes per optimizer update."""
    counts = tracer.counts
    inner = _span(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = counts["autodiff.nodes"]
        result = inner(*args, **kwargs)
        counts["autodiff.update_nodes"] += counts["autodiff.nodes"] - before
        counts["autodiff.updates"] += 1
        return result
    return wrapper


def install(tracer, tc, theta0):
    """Patch every traced entry point; returns a function that undoes it.

    `tc` maps module names to the imported threadcurve modules.
    """
    pipeline, counts = tc["pipeline"], tracer.counts

    def count_nodes(fn):
        @functools.wraps(fn)
        def init(self, *args, **kwargs):
            counts["autodiff.nodes"] += 1
            fn(self, *args, **kwargs)
        return init

    def angle_hit(args, theta):
        if theta is not None and theta <= theta0:
            counts["cooccur.semantic_hits"] += 1

    def file_bytes(args, result):
        counts["storage.sha256_file_bytes"] += os.path.getsize(args[0])

    def nnz(args, result):
        counts["cooccur.nnz"] += result[0].nnz

    span = functools.partial(_span, tracer)
    count = functools.partial(_count, tracer)
    update = functools.partial(_update, tracer)
    plan = [
        (pipeline, "parse_corpus", span, "corpus.parse_corpus", None),
        (tc["dataset"], "windowize", count, "corpus.windowize", None),
        (pipeline, "build_cooccurrence", span, "cooccur.build_cooccurrence", nnz),
        (tc["cooccur"], "accumulate_semantic", count, "cooccur.semantic_pair", None),
        (tc["cooccur"], "title_angle", count, "cooccur.title_angle", angle_hit),
        (pipeline, "train_guvec", span, "embedding.train_guvec", None),
        (pipeline, "kmeans", span, "clustering.kmeans", None),
        (tc["dataset"], "spacetime_centers", count, "clustering.spacetime_centers", None),
        (tc["features"], "featurize_comment", span, "features.featurize_comment", None),
        (tc["features"], "featurize_post", count, "features.featurize_post", None),
        (pipeline, "load_word_vectors", count, "features.load_word_vectors", None),
        (pipeline, "build_temporal_dataset", span, "dataset.build_temporal_dataset", None),
        (pipeline, "build_nontemporal_dataset", span, "dataset.build_nontemporal_dataset", None),
        (pipeline, "standardize_instances", span, "dataset.standardize_instances", None),
        (tc["curvature"], "discussion_loss", update, "curvature.discussion_loss", None),
        (tc["curvature"], "forward", span, "curvature.forward", None),
        (tc["curvature"], "nontemporal_batch_loss", update, "curvature.nontemporal_batch_loss", None),
        (tc["curvature"], "predict_temporal", span, "curvature.predict_temporal", None),
        (tc["curvature"], "predict_nontemporal", span, "curvature.predict_nontemporal", None),
        (tc["autodiff"].Var, "backward", span, "autodiff.backward", None),
        (tc["optim"].Adam, "step", span, "optim.adam_step", None),
        (tc["newton"], "discussion_loss", update, "newton.discussion_loss", None),
        (tc["newton"], "forward", span, "newton.forward", None),
        (tc["newton"], "predict_temporal", span, "newton.predict_temporal", None),
        (tc["logreg"], "aggregate_step_features", span, "logreg.aggregate_step_features", None),
        (tc["logreg"], "fit_binary", span, "logreg.fit_binary", None),
        (pipeline, "diagnostics", span, "metrics.diagnostics", None),
        (pipeline, "sha256_file", span, "storage.sha256_file", file_bytes),
        (pipeline, "save_store", span, "storage.save_store", None),
        (pipeline, "load_store", span, "storage.load_store", None),
    ]
    undo = []
    for owner, attr, kind, name, after in plan:
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, kind(name, original, after))
    var = tc["autodiff"].Var
    undo.append((var, "__init__", var.__dict__["__init__"]))
    var.__init__ = count_nodes(var.__init__)
    stages = pipeline.STAGE_FUNCS
    saved = dict(stages)
    for stage, fn in saved.items():
        stages[stage] = span("pipeline." + stage, fn)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        stages.update(saved)
    return uninstall
