"""The benchmark's trace hooks against the package.

`benchmark/tracing.py` patches threadcurve functions under the names their
callers look them up by, so moving or renaming one of them breaks
`benchmark/run.py --trace 1`. This installs the hooks on the imported
modules, runs a small temporal pipeline under them and uninstalls them.
"""

import importlib
import importlib.util
import json
import math
import os
from collections import Counter

from threadcurve import dataset
from threadcurve.corpus import parse_corpus
from threadcurve.pipeline import PipelineConfig, run_all

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("pipeline", "synth", "dataset", "cooccur", "features",
           "curvature", "autodiff", "optim", "newton", "logreg")


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", os.path.join(ROOT, "benchmark", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes(tc):
    """Every module attribute and patched class method, by identity."""
    out = {(m, k): v for m, mod in tc.items() for k, v in vars(mod).items()}
    for cls, attr in ((tc["autodiff"].Var, "__init__"),
                      (tc["autodiff"].Var, "backward"),
                      (tc["optim"].Adam, "step")):
        out[(cls.__name__, attr)] = cls.__dict__[attr]
    return out


def _traced_run(cfg, spans=()):
    """run_all(cfg) under the trace hooks, plus a span named "module.name"
    around each (module, name, after) in `spans`; checks that uninstalling
    puts every patched name back, and returns the tracer."""
    tracing = _load_tracing()
    tc = {m: importlib.import_module("threadcurve." + m) for m in MODULES}
    before = _attributes(tc)
    stages = dict(tc["pipeline"].STAGE_FUNCS)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, tc, math.pi / 12)
    extra = [(tc[module], name, vars(tc[module])[name])
             for module, name, _ in spans]
    for (owner, name, fn), (module, _, after) in zip(extra, spans):
        setattr(owner, name,
                tracing._span(tracer, module + "." + name, fn, after))
    try:
        run_all(cfg)
    finally:
        for owner, name, fn in extra:
            setattr(owner, name, fn)
        uninstall()
    after = _attributes(tc)
    assert all(after[key] is value for key, value in before.items())
    assert tc["pipeline"].STAGE_FUNCS == stages
    return tracer


def _calls_per_stage(tracer, name):
    """How many `name` spans ran inside each pipeline stage's span."""
    out = Counter()
    for k in range(len(tracer.start)):
        if tracer.names[tracer.span_name[k]] != name:
            continue
        p = tracer.parent[k]
        while not tracer.names[tracer.span_name[p]].startswith("pipeline."):
            p = tracer.parent[p]
        out[tracer.names[tracer.span_name[p]][len("pipeline."):]] += 1
    return out


def test_trace_hooks_install_run_and_uninstall(tmp_path):
    cfg = PipelineConfig(workdir=str(tmp_path / "run"), desk_scale=True,
                         synth_discussions=9, epochs=2, holdout=0.25)
    batches = []
    tracer = _traced_run(cfg, [("features", "text_rows",
                                lambda args, rows: batches.append(len(rows)))])

    discussions, _ = parse_corpus(cfg.path("discussions.jsonl"))
    windowed = [min(len(d.comments), cfg.N * cfg.w) for d in discussions]
    steps = sum(-(-m // cfg.w) for m in windowed)  # non-empty windows
    counts = tracer.counts
    # text features are computed once, by `featurize`, in one array pass
    # over the corpus, which fits one chunk: a row per post, per windowed
    # comment and per valid step's prefix, and by no per-text call
    assert len(discussions) <= dataset.CHUNK
    assert _calls_per_stage(tracer, "features.text_rows") == {"featurize": 1}
    assert sum(batches) == len(discussions) + sum(windowed) + steps
    assert counts["features.featurize_comment"] == 0
    assert counts["logreg.aggregate_step_features"] == 0
    assert counts["features.load_word_vectors"] == 2
    assert counts["dataset.build_temporal_dataset"] == 1
    assert counts["pipeline.diagnose"] == 1
    # each training update is one traced loss, so a loss the training
    # loop bound before the hooks went in would show here; the losses walk
    # their own reverse pass and build no tape
    with open(cfg.path("features_meta.json")) as fh:
        updates = cfg.epochs * len(json.load(fh)["train_ids"])
    assert counts["curvature.discussion_loss"] == updates
    assert counts["autodiff.backward"] == 0
    assert counts["autodiff.nodes"] == 0
    with open(cfg.path("embed_log.json")) as fh:
        embed_epochs = len(json.load(fh)["epoch_losses"])
    assert counts["optim.adam_step"] == updates + embed_epochs

    # the test split is scored through the traced name, in one pass, by
    # `train`; the stages after it read the scores
    assert _calls_per_stage(tracer, "curvature.predict_temporal") == {
        "train": 1}


def test_one_shot_scoring_is_one_pass_per_stage(tmp_path):
    cfg = PipelineConfig(workdir=str(tmp_path / "run"), desk_scale=True,
                         task="nontemporal", synth_posts=16, epochs=3,
                         holdout=0.25)
    tracer = _traced_run(cfg)
    assert _calls_per_stage(tracer, "curvature.predict_nontemporal") == {
        "train": 1}
    assert _calls_per_stage(tracer, "curvature.nontemporal_batch_loss") == {
        "train": cfg.epochs}
