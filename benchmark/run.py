"""threadcurve benchmark: closed-batch pipeline workloads on synthetic corpora.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --seed N            # every workload in turn

Run from the root of a checkout. Each workload generates its corpus and
lexicon files with `threadcurve.synth` at set-up, then runs the pipeline
stages in order through `pipeline.run_stage`, as `threadcurve all` does,
one round after another in fresh work directories until `--seconds` have
passed (at least two rounds, so that the rounds can be compared byte for
byte). The output files are then checked against values this benchmark
computes itself. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; with `--trace 1` the first
round runs untraced and the rest traced, and the metrics are per layer.
Untraced times are reference seconds: wall time scaled by the machine's
speed sampled during it (speed.py).
"""

from __future__ import annotations

import os

# one thread for BLAS and OpenMP; must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
TRACES = os.path.join(ROOT, ".bench_traces")

LR = 1e-2              # the learning rate the acceptance suite trains with
SETUP_REPEATS = 5
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    task: str          # temporal | nontemporal
    size: int          # discussions (temporal) or posts (one-shot)
    models: tuple      # (model, epochs) in training order
    floors: bool       # quality floors hold on this workload


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "temporal_desk": Workload("temporal", 50, (("rgnet", 60), ("newtonian", 10)), True),
    "nontemporal_desk": Workload("nontemporal", 120, (("rgnet", 150),), True),
    "temporal_corpus": Workload("temporal", 800, (("rgnet", 1), ("logreg", 1)), False),
}

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "rgnet_train_per_s": "inst-epoch/s",
}

PIPELINE_STAGES = ["ingest", "balance", "cooccur", "embed", "cluster",
                   "featurize", "train", "evaluate", "predict", "diagnose"]

PER_LAYER = dict(
    [("pipeline.%s_s" % s, "s") for s in PIPELINE_STAGES]
    + [("pipeline.cpu_s", "s"),
       ("pipeline.newtonian_train_per_s", "inst-epoch/s"),
       ("pipeline.logreg_train_s", "s"),
       ("corpus.parse_corpus_calls", "count"),
       ("corpus.parse_corpus_s", "s"),
       ("corpus.windowize_calls", "count"),
       ("cooccur.build_cooccurrence_s", "s"),
       ("cooccur.semantic_pair_calls", "count"),
       ("cooccur.semantic_hit_ratio", "ratio"),
       ("cooccur.nnz", "count"),
       ("embedding.train_guvec_s", "s"),
       ("clustering.kmeans_s", "s"),
       ("clustering.spacetime_centers_calls", "count"),
       ("features.featurize_comment_calls", "count"),
       ("features.featurize_comment_s", "s"),
       ("features.featurize_post_calls", "count"),
       ("features.comment_featurizations_per_comment", "ratio"),
       ("features.load_word_vectors_calls", "count"),
       ("dataset.build_temporal_dataset_s", "s"),
       ("dataset.build_temporal_dataset_calls", "count"),
       ("dataset.build_nontemporal_dataset_s", "s"),
       ("dataset.standardize_instances_s", "s"),
       ("curvature.discussion_loss_s", "s"),
       ("curvature.discussion_loss_calls", "count"),
       ("curvature.forward_s", "s"),
       ("curvature.forward_calls", "count"),
       ("curvature.nontemporal_batch_loss_s", "s"),
       ("curvature.predict_temporal_s", "s"),
       ("curvature.predict_nontemporal_s", "s"),
       ("autodiff.backward_s", "s"),
       ("autodiff.backward_calls", "count"),
       ("autodiff.nodes", "count"),
       ("autodiff.nodes_per_update", "count"),
       ("optim.adam_step_s", "s"),
       ("optim.adam_steps", "count"),
       ("newton.discussion_loss_s", "s"),
       ("newton.forward_s", "s"),
       ("newton.predict_temporal_s", "s"),
       ("logreg.aggregate_step_features_s", "s"),
       ("logreg.aggregate_step_features_calls", "count"),
       ("logreg.fit_binary_s", "s"),
       ("metrics.diagnostics_s", "s"),
       ("storage.sha256_file_s", "s"),
       ("storage.sha256_file_bytes", "bytes"),
       ("storage.save_store_s", "s"),
       ("storage.load_store_s", "s"),
       ("trace.overhead_pct", "%")])

PROGRAM_MODULES = ("pipeline", "synth", "dataset", "cooccur", "features",
                   "curvature", "autodiff", "optim", "newton", "logreg")


def import_program():
    """Import threadcurve from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "threadcurve", "__init__.py")):
        raise SystemExit("benchmark: no threadcurve package under %s" % SRC)
    sys.path.insert(0, SRC)
    tc = {m: importlib.import_module("threadcurve." + m)
          for m in PROGRAM_MODULES}
    if not os.path.abspath(tc["pipeline"].__file__).startswith(SRC + os.sep):
        raise SystemExit("benchmark: threadcurve was not imported from src/")
    return tc


def stage_plan(wl):
    """(stage, model, epochs) in the order `threadcurve all` runs them."""
    first, epochs = wl.models[0]
    plan = [(s, first, epochs) for s in
            ["ingest"] + (["balance"] if wl.task == "nontemporal" else [])
            + ["cooccur", "embed", "cluster", "featurize"]]
    for model, epochs in wl.models:
        plan += [(s, model, epochs) for s in ("train", "evaluate", "predict")]
        if wl.task == "temporal" and model == "rgnet":
            plan.append(("diagnose", model, epochs))
    return plan


def make_config(tc, wl, seed, workdir, inputs, model="rgnet", epochs=1):
    return tc["pipeline"].PipelineConfig(
        workdir=workdir, corpus_path=os.path.join(inputs, "corpus.jsonl"),
        word_vectors_path=os.path.join(inputs, "word_vectors.txt"),
        sentiment_path=os.path.join(inputs, "sentiment.txt"),
        stopwords_path=os.path.join(inputs, "stopwords.txt"),
        desk_scale=True, task=wl.task, model=model, epochs=epochs, lr=LR,
        seed=seed)


def generate_inputs(tc, wl, seed, inputs):
    """Corpus and lexicon files from the synthetic generators."""
    synth = tc["synth"]
    widths = make_config(tc, wl, seed, inputs, inputs)
    spec = synth.SynthSpec(w=widths.w, N=widths.N, discussions=wl.size,
                           posts=wl.size)
    os.makedirs(inputs, exist_ok=True)
    synth.write_lexicon_files(spec, inputs, seed=seed)
    make = (synth.make_temporal_corpus if wl.task == "temporal"
            else synth.make_nontemporal_corpus)
    make(spec, seed, os.path.join(inputs, "corpus.jsonl"),
         os.path.join(inputs, "truth.json"))


@dataclass
class Round:
    stages: list        # (stage, model, wall_s, cpu_s, reference_s)
    logs: list          # (label, epoch losses) read straight after training
    n_train: int
    failed: int
    attempted: int
    workdir: str

    def _sum(self, field, stage, model):
        return sum(row[field] for row in self.stages
                   if (stage is None or row[0] == stage)
                   and (model is None or row[1] == model))

    def wall(self, stage=None, model=None):
        return self._sum(2, stage, model)

    def reference(self, stage=None, model=None):
        return self._sum(4, stage, model)


def run_round(tc, wl, seed, workdir, inputs, checks, probe=None):
    """One closed batch: every stage once, in order. With a speed probe,
    each stage also gets its reference time; without, that is its wall."""
    plan = stage_plan(wl)
    rnd = Round([], [], 0, 0, len(plan), workdir)
    for k, (stage, model, epochs) in enumerate(plan):
        cfg = make_config(tc, wl, seed, workdir, inputs, model, epochs)
        mark = probe.mark() if probe else None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            tc["pipeline"].run_stage(stage, cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rnd.failed = len(plan) - k
            return rnd
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        ref = wall
        if probe:
            ref, wall = probe.reference_seconds(mark)
        rnd.stages.append((stage, model, wall, cpu, ref))
        if stage == "embed":
            rnd.logs.append(("embed", checks.read_json(
                cfg.path("embed_log.json"))["epoch_losses"]))
        elif stage == "featurize":
            rnd.n_train = len(checks.read_json(
                cfg.path("features_meta.json"))["train_ids"])
        elif stage == "train":
            rnd.logs.append(("train_" + model, checks.read_json(
                cfg.path("train_log.json"))["epoch_losses"]))
    return rnd


def setup_seconds(wl, seed, inputs):
    """Import the package and write the inputs in a fresh interpreter, as
    every command-line invocation pays for the import; returns its wall time.
    Mostly import, which does not follow the speed probe (README.md)."""
    code = ("import sys, time; sys.path.insert(0, %r); import run; "
            "t = time.perf_counter(); tc = run.import_program(); "
            "run.generate_inputs(tc, run.WORKLOADS[%r], %d, %r); "
            "print(time.perf_counter() - t)" % (HERE, wl, seed, inputs))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    return float(out.stdout.split()[-1])


def train_rate(rnd, wl, model):
    epochs = dict(wl.models).get(model)
    seconds = rnd.reference("train", model)
    return epochs * rnd.n_train / seconds if epochs and seconds else 0.0


def end_to_end(rnd, wl):
    return {
        "pipeline_s": rnd.reference(),
        "rgnet_train_per_s": train_rate(rnd, wl, "rgnet"),
    }


def per_layer(rnd, wl, tracer, n_comments):
    self_s, counts = tracer.self_times(), tracer.counts
    out = {"pipeline.%s_s" % s: rnd.wall(s) for s in PIPELINE_STAGES}
    out["pipeline.cpu_s"] = sum(row[3] for row in rnd.stages)
    out["pipeline.newtonian_train_per_s"] = train_rate(rnd, wl, "newtonian")
    out["pipeline.logreg_train_s"] = rnd.wall("train", "logreg")
    pairs = counts["cooccur.semantic_pair"]
    out["cooccur.semantic_hit_ratio"] = (
        counts["cooccur.semantic_hits"] / pairs if pairs else 0.0)
    out["cooccur.nnz"] = counts["cooccur.nnz"]
    out["features.comment_featurizations_per_comment"] = (
        counts["features.featurize_comment"] / n_comments if n_comments else 0.0)
    updates = counts["autodiff.updates"]
    out["autodiff.nodes"] = counts["autodiff.nodes"]
    out["autodiff.nodes_per_update"] = (
        counts["autodiff.update_nodes"] / updates if updates else 0.0)
    out["optim.adam_steps"] = counts["optim.adam_step"]
    out["storage.sha256_file_bytes"] = counts["storage.sha256_file_bytes"]
    for name in PER_LAYER:
        if name in out or name == "trace.overhead_pct":
            continue
        if name.endswith("_calls"):
            out[name] = counts[name[:-len("_calls")]]
        else:
            out[name] = self_s[name[:-len("_s")]]
    return out


def run_checks(checks, tc, wl, rounds, theta0):
    """Every output check on the last round, plus determinism across rounds."""
    res = checks.Results()
    checks.check_determinism(res, [checks.file_digests(r.workdir) for r in rounds])
    work = rounds[-1].workdir
    inputs = os.path.join(os.path.dirname(work), "inputs")
    discussions = checks.read_discussions(os.path.join(work, "discussions.jsonl"))
    checks.check_cooccurrence(res, work, inputs, theta0)
    checks.check_nearest_center(res, work)
    checks.check_manifest(res, work)
    # logreg writes an empty loss list, so it has no curve to check
    checks.check_losses(res, [(label, losses) for label, losses in rounds[-1].logs
                              if label != "train_logreg"])
    if wl.task == "nontemporal":
        task_ids = sorted(checks.check_balance(res, work, discussions))
    else:
        task_ids = [d["post"]["id"] for d in discussions]
    cfg = make_config(tc, wl, 0, work, inputs)
    test_ids = checks.check_split(res, work, task_ids, cfg.holdout)
    quality = {}
    if wl.task == "nontemporal":
        quality["rgnet"] = checks.check_nontemporal_model(
            res, work, discussions, test_ids, tc["synth"].ATTRACT_WORD)
    else:
        for model, _ in wl.models:
            quality[model] = checks.check_temporal_model(
                res, work, model, discussions, test_ids, cfg.w, cfg.N)
        checks.check_diagnostics(res, work)
    if wl.floors and all(quality.values()):
        if wl.task == "nontemporal":
            res.add("floor.auc", quality["rgnet"]["auc"] >= 0.90,
                    "AUC %.3f >= 0.90" % quality["rgnet"]["auc"])
        else:
            rg, nw = quality["rgnet"], quality["newtonian"]
            # micro-F1 >= 0.90 is no floor: after 60 epochs it fails on
            # about one seed in six (see README.md)
            res.add("floor.rgnet_growth", rg["growth_error_pct"] <= 15.0,
                    "growth error %.2f%% <= 15%% (micro-F1 %.3f)"
                    % (rg["growth_error_pct"], rg["micro_f1"]))
            res.add("floor.rgnet_beats_newtonian",
                    rg["micro_f1"] > nw["micro_f1"],
                    "micro-F1 %.3f > %.3f" % (rg["micro_f1"], nw["micro_f1"]))
    return res


def layer_metrics(wl, rounds, tracers, n_comments):
    """Medians over traced rounds; overhead against the untraced round."""
    traced = [per_layer(r, wl, t, n_comments)
              for r, t in zip(rounds, tracers) if t]
    out = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(r.wall() for r, t in zip(rounds, tracers) if t)
        / statistics.median(r.wall() for r, t in zip(rounds, tracers)
                            if t is None) - 1.0)
    return out


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    tc = import_program()
    sys.path.insert(0, HERE)
    import checks
    import speed
    import tracing

    base = os.path.join(RUNS, "%s-seed%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(base, ignore_errors=True)
    inputs = os.path.join(base, "inputs")
    setups = [setup_seconds(name, seed, inputs) for _ in range(SETUP_REPEATS)]
    theta0 = make_config(tc, wl, seed, base, inputs).theta0

    # with --trace 1 the first round runs untraced, as the overhead baseline,
    # and no round samples the machine's speed
    rounds, tracers = [], []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if trace and rounds else None
        uninstall = tracing.install(tracer, tc, theta0) if tracer else None
        probe = None if trace else speed.SpeedProbe()
        t0 = time.perf_counter()
        try:
            with probe or contextlib.nullcontext():
                rnd = run_round(tc, wl, seed,
                                os.path.join(base, "round%d" % len(rounds)),
                                inputs, checks, probe)
        finally:
            if uninstall:
                uninstall()
        rounds.append(rnd)
        tracers.append(tracer)
        now = time.perf_counter()
        if rnd.failed or (len(rounds) >= MIN_ROUNDS
                          and now - start + (now - t0) > seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = False
    if failed:
        print("benchmark: a stage failed; outputs not checked", file=sys.stderr)
    else:
        res = run_checks(checks, tc, wl, rounds, theta0)
        print("\n".join(res.lines()))
        correct = res.ok
    for k, (r, t) in enumerate(zip(rounds, tracers)):
        line = "round %d%s: pipeline %.3f s wall, rgnet train %.3f s wall" % (
            k, " traced" if t else "", r.wall(), r.wall("train", "rgnet"))
        if not trace:
            line += "; %.3f and %.3f reference s" % (
                r.reference(), r.reference("train", "rgnet"))
        print(line)

    if trace:
        metrics, units = {}, PER_LAYER
        if not failed:
            discussions = checks.read_discussions(
                os.path.join(rounds[0].workdir, "discussions.jsonl"))
            metrics = layer_metrics(wl, rounds, tracers,
                                    sum(len(d["comments"]) for d in discussions))
            os.makedirs(TRACES, exist_ok=True)
            tracers[-1].write(os.path.join(TRACES, "%s-seed%d.jsonl" % (name, seed)))
    else:
        done = [end_to_end(r, wl) for r in rounds if not r.failed]
        metrics = {k: statistics.median(e[k] for e in done)
                   for k in done[0]} if done else {}
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
    metrics = {k: {"value": float(metrics.get(k, 0.0)), "unit": u}
               for k, u in units.items()}
    for k, m in metrics.items():
        print("metric %-46s %14.6f %s" % (k, m["value"], m["unit"]))
    print("workload %s seed %d: %d rounds, %d stage runs, %d failed"
          % (name, seed, len(rounds), attempted, failed))
    if correct:
        shutil.rmtree(base, ignore_errors=True)
    else:
        print("benchmark: work directories kept in %s" % base, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload:
        run_workload(args.workload, args.seed, args.seconds, args.trace)
        return 0
    status = 0
    for name in WORKLOADS:
        status |= subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
