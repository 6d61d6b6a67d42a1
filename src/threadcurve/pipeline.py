"""Stage orchestration: config, the files each stage reads and writes, the
stage runner and its provenance manifest."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, asdict, field, fields

import numpy as np

from . import curvature, logreg, newton, synth
from .clustering import ClusterModel, kmeans, T_CAP_SECONDS
from .cooccur import build_cooccurrence, CooccurrenceMatrix, sparsity_profile
from .corpus import (FilterConfig, embedded_users, parse_corpus,
                     serialize_corpus)
from .dataset import (build_nontemporal_dataset, build_temporal_dataset,
                      split_dataset, standardize_instances, unstack)
from .embedding import EmbeddingModel, train_guvec
from .features import (ablate, build_lexicons, comment_layout, load_sentiment,
                       load_stopwords, load_word_vectors, post_layout)
from .metrics import auc, diagnostics, growth_error, multilabel_metrics
from .optim import ParameterStore
from .storage import (atomic_write, atomic_write_json, atomic_write_text,
                      save_store, load_store, sha256_file)

VERSION = "0.1.0"

PACK = "features_pack.txt"   # every model input, written by `featurize`


class PipelineError(Exception):
    pass


@dataclass
class PipelineConfig:
    workdir: str = "run"
    corpus_path: str = ""              # defaults to workdir/corpus.jsonl
    word_vectors_path: str = ""
    sentiment_path: str = ""
    stopwords_path: str = ""
    theta0: float = math.pi / 12
    d: int = 128
    w: int = 15
    n: int = 8
    N: int = 10
    h1: int = 128
    h2: int = 64
    h3: int = 64
    lam: float = 1.0
    seed: int = 0
    desk_scale: bool = False
    model: str = "rgnet"               # rgnet | newtonian | logreg
    task: str = "temporal"             # temporal | nontemporal
    ablation: str = ""                 # "" or "group:mode"
    holdout: float = 0.2
    epochs: int = 60
    lr: float = 3e-3
    embed_epochs: int = 30
    embed_lr: float = 0.05
    t_cap: int = T_CAP_SECONDS
    min_user_discussions: int = 2
    excluded_author_tags: list = field(
        default_factory=lambda: ["deleted", "DeltaBot"])
    synth_discussions: int = 50
    synth_posts: int = 120

    def __post_init__(self):
        if self.desk_scale:
            self.d, self.n, self.N, self.w = 8, 3, 4, 5
            self.h1, self.h2, self.h3 = 16, 8, 8
        if not self.corpus_path:
            self.corpus_path = os.path.join(self.workdir, "corpus.jsonl")
        if not self.word_vectors_path:
            self.word_vectors_path = os.path.join(self.workdir, "word_vectors.txt")
        if not self.sentiment_path:
            self.sentiment_path = os.path.join(self.workdir, "sentiment.txt")
        if not self.stopwords_path:
            self.stopwords_path = os.path.join(self.workdir, "stopwords.txt")
        self._validate()

    def _validate(self):
        for name in ("d", "w", "n", "N", "h1", "h2", "h3", "epochs",
                     "embed_epochs", "min_user_discussions"):
            if getattr(self, name) < 1:
                raise PipelineError("config field %s must be >= 1" % name)
        if not (0 <= self.theta0 <= math.pi / 12 + 1e-12):
            raise PipelineError("theta0 must lie in [0, pi/12]")
        if not (0 < self.holdout < 1):
            raise PipelineError("holdout must be in (0, 1)")
        if self.model not in ("rgnet", "newtonian", "logreg"):
            raise PipelineError("unknown model tag %r" % self.model)
        if self.task not in ("temporal", "nontemporal"):
            raise PipelineError("unknown task %r" % self.task)
        if self.ablation:
            parts = self.ablation.split(":")
            if (len(parts) != 2 or parts[0] not in
                    ("content", "surface", "latent", "user")
                    or parts[1] not in ("drop", "noise")):
                raise PipelineError("ablation must be GROUP:MODE, got %r"
                                    % self.ablation)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            raw = json.load(fh)
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise PipelineError("unknown config key(s) in %s: %s"
                                % (path, ", ".join(unknown)))
        return cls(**raw)

    def save(self, path):
        atomic_write_json(path, asdict(self))

    def path(self, name):
        return os.path.join(self.workdir, name)


def _model_file(cfg, kind, ext):
    return cfg.path("%s_%s_%s.%s" % (kind, cfg.model, cfg.task, ext))


def _io(cfg):
    """Every file each stage reads and writes under `cfg`, as
    {stage: (inputs, outputs)}; each stage's nearest upstream input first,
    so that the first missing one names the stage to run next."""
    p = cfg.path
    clusters = [p("clusters.txt"), p("centers.txt")]
    features = [p("features_meta.json"), p(PACK)] + clusters
    balanced = [p("balanced_ids.json")] if cfg.task == "nontemporal" else []
    ckpt = _model_file(cfg, "model", "ckpt")
    return {
        "synth": ([], [cfg.corpus_path, p("synth_truth.json"),
                       p("word_vectors.txt"), p("sentiment.txt"),
                       p("stopwords.txt")]),
        "ingest": ([cfg.corpus_path],
                   [p("discussions.jsonl"), p("corpus_manifest.json")]),
        "balance": ([p("discussions.jsonl")], [p("balanced_ids.json")]),
        "cooccur": ([p("discussions.jsonl"), cfg.word_vectors_path,
                     cfg.stopwords_path],
                    [p("users.txt"), p("cooccur.txt"), p("sparsity.json")]),
        "embed": ([p("users.txt"), p("cooccur.txt")],
                  [p("embeddings.txt"), p("embed_log.json")]),
        "cluster": ([p("embeddings.txt")], clusters),
        "featurize": (clusters + [p("embeddings.txt")] + balanced
                      + [p("discussions.jsonl"), cfg.word_vectors_path,
                         cfg.sentiment_path, cfg.stopwords_path],
                      [p("features_meta.json"), p(PACK)]),
        "train": (features, [ckpt, p("train_log.json")]),
        "evaluate": ([ckpt] + features, [_model_file(cfg, "report", "json")]),
        "predict": ([ckpt] + features,
                    [_model_file(cfg, "predictions", "csv")]),
        "diagnose": ([ckpt] + features + [p("embeddings.txt")],
                     [p("diagnostics_summary.json")]
                     + [p("diagnostics_%s.csv" % k)
                        for k in ("entropy", "growth", "distance")]),
    }


def _filter_config(cfg):
    return FilterConfig(excluded_author_tags=list(cfg.excluded_author_tags),
                        min_user_discussions=cfg.min_user_discussions)


def _load_discussions(cfg):
    discussions, _ = parse_corpus(cfg.path("discussions.jsonl"),
                                  _filter_config(cfg))
    return discussions


# ------------------------------------------------------------------- stages

def stage_synth(cfg):
    os.makedirs(cfg.workdir, exist_ok=True)
    spec = synth.SynthSpec(w=cfg.w, N=cfg.N,
                           discussions=cfg.synth_discussions,
                           posts=cfg.synth_posts)
    synth.write_lexicon_files(spec, cfg.workdir, seed=cfg.seed)
    truth = cfg.path("synth_truth.json")
    if cfg.task == "temporal":
        synth.make_temporal_corpus(spec, cfg.seed, cfg.corpus_path, truth)
    else:
        synth.make_nontemporal_corpus(spec, cfg.seed, cfg.corpus_path, truth)


def stage_ingest(cfg):
    os.makedirs(cfg.workdir, exist_ok=True)
    discussions, manifest = parse_corpus(cfg.corpus_path, _filter_config(cfg))
    atomic_write(lambda tmp: serialize_corpus(discussions, tmp),
                 cfg.path("discussions.jsonl"))
    atomic_write_json(cfg.path("corpus_manifest.json"), asdict(manifest))


def stage_balance(cfg):
    balanced = synth.nontemporal_balance(_load_discussions(cfg), seed=cfg.seed)
    atomic_write_json(cfg.path("balanced_ids.json"),
                      {"ids": sorted(d.id for d in balanced)})


def stage_cooccur(cfg):
    discussions = _load_discussions(cfg)
    users = sorted(embedded_users(discussions, _filter_config(cfg)))
    index = {u: k for k, u in enumerate(users)}
    word_vectors = load_word_vectors(cfg.word_vectors_path)
    stopwords = frozenset(load_stopwords(cfg.stopwords_path))
    # idf over titles for the title vectors used by the semantic channel
    from .text import tokenize
    title_df = {}
    for d in discussions:
        for t in set(tokenize(d.post.title)):
            title_df[t] = title_df.get(t, 0) + 1
    n_docs = max(1, len(discussions))
    idf = {t: math.log(n_docs / (1 + k)) for t, k in title_df.items()}
    from .cooccur import title_vector
    tvecs = {d.id: title_vector(d.post.title, word_vectors, idf, stopwords)
             for d in discussions}
    A, skipped = build_cooccurrence(discussions, index, tvecs, cfg.theta0)
    atomic_write_text(cfg.path("users.txt"), "\n".join(users) + "\n")
    atomic_write(A.save, cfg.path("cooccur.txt"))
    prof = sparsity_profile(A, len(users))
    prof["skipped_title_pairs"] = skipped
    atomic_write_json(cfg.path("sparsity.json"), prof)


def stage_embed(cfg):
    with open(cfg.path("users.txt")) as fh:
        users = [u.strip() for u in fh if u.strip()]
    A = CooccurrenceMatrix.load(cfg.path("cooccur.txt"), len(users))
    model, losses = train_guvec(A, users, cfg.d, seed=cfg.seed,
                                lr=cfg.embed_lr, epochs=cfg.embed_epochs,
                                return_losses=True)
    atomic_write(model.save, cfg.path("embeddings.txt"))
    atomic_write_json(cfg.path("embed_log.json"), {"epoch_losses": losses})


def stage_cluster(cfg):
    cm = kmeans(EmbeddingModel.load(cfg.path("embeddings.txt")), cfg.n,
                seed=cfg.seed)
    atomic_write(cm.save, cfg.path("clusters.txt"), cfg.path("centers.txt"))


def stage_featurize(cfg):
    discussions = _load_discussions(cfg)
    if cfg.task == "nontemporal":  # trained on the balanced subset
        with open(cfg.path("balanced_ids.json")) as fh:
            keep = set(json.load(fh)["ids"])
        discussions = [d for d in discussions if d.id in keep]
    embedding = EmbeddingModel.load(cfg.path("embeddings.txt"))
    cm = ClusterModel.load(cfg.path("clusters.txt"), cfg.path("centers.txt"))
    train, test = split_dataset(discussions, cfg.holdout, seed=cfg.seed)
    lex = build_lexicons(train, load_word_vectors(cfg.word_vectors_path),
                         load_sentiment(cfg.sentiment_path),
                         load_stopwords(cfg.stopwords_path))
    if cfg.task == "temporal":
        pack, _, _ = build_temporal_dataset(train + test, cfg.w, cfg.N, lex,
                                            embedding, cm, t_cap=cfg.t_cap)
    else:
        pack, _ = build_nontemporal_dataset(train + test, lex, embedding)
    store = ParameterStore()
    for name, value in pack.items():
        store.register(name, value)
    save_store(store, cfg.path(PACK))
    meta = {
        "idf": lex.idf,
        "vocab_size": lex.vocab_size,
        "d_w": lex.d_w,
        "task": cfg.task,
        "train_ids": [d.id for d in train],
        "test_ids": [d.id for d in test],
    }
    atomic_write_json(cfg.path("features_meta.json"), meta)


def _model_inputs(cfg):
    """Train and test instances from the features pack, ablated as
    configured and standardized with training statistics.

    Returns (train, test, layouts, cluster_model); `layouts` maps x1 (and,
    on the temporal task, x2) to its feature layout after the ablation.
    """
    with open(cfg.path("features_meta.json")) as fh:
        meta = json.load(fh)
    if meta["task"] != cfg.task:
        raise PipelineError("the features pack is for the %s task: run "
                            "featurize for the %s task first"
                            % (meta["task"], cfg.task))
    store = load_store(cfg.path(PACK))
    pack = {name: store.get(name) for name in store.names()}
    cm = ClusterModel.load(cfg.path("clusters.txt"), cfg.path("centers.txt"))
    n_train = len(meta["train_ids"])
    layouts = {"x1": post_layout(meta["d_w"], cfg.d)}
    if cfg.task == "temporal":
        pack["mask"] = pack["mask"] > 0
        pack["user_mask"] = pack["user_mask"] > 0
        layouts["x2"] = comment_layout(meta["d_w"], cfg.d)
        shared = {"flat_centers": cm.centers}
    else:
        # step-0 spacetime centres: time coordinate 0
        shared = {"centers0": np.pad(cm.centers, ((0, 0), (1, 0)))}
    if cfg.ablation:
        group, mode = cfg.ablation.split(":")
        # train and test noise come from separate streams
        rngs = [np.random.default_rng(s)
                for s in np.random.SeedSequence(cfg.seed).spawn(2)]
        for key in layouts:
            pack[key], layouts[key] = ablate(
                pack[key], layouts[key], group, mode, n_train, rngs,
                valid=pack["mask"] if key == "x2" else None)
    instances = unstack(pack, meta["train_ids"] + meta["test_ids"], **shared)
    train, test = instances[:n_train], instances[n_train:]
    standardize_instances(train, test, keys=tuple(layouts))
    return train, test, layouts, cm


def _model_config(cfg, layouts):
    return curvature.ModelConfig(
        comment_width=layouts.get("x2", layouts["x1"]).width,
        post_width=layouts["x1"].width, d=cfg.d,
        n=cfg.n, N=cfg.N, h1=cfg.h1, h2=cfg.h2, h3=cfg.h3, lam=cfg.lam)


def stage_train(cfg):
    if cfg.task == "nontemporal" and cfg.model != "rgnet":
        raise PipelineError("non-temporal training supports rgnet only")
    train, _, layouts, _ = _model_inputs(cfg)
    mc = _model_config(cfg, layouts)
    if cfg.task == "nontemporal":
        store, losses = curvature.train_nontemporal(
            train, mc, seed=cfg.seed, epochs=cfg.epochs, lr=cfg.lr)
    elif cfg.model == "rgnet":
        store, losses = curvature.train_temporal(
            train, mc, seed=cfg.seed, epochs=cfg.epochs, lr=cfg.lr)
    elif cfg.model == "newtonian":
        store, losses = newton.train_temporal(
            train, mc, cfg.w, seed=cfg.seed, epochs=cfg.epochs, lr=cfg.lr)
    else:
        store, losses = _train_logreg_temporal(cfg, train), []
    save_store(store, _model_file(cfg, "model", "ckpt"))
    atomic_write_json(cfg.path("train_log.json"), {"epoch_losses": losses})


def _train_logreg_temporal(cfg, train):
    """One logistic unit per cluster over the prefix features of every
    valid training step."""
    per_cluster = [
        (np.concatenate([inst["logreg_features"][inst["mask"], c]
                         for inst in train]),
         np.concatenate([inst["labels"][inst["mask"], c] for inst in train]))
        for c in range(cfg.n)]
    model = logreg.train_temporal(per_cluster, seed=cfg.seed)
    store = ParameterStore()
    store.register("weights", model.weights)
    store.register("Biases", model.biases)
    return store


def _predict_records(cfg, instances, store):
    """Per valid step: y1, decisions, y2 for the configured model."""
    if cfg.model == "logreg":
        model = logreg.LogRegModel(store.get("weights"), store.get("Biases"))
    records = []
    for inst in instances:
        if cfg.model == "rgnet":
            pred = curvature.predict_temporal(store, inst["x1"], inst["x2"],
                                              inst["centers"])
        elif cfg.model == "newtonian":
            pred = newton.predict_temporal(store, inst, cfg.w)
        else:
            y1 = np.array([[model.predict_proba(c, x) for c, x in enumerate(step)]
                           for step in inst["logreg_features"]])
            pred = {"y1": y1, "decisions": (y1 > 0.5).astype(int), "y2": None,
                    "trace": None}
        for i in range(cfg.N):
            if not inst["mask"][i]:
                continue
            records.append({
                "discussion_id": inst["discussion_id"],
                "step": i,
                "y1": pred["y1"][i],
                "decision": pred["decisions"][i],
                "y2": float(pred["y2"][i]) if pred["y2"] is not None else float("nan"),
                "truth": inst["labels"][i],
                "v_true": float(inst["growth"][i]),
                "trace": pred.get("trace"),
                "inst": inst,
            })
    return records


def _score(cfg):
    """The trained model on the test split: returns (records, cluster_model),
    with one record per valid step on the temporal task (`_predict_records`)
    and one per post (discussion_id, y3, class, label) on the one-shot task."""
    store = load_store(_model_file(cfg, "model", "ckpt"))
    _, test, _, cm = _model_inputs(cfg)
    if cfg.task == "temporal":
        return _predict_records(cfg, test, store), cm
    records = []
    for inst in test:
        y3, cls = curvature.predict_nontemporal(store, inst["x1"],
                                                inst["centers0"])
        records.append({"discussion_id": inst["discussion_id"], "y3": y3,
                        "class": cls, "label": inst["label"]})
    return records, cm


def stage_evaluate(cfg):
    records, _ = _score(cfg)
    if cfg.task == "temporal":
        pred = [r["decision"] for r in records]
        truth = [r["truth"] for r in records]
        report = multilabel_metrics(pred, truth).as_dict()
        if cfg.model != "logreg":
            ge = growth_error([r["y2"] for r in records],
                              [r["v_true"] for r in records])
            report["growth_mean_error_pct"] = ge.mean_error
            report["growth_excluded_steps"] = ge.excluded_zero_truth
    else:
        scores = [r["y3"] for r in records]
        labels = [r["label"] for r in records]
        pred = [1 if s > 0.5 else 0 for s in scores]
        tp = sum(1 for p, t in zip(pred, labels) if p == 1 and t == 1)
        fp = sum(1 for p, t in zip(pred, labels) if p == 1 and t == 0)
        fn = sum(1 for p, t in zip(pred, labels) if p == 0 and t == 1)
        f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        report = {
            "f1": f1,
            # AUC is undefined on a test split with one class
            "auc": auc(scores, labels) if len(set(labels)) == 2 else None,
            "accuracy": float(np.mean([p == t for p, t in zip(pred, labels)])),
        }
    atomic_write_json(_model_file(cfg, "report", "json"), report)


def stage_predict(cfg):
    records, _ = _score(cfg)
    if cfg.task == "temporal":
        header = (["discussion_id", "step", "y2"]
                  + ["y1_%d" % (c + 1) for c in range(cfg.n)]
                  + ["pred_%d" % (c + 1) for c in range(cfg.n)])
        rows = [[r["discussion_id"], r["step"], "%.6f" % r["y2"]]
                + ["%.6f" % v for v in r["y1"]]
                + [int(v) for v in r["decision"]] for r in records]
    else:
        header = ["discussion_id", "y3", "class"]
        rows = [[r["discussion_id"], "%.6f" % r["y3"], r["class"]]
                for r in records]

    def write(path):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
    atomic_write(write, _model_file(cfg, "predictions", "csv"))


def stage_diagnose(cfg):
    if cfg.task != "temporal" or cfg.model != "rgnet":
        raise PipelineError("diagnose runs on the temporal rgnet model")
    records, cm = _score(cfg)
    diag_records = []
    for r in records:
        i = r["step"]
        counts = r["inst"]["engaged_counts"][i].astype(int)
        diag_records.append({
            "discussion_id": r["discussion_id"],
            "step": i,
            # one cluster index per engaged comment before step i
            "engaged_clusters": np.repeat(np.arange(len(counts)), counts).tolist(),
            "pred": r["decision"],
            "truth": r["truth"],
            "v_true": r["v_true"],
            "v_pred": r["y2"],
            "g_inv": r["trace"].g_inv_array()[i],
        })
    embedding = EmbeddingModel.load(cfg.path("embeddings.txt"))
    summary = diagnostics(diag_records, cm, embedding, cfg.path("diagnostics"))
    atomic_write_json(cfg.path("diagnostics_summary.json"), summary)


STAGE_FUNCS = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "balance": stage_balance,
    "cooccur": stage_cooccur,
    "embed": stage_embed,
    "cluster": stage_cluster,
    "featurize": stage_featurize,
    "train": stage_train,
    "evaluate": stage_evaluate,
    "predict": stage_predict,
    "diagnose": stage_diagnose,
}


# ------------------------------------------------------------------- runner

def run_stage(name, cfg):
    """Run one stage: refuse a missing or stale input, run the stage, then
    record the sha256 of every file it read and wrote in manifest.json.
    Returns the files the stage wrote."""
    if name not in STAGE_FUNCS:
        raise PipelineError("unknown stage %r" % name)
    io = _io(cfg)
    inputs, outputs = io[name]
    # what synth writes may be provided by the user instead
    writers = {path: stage for stage, (_, written) in io.items()
               if stage != "synth" for path in written}
    manifest_path = cfg.path("manifest.json")
    manifest = {"stages": {}}
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    records, base = manifest["stages"], os.path.basename
    for path in inputs:
        writer = writers.get(path)
        if not os.path.exists(path):
            raise PipelineError("missing artifact %s: run %s first" % (
                base(path), writer or "synth (or provide the file)"))
        # stale if a file its writer read has been rewritten since
        for upstream in io[writer][0] if writer in records else ():
            read = records[writer]["inputs"].get(base(upstream))
            now = records.get(writers.get(upstream), {}).get(
                "outputs", {}).get(base(upstream))
            if read and now and read != now:
                raise PipelineError(
                    "stale artifact %s: %s has changed since %s ran; run %s "
                    "again" % (base(path), base(upstream), writer, writer))
    STAGE_FUNCS[name](cfg)
    records[name] = {
        "version": VERSION,
        "seed": cfg.seed,
        "inputs": {base(p): sha256_file(p) for p in inputs},
        "outputs": {base(p): sha256_file(p) for p in outputs},
    }
    atomic_write_json(manifest_path, manifest)
    return outputs


def run_all(cfg):
    stages = ["synth", "ingest"]
    if cfg.task == "nontemporal":
        stages.append("balance")
    stages += ["cooccur", "embed", "cluster", "featurize", "train",
               "evaluate", "predict"]
    if cfg.task == "temporal" and cfg.model == "rgnet":
        stages.append("diagnose")
    return [path for stage in stages for path in run_stage(stage, cfg)]
