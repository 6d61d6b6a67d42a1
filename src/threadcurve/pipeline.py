"""Stage orchestration: config, artifacts, provenance manifest."""

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
from .storage import (atomic_write_json, atomic_write_text, save_store,
                      load_store, sha256_file)

VERSION = "0.1.0"

PACK = "features_pack.txt"   # every model input, written by `featurize`

STAGES = ["synth", "ingest", "balance", "cooccur", "embed", "cluster",
          "featurize", "train", "evaluate", "predict", "diagnose"]


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

    def ablation_pair(self):
        if not self.ablation:
            return None
        group, mode = self.ablation.split(":")
        return group, mode


# ----------------------------------------------------------------- manifest

def _update_manifest(cfg, stage, inputs, outputs):
    path = cfg.path("manifest.json")
    manifest = {}
    if os.path.exists(path):
        with open(path) as fh:
            manifest = json.load(fh)
    manifest.setdefault("stages", {})[stage] = {
        "version": VERSION,
        "seed": cfg.seed,
        "inputs": {os.path.basename(p): sha256_file(p) for p in inputs},
        "outputs": {os.path.basename(p): sha256_file(p) for p in outputs},
    }
    atomic_write_json(path, manifest)


def _require(cfg, paths, upstream):
    for p in paths:
        if not os.path.exists(p):
            raise PipelineError(
                "missing artifact %s: run %s first" % (os.path.basename(p), upstream))


def _filter_config(cfg):
    return FilterConfig(excluded_author_tags=list(cfg.excluded_author_tags),
                        min_user_discussions=cfg.min_user_discussions)


def _load_discussions(cfg):
    _require(cfg, [cfg.path("discussions.jsonl")], "ingest")
    discussions, _ = parse_corpus(cfg.path("discussions.jsonl"),
                                  _filter_config(cfg))
    return discussions


def _load_embedding(cfg):
    _require(cfg, [cfg.path("embeddings.txt")], "embed")
    return EmbeddingModel.load(cfg.path("embeddings.txt"))


def _load_clusters(cfg):
    _require(cfg, [cfg.path("clusters.txt"), cfg.path("centers.txt")], "cluster")
    return ClusterModel.load(cfg.path("clusters.txt"), cfg.path("centers.txt"))


def _task_discussions(cfg, discussions):
    """Nontemporal task trains on the balanced subset."""
    if cfg.task != "nontemporal":
        return discussions
    _require(cfg, [cfg.path("balanced_ids.json")], "balance")
    with open(cfg.path("balanced_ids.json")) as fh:
        keep = set(json.load(fh)["ids"])
    return [d for d in discussions if d.id in keep]


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
    _update_manifest(cfg, "synth", [], [cfg.corpus_path, truth])
    return [cfg.corpus_path, truth]


def stage_ingest(cfg):
    _require(cfg, [cfg.corpus_path], "synth (or provide corpus_path)")
    os.makedirs(cfg.workdir, exist_ok=True)
    discussions, manifest = parse_corpus(cfg.corpus_path, _filter_config(cfg))
    out = cfg.path("discussions.jsonl")
    tmp = out + ".tmp"
    serialize_corpus(discussions, tmp)
    os.replace(tmp, out)
    mpath = cfg.path("corpus_manifest.json")
    atomic_write_json(mpath, asdict(manifest) if hasattr(manifest, "__dict__")
                      else manifest.__dict__)
    _update_manifest(cfg, "ingest", [cfg.corpus_path], [out, mpath])
    return [out, mpath]


def stage_balance(cfg):
    discussions = _load_discussions(cfg)
    balanced = synth.nontemporal_balance(discussions, seed=cfg.seed)
    out = cfg.path("balanced_ids.json")
    atomic_write_json(out, {"ids": sorted(d.id for d in balanced)})
    _update_manifest(cfg, "balance", [cfg.path("discussions.jsonl")], [out])
    return [out]


def stage_cooccur(cfg):
    discussions = _load_discussions(cfg)
    _require(cfg, [cfg.word_vectors_path], "synth (or provide lexicon files)")
    users = sorted(embedded_users(discussions, _filter_config(cfg)))
    index = {u: k for k, u in enumerate(users)}
    word_vectors = load_word_vectors(cfg.word_vectors_path)
    stopwords = (frozenset(load_stopwords(cfg.stopwords_path))
                 if os.path.exists(cfg.stopwords_path) else frozenset())
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
    users_path = cfg.path("users.txt")
    atomic_write_text(users_path, "\n".join(users) + "\n")
    mat_path = cfg.path("cooccur.txt")
    tmp = mat_path + ".tmp"
    A.save(tmp)
    os.replace(tmp, mat_path)
    prof = sparsity_profile(A, len(users))
    prof["skipped_title_pairs"] = skipped
    atomic_write_json(cfg.path("sparsity.json"), prof)
    _update_manifest(cfg, "cooccur", [cfg.path("discussions.jsonl")],
                     [users_path, mat_path, cfg.path("sparsity.json")])
    return [users_path, mat_path]


def stage_embed(cfg):
    _require(cfg, [cfg.path("users.txt"), cfg.path("cooccur.txt")], "cooccur")
    with open(cfg.path("users.txt")) as fh:
        users = [u.strip() for u in fh if u.strip()]
    A = CooccurrenceMatrix.load(cfg.path("cooccur.txt"), len(users))
    model, losses = train_guvec(A, users, cfg.d, seed=cfg.seed,
                                lr=cfg.embed_lr, epochs=cfg.embed_epochs,
                                return_losses=True)
    out = cfg.path("embeddings.txt")
    tmp = out + ".tmp"
    model.save(tmp)
    os.replace(tmp, out)
    atomic_write_json(cfg.path("embed_log.json"), {"epoch_losses": losses})
    _update_manifest(cfg, "embed", [cfg.path("cooccur.txt")], [out])
    return [out]


def stage_cluster(cfg):
    embedding = _load_embedding(cfg)
    cm = kmeans(embedding, cfg.n, seed=cfg.seed)
    apath, cpath = cfg.path("clusters.txt"), cfg.path("centers.txt")
    cm.save(apath + ".tmp", cpath + ".tmp")
    os.replace(apath + ".tmp", apath)
    os.replace(cpath + ".tmp", cpath)
    _update_manifest(cfg, "cluster", [cfg.path("embeddings.txt")],
                     [apath, cpath])
    return [apath, cpath]


def stage_featurize(cfg):
    discussions = _task_discussions(cfg, _load_discussions(cfg))
    _require(cfg, [cfg.word_vectors_path, cfg.sentiment_path,
                   cfg.stopwords_path], "synth (or provide lexicon files)")
    embedding = _load_embedding(cfg)
    cm = _load_clusters(cfg)
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
    pack_path = cfg.path(PACK)
    save_store(store, pack_path)
    meta = {
        "idf": lex.idf,
        "vocab_size": lex.vocab_size,
        "d_w": lex.d_w,
        "task": cfg.task,
        "train_ids": [d.id for d in train],
        "test_ids": [d.id for d in test],
    }
    out = cfg.path("features_meta.json")
    atomic_write_json(out, meta)
    _update_manifest(cfg, "featurize",
                     [cfg.path("discussions.jsonl"), cfg.path("embeddings.txt"),
                      cfg.path("clusters.txt")], [out, pack_path])
    return [out, pack_path]


def _model_inputs(cfg):
    """Train and test instances from the features pack, ablated as
    configured and standardized with training statistics.

    Returns (train, test, layouts, cluster_model); `layouts` maps x1 (and,
    on the temporal task, x2) to its feature layout after the ablation.
    """
    _require(cfg, [cfg.path("features_meta.json"), cfg.path(PACK)], "featurize")
    with open(cfg.path("features_meta.json")) as fh:
        meta = json.load(fh)
    if meta["task"] != cfg.task:
        raise PipelineError("the features pack is for the %s task: run "
                            "featurize for the %s task first"
                            % (meta["task"], cfg.task))
    store = load_store(cfg.path(PACK))
    pack = {name: store.get(name) for name in store.names()}
    cm = _load_clusters(cfg)
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
        group, mode = cfg.ablation_pair()
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


def _ckpt_path(cfg):
    return cfg.path("model_%s_%s.ckpt" % (cfg.model, cfg.task))


def stage_train(cfg):
    if cfg.task == "nontemporal" and cfg.model != "rgnet":
        raise PipelineError("non-temporal training supports rgnet only")
    train, _, layouts, _ = _model_inputs(cfg)
    mc = _model_config(cfg, layouts)
    if cfg.task == "nontemporal":
        store, losses = curvature.train_nontemporal(
            train, mc, seed=cfg.seed, epochs=cfg.epochs, lr=cfg.lr,
            return_losses=True)
    elif cfg.model == "rgnet":
        store, losses = curvature.train_temporal(
            train, mc, seed=cfg.seed, epochs=cfg.epochs, lr=cfg.lr,
            return_losses=True)
    elif cfg.model == "newtonian":
        store, losses = newton.train_temporal(
            train, mc, cfg.w, seed=cfg.seed, epochs=cfg.epochs,
            lr=cfg.lr, return_losses=True)
    else:
        store, losses = _train_logreg_temporal(cfg, train), []
    out = _ckpt_path(cfg)
    save_store(store, out)
    atomic_write_json(cfg.path("train_log.json"), {"epoch_losses": losses})
    _update_manifest(cfg, "train",
                     [cfg.path("features_meta.json"), cfg.path(PACK)], [out])
    return [out]


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


def stage_evaluate(cfg):
    _require(cfg, [_ckpt_path(cfg)], "train")
    store = load_store(_ckpt_path(cfg))
    _, test_inst, _, _ = _model_inputs(cfg)
    if cfg.task == "temporal":
        records = _predict_records(cfg, test_inst, store)
        pred = [r["decision"] for r in records]
        truth = [r["truth"] for r in records]
        report = multilabel_metrics(pred, truth).as_dict()
        if cfg.model != "logreg":
            ge = growth_error([r["y2"] for r in records],
                              [r["v_true"] for r in records])
            report["growth_mean_error_pct"] = ge.mean_error
            report["growth_excluded_steps"] = ge.excluded_zero_truth
    else:
        scores, labels = [], []
        for inst in test_inst:
            prob, _cls = curvature.predict_nontemporal(store, inst["x1"],
                                                       inst["centers0"])
            scores.append(prob)
            labels.append(inst["label"])
        pred = [1 if s > 0.5 else 0 for s in scores]
        tp = sum(1 for p, t in zip(pred, labels) if p == 1 and t == 1)
        fp = sum(1 for p, t in zip(pred, labels) if p == 1 and t == 0)
        fn = sum(1 for p, t in zip(pred, labels) if p == 0 and t == 1)
        f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        report = {
            "f1": f1,
            "auc": auc(scores, labels),
            "accuracy": float(np.mean([p == t for p, t in zip(pred, labels)])),
        }
    out = cfg.path("report_%s_%s.json" % (cfg.model, cfg.task))
    atomic_write_json(out, report)
    _update_manifest(cfg, "evaluate", [_ckpt_path(cfg)], [out])
    return [out]


def stage_predict(cfg):
    _require(cfg, [_ckpt_path(cfg)], "train")
    store = load_store(_ckpt_path(cfg))
    _, test_inst, _, _ = _model_inputs(cfg)
    out = cfg.path("predictions_%s_%s.csv" % (cfg.model, cfg.task))
    tmp = out + ".tmp"
    if cfg.task == "temporal":
        records = _predict_records(cfg, test_inst, store)
        with open(tmp, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["discussion_id", "step", "y2"]
                        + ["y1_%d" % (c + 1) for c in range(cfg.n)]
                        + ["pred_%d" % (c + 1) for c in range(cfg.n)])
            for r in records:
                wr.writerow([r["discussion_id"], r["step"], "%.6f" % r["y2"]]
                            + ["%.6f" % v for v in r["y1"]]
                            + [int(v) for v in r["decision"]])
    else:
        with open(tmp, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["discussion_id", "y3", "class"])
            for inst in test_inst:
                prob, cls = curvature.predict_nontemporal(
                    store, inst["x1"], inst["centers0"])
                wr.writerow([inst["discussion_id"], "%.6f" % prob, cls])
    os.replace(tmp, out)
    _update_manifest(cfg, "predict", [_ckpt_path(cfg)], [out])
    return [out]


def stage_diagnose(cfg):
    if cfg.task != "temporal" or cfg.model != "rgnet":
        raise PipelineError("diagnose runs on the temporal rgnet model")
    _require(cfg, [_ckpt_path(cfg)], "train")
    store = load_store(_ckpt_path(cfg))
    _, test_inst, _, cm = _model_inputs(cfg)
    diag_records = []
    for r in _predict_records(cfg, test_inst, store):
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
            "g_inv": r["trace"].steps[i].g_inv.data,
        })
    prefix = cfg.path("diagnostics")
    summary = diagnostics(diag_records, cm, _load_embedding(cfg), prefix)
    spath = cfg.path("diagnostics_summary.json")
    atomic_write_json(spath, summary)
    _update_manifest(cfg, "diagnose", [_ckpt_path(cfg)], [spath])
    return [spath]


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


def run_stage(name, cfg):
    if name not in STAGE_FUNCS:
        raise PipelineError("unknown stage %r" % name)
    return STAGE_FUNCS[name](cfg)


def run_all(cfg, stages=None):
    if stages is None:
        stages = ["synth", "ingest"]
        if cfg.task == "nontemporal":
            stages.append("balance")
        stages += ["cooccur", "embed", "cluster", "featurize", "train",
                   "evaluate", "predict"]
        if cfg.task == "temporal" and cfg.model == "rgnet":
            stages.append("diagnose")
    outputs = []
    for stage in stages:
        outputs.extend(run_stage(stage, cfg))
    return outputs
