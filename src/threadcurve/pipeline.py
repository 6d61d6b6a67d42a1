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
from .clustering import ClusterModel, kmeans
from .cooccur import build_cooccurrence, CooccurrenceMatrix
from .corpus import (EXCLUDED_AUTHOR_TAGS, MIN_USER_DISCUSSIONS, Corpus,
                     embedded_users, ingest)
# benchmark/tracing.py spans `parse_corpus` under this name; `ingest` reads
# the corpus without it, so the span reads 0
from .corpus import parse_corpus  # noqa: F401
from .dataset import (build_nontemporal_dataset, build_temporal_dataset,
                      holdout_count, split_dataset, standardize_instances,
                      unstack)
from .embedding import EmbeddingModel, train_guvec
from .features import (ablate, build_lexicons, comment_layout,
                       load_sentiment, load_stopwords, load_word_vectors,
                       post_layout)
from .metrics import auc, diagnostics, growth_error, multilabel_metrics
from .storage import (StoreError, atomic_write, atomic_write_json,
                      atomic_write_lines, atomic_write_text, save_store,
                      load_store, sha256_file)
from .text import title_rows

VERSION = "0.1.0"

STORE = "corpus_store.bin"   # the corpus as arrays, written by `ingest`
PACK = "features_pack.bin"   # every model input, written by `featurize`
# the tensors of each task's pack
PACK_KEYS = {"temporal": ("x1", "x2", "centers", "labels", "mask", "growth",
                          "user_vectors", "user_mask", "logreg_features",
                          "engaged_counts"),
             "nontemporal": ("x1", "label")}

# the widths `desk_scale` sets for quick runs
DESK_WIDTHS = dict(d=8, n=3, N=4, w=5, h1=16, h2=8, h3=8)


class PipelineError(Exception):
    pass


# the JSON values a config file may give a field of each annotated type, as
# (description, test); a bool is not taken for a number
_JSON_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) in (int, float)),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
    "list": ("a list of strings",
             lambda v: type(v) is list and all(type(x) is str for x in v)),
}


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
    min_user_discussions: int = MIN_USER_DISCUSSIONS
    excluded_author_tags: list = field(
        default_factory=lambda: list(EXCLUDED_AUTHOR_TAGS))
    synth_discussions: int = 50
    synth_posts: int = 120

    def __post_init__(self):
        if self.desk_scale:
            defaults = {f.name: f.default for f in fields(self)}
            for name, desk in DESK_WIDTHS.items():
                if getattr(self, name) not in (defaults[name], desk):
                    raise PipelineError(
                        "desk_scale sets %s=%d; %s=%r was set as well"
                        % (name, desk, name, getattr(self, name)))
                setattr(self, name, desk)
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
                     "min_user_discussions", "synth_discussions",
                     "synth_posts"):
            if getattr(self, name) < 1:
                raise PipelineError("config field %s must be >= 1" % name)
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise PipelineError("lr must be a finite number > 0, got %r"
                                % self.lr)
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise PipelineError("lam must be a finite number >= 0, got %r"
                                % self.lam)
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
    def load(cls, path, **overrides):
        """The JSON file at `path` with `overrides` on top: an input path
        the file leaves unset lies in the final workdir."""
        raw = _read_json(path, "fix the config")
        types = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(raw) - set(types))
        if unknown:
            raise PipelineError("unknown config key(s) in %s: %s"
                                % (path, ", ".join(unknown)))
        for name, value in raw.items():
            kind, test = _JSON_TYPES[types[name]]
            if not test(value):
                raise PipelineError("config key %s in %s must be %s, got %s"
                                    % (name, path, kind, json.dumps(value)))
        return cls(**dict(raw, **overrides))

    def save(self, path):
        atomic_write_json(path, asdict(self))

    def path(self, name):
        return os.path.join(self.workdir, name)


def _read_json(path, fix, **kinds):
    """The JSON object in `path`, each key of `kinds` holding a value of its
    type; anything else raises PipelineError naming the file, then `fix`."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise PipelineError("cannot read %s (%s): %s" % (path, exc, fix))
    if not (isinstance(obj, dict) and all(isinstance(obj.get(key), kind)
                                          for key, kind in kinds.items())):
        raise PipelineError("%s is not a JSON object%s: %s" % (
            path, " with " + ", ".join(kinds) if kinds else "", fix))
    return obj


def _load_store(path, fix, keys=()):
    """The tensors of the tensor file `path`, holding each of `keys`; an
    unreadable file or a missing key raises PipelineError naming the file,
    then `fix`."""
    try:
        tensors = load_store(path)
    except (OSError, StoreError) as exc:
        raise PipelineError("%s: %s" % (exc, fix)) from None
    missing = [key for key in keys if key not in tensors]
    if missing:
        raise PipelineError("%s lacks tensor %s: %s" % (
            path, ", ".join(map(repr, missing)), fix))
    return tensors


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
                   [p("discussions.jsonl"), p(STORE),
                    p("corpus_manifest.json")]),
        "balance": ([p(STORE)], [p("balanced_ids.json")]),
        "cooccur": ([p(STORE), cfg.word_vectors_path, cfg.stopwords_path],
                    [p("users.txt"), p("cooccur.txt"), p("sparsity.json")]),
        "embed": ([p("users.txt"), p("cooccur.txt")],
                  [p("embeddings.txt"), p("embed_log.json")]),
        "cluster": ([p("embeddings.txt")], clusters),
        "featurize": (clusters + [p("embeddings.txt")] + balanced
                      + [p(STORE), cfg.word_vectors_path,
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


def _load_corpus(cfg):
    """The corpus store `ingest` wrote. It is not filtered again: a comment
    by an author tag the config now excludes means that ingest ran under
    other tags, and is refused."""
    path = cfg.path(STORE)
    tensors = _load_store(path, "run ingest again", Corpus.KEYS)
    try:
        corpus = Corpus.from_tensors(tensors)
    except UnicodeDecodeError as exc:  # an id, name or token blob
        raise PipelineError("unreadable tensor file %s: %s: run ingest again"
                            % (path, exc)) from None
    commenters = {corpus.authors[k] for k in np.flatnonzero(np.bincount(
        corpus.author, minlength=len(corpus.authors))).tolist()}
    excluded = sorted(commenters & set(cfg.excluded_author_tags))
    if excluded:
        raise PipelineError("%s holds a comment by excluded author tag %r: "
                            "run ingest again" % (STORE, excluded[0]))
    return corpus


# ------------------------------------------------------------------- stages

def stage_synth(cfg):
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
    lines, corpus, manifest = ingest(cfg.corpus_path,
                                     cfg.excluded_author_tags,
                                     cfg.min_user_discussions)
    atomic_write_lines(cfg.path("discussions.jsonl"), lines)
    save_store(corpus.tensors(), cfg.path(STORE))
    atomic_write_json(cfg.path("corpus_manifest.json"), asdict(manifest))


def stage_balance(cfg):
    corpus = _load_corpus(cfg)
    commented = int(np.count_nonzero(corpus.sizes))
    if not 0 < commented < len(corpus.ids):
        raise PipelineError("balance needs posts with and without comments; "
                            "%d of %d posts have comments"
                            % (commented, len(corpus.ids)))
    balanced = synth.nontemporal_balance(corpus.sizes, seed=cfg.seed)
    atomic_write_json(cfg.path("balanced_ids.json"), {
        "ids": sorted(corpus.ids[k] for k in balanced.tolist())})


def stage_cooccur(cfg):
    corpus = _load_corpus(cfg)
    users = sorted(embedded_users(corpus, cfg.min_user_discussions))
    index = {u: k for k, u in enumerate(users)}
    tvecs = title_rows(corpus.texts, corpus.title,
                       load_word_vectors(cfg.word_vectors_path), None,
                       frozenset(load_stopwords(cfg.stopwords_path)))
    A, skipped = build_cooccurrence(corpus, index,
                                    dict(zip(corpus.ids, tvecs)), cfg.theta0)
    atomic_write_text(cfg.path("users.txt"), "\n".join(users) + "\n")
    atomic_write(A.save, cfg.path("cooccur.txt"))
    atomic_write_json(cfg.path("sparsity.json"), {
        "users": len(users), "nonzeros": A.nnz,
        "skipped_title_pairs": skipped})


def stage_embed(cfg):
    with open(cfg.path("users.txt")) as fh:
        users = [u.strip() for u in fh if u.strip()]
    A = CooccurrenceMatrix.load(cfg.path("cooccur.txt"), len(users))
    if not A.nnz:
        raise PipelineError("cooccur.txt is empty: no two embedded users "
                            "share a discussion, so there is nothing to embed")
    model, losses = train_guvec(A, users, cfg.d, seed=cfg.seed,
                                return_losses=True)
    atomic_write(model.save, cfg.path("embeddings.txt"))
    atomic_write_json(cfg.path("embed_log.json"), {"epoch_losses": losses})


def stage_cluster(cfg):
    embedding = EmbeddingModel.load(cfg.path("embeddings.txt"))
    if cfg.n > len(embedding.user_ids):
        raise PipelineError("cannot form n=%d clusters from %d embedded users"
                            % (cfg.n, len(embedding.user_ids)))
    cm = kmeans(embedding, cfg.n, seed=cfg.seed)
    atomic_write(cm.save, cfg.path("clusters.txt"), cfg.path("centers.txt"))


def stage_featurize(cfg):
    corpus = _load_corpus(cfg)
    rows = range(len(corpus.ids))
    if cfg.task == "nontemporal":  # trained on the balanced subset
        keep = set(_read_json(cfg.path("balanced_ids.json"),
                              "run balance again", ids=list)["ids"])
        rows = [k for k in rows if corpus.ids[k] in keep]
    embedding = EmbeddingModel.load(cfg.path("embeddings.txt"))
    cm = ClusterModel.load(cfg.path("clusters.txt"), cfg.path("centers.txt"))
    train, test = split_dataset(list(rows), cfg.holdout, seed=cfg.seed)
    lex = build_lexicons(corpus, load_word_vectors(cfg.word_vectors_path),
                         load_sentiment(cfg.sentiment_path),
                         load_stopwords(cfg.stopwords_path), train)
    if cfg.task == "temporal":
        pack, _, _ = build_temporal_dataset(corpus, cfg.w, cfg.N, lex,
                                            embedding, cm, train + test)
    else:
        pack, _ = build_nontemporal_dataset(corpus, lex, embedding,
                                            train + test)
    save_store(pack, cfg.path(PACK))
    meta = {
        "d_w": lex.d_w,
        "task": cfg.task,
        "train_ids": [corpus.ids[k] for k in train],
        "test_ids": [corpus.ids[k] for k in test],
    }
    atomic_write_json(cfg.path("features_meta.json"), meta)


def _model_inputs(cfg):
    """Train and test inputs from the features pack, ablated as configured
    and standardized with training statistics.

    Returns (train, test, layouts, cluster_model). `train` and `test` map
    every pack key to its stacked rows, `ids` to the discussion ids and, on
    the one-shot task, `centers0` to the step-0 spacetime centres (n, d+1)
    that every post shares. `layouts` maps x1 (and, on the temporal task,
    x2) to its feature layout after the ablation. A config whose widths or
    holdout differ from the artifacts' is refused.
    """
    meta = _read_json(cfg.path("features_meta.json"), "run featurize again",
                      d_w=int, task=str, train_ids=list, test_ids=list)
    if meta["task"] != cfg.task:
        raise PipelineError("the features pack is for the %s task: run "
                            "featurize for the %s task first"
                            % (meta["task"], cfg.task))
    pack = _load_store(cfg.path(PACK), "run featurize again",
                       PACK_KEYS[cfg.task])
    cm = ClusterModel.load(cfg.path("clusters.txt"), cfg.path("centers.txt"))
    # widths the upstream stages fixed, with the first stage to run again
    n, d = cm.centers.shape
    made = [("d", d, "embed"), ("n", n, "cluster")]
    if cfg.task == "temporal":
        N = pack["mask"].shape[1]
        made += [("N", N, "featurize"),
                 ("w", pack["user_mask"].shape[1] // N, "featurize")]
    for name, value, stage in made:
        if getattr(cfg, name) != value:
            raise PipelineError("config %s=%d differs from %s=%d in the "
                                "artifacts: run %s again" % (
                                    name, getattr(cfg, name), name, value,
                                    stage))
    n_train, n_test = len(meta["train_ids"]), len(meta["test_ids"])
    asked = holdout_count(n_train + n_test, cfg.holdout)
    if asked != n_test:
        raise PipelineError(
            "config holdout=%r holds out %d of %d discussions; the features "
            "pack holds out %d: run featurize again"
            % (cfg.holdout, asked, n_train + n_test, n_test))
    layouts = {"x1": post_layout(meta["d_w"], cfg.d)}
    if cfg.task == "temporal":
        layouts["x2"] = comment_layout(meta["d_w"], cfg.d)
    if cfg.ablation:
        group, mode = cfg.ablation.split(":")
        # train and test noise come from separate streams
        rngs = [np.random.default_rng(s)
                for s in np.random.SeedSequence(cfg.seed).spawn(2)]
        for key in layouts:
            pack[key], layouts[key] = ablate(
                pack[key], layouts[key], group, mode, n_train, rngs,
                valid=pack["mask"] if key == "x2" else None)
    pack["ids"] = np.array(meta["train_ids"] + meta["test_ids"])
    train, test = ({key: value[part] for key, value in pack.items()}
                   for part in (slice(n_train), slice(n_train, None)))
    if cfg.task == "nontemporal":
        # step-0 spacetime centres: time coordinate 0
        train["centers0"] = test["centers0"] = np.pad(cm.centers,
                                                      ((0, 0), (1, 0)))
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
    opts = dict(seed=cfg.seed, epochs=cfg.epochs, lr=cfg.lr)
    log = {}
    if cfg.task == "nontemporal":
        store, losses = curvature.train_nontemporal(train, mc, **opts)
    else:
        # a discussion with no valid step (no comments) has nothing to fit
        rows = np.flatnonzero(train["mask"].any(axis=1))
        if not rows.size:
            raise PipelineError("no training discussion has a valid "
                                "prediction step")
        log["rows_without_valid_step"] = len(train["mask"]) - rows.size
        if cfg.model == "logreg":
            store, losses = _train_logreg_temporal(cfg, train)
        else:
            instances = unstack(train, rows)
            if cfg.model == "rgnet":
                store, losses = curvature.train_temporal(instances, mc,
                                                         **opts)
            else:
                store, losses = newton.train_temporal(instances, mc, cfg.w,
                                                      **opts)
    save_store(store, _model_file(cfg, "model", "ckpt"))
    atomic_write_json(cfg.path("train_log.json"),
                      dict(epoch_losses=losses, **log))


def _train_logreg_temporal(cfg, train):
    """One logistic unit per cluster over the prefix features of every
    valid training step."""
    X = train["logreg_features"][train["mask"]]
    y = train["labels"][train["mask"]]
    return logreg.train_temporal([(X[:, c], y[:, c]) for c in range(cfg.n)])


def _score(cfg):
    """The trained model on the test split, as one dict of arrays.

    Temporal task: one row per valid test step, by discussion then step,
    with discussion_id, step, y1, decision, y2 (NaN for logreg), truth and
    v_true, plus g_inv and engaged_counts for RGNet. One-shot task: one
    row per test post, with discussion_id, y3, class and label. Returns
    (scores, cluster_model).
    """
    _, test, layouts, cm = _model_inputs(cfg)
    if cfg.model == "logreg":
        keys = ["weights", "Biases"]
    else:
        mc = _model_config(cfg, layouts)
        keys = [name for name, _ in (curvature.param_spec(mc)
                                     if cfg.model == "rgnet"
                                     else newton.param_spec(mc, cfg.w))]
    store = _load_store(_model_file(cfg, "model", "ckpt"), "run train again",
                        keys)
    if cfg.task == "nontemporal":
        y3, cls = curvature.predict_nontemporal(store, test["x1"],
                                                test["centers0"])
        return {"discussion_id": test["ids"], "y3": y3, "class": cls,
                "label": test["label"]}, cm
    mask = test["mask"]
    rows, steps = np.nonzero(mask)
    if not rows.size:
        raise PipelineError("the test split has no valid prediction step")
    scores = {"discussion_id": test["ids"][rows], "step": steps,
              "truth": test["labels"][mask], "v_true": test["growth"][mask]}
    if cfg.model == "logreg":
        scores["y1"] = logreg.predict_proba(store,
                                            test["logreg_features"][mask])
        scores["y2"] = np.full(rows.size, np.nan)
        scores["decision"] = (scores["y1"] > 0.5).astype(int)
    else:
        # one pass over every test discussion, valid steps or not
        if cfg.model == "rgnet":
            pred = curvature.predict_temporal(store, test["x1"], test["x2"],
                                              test["centers"])
            scores["g_inv"] = pred["trace"].g_inv_array()[mask]
            scores["engaged_counts"] = test["engaged_counts"][mask]
        else:
            pred = newton.predict_temporal(store, test, cfg.w)
        scores.update(y1=pred["y1"][mask], y2=pred["y2"][mask],
                      decision=pred["decisions"][mask])
    return scores, cm


def stage_evaluate(cfg):
    scores, _ = _score(cfg)
    if cfg.task == "temporal":
        report = multilabel_metrics(scores["decision"],
                                    scores["truth"]).as_dict()
        if cfg.model != "logreg":
            ge = growth_error(scores["y2"], scores["v_true"])
            report["growth_mean_error_pct"] = ge.mean_error
            report["growth_excluded_steps"] = ge.excluded_zero_truth
    else:
        pred, truth = scores["class"] == "attract", scores["label"] == 1
        report = {
            "f1": multilabel_metrics(pred[:, None], truth[:, None]).micro_f1,
            # AUC is undefined on a test split with one class
            "auc": (auc(scores["y3"], truth)
                    if 0 < truth.sum() < truth.size else None),
            "accuracy": float(np.mean(pred == truth)),
        }
    atomic_write_json(_model_file(cfg, "report", "json"), report)


def _rows(scores, *columns):
    """The given score columns row by row, as Python values."""
    return zip(*(scores[k].tolist() for k in columns))


def stage_predict(cfg):
    scores, _ = _score(cfg)
    if cfg.task == "temporal":
        header = (["discussion_id", "step", "y2"]
                  + ["y1_%d" % (c + 1) for c in range(cfg.n)]
                  + ["pred_%d" % (c + 1) for c in range(cfg.n)])
        rows = [[did, step, "%.6f" % y2] + ["%.6f" % v for v in y1] + dec
                for did, step, y2, y1, dec in _rows(
                    scores, "discussion_id", "step", "y2", "y1", "decision")]
    else:
        header = ["discussion_id", "y3", "class"]
        rows = [[did, "%.6f" % y3, cls] for did, y3, cls
                in _rows(scores, "discussion_id", "y3", "class")]

    def write(path):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
    atomic_write(write, _model_file(cfg, "predictions", "csv"))


def stage_diagnose(cfg):
    if cfg.task != "temporal" or cfg.model != "rgnet":
        raise PipelineError("diagnose runs on the temporal rgnet model")
    scores, cm = _score(cfg)
    embedding = EmbeddingModel.load(cfg.path("embeddings.txt"))
    summary = diagnostics(scores, cm, embedding, cfg.path("diagnostics"))
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
    record the sha256 of every file it read and wrote in manifest.json;
    an input's digest is taken from the record of the stage that wrote it.
    Returns the files the stage wrote."""
    if name not in STAGE_FUNCS:
        raise PipelineError("unknown stage %r" % name)
    io = _io(cfg)
    inputs, outputs = io[name]
    # what synth writes may be provided by the user instead
    writers = {path: stage for stage, (_, written) in io.items()
               if stage != "synth" for path in written}
    os.makedirs(cfg.workdir, exist_ok=True)
    manifest_path = cfg.path("manifest.json")
    manifest = {"stages": {}}
    if os.path.exists(manifest_path):
        manifest = _read_json(manifest_path, "remove it and run every stage "
                              "again", stages=dict)
    records, base = manifest["stages"], os.path.basename
    for stage, record in records.items():
        if not (isinstance(record, dict) and all(
                isinstance(record.get(key, {}), dict)
                for key in ("inputs", "outputs"))):
            raise PipelineError(
                "%s: the record of stage %r is not an object whose inputs "
                "and outputs are objects: remove it and run every stage again"
                % (manifest_path, stage))

    def recorded(path):
        """The digest the stage that wrote `path` recorded for it; refuses
        a file whose writer started and did not finish."""
        writer = writers.get(path)
        if records.get(writer, {}).get("incomplete"):
            raise PipelineError(
                "incomplete artifact %s: %s did not finish; run %s again"
                % (base(path), writer, writer))
        return records.get(writer, {}).get("outputs", {}).get(base(path))
    for path in inputs:
        writer = writers.get(path)
        if not os.path.exists(path):
            raise PipelineError("missing artifact %s: run %s first" % (
                base(path), writer or "synth (or provide the file)"))
        recorded(path)
        # stale if a file its writer read has been rewritten since
        for upstream in io[writer][0] if writer in records else ():
            read = records[writer].get("inputs", {}).get(base(upstream))
            now = recorded(upstream)
            if read and now and read != now:
                raise PipelineError(
                    "stale artifact %s: %s has changed since %s ran; run %s "
                    "again" % (base(path), base(upstream), writer, writer))
    # readers take their digests from this record: until the stage has
    # finished, it marks what it may have rewritten as unusable
    records[name] = {"incomplete": True}
    atomic_write_json(manifest_path, manifest)
    STAGE_FUNCS[name](cfg)
    records[name] = {
        "version": VERSION,
        "seed": cfg.seed,
        # hash only the inputs no stage's record covers
        "inputs": {base(p): recorded(p) or sha256_file(p) for p in inputs},
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
