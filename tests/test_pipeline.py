import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import chain_comments, make_discussion_json, write_corpus
from threadcurve import cli, pipeline
from threadcurve.clustering import ClusterModel
from threadcurve.dataset import model_arrays
from threadcurve.embedding import EmbeddingModel
from threadcurve.pipeline import (PipelineConfig, PipelineError, run_all,
                                  run_stage)
from threadcurve.storage import load_store, save_store, sha256_file


# the epochs `logreg.train_temporal` runs
LOGREG_EPOCHS = 300


def mini_config(tmp_path, name="run", **kw):
    kw.setdefault("desk_scale", True)
    kw.setdefault("synth_discussions", 9)
    kw.setdefault("synth_posts", 16)
    kw.setdefault("epochs", 2)
    kw.setdefault("holdout", 0.25)
    return PipelineConfig(workdir=str(tmp_path / name), **kw)


def test_config_validation_errors():
    with pytest.raises(PipelineError):
        PipelineConfig(model="galaxy")
    with pytest.raises(PipelineError):
        PipelineConfig(task="spatial")
    with pytest.raises(PipelineError):
        PipelineConfig(ablation="user")
    with pytest.raises(PipelineError):
        PipelineConfig(ablation="colour:drop")
    with pytest.raises(PipelineError):
        PipelineConfig(holdout=1.5)
    with pytest.raises(PipelineError):
        PipelineConfig(d=0)
    with pytest.raises(PipelineError):
        PipelineConfig(theta0=1.0)  # above the similarity-angle cap
    for lr in (-0.01, 0, float("inf"), float("nan")):
        with pytest.raises(PipelineError, match="lr must be"):
            PipelineConfig(lr=lr)
    for lam in (-1.0, float("inf"), float("nan")):
        with pytest.raises(PipelineError, match="lam must be"):
            PipelineConfig(lam=lam)
    PipelineConfig(lam=0.0)


def test_desk_scale_overrides_widths(tmp_path):
    cfg = mini_config(tmp_path)
    assert (cfg.d, cfg.n, cfg.N, cfg.w) == (8, 3, 4, 5)
    assert (cfg.h1, cfg.h2, cfg.h3) == (16, 8, 8)


def test_desk_scale_refuses_a_set_width(tmp_path):
    for name in pipeline.DESK_WIDTHS:
        with pytest.raises(PipelineError, match="desk_scale sets %s=" % name):
            mini_config(tmp_path, **{name: 32})
    # a width at its default or at its desk value is taken as desk scale
    assert mini_config(tmp_path, d=128, h1=16).d == 8
    # a saved desk-scale config loads, and --desk-scale applies to a saved
    # full-width one
    path = str(tmp_path / "cfg.json")
    mini_config(tmp_path).save(path)
    assert PipelineConfig.load(path) == mini_config(tmp_path)
    PipelineConfig(workdir=str(tmp_path / "full")).save(path)
    args = cli.build_parser().parse_args(
        ["--config", path, "--desk-scale", "synth"])
    assert cli.config_from_args(args).d == 8
    PipelineConfig(workdir=str(tmp_path / "wide"), d=64).save(path)
    args = cli.build_parser().parse_args(
        ["--config", path, "--desk-scale", "synth"])
    with pytest.raises(PipelineError, match="d=64"):
        cli.config_from_args(args)


def test_config_save_load_roundtrip(tmp_path):
    cfg = mini_config(tmp_path, seed=7, model="newtonian")
    path = str(tmp_path / "cfg.json")
    cfg.save(path)
    again = PipelineConfig.load(path)
    assert again == cfg
    # a whole number is a number
    with open(path, "w") as fh:
        fh.write('{"lam": 2, "theta0": 0}')
    assert PipelineConfig.load(path).lam == 2


def test_stage_order_enforced(tmp_path):
    cfg = mini_config(tmp_path)
    with pytest.raises(PipelineError, match="run ingest first"):
        run_stage("cooccur", cfg)
    with pytest.raises(PipelineError, match="run train first"):
        run_stage("evaluate", cfg)
    with pytest.raises(PipelineError):
        run_stage("no-such-stage", cfg)


def test_full_temporal_pipeline_and_manifest(tmp_path):
    cfg = mini_config(tmp_path)
    run_all(cfg)
    for name in ["discussions.jsonl", "users.txt", "cooccur.txt",
                 "sparsity.json", "embeddings.txt", "clusters.txt",
                 "centers.txt", "features_meta.json",
                 "model_rgnet_temporal.ckpt", "train_log.json",
                 "report_rgnet_temporal.json",
                 "predictions_rgnet_temporal.csv",
                 "diagnostics_entropy.csv", "diagnostics_distance.csv",
                 "diagnostics_summary.json", "manifest.json"]:
        assert os.path.exists(cfg.path(name)), name

    with open(cfg.path("manifest.json")) as fh:
        manifest = json.load(fh)
    stages = manifest["stages"]
    for stage in ["synth", "ingest", "cooccur", "embed", "cluster",
                  "featurize", "train", "evaluate", "predict", "diagnose"]:
        assert stage in stages
        for digest in stages[stage]["outputs"].values():
            assert len(digest) == 64  # sha256 hex

    with open(cfg.path("report_rgnet_temporal.json")) as fh:
        report = json.load(fh)
    for key in ("hamming_loss", "micro_f1", "macro_f1", "subset_01",
                "growth_mean_error_pct"):
        assert key in report

    header = open(cfg.path("predictions_rgnet_temporal.csv")).readline().strip()
    assert header == ("discussion_id,step,y2,y1_1,y1_2,y1_3,"
                      "pred_1,pred_2,pred_3")
    pack = model_arrays(load_store(cfg.path(pipeline.PACK)),
                        EmbeddingModel.load(cfg.path("embeddings.txt")),
                        ClusterModel.load(cfg.path("clusters.txt"),
                                          cfg.path("centers.txt")))
    assert pack["mask"].dtype == pack["user_mask"].dtype == bool
    # train rebuilds the pack's model inputs with the embedding
    assert "embeddings.txt" in stages["train"]["inputs"]
    with open(cfg.path("sparsity.json")) as fh:
        sparsity = json.load(fh)
    with open(cfg.path("users.txt")) as fh:
        users = fh.read().split()
    with open(cfg.path("cooccur.txt")) as fh:
        nonzeros = len(fh.read().splitlines())
    assert sorted(sparsity) == ["nonzeros", "skipped_title_pairs", "users"]
    assert (sparsity["users"], sparsity["nonzeros"]) == (len(users), nonzeros)


def test_stage_refuses_stale_input(tmp_path):
    cfg = mini_config(tmp_path)
    run_all(cfg)
    # the same config writes the same bytes, so nothing downstream is stale
    run_stage("embed", cfg)
    run_stage("featurize", cfg)
    changed = mini_config(tmp_path, seed=cfg.seed + 1)
    run_stage("embed", changed)
    with pytest.raises(PipelineError, match=(
            "stale artifact clusters.txt: embeddings.txt has changed since "
            "cluster ran; run cluster again")):
        run_stage("featurize", changed)
    run_stage("cluster", changed)
    run_stage("featurize", changed)


def test_stage_refuses_a_corpus_ingested_under_other_author_tags(tmp_path):
    """Stages after `ingest` read its output without filtering it again. A
    config that now excludes an author tag found in it is refused until
    ingest runs again; one that excludes fewer tags reads it as it is."""
    cfg = mini_config(tmp_path)
    for stage in ("synth", "ingest"):
        run_stage(stage, cfg)
    with open(cfg.path("discussions.jsonl")) as fh:
        author = json.loads(fh.readline())["comments"][0]["author"]
    stricter = mini_config(tmp_path, excluded_author_tags=["deleted", author])
    with pytest.raises(PipelineError, match=(
            "corpus_store.bin holds a comment by excluded author tag %r: "
            "run ingest again" % author)):
        run_stage("cooccur", stricter)
    run_stage("ingest", stricter)
    run_stage("cooccur", stricter)
    with open(stricter.path("discussions.jsonl")) as fh:
        assert author not in {c["author"] for line in fh
                              for c in json.loads(line)["comments"]}
    run_stage("cooccur", mini_config(tmp_path, excluded_author_tags=[]))


def test_each_file_is_hashed_once(tmp_path, monkeypatch):
    hashed = []

    def counting(path):
        hashed.append(os.path.basename(path))
        return sha256_file(path)
    monkeypatch.setattr(pipeline, "sha256_file", counting)
    cfg = mini_config(tmp_path)
    run_all(cfg)
    with open(cfg.path("manifest.json")) as fh:
        records = json.load(fh)["stages"]
    io = pipeline._io(cfg)
    # what synth writes may be replaced by the user, so each stage that
    # reads it hashes it; every other file is hashed once, by its writer
    provided = {os.path.basename(p) for p in io["synth"][1]}
    assert all(k == 1 for name, k in Counter(hashed).items()
               if name not in provided)
    assert len(hashed) == sum(
        len(io[stage][1]) + sum(os.path.basename(p) in provided
                                for p in io[stage][0])
        for stage in records)
    # the digests taken from the writers' records are the files' own
    for stage, record in records.items():
        for name, digest in record["inputs"].items():
            assert digest == sha256_file(cfg.path(name)), (stage, name)


def test_reader_refuses_output_of_a_stage_that_failed(tmp_path, monkeypatch):
    cfg = mini_config(tmp_path)
    run_all(cfg)
    real = pipeline.STAGE_FUNCS["cooccur"]

    def partial(cfg):
        with open(cfg.path("users.txt"), "a") as fh:
            fh.write("newcomer\n")
        raise RuntimeError("cooccur failed after writing users.txt")
    monkeypatch.setitem(pipeline.STAGE_FUNCS, "cooccur", partial)
    with pytest.raises(RuntimeError):
        run_stage("cooccur", cfg)
    incomplete = ("incomplete artifact users.txt: cooccur did not finish; "
                  "run cooccur again")
    with pytest.raises(PipelineError, match=incomplete):
        run_stage("embed", cfg)
    # a stage further down refuses what was made from the old files too
    with pytest.raises(PipelineError, match=incomplete):
        run_stage("cluster", cfg)
    monkeypatch.setitem(pipeline.STAGE_FUNCS, "cooccur", real)
    run_stage("cooccur", cfg)
    run_stage("embed", cfg)


def test_pipeline_is_deterministic(tmp_path):
    outputs = []
    for name in ("a", "b"):
        cfg = mini_config(tmp_path, name=name)
        run_all(cfg)
        outputs.append(cfg)
    for fname in ["cooccur.txt", "embeddings.txt", "centers.txt",
                  "model_rgnet_temporal.ckpt", "report_rgnet_temporal.json",
                  "predictions_rgnet_temporal.csv"]:
        a = open(outputs[0].path(fname), "rb").read()
        b = open(outputs[1].path(fname), "rb").read()
        assert a == b, fname


def _with_commentless_posts(cfg, count):
    """Synthesize a temporal corpus, then add `count` posts nobody
    answered; returns their ids."""
    run_stage("synth", cfg)
    ids = ["silent%d" % k for k in range(count)]
    with open(cfg.corpus_path, "a") as fh:
        for k, did in enumerate(ids):
            fh.write(json.dumps(make_discussion_json(did, "poster%d" % k,
                                                     1000 + k)) + "\n")
    for stage in ("ingest", "cooccur", "embed", "cluster", "featurize"):
        run_stage(stage, cfg)
    return ids


def _set_pack_mask(cfg, rows):
    """Mark every step of the given pack rows invalid."""
    pack = load_store(cfg.path(pipeline.PACK))
    pack["mask"][rows] = 0.0
    save_store(pack, cfg.path(pipeline.PACK))


def test_commentless_training_discussions_are_set_aside(tmp_path):
    cfg = mini_config(tmp_path)
    silent = _with_commentless_posts(cfg, 4)
    with open(cfg.path("features_meta.json")) as fh:
        train_ids = json.load(fh)["train_ids"]
    set_aside = len(set(silent) & set(train_ids))
    assert set_aside >= 1
    for model in ("rgnet", "newtonian", "logreg"):
        mcfg = mini_config(tmp_path, model=model)
        run_stage("train", mcfg)
        with open(cfg.path("train_log.json")) as fh:
            log = json.load(fh)
        assert log["rows_without_valid_step"] == set_aside
        assert len(log["epoch_losses"]) == (LOGREG_EPOCHS if model == "logreg"
                                            else cfg.epochs)
        run_stage("evaluate", mcfg)


def test_logreg_train_log_records_its_losses(tmp_path):
    cfg = mini_config(tmp_path, model="logreg")
    for stage in ("synth", "ingest", "cooccur", "embed", "cluster",
                  "featurize", "train"):
        run_stage(stage, cfg)
    with open(cfg.path("train_log.json")) as fh:
        losses = json.load(fh)["epoch_losses"]
    assert len(losses) == LOGREG_EPOCHS
    assert losses[-1] < losses[0]


def test_no_valid_step_is_a_named_error(tmp_path, monkeypatch):
    cfg = mini_config(tmp_path)
    run_all(cfg)
    with open(cfg.path("features_meta.json")) as fh:
        n_train = len(json.load(fh)["train_ids"])
    _set_pack_mask(cfg, slice(n_train, None))

    def fit(*args, **kwargs):
        raise AssertionError("train fitted the model before refusing")
    # either split is refused before the model is fitted
    monkeypatch.setattr(pipeline.curvature, "train_temporal", fit)
    with pytest.raises(PipelineError, match="test split has no valid"):
        run_stage("train", cfg)
    _set_pack_mask(cfg, slice(None))
    with pytest.raises(PipelineError, match="no training discussion"):
        run_stage("train", cfg)


@pytest.mark.parametrize("task", ["temporal", "nontemporal"])
def test_scoring_stages_read_only_the_scores(tmp_path, task):
    """`train` scores the test split once. The stages after it read its
    scores file, not the pack or the checkpoint, and write the same bytes
    without them."""
    cfg = mini_config(tmp_path, task=task)
    run_all(cfg)
    io = pipeline._io(cfg)
    stages = ["evaluate", "predict"] + (["diagnose"] if task == "temporal"
                                        else [])
    written = [path for stage in stages for path in io[stage][1]]
    before = {path: open(path, "rb").read() for path in written}
    os.remove(cfg.path(pipeline.PACK))
    os.remove(cfg.path("model_rgnet_%s.ckpt" % task))
    for stage in stages:
        run_stage(stage, cfg)
    assert {path: open(path, "rb").read() for path in written} == before
    if task == "temporal":
        # the prediction header counts the scores' clusters, not cfg.n
        wider = PipelineConfig(**dict(asdict(cfg), desk_scale=False, n=4))
        run_stage("predict", wider)
        path = cfg.path("predictions_rgnet_temporal.csv")
        assert open(path, "rb").read() == before[path]
    # the scores of a model fitted before the pack was rewritten are stale
    run_stage("featurize", mini_config(tmp_path, task=task, seed=1))
    with pytest.raises(PipelineError, match=(
            "stale artifact scores_rgnet_%s.bin: .* has changed since train "
            "ran; run train again" % task)):
        run_stage("evaluate", cfg)


def test_nontemporal_pipeline(tmp_path):
    cfg = mini_config(tmp_path, task="nontemporal")
    run_all(cfg)
    assert os.path.exists(cfg.path("balanced_ids.json"))
    with open(cfg.path("report_rgnet_nontemporal.json")) as fh:
        report = json.load(fh)
    assert set(report) == {"f1", "auc", "accuracy"}
    header = open(cfg.path("predictions_rgnet_nontemporal.csv")).readline()
    assert header.strip() == "discussion_id,y3,class"
    # every one-shot post sees the cluster centres at the step-0 clock
    train, test, _ = pipeline._model_inputs(cfg)
    cm = ClusterModel.load(cfg.path("clusters.txt"), cfg.path("centers.txt"))
    assert test["x1"].shape[0] == len(test["ids"]) == len(test["label"])
    assert train["centers0"] is test["centers0"]
    centers0 = test["centers0"]
    assert centers0.shape == (cfg.n, cfg.d + 1)
    assert np.all(centers0[:, 0] == 0.0)
    np.testing.assert_array_equal(centers0[:, 1:], cm.centers)
    # the pack is task-specific
    with pytest.raises(PipelineError, match="featurize for the temporal task"):
        run_stage("train", mini_config(tmp_path, task="temporal"))


def test_one_class_test_split_has_no_auc(tmp_path):
    cfg = mini_config(tmp_path, task="nontemporal", synth_posts=10,
                      holdout=0.1)
    run_all(cfg)
    with open(cfg.path("report_rgnet_nontemporal.json")) as fh:
        report = json.load(fh)
    assert set(report) == {"f1", "auc", "accuracy"}
    assert report["auc"] is None
    assert 0.0 <= report["f1"] <= 1.0 and 0.0 <= report["accuracy"] <= 1.0


def test_diagnose_requires_temporal_rgnet(tmp_path):
    cfg = mini_config(tmp_path, model="newtonian")
    os.makedirs(cfg.workdir)
    for path in pipeline._io(cfg)["diagnose"][0]:
        open(path, "w").close()
    with pytest.raises(PipelineError, match="temporal rgnet"):
        run_stage("diagnose", cfg)


def test_cli_runs_stage_and_reports_errors(tmp_path, capsys):
    workdir = str(tmp_path / "cli_run")
    cfg = mini_config(tmp_path, name="cli_run")
    cfg_path = str(tmp_path / "cfg.json")
    cfg.save(cfg_path)
    assert cli.main(["--config", cfg_path, "synth"]) == 0
    out = capsys.readouterr().out
    assert os.path.join(workdir, "corpus.jsonl") in out

    # dependent stage without its inputs: exit code 2, error on stderr
    assert cli.main(["--config", cfg_path, "evaluate"]) == 2
    assert "run train first" in capsys.readouterr().err


def test_cli_workdir_override_moves_default_paths(tmp_path):
    args = cli.build_parser().parse_args(
        ["--workdir", str(tmp_path / "w"), "--seed", "5",
         "--model", "newtonian", "--desk-scale", "synth"])
    cfg = cli.config_from_args(args)
    assert cfg.workdir == str(tmp_path / "w")
    assert cfg.corpus_path == str(tmp_path / "w" / "corpus.jsonl")
    assert cfg.seed == 5 and cfg.model == "newtonian" and cfg.desk_scale
    # an explicit corpus is kept; the lexicons still follow the workdir
    corpus = str(tmp_path / "elsewhere.jsonl")
    args = cli.build_parser().parse_args(
        ["--workdir", str(tmp_path / "w"), "--corpus", corpus, "ingest"])
    cfg = cli.config_from_args(args)
    assert cfg.corpus_path == corpus
    for name in ("word_vectors", "sentiment", "stopwords"):
        assert getattr(cfg, name + "_path") == str(tmp_path / "w" / (name + ".txt"))
    # a path set in a config file is kept; defaults move to the new workdir
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"workdir": str(tmp_path / "a"),
                                    "word_vectors_path": "/data/wv.txt"}))
    args = cli.build_parser().parse_args(
        ["--config", str(cfg_path), "--workdir", str(tmp_path / "b"), "ingest"])
    cfg = cli.config_from_args(args)
    assert cfg.word_vectors_path == "/data/wv.txt"
    assert cfg.corpus_path == str(tmp_path / "b" / "corpus.jsonl")
    assert cfg.stopwords_path == str(tmp_path / "b" / "stopwords.txt")
    # a path the file spells out is kept, even its own workdir's default
    spelled = str(tmp_path / "a" / "corpus.jsonl")
    cfg_path.write_text(json.dumps({"workdir": str(tmp_path / "a"),
                                    "corpus_path": spelled}))
    cfg = cli.config_from_args(args)
    assert cfg.corpus_path == spelled
    for name in ("word_vectors", "sentiment", "stopwords"):
        assert getattr(cfg, name + "_path") == str(tmp_path / "b" / (name + ".txt"))
    # --desk-scale does not overwrite a width the file sets
    cfg_path.write_text(json.dumps({"d": 64}))
    args = cli.build_parser().parse_args(
        ["--config", str(cfg_path), "--desk-scale", "synth"])
    with pytest.raises(PipelineError, match="desk_scale sets d=8; d=64"):
        cli.config_from_args(args)


def test_cli_reports_paths_it_cannot_use(tmp_path, capsys):
    # a workdir that is a file, then a corpus that is a directory
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (["--workdir", str(taken), "--desk-scale", "synth"],
                 ["--workdir", str(tmp_path / "w"), "--corpus",
                  str(tmp_path), "ingest"]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_reports_malformed_corpus(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "bad.jsonl", [make_discussion_json()])
    good = open(corpus, "rb").read()
    for bad in (b"{not json\n", good.replace(b"a title", b"caf\xff")):
        with open(corpus, "wb") as fh:
            fh.write(good + bad)
        rc = cli.main(["--workdir", str(tmp_path / "w"), "--corpus", corpus,
                       "ingest"])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err


def _cli(*args):
    """Run the command line in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(pipeline.__file__))))
    return subprocess.run([sys.executable, "-m", "threadcurve.cli", *args],
                          capture_output=True, text=True, env=env)


def _assert_one_error_line(proc, message):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: %s\n" % message


def test_cli_refuses_an_empty_corpus(tmp_path):
    """A corpus with no discussion stops `ingest`, naming the file, instead
    of a later stage failing for another reason."""
    corpus = tmp_path / "empty.jsonl"
    for content in (b"", b"\n  \n\t\n"):
        corpus.write_bytes(content)
        proc = _cli("--workdir", str(tmp_path / "w"), "--corpus", str(corpus),
                    "ingest")
        _assert_one_error_line(proc, "%s holds no discussion" % corpus)
        assert not os.path.exists(tmp_path / "w" / "discussions.jsonl")


@pytest.mark.parametrize("where", ["post", "comment"])
def test_cli_refuses_a_timestamp_arrays_cannot_hold(tmp_path, where):
    """A timestamp of 10**20 stops `ingest`, naming its post or comment,
    instead of an int64 conversion failing in a later stage."""
    disc = make_discussion_json("k1", "alice", 1000,
                                chain_comments("k1", ["bob", "carol"]))
    target = disc["post"] if where == "post" else disc["comments"][1]
    target["timestamp"] = 10 ** 20
    corpus = write_corpus(tmp_path / "corpus.jsonl", [disc])
    proc = _cli("--workdir", str(tmp_path / "w"), "--corpus", corpus,
                "ingest")
    _assert_one_error_line(proc, "%s has timestamp %d, outside 0 <= t < 2**53"
                           % ("post 'k1'" if where == "post"
                              else "comment 'k1_c1'", 10 ** 20))
    assert not os.path.exists(tmp_path / "w" / "discussions.jsonl")


@pytest.mark.parametrize("where,key,owner", [
    ("post", "id", "the post"), ("post", "author", "post 'k1'"),
    ("comment", "author", "comment 'k1_c1'")])
def test_cli_refuses_a_lone_surrogate_in_an_id_or_name(tmp_path, where, key,
                                                       owner):
    """An id or author name holding a lone surrogate escape, which no UTF-8
    store can hold, stops `ingest` with one error line naming the line and
    the field, before any file is written."""
    first = make_discussion_json("k0", "alice", 1000,
                                 chain_comments("k0", ["bob"]))
    disc = make_discussion_json("k1", "alice", 1000,
                                chain_comments("k1", ["bob", "carol"]))
    target = disc["post"] if where == "post" else disc["comments"][1]
    target[key] += "\ud800"
    corpus = write_corpus(tmp_path / "corpus.jsonl", [first, disc])
    assert b'\\ud800"' in open(corpus, "rb").read()
    proc = _cli("--workdir", str(tmp_path / "w"), "--corpus", corpus,
                "ingest")
    _assert_one_error_line(
        proc, "malformed corpus line 2: %s has %s %r, which holds a lone "
        "surrogate" % (owner, key, target[key]))
    assert not os.path.exists(tmp_path / "w" / "discussions.jsonl")


@pytest.mark.parametrize("field,value", [("synth_discussions", -3),
                                         ("synth_posts", 0)])
def test_cli_refuses_an_empty_synthetic_corpus(tmp_path, field, value):
    """A synthetic corpus size below 1 is refused when the config is read,
    naming the field, before `synth` writes an empty corpus."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: value}))
    proc = _cli("--config", str(cfg_path), "--workdir", str(tmp_path / "w"),
                "synth")
    _assert_one_error_line(proc, "config field %s must be >= 1" % field)
    assert not os.path.exists(tmp_path / "w" / "corpus.jsonl")


def test_cli_reports_bad_lexicon_files(tmp_path):
    """A bad sentiment, stopwords or word-vector file ends the stage that
    reads it with exit code 2 and one error line naming the file and the
    line."""
    cfg = mini_config(tmp_path, name="lex")
    cfg_path = str(tmp_path / "cfg.json")
    cfg.save(cfg_path)
    for stage in ("synth", "ingest", "cooccur", "embed", "cluster"):
        run_stage(stage, cfg)
    # featurize first: a failed cooccur leaves its outputs marked unusable
    cases = [(cfg.sentiment_path, "featurize", b"good 1\nbad minus\n",
              "line 2: 'minus' is not a finite number"),
             (cfg.stopwords_path, "cooccur", b"the\ncaf\xff\n",
              "line 2 is not UTF-8"),
             (cfg.word_vectors_path, "cooccur", b"a 1 2\nb 1\n",
              "line 2: 'b' has 1 values, line 1 has 2"),
             (cfg.word_vectors_path, "cooccur", b"", "holds no word vectors")]
    for path, stage, content, message in cases:
        with open(path, "wb") as fh:
            fh.write(content)
        _assert_one_error_line(_cli("--config", cfg_path, stage),
                               "%s %s" % (path, message))


@pytest.fixture(scope="module")
def clustered(tmp_path_factory):
    """A desk-scale temporal workdir run through `cluster` (n=3, d=8)."""
    cfg = mini_config(tmp_path_factory.mktemp("clustered"))
    for stage in ("synth", "ingest", "cooccur", "embed", "cluster"):
        run_stage(stage, cfg)
    return cfg


@pytest.mark.parametrize("name,stage,line,message", [
    ("users.txt", "embed", b"u0 one", ": expected a user name, got 2 fields"),
    ("users.txt", "embed", b"caf\xff", " is not UTF-8"),
    ("cooccur.txt", "embed", b"0 2", ": expected two user indices and a "
                                     "value, got 2 fields"),
    ("cooccur.txt", "embed", b"0 2 x", ": 'x' is not a finite number"),
    ("cooccur.txt", "embed", b"0 2 1\xff", " is not UTF-8"),
    ("cooccur.txt", "embed", b"0 999 1",
     ": '999' is not a whole number in [0, {users})"),
    ("cooccur.txt", "embed", b"0 1.5 1",
     ": '1.5' is not a whole number in [0, {users})"),
    ("cooccur.txt", "embed", b"0 1 -5", ": '-5' is not a number in [0, inf)"),
    ("embeddings.txt", "cluster", b"u" + b" 0" * 8,
     ": 'u' has 8 values, line 1 has 9"),
    ("embeddings.txt", "cluster", b"u x" + b" 0" * 8,
     ": 'x' is not a finite number"),
    ("embeddings.txt", "cluster", b"u\xff" + b" 0" * 9, " is not UTF-8"),
    ("clusters.txt", "featurize", b"u", ": expected a user name and a "
                                        "cluster, got 1 fields"),
    ("clusters.txt", "featurize", b"u x", ": 'x' is not a finite number"),
    ("clusters.txt", "featurize", b"u 1\xff", " is not UTF-8"),
    ("clusters.txt", "featurize", b"u 3",
     ": '3' is not a whole number in [0, 3)"),
    ("centers.txt", "featurize", b"0" + b" 0" * 6,
     " has 7 values, line 1 has 8"),
    ("centers.txt", "featurize", b"x" + b" 0" * 7,
     ": 'x' is not a finite number"),
    ("centers.txt", "featurize", b"0\xff" + b" 0" * 7, " is not UTF-8"),
], ids=["users-two-names", "users-utf8", "cooccur-short", "cooccur-word",
        "cooccur-utf8", "cooccur-index", "cooccur-fraction",
        "cooccur-negative", "embeddings-short", "embeddings-word",
        "embeddings-utf8", "clusters-short", "clusters-word", "clusters-utf8",
        "clusters-label", "centers-short", "centers-word", "centers-utf8"])
def test_cli_reports_bad_user_space_artifacts(clustered, tmp_path, capsys,
                                              name, stage, line, message):
    """A user-space artifact whose line 2 is short, holds a word where a
    number goes, is not UTF-8, or holds an index, a cluster label or a
    co-occurrence value out of range ends the stage that reads it with exit
    code 2 and one error line naming the file and the line."""
    workdir = str(tmp_path / "run")
    shutil.copytree(clustered.workdir, workdir)
    cfg = PipelineConfig(**dict(asdict(clustered), workdir=workdir))
    path = cfg.path(name)
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    lines[1] = line
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))
    with open(cfg.path("users.txt"), "rb") as fh:
        users = len(fh.read().split())
    cfg_path = str(tmp_path / "cfg.json")
    cfg.save(cfg_path)
    assert cli.main(["--config", cfg_path, stage]) == 2
    _assert_one_error_line(
        SimpleNamespace(returncode=2, stderr=capsys.readouterr().err),
        "%s line 2%s" % (path, message.format(users=users)))


@pytest.mark.parametrize("author", ["", "u0 one"])
def test_cli_refuses_an_author_name_users_txt_cannot_hold(tmp_path, author):
    """An embedded author name that is empty or holds whitespace stops
    `cooccur` with one error line naming it, before users.txt is written."""
    corpus = [make_discussion_json("t%d" % k, "poster%d" % k, 1000 * k,
                                   chain_comments("t%d" % k, [author, "bob"],
                                                  start_t=1000 * k + 10))
              for k in (1, 2)]
    cfg = mini_config(tmp_path, corpus_path=write_corpus(
        tmp_path / "corpus.jsonl", corpus))
    os.makedirs(cfg.workdir)
    with open(cfg.word_vectors_path, "w") as fh:
        fh.write("a 1 0\ntitle 0 1\n")
    with open(cfg.stopwords_path, "w") as fh:
        fh.write("the\n")
    run_stage("ingest", cfg)
    cfg_path = str(tmp_path / "cfg.json")
    cfg.save(cfg_path)
    _assert_one_error_line(
        _cli("--config", cfg_path, "cooccur"),
        "embedded author name %r is empty or holds whitespace: users.txt "
        "cannot hold it" % author)
    assert not os.path.exists(cfg.path("users.txt"))


def test_cli_reports_input_a_stage_cannot_use(tmp_path):
    """A corpus that a stage cannot work with ends it with exit code 2 and
    one error line that names the cause."""
    def discussion(k, post_author, commenter):
        return make_discussion_json(
            "t%d" % k, post_author, 1000 * k,
            chain_comments("t%d" % k, [commenter], start_t=1000 * k + 10))
    # u, the only user in two discussions, has no one to pair with
    lonely = [discussion(1, "p1", "u"), discussion(2, "p2", "u")]
    # alice and bob answer each other: two embedded users, no silent post
    pair = [discussion(1, "alice", "bob"), discussion(2, "bob", "alice")]
    cases = [
        (lonely, "temporal", ("ingest", "cooccur"), "embed",
         "cooccur.txt is empty: no two embedded users share a discussion, "
         "so there is nothing to embed"),
        (pair, "temporal", ("ingest", "cooccur", "embed"), "cluster",
         "cannot form n=3 clusters from 2 embedded users"),
        (pair, "nontemporal", ("ingest",), "balance",
         "balance needs posts with and without comments; 2 of 2 posts "
         "have comments"),
    ]
    for k, (corpus, task, before, stage, message) in enumerate(cases):
        cfg = mini_config(tmp_path, name="case%d" % k, task=task,
                          corpus_path=write_corpus(
                              tmp_path / ("corpus%d.jsonl" % k), corpus))
        os.makedirs(cfg.workdir)
        with open(cfg.word_vectors_path, "w") as fh:
            fh.write("a 1 0\ntitle 0 1\n")
        with open(cfg.stopwords_path, "w") as fh:
            fh.write("the\n")
        for earlier in before:
            run_stage(earlier, cfg)
        cfg_path = str(tmp_path / ("case%d.json" % k))
        cfg.save(cfg_path)
        _assert_one_error_line(_cli("--config", cfg_path, stage), message)


@pytest.fixture(scope="module")
def featurized(tmp_path_factory):
    """A workdir featurized with n=3, d=8, N=4, w=5 and holdout 0.2."""
    tmp_path = tmp_path_factory.mktemp("featurized")
    cfg = PipelineConfig(workdir=str(tmp_path / "run"), synth_discussions=10,
                         epochs=1, holdout=0.2, **pipeline.DESK_WIDTHS)
    for stage in ("synth", "ingest", "cooccur", "embed", "cluster",
                  "featurize"):
        run_stage(stage, cfg)
    return cfg


@pytest.mark.parametrize("change,message", [
    ({"d": 16}, "config d=16 differs from d=8 in the artifacts: "
                "run embed again"),
    ({"n": 4}, "config n=4 differs from n=3 in the artifacts: "
               "run cluster again"),
    ({"N": 3}, "config N=3 differs from N=4 in the artifacts: "
               "run featurize again"),
    ({"w": 4, "model": "newtonian"},
     "config w=4 differs from w=5 in the artifacts: run featurize again"),
    ({"holdout": 0.5}, "config holdout=0.5 holds out 5 of 10 discussions; "
                       "the features pack holds out 2: run featurize again"),
], ids=["d", "n", "N", "w", "holdout"])
def test_cli_refuses_a_config_that_disagrees_with_the_pack(
        featurized, tmp_path, change, message):
    """`cluster` and `featurize` fix the widths and the split; a model stage
    run under other values names the field and the stage to run again."""
    cfg = PipelineConfig(**dict(asdict(featurized), **change))
    cfg_path = str(tmp_path / "cfg.json")
    cfg.save(cfg_path)
    _assert_one_error_line(_cli("--config", cfg_path, "train"), message)
    assert not os.path.exists(cfg.path("train_log.json"))


def test_cli_reports_bad_learning_rates(tmp_path, capsys):
    """A learning rate that is not positive is refused when the config is
    read; one so large that training diverges ends `train` with the
    optimizer's error as the one line on stderr, with no numpy warning
    above it."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"workdir": str(tmp_path / "w"), "lr": -0.01}))
    assert cli.main(["--config", str(path), "train"]) == 2
    assert capsys.readouterr().err == (
        "error: lr must be a finite number > 0, got -0.01\n")
    cfg = mini_config(tmp_path, lr=1e300)
    for stage in ("synth", "ingest", "cooccur", "embed", "cluster",
                  "featurize"):
        run_stage(stage, cfg)
    cfg.save(str(path))
    _assert_one_error_line(_cli("--config", str(path), "train"),
                           "non-finite gradient for 'W1'")


def test_pack_does_not_depend_on_the_hash_seed(tmp_path):
    """Two processes with different PYTHONHASHSEED write the same pack
    bytes, with a lexicon that scores several terms of every text."""
    lexicon = tmp_path / "sentiment.txt"
    lexicon.write_text("".join("w%02d %r\n" % (k, (k - 19.5) / 10)
                               for k in range(40)))  # every synth pool word
    script = ("import sys\n"
              "from threadcurve.pipeline import PipelineConfig, run_stage\n"
              "cfg = PipelineConfig.load(sys.argv[1])\n"
              "for stage in ('synth', 'ingest', 'cooccur', 'embed', "
              "'cluster', 'featurize'):\n"
              "    run_stage(stage, cfg)\n")
    packs = []
    for hash_seed in ("0", "1"):
        cfg = mini_config(tmp_path, name="hash" + hash_seed,
                          sentiment_path=str(lexicon))
        cfg_path = str(tmp_path / ("hash%s.json" % hash_seed))
        cfg.save(cfg_path)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.path.dirname(os.path.dirname(
                       os.path.abspath(pipeline.__file__))))
        subprocess.run([sys.executable, "-c", script, cfg_path], env=env,
                       check=True)
        with open(cfg.path(pipeline.PACK), "rb") as fh:
            packs.append(fh.read())
    assert packs[0] == packs[1]


def test_cli_rejects_bad_ablation(tmp_path, capsys):
    rc = cli.main(["--workdir", str(tmp_path / "x"),
                   "--ablate", "bogus", "synth"])
    assert rc == 2
    assert "GROUP:MODE" in capsys.readouterr().err


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # a typo, and keys that are no longer settings
    for key in ("epoch", "embed_epochs", "embed_lr", "t_cap"):
        bad.write_text(json.dumps({"workdir": str(tmp_path / "w"), key: 3}))
        assert cli.main(["--config", str(bad), "synth"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown config key(s) in %s: %s\n" % (bad, key))


@pytest.mark.parametrize("text", [
    '{"d": "8"}', '{"d": 8,', "[1, 2]", None, '{"d": true}', '{"d": 8.0}',
    '{"lam": "1"}', '{"theta0": null}', '{"desk_scale": 1}',
    '{"model": 3}', '{"excluded_author_tags": "deleted"}',
    '{"excluded_author_tags": ["deleted", 1]}'])
def test_cli_rejects_malformed_config(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    if text is not None:  # None: no such file
        path.write_text(text)
    assert cli.main(["--config", str(path), "synth"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_cli_reports_an_unreadable_scores_file(tmp_path, capsys):
    cfg = mini_config(tmp_path)
    for stage in ("synth", "ingest", "cooccur", "embed", "cluster",
                  "featurize", "train"):
        run_stage(stage, cfg)
    cfg_path = str(tmp_path / "cfg.json")
    cfg.save(cfg_path)
    scores = cfg.path("scores_rgnet_temporal.bin")
    # a file in the text format that tensor files had before numpy records
    with open(scores, "w") as fh:
        fh.write("tensorstore v1\n"
                 "tensor W 2 2\n0.10000000000000001 -2 1e-300 3\n"
                 "tensor b 0\n\n"
                 "tensor t \n7\n")
    assert cli.main(["--config", cfg_path, "evaluate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable tensor file %s: " % scores)
    assert err.endswith(": run train again\n") and err.count("\n") == 1


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A workdir trained with the temporal RGNet."""
    cfg = mini_config(tmp_path_factory.mktemp("trained"))
    for stage in ("synth", "ingest", "cooccur", "embed", "cluster",
                  "featurize", "train"):
        run_stage(stage, cfg)
    return cfg


@pytest.mark.parametrize("name, damage, reader, again", [
    (pipeline.STORE, "cut", "cooccur", "run ingest again"),
    (pipeline.STORE, "text_ids", "featurize", "run ingest again"),
    (pipeline.STORE, "authors_offsets", "balance", "run ingest again"),
    (pipeline.STORE, "not UTF-8", "cooccur", "run ingest again"),
    (pipeline.PACK, "cut", "train", "run featurize again"),
    (pipeline.PACK, "mask", "train", "run featurize again"),
    ("scores_rgnet_temporal.bin", "decision", "evaluate", "run train again"),
    ("scores_rgnet_temporal.bin", "g_inv", "diagnose", "run train again"),
], ids=["store-cut", "store-key", "store-balance", "store-not-utf8",
        "pack-cut", "pack-key", "scores-key", "scores-diagnose-key"])
def test_cli_reports_a_damaged_tensor_file(trained, tmp_path, capsys, name,
                                           damage, reader, again):
    """A tensor file cut short, one without a tensor that its reader needs
    (damage names it), or a store whose author names are not UTF-8, ends
    the reader with one error line naming the file and the stage to run
    again."""
    cfg = PipelineConfig(**dict(asdict(trained),
                                workdir=str(tmp_path / "run")))
    shutil.copytree(trained.workdir, cfg.workdir)
    path = cfg.path(name)
    message = "unreadable tensor file %s: " % path
    if damage == "cut":
        with open(path, "rb") as fh:
            content = fh.read()
        with open(path, "wb") as fh:
            fh.write(content[:len(content) // 2])
    else:
        tensors = load_store(path)
        if damage == "not UTF-8":
            tensors["authors"] = np.full_like(tensors["authors"], 0xff)
        else:
            del tensors[damage]
            message = "%s lacks tensor %r: " % (path, damage)
        save_store(tensors, path)
    cfg_path = str(tmp_path / "cfg.json")
    cfg.save(cfg_path)
    assert cli.main(["--config", cfg_path, reader]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: " + message)
    assert err.endswith(": %s\n" % again)


def test_cli_train_needs_the_embedding(trained, tmp_path, capsys):
    """`train` rebuilds the user vectors from embeddings.txt, so without
    that file it ends with one error line naming the stage that writes it."""
    cfg = PipelineConfig(**dict(asdict(trained),
                                workdir=str(tmp_path / "run")))
    shutil.copytree(trained.workdir, cfg.workdir)
    os.remove(cfg.path("embeddings.txt"))
    cfg_path = str(tmp_path / "cfg.json")
    cfg.save(cfg_path)
    assert cli.main(["--config", cfg_path, "train"]) == 2
    assert capsys.readouterr().err == (
        "error: missing artifact embeddings.txt: run embed first\n")


@pytest.mark.parametrize("trained_with, scored_with", [
    ("user:drop", ""), ("", "user:drop"), ("user:drop", "content:noise")])
def test_cli_refuses_scores_of_another_ablation(trained, tmp_path, capsys,
                                                trained_with, scored_with):
    """A scoring stage under another ablation than the last `train` ends
    with one error line naming both ablations, and writes no report."""
    base = dict(asdict(trained), workdir=str(tmp_path / "run"))
    shutil.copytree(trained.workdir, base["workdir"])
    run_stage("train", PipelineConfig(**dict(base, ablation=trained_with)))
    cfg = PipelineConfig(**dict(base, ablation=scored_with))
    cfg_path = str(tmp_path / "cfg.json")
    cfg.save(cfg_path)
    report = cfg.path("report_rgnet_temporal.json")
    if os.path.exists(report):
        os.remove(report)
    for stage in ("evaluate", "predict", "diagnose"):
        assert cli.main(["--config", cfg_path, stage]) == 2
        err = capsys.readouterr().err
        assert err == ("error: %s holds a model trained with ablation %s, "
                       "not %s: run train again\n" % (
                           cfg.path("scores_rgnet_temporal.bin"),
                           trained_with or "none", scored_with or "none"))
    assert not os.path.exists(report)
    run_stage("evaluate", PipelineConfig(**dict(base, ablation=trained_with)))
    assert os.path.exists(report)


@pytest.mark.parametrize("task, name, text, reader, again", [
    ("temporal", "manifest.json", "{", "evaluate",
     "remove it and run every stage again"),
    ("temporal", "manifest.json", "[]", "evaluate",
     "remove it and run every stage again"),
    ("temporal", "manifest.json", '{"stages": {"ingest": 5}}', "cooccur",
     "remove it and run every stage again"),
    ("temporal", "manifest.json", '{"stages": {"embed": {"outputs": []}}}',
     "evaluate", "remove it and run every stage again"),
    ("temporal", "features_meta.json", "truncated", "train",
     "run featurize again"),
    ("nontemporal", "balanced_ids.json", '{"ids": 3}', "featurize",
     "run balance again"),
])
def test_cli_reports_a_corrupt_json_artifact(tmp_path, capsys, task, name,
                                             text, reader, again):
    cfg = mini_config(tmp_path, task=task)
    stages = ["synth", "ingest", "cooccur", "embed", "cluster", "featurize",
              "train"]
    if task == "nontemporal":
        stages.insert(2, "balance")
    for stage in stages:
        run_stage(stage, cfg)
    with open(cfg.path(name)) as fh:
        content = fh.read()
    with open(cfg.path(name), "w") as fh:
        fh.write(content[:len(content) // 2] if text == "truncated" else text)
    cfg_path = str(tmp_path / "cfg.json")
    cfg.save(cfg_path)
    assert cli.main(["--config", cfg_path, reader]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert cfg.path(name) in err and err.endswith(": %s\n" % again)
