import json
import os
from collections import Counter

import numpy as np
import pytest

from conftest import make_discussion_json, write_corpus
from threadcurve import cli, pipeline
from threadcurve.pipeline import (PipelineConfig, PipelineError, run_all,
                                  run_stage)
from threadcurve.storage import load_store, save_store, sha256_file


def mini_config(tmp_path, name="run", **kw):
    kw.setdefault("desk_scale", True)
    kw.setdefault("synth_discussions", 9)
    kw.setdefault("synth_posts", 16)
    kw.setdefault("epochs", 2)
    kw.setdefault("embed_epochs", 5)
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


def test_desk_scale_overrides_widths(tmp_path):
    cfg = mini_config(tmp_path)
    assert (cfg.d, cfg.n, cfg.N, cfg.w) == (8, 3, 4, 5)
    assert (cfg.h1, cfg.h2, cfg.h3) == (16, 8, 8)


def test_config_save_load_roundtrip(tmp_path):
    cfg = mini_config(tmp_path, seed=7, model="newtonian")
    path = str(tmp_path / "cfg.json")
    cfg.save(path)
    again = PipelineConfig.load(path)
    assert again == cfg


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


def test_stage_refuses_stale_input(tmp_path):
    cfg = mini_config(tmp_path)
    run_all(cfg)
    # the same config writes the same bytes, so nothing downstream is stale
    run_stage("embed", cfg)
    run_stage("featurize", cfg)
    changed = mini_config(tmp_path, embed_epochs=cfg.embed_epochs + 1)
    run_stage("embed", changed)
    with pytest.raises(PipelineError, match=(
            "stale artifact clusters.txt: embeddings.txt has changed since "
            "cluster ran; run cluster again")):
        run_stage("featurize", changed)
    run_stage("cluster", changed)
    run_stage("featurize", changed)


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
    store = load_store(cfg.path(pipeline.PACK))
    mask = store.get("mask").copy()
    mask[rows] = 0.0
    store.set("mask", mask)
    save_store(store, cfg.path(pipeline.PACK))


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
        assert len(log["epoch_losses"]) == (0 if model == "logreg"
                                            else cfg.epochs)
        run_stage("evaluate", mcfg)


def test_no_valid_step_is_a_named_error(tmp_path):
    cfg = mini_config(tmp_path)
    run_all(cfg)
    with open(cfg.path("features_meta.json")) as fh:
        n_train = len(json.load(fh)["train_ids"])
    _set_pack_mask(cfg, slice(n_train, None))
    with pytest.raises(PipelineError, match="test split has no valid"):
        run_stage("evaluate", cfg)
    _set_pack_mask(cfg, slice(None))
    with pytest.raises(PipelineError, match="no training discussion"):
        run_stage("train", cfg)


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
    train, test, _, cm = pipeline._model_inputs(cfg)
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


def test_cli_reports_malformed_corpus(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "bad.jsonl", [make_discussion_json()])
    with open(corpus, "a") as fh:
        fh.write("{not json\n")
    rc = cli.main(["--workdir", str(tmp_path / "w"), "--corpus", corpus,
                   "ingest"])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_rejects_bad_ablation(tmp_path, capsys):
    rc = cli.main(["--workdir", str(tmp_path / "x"),
                   "--ablate", "bogus", "synth"])
    assert rc == 2
    assert "GROUP:MODE" in capsys.readouterr().err


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"workdir": str(tmp_path / "w"), "epoch": 3}))
    assert cli.main(["--config", str(bad), "synth"]) == 2
    assert "epoch" in capsys.readouterr().err
