"""The synthetic generators against the `rng.choice` draws they replaced
(`synth_reference`): the `synth` stage writes the same bytes. Both sides
run in this process, so no digest is pinned to one numpy version."""

import os

import pytest

import synth_reference as ref
from threadcurve import synth
from threadcurve.pipeline import PipelineConfig, run_stage

FILES = ("corpus.jsonl", "synth_truth.json", "word_vectors.txt",
         "sentiment.txt", "stopwords.txt")

SIZES = {
    "desk": dict(desk_scale=True),
    "800": dict(desk_scale=True, synth_discussions=800, synth_posts=800),
    # two comments a window draw no time offsets
    "w2N7": dict(w=2, N=7, synth_discussions=30, synth_posts=40),
}


def _reference(cfg, out):
    """The files the stage wrote before, from the reference generators."""
    os.makedirs(out)
    spec = synth.SynthSpec(w=cfg.w, N=cfg.N,
                           discussions=cfg.synth_discussions,
                           posts=cfg.synth_posts)
    synth.write_lexicon_files(spec, out, seed=cfg.seed)
    make = (ref.make_temporal_corpus if cfg.task == "temporal"
            else ref.make_nontemporal_corpus)
    make(spec, cfg.seed, os.path.join(out, "corpus.jsonl"),
         os.path.join(out, "synth_truth.json"))


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("task", ["temporal", "nontemporal"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_synth_writes_the_reference_bytes(tmp_path, size, task, seed):
    cfg = PipelineConfig(workdir=str(tmp_path / "run"), seed=seed, task=task,
                         **SIZES[size])
    run_stage("synth", cfg)
    _reference(cfg, str(tmp_path / "ref"))
    for name in FILES:
        with open(cfg.path(name), "rb") as fh:
            made = fh.read()
        with open(str(tmp_path / "ref" / name), "rb") as fh:
            assert made == fh.read(), name
        assert made
