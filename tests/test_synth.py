"""The synthetic generators against the `rng.choice` draws they replaced
(`synth_reference`): the `synth` stage writes the same bytes. Both sides
run in this process, so no digest is pinned to one numpy version. The
uint32 stream reader `synth.Draws` is compared with numpy's own calls."""

import os
import random

import numpy as np
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


@pytest.mark.parametrize("block", [7, 13])
@pytest.mark.parametrize("task", ["temporal", "nontemporal"])
def test_draws_across_block_ends_write_the_reference_bytes(
        tmp_path, monkeypatch, block, task):
    """With a block of a few values, draws, word runs and permutations
    cross block ends, and the files keep their bytes."""
    monkeypatch.setattr(synth, "BLOCK", block)
    cfg = PipelineConfig(workdir=str(tmp_path / "run"), seed=1, task=task,
                         synth_discussions=12, synth_posts=16, desk_scale=True)
    run_stage("synth", cfg)
    _reference(cfg, str(tmp_path / "ref"))
    for name in FILES:
        with open(cfg.path(name), "rb") as fh:
            made = fh.read()
        with open(str(tmp_path / "ref" / name), "rb") as fh:
            assert made == fh.read(), name


POOL = synth._word_pool(synth.SynthSpec())
# bounds whose rejection threshold 2**32 % r is 0, 1, 16, about half of all
# values (2**31 + 1), 2**30 and 1
BOUNDS = (2, 3, 40, 2**31 + 1, 3 * 2**30, 2**32 - 1)


def _numpy_call(rng, op, arg):
    """What the Draws call `op(arg)` gives, drawn by numpy."""
    if op == "below":
        return int(rng.integers(arg))
    if op == "words":
        return " ".join(POOL[i] for i in rng.integers(len(POOL), size=arg))
    return rng.permutation(arg).tolist()


@pytest.mark.parametrize("r", BOUNDS)
def test_below_draws_what_numpy_draws(r):
    for seed in range(40):
        draw = synth.Draws(np.random.default_rng(seed), POOL)
        made = [draw.below(r) for _ in range(300)]
        rng = np.random.default_rng(seed)
        assert made == rng.integers(r, size=300).tolist()
        # the same number of values was taken
        assert draw.below(1000) == rng.integers(1000)


def test_permutation_draws_what_numpy_draws():
    for seed in range(20):
        draw = synth.Draws(np.random.default_rng(seed), POOL)
        rng = np.random.default_rng(seed)
        for n in range(65):
            assert draw.permutation(n) == rng.permutation(n).tolist(), n
            assert draw.below(1000) == rng.integers(1000)


@pytest.mark.parametrize("block", [synth.BLOCK, 7])
def test_interleaved_calls_draw_what_numpy_draws(monkeypatch, block):
    monkeypatch.setattr(synth, "BLOCK", block)
    for seed in range(150):
        plan = random.Random(seed)
        draw = synth.Draws(np.random.default_rng(seed), POOL)
        rng = np.random.default_rng(seed)
        for _ in range(60):
            op = plan.choice(("below", "words", "permutation"))
            arg = (plan.choice(BOUNDS) if op == "below"
                   else plan.randrange(13 if op == "words" else 40))
            assert getattr(draw, op)(arg) == _numpy_call(rng, op, arg), (
                seed, op, arg)


def test_words_past_a_value_numpy_rejects():
    """A word run that holds a value Lemire's rule rejects for the pool
    size (under one in 2**28) is drawn again as numpy does. Seed 2's uint32
    stream holds one at position 12,810,677: 2 * 6,405,335 + 7."""
    streams = []
    for _ in range(2):
        rng = np.random.default_rng(2)
        rng.bit_generator.advance(6_405_335)  # 64-bit words
        streams.append(rng)
    draw = synth.Draws(streams[0], POOL)
    assert draw.clean == 7
    for n in (4, 12, 9):
        assert draw.words(n) == _numpy_call(streams[1], "words", n)
