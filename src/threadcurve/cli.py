"""Command-line entry point: one subcommand per pipeline stage."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from .corpus import CorpusError
from .optim import OptimError
from .pipeline import (PipelineConfig, PipelineError, STAGE_FUNCS, run_all,
                       run_stage)
from .storage import StoreError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="threadcurve",
        description="Discussion engagement pipeline: ingest a threaded "
                    "corpus, embed users, cluster them and train/evaluate "
                    "engagement models.")
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--workdir", help="artifact directory", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--model", choices=["rgnet", "newtonian", "logreg"],
                        default=None)
    parser.add_argument("--task", choices=["temporal", "nontemporal"],
                        default=None)
    parser.add_argument("--ablate", metavar="GROUP:MODE", default=None,
                        help="ablate a feature group, e.g. user:drop or "
                             "surface:noise")
    parser.add_argument("--corpus", default=None,
                        help="input corpus path (JSON lines)")
    parser.add_argument("--desk-scale", action="store_true",
                        help="small widths for quick runs")
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in STAGE_FUNCS:
        sub.add_parser(stage, help="run the %s stage" % stage)
    sub.add_parser("all", help="run every stage for the configured task")
    return parser


def config_from_args(args):
    if args.config:
        cfg = PipelineConfig.load(args.config)
    else:
        cfg = PipelineConfig()
    overrides = {"workdir": args.workdir, "seed": args.seed,
                 "model": args.model, "task": args.task,
                 "ablation": args.ablate, "corpus_path": args.corpus}
    changed = {k: v for k, v in overrides.items() if v is not None}
    if args.desk_scale:
        changed["desk_scale"] = True
    if changed:
        raw = asdict(cfg)
        if "workdir" in changed:
            # input paths still at their default in the old workdir follow
            # the new one; --corpus is put back below
            default = PipelineConfig(workdir=cfg.workdir)
            for key in ("corpus_path", "word_vectors_path",
                        "sentiment_path", "stopwords_path"):
                if raw[key] == getattr(default, key):
                    raw[key] = ""
        raw.update(changed)
        cfg = PipelineConfig(**raw)
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.stage == "all":
            outputs = run_all(cfg)
        else:
            outputs = run_stage(args.stage, cfg)
    except (PipelineError, CorpusError, OptimError, StoreError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
