"""Command-line entry point: one subcommand per pipeline stage."""

from __future__ import annotations

import argparse
import sys

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
    overrides = {"workdir": args.workdir, "seed": args.seed,
                 "model": args.model, "task": args.task,
                 "ablation": args.ablate, "corpus_path": args.corpus,
                 "desk_scale": args.desk_scale or None}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if args.config:
        return PipelineConfig.load(args.config, **overrides)
    return PipelineConfig(**overrides)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.stage == "all":
            outputs = run_all(cfg)
        else:
            outputs = run_stage(args.stage, cfg)
    except (PipelineError, CorpusError, OptimError, StoreError,
            OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
