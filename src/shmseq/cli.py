"""Command line interface: `shmseq gen | run | report`."""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import pipeline
from .errors import ConfigError, ShmSeqError
from .tables import read_json


def _parsed(parse):
    """An argparse ``type``: ``parse(text)``, or the text as given for ``validate`` to name."""
    def convert(text: str):
        with contextlib.suppress(ValueError):
            return parse(text)
        return text
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shmseq",
        description="Sequential structural damage detection and localization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a labeled synthetic data set")
    p_gen.add_argument("--scenario", required=True, help="scenario JSON file")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p_run = sub.add_parser("run", help="run detection and localization on a data set")
    p_run.add_argument("--config", help="JSON file supplying any of the flags below")
    p_run.add_argument("--input", dest="input_csv", help="monitored signal CSV")
    p_run.add_argument("--training", dest="training_csv", help="pre-damage training CSV")
    p_run.add_argument("--post-training", dest="postdamage_csv", help="post-damage CSV (known mode)")
    p_run.add_argument("--metadata", dest="metadata_json", help="data set JSON, as `gen` writes")
    p_run.add_argument("--out", dest="output_dir", help="output directory")
    p_run.add_argument("--mode", choices=("known", "adaptive"))
    p_run.add_argument("--alpha", type=float)
    p_run.add_argument("--rho", type=float)
    p_run.add_argument("--chunk-size", dest="chunk_size", type=int)
    p_run.add_argument("--order", type=_parsed(int), help="AR order, or 'auto' for AIC selection")
    p_run.add_argument("--p-max", dest="p_max", type=int, help="largest order tried by 'auto'")
    p_run.add_argument(
        "--coeffs", dest="coef_indices", metavar="COEFFS",
        type=_parsed(lambda text: tuple(int(t) for t in text.split(","))),
        help="comma-separated 1-based AR coefficient subset",
    )
    p_run.add_argument("--dump-dsf", dest="dump_dsf", action="store_true", default=None)
    p_run.add_argument("--dump-estimates", dest="dump_estimates", action="store_true", default=None)

    p_rep = sub.add_parser("report", help="summarize a finished run")
    p_rep.add_argument("--run-dir", required=True)
    p_rep.add_argument("--out", default=None, help="where to write the CCDF plot data")
    return parser


def _run_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    data: dict = {}
    if args.config:
        data = read_json(args.config)
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config}: expected a JSON object of run settings")
    fields = pipeline.PipelineConfig.__dataclass_fields__
    data.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    return pipeline.PipelineConfig.from_dict(data)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on a usage error; 2 means damage here
        return pipeline.EXIT_ERROR if err.code else pipeline.EXIT_CLEAN
    try:
        if args.command == "gen":
            paths = pipeline.gen(args.scenario, args.out, seed=args.seed)
            print(f"wrote {paths['data']} and {paths['metadata']}")
            return pipeline.EXIT_CLEAN
        if args.command == "run":
            config = _run_config(args)
            result = pipeline.run(config)
            print(f"detected={result.summary['detected']} outputs in {config.output_dir}")
            return result.exit_code
        print(pipeline.report(args.run_dir, args.out))  # the "report" command
        return pipeline.EXIT_CLEAN
    except (ShmSeqError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return pipeline.EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
