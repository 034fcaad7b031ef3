"""Command line entry point.

The config file gives the mechanism, and its free lengths pick the solver;
--out and --format override the file's output directory and formats.
Exit codes: 0 on success, 2 for configuration problems (a config that
cannot be read or is invalid, or an output path that cannot be written),
3 for numerical failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .analysis import run_analysis
from .config import load_config
from .errors import MechanismError, ParseError, ValidationError
from .output import emit_tables, render_svg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solve",
        description="Equilibrium configurations of a planar three-spring "
                    "platform pressed against a rigid surface.")
    parser.add_argument("--config", required=True,
                        help="path to the JSON run configuration")
    parser.add_argument("--out", help="output directory (default from config)")
    parser.add_argument("--format",
                        help="comma separated subset of json,csv,svg")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.out is not None:
            config = replace(config, output_dir=args.out)
        if args.format is not None:
            config = replace(config, formats=tuple(
                f.strip() for f in args.format.split(",") if f.strip()))
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_analysis(config)
    except MechanismError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    written = []
    table_formats = [f for f in config.formats if f in ("json", "csv")]
    try:
        if table_formats:
            written += emit_tables(report, config.output_dir, table_formats)
        if "svg" in config.formats:
            written += render_svg(report, config.output_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    c = report.counts
    print(f"contact: {report.contact}")
    print(f"case: {report.case}")
    print(f"solutions: total={c['total']} accepted={c['accepted']} "
          f"rejected={c['rejected']} real={c['real']}")
    if report.margin and report.margin["ratio"] is not None:
        print(f"extraneous margin: accepted<={report.margin['max_accepted_residual']:.3e} "
              f"rejected>={report.margin['min_rejected_residual']:.3e} "
              f"ratio={report.margin['ratio']:.3e}")
    print(f"elapsed: {report.timing_s:.3f} s")
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
