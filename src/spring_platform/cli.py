"""Command line entry point.

The config file gives the mechanism, and its free lengths pick the case;
--out and --format override the file's output directory and formats.
Exit codes: 0 on success, 2 for configuration problems (a config that
cannot be read or is invalid, or an output path that cannot be written),
3 for numerical failures. Each warning of the solve, LostRoots say, is one
"warning: <category>: <message>" line on stderr; the run still exits 0.
"""

from __future__ import annotations

import argparse
import sys
import warnings
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

    with warnings.catch_warnings(record=True) as caught:
        try:
            report = run_analysis(config)
        except MechanismError as exc:
            print(f"numerical failure: solve-{config.case}: {exc}",
                  file=sys.stderr)
            return 3
    for warning in caught:
        print(f"warning: {warning.category.__name__}: {warning.message}",
              file=sys.stderr)

    try:
        written = emit_tables(report, config.output_dir, config.formats)
        if "svg" in config.formats:
            written += render_svg(report, config.output_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    c = report.counts
    print(f"contact: {report.contact}")
    print(f"case: {config.case}")
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
