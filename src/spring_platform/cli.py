"""Command line entry point.

The config file gives the mechanism, and its free lengths pick the case;
--out (default "out") and --format (default json,csv,svg) alone say where
and in which formats the report is written.
Exit codes: 0 on success, 2 for configuration problems (a config that
cannot be read or is invalid, or an output path that cannot be written),
3 for numerical failures. Each warning of the solve, LostRoots say, is one
"warning: <category>: <message>" line on stderr; the run still exits 0.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .analysis import run_analysis
from .config import load_config
from .errors import MechanismError, ParseError, ValidationError
from .output import emit_tables, render_svg

FORMATS = ("json", "csv", "svg")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solve",
        description="Equilibrium configurations of a planar three-spring "
                    "platform pressed against a rigid surface.")
    parser.add_argument("--config", required=True,
                        help="path to the JSON run configuration")
    parser.add_argument("--out", default="out",
                        help="output directory (default: %(default)s)")
    parser.add_argument("--format", default=",".join(FORMATS),
                        help="comma separated formats (default: %(default)s)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        # a directory must be named, and no file name can hold a NUL byte
        if not args.out:
            raise ValidationError("output_dir", "must not be empty")
        if "\0" in args.out:
            raise ValidationError("output_dir", "must not hold a NUL byte")
        formats = [f.strip() for f in args.format.split(",") if f.strip()]
        if not formats or any(f not in FORMATS for f in formats):
            raise ValidationError(
                "formats", f"must be a nonempty subset of {FORMATS}")
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
        written = emit_tables(report, args.out, formats)
        if "svg" in formats:
            written += render_svg(report, args.out)
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
