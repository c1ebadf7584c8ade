"""Command-line entry point.

Subcommands:

* ``ingest`` — validate a data file, print row/class counts.
* ``correlate`` — write the feature correlation matrix as CSV.
* ``run`` — train and evaluate one model.
* ``compare`` — train and evaluate every model (one report).

The data path comes from ``--data`` or the ``PDVOX_DATA`` environment
variable. Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from .dataset import correlation_csv_text, load_dataset
from .errors import ConfigError, PdvoxError
from .experiment import (
    FORMATS,
    MODEL_NAMES,
    SMOTE_MODES,
    RunConfig,
    emit_comparison,
    run_experiment,
)


def _add_data_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--data",
        metavar="PATH",
        help="input CSV (default: the PDVOX_DATA environment variable)",
    )


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    # the defaults are RunConfig's, so the CLI runs what the library runs
    parser.add_argument("--seed", type=int, default=RunConfig.seed, metavar="N",
                        help="master seed for split/resampling/bootstraps (default %(default)s)")
    parser.add_argument("--test-fraction", type=float, default=RunConfig.test_fraction,
                        metavar="F", help="held-out fraction per class (default %(default)s)")
    # what each mode does; the help marks RunConfig's mode as the default
    modes = ("add synthetic minority rows to the training split (after), to the whole dataset "
             "before splitting (before; leaks), or to neither (off)")
    parser.add_argument("--smote", choices=SMOTE_MODES, default=RunConfig.smote,
                        help=modes.replace(f"({RunConfig.smote}", "(%(default)s, the default"))
    parser.add_argument("--out", metavar="PATH",
                        help="write output here instead of stdout")
    parser.add_argument("--format", choices=FORMATS, default="table",
                        help="comparison output format (default table)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdvox",
        description="Vocal-feature classification experiments with native learners.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    ingest = sub.add_parser("ingest", help="validate a data file and print counts")
    _add_data_option(ingest)

    correlate = sub.add_parser("correlate", help="write the correlation matrix as CSV")
    _add_data_option(correlate)
    correlate.add_argument("--out", metavar="PATH",
                           help="write the CSV here instead of stdout")

    run = sub.add_parser("run", help="train and evaluate one model")
    _add_data_option(run)
    run.add_argument("--model", choices=MODEL_NAMES, required=True,
                     help="which learner to run")
    _add_run_options(run)

    compare = sub.add_parser("compare", help="train and evaluate every model")
    _add_data_option(compare)
    _add_run_options(compare)

    return parser


def _resolve_data(parser: argparse.ArgumentParser, args: argparse.Namespace) -> str:
    path = args.data or os.environ.get("PDVOX_DATA")
    if not path:
        parser.error("no data file: pass --data PATH or set PDVOX_DATA")
    return path


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "ingest":
        data = load_dataset(_resolve_data(parser, args))
        n_neg, n_pos = data.class_counts()
        print(f"{data.n_records} rows, {n_pos} positive, {n_neg} negative")
        return 0
    if args.command == "correlate":
        data = load_dataset(_resolve_data(parser, args))
        _write_output(correlation_csv_text(data), args.out)
        return 0
    # run / compare
    data_path = _resolve_data(parser, args)
    try:
        cfg = RunConfig(
            data=data_path,
            model=args.model if args.command == "run" else "all",
            seed=args.seed,
            test_fraction=args.test_fraction,
            smote=args.smote,
        )
    except ConfigError as exc:
        parser.error(str(exc))
    report = run_experiment(cfg)
    _write_output(emit_comparison(report, args.format), args.out)
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # one line per warning, like errors: no source path, no code line
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return _dispatch(parser, args)
        except (PdvoxError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
