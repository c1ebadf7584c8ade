#!/usr/bin/env python3
"""Run the default comparison across a range of seeds and print medians.

Single-split results on a 195-row table move a lot from seed to seed;
the per-model medians over ten or more splits are the stable summary
worth quoting. Prints one table row per model with the median of each
metric the comparison reports (percent, 2 dp), the per-seed wall time,
and one SHA-256 over the structured reports of every seed in order: two
runs with the same arguments print the same digest exactly when their
reports are byte-identical, however the data path is spelt.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from pdvox.experiment import (
    COLUMNS, MODEL_NAMES, SMOTE_MODES, RunConfig, align_columns, report_to_json, run_experiment,
)
from pdvox.metrics import format_percent


def sweep(data, seeds, smote=RunConfig.smote):
    """Yield each seed's (report, wall seconds), in seed order."""
    for seed in seeds:
        t0 = time.perf_counter()
        report = run_experiment(RunConfig(data=data, seed=seed, smote=smote))
        yield report, time.perf_counter() - t0


def reports_digest(reports) -> str:
    """SHA-256 over the structured reports in order, each with its data path
    written as "data/synthetic_vocal.csv", the path the pinned digest was
    recorded with: the fingerprint's SHA-256 already names the file."""
    digest = hashlib.sha256()
    for report in reports:
        config = replace(report.config, data="data/synthetic_vocal.csv")
        digest.update(report_to_json(replace(report, config=config)).encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", default=os.environ.get("PDVOX_DATA"),
                        help="input CSV (default: PDVOX_DATA)")
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seeds, counting up from --first-seed")
    parser.add_argument("--first-seed", type=int, default=RunConfig.seed)
    parser.add_argument("--smote", choices=SMOTE_MODES, default=RunConfig.smote)
    args = parser.parse_args(argv)
    if not args.data:
        parser.error("no data file: pass --data PATH or set PDVOX_DATA")
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    reports, times = zip(*sweep(args.data, seeds, args.smote))
    metrics = [name for name, _ in COLUMNS]

    def median(model, metric):
        values = [getattr(r.metrics, metric) for report in reports for r in report.results
                  if r.model == model]
        kept = [v for v in values if v is not None]
        return statistics.median(kept) if kept else None

    print(f"medians over {args.seeds} seeds ({seeds[0]}..{seeds[-1]}), smote={args.smote}")
    rows = [[name, *(format_percent(median(name, m)) for m in metrics)] for name in MODEL_NAMES]
    print(align_columns([["model", *metrics], *rows]), end="")
    print(f"per-seed compare time: median {statistics.median(times):.2f}s, "
          f"max {max(times):.2f}s")
    print(f"structured reports sha256: {reports_digest(reports)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
