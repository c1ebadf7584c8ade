#!/usr/bin/env python3
"""Run the default comparison across a range of seeds and print medians.

Single-split results on a 195-row table move a lot from seed to seed;
the per-model medians over ten or more splits are the stable summary
worth quoting. Prints one table row per model with the median of each
metric the comparison reports (percent, 2 dp), the per-seed wall time,
and one SHA-256 over the structured reports of every seed in order: two
runs with the same arguments print the same digest exactly when their
reports are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from pdvox.experiment import (
    COLUMNS, MODEL_NAMES, SMOTE_MODES, RunConfig, report_to_json, run_experiment,
)
from pdvox.metrics import format_percent


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

    metrics = [name for name, _ in COLUMNS]
    per_model = {name: [] for name in MODEL_NAMES}  # one row of metrics per seed
    times = []
    reports = hashlib.sha256()
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        t0 = time.perf_counter()
        report = run_experiment(RunConfig(data=args.data, seed=seed, smote=args.smote))
        times.append(time.perf_counter() - t0)
        reports.update(report_to_json(report).encode())
        for r in report.results:
            per_model[r.model].append([getattr(r.metrics, name) for name in metrics])

    def med(values):
        kept = [v for v in values if v is not None]
        return statistics.median(kept) if kept else None

    print(f"medians over {args.seeds} seeds "
          f"({args.first_seed}..{args.first_seed + args.seeds - 1}), smote={args.smote}")
    # names left-aligned, medians right-aligned under their metric's name
    widths = [max(map(len, MODEL_NAMES)), *(max(len(name), 5) for name in metrics)]

    def line(cells):
        return "  ".join([cells[0].ljust(widths[0]), *map(str.rjust, cells[1:], widths[1:])])

    print(line(["model", *metrics]))
    for name in MODEL_NAMES:
        print(line([name, *(format_percent(med(column)) for column in zip(*per_model[name]))]))
    print(f"per-seed compare time: median {statistics.median(times):.2f}s, "
          f"max {max(times):.2f}s")
    print(f"structured reports sha256: {reports.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
