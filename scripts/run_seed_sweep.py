#!/usr/bin/env python3
"""Run the default comparison across a range of seeds and print medians.

Single-split results on a 195-row table move a lot from seed to seed;
the per-model medians over ten or more splits are the stable summary
worth quoting. Prints one table row per model with median accuracy,
sensitivity, specificity, AUC, and F1 (percent, 2 dp), the per-seed
wall time, and one SHA-256 over the structured reports of every seed in
order: two runs with the same arguments print the same digest exactly
when their reports are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from pdvox.experiment import MODEL_NAMES, SMOTE_MODES, RunConfig, report_to_json, run_experiment
from pdvox.metrics import format_percent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", default=os.environ.get("PDVOX_DATA"),
                        help="input CSV (default: PDVOX_DATA)")
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seeds, counting up from --first-seed")
    parser.add_argument("--first-seed", type=int, default=42)
    parser.add_argument("--smote", choices=SMOTE_MODES, default="after")
    args = parser.parse_args(argv)
    if not args.data:
        parser.error("no data file: pass --data PATH or set PDVOX_DATA")
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")

    per_model = {name: {"accuracy": [], "sensitivity": [], "specificity": [],
                        "auc": [], "f1": []} for name in MODEL_NAMES}
    times = []
    reports = hashlib.sha256()
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        t0 = time.perf_counter()
        report = run_experiment(RunConfig(data=args.data, seed=seed, smote=args.smote))
        times.append(time.perf_counter() - t0)
        reports.update(report_to_json(report).encode())
        for r in report.results:
            m = per_model[r.model]
            m["accuracy"].append(r.metrics.accuracy)
            m["sensitivity"].append(r.metrics.sensitivity)
            m["specificity"].append(r.metrics.specificity)
            m["auc"].append(r.metrics.auc)
            m["f1"].append(r.metrics.f1)

    def med(values):
        kept = [v for v in values if v is not None]
        return statistics.median(kept) if kept else None

    print(f"medians over {args.seeds} seeds "
          f"({args.first_seed}..{args.first_seed + args.seeds - 1}), smote={args.smote}")
    print("model          accuracy  sensitivity  specificity    auc     f1")
    for name in MODEL_NAMES:
        m = per_model[name]
        print(f"{name:<13}  {format_percent(med(m['accuracy'])):>8}  "
              f"{format_percent(med(m['sensitivity'])):>11}  "
              f"{format_percent(med(m['specificity'])):>11}  "
              f"{format_percent(med(m['auc'])):>5}  "
              f"{format_percent(med(m['f1'])):>5}")
    print(f"per-seed compare time: median {statistics.median(times):.2f}s, "
          f"max {max(times):.2f}s")
    print(f"structured reports sha256: {reports.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
