#!/usr/bin/env python3
"""Record the checked outputs of every workload at master seeds 0-99 into golden.json.

    python3 perfbench/record_golden.py

Run it only at a commit whose outputs are known good: the benchmark then
fails any op whose outputs differ. Each entry holds the first 16 hex
digits of the input table's SHA-256 and a digest of every model's
confusion counts, metric set and ROC arrays.
"""

from __future__ import annotations

import json
import sys

import workloads
from outcheck import GOLDEN, OutputCheck, checked_fields, digest
from workloads import OUT_DIR, WORKLOADS

SEEDS = range(100)


def main() -> int:
    missing = workloads.missing_sources()
    if missing:
        print(f"record_golden: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    workloads.limit_threads()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    experiment = workloads.import_package()
    golden = {}
    for workload in WORKLOADS.values():
        check = OutputCheck(workload, golden={})
        entries = golden[workload.name] = {}
        for seed in SEEDS:
            table = workloads.build_tables(workload, [seed])[0]
            text = workloads.run_op(experiment, workload, table)
            problems = check.problems(table, text)
            if problems:
                print(f"{workload.name} seed {seed}: not recorded: {problems}", file=sys.stderr)
                return 1
            entries[str(seed)] = {"table": table.sha256[:16], "out": digest(checked_fields(text))}
            print(f"{workload.name} seed {seed} recorded", flush=True)
    GOLDEN.write_text(json.dumps(dict(sorted(golden.items())), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
