#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``pdvox compare``.

    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --trace 1            # the traced (per-layer) run
    python3 perfbench/run.py --profile            # cProfile of one op per workload
    python3 perfbench/run.py --workload compare-195 --seed 42 --seconds 25 --trace 0

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. Results, with the input and machine record, go to
``perfbench/out/``. See perfbench/README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from workloads import OUT_DIR, ROOT, WORKLOADS

STARTED = time.perf_counter()
SETUP_REPS = 5  # this process's set-up plus SETUP_REPS - 1 fresh processes
TIME_CAP_S = 150  # a run still measuring this long after it started fails
PROFILE_ROWS = 20
CHILD_TIMEOUT = 600


def _machine() -> dict:
    import numpy

    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), None)
    return {
        "nproc": workloads.nproc(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded (None if not found)."""
    import ctypes

    maps = Path("/proc/self/maps")
    if not maps.is_file():
        return None
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines() if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _setup(workload, seed: int):
    """Imports, table generation and the warm-up op; returns their wall time."""
    t0 = time.perf_counter()
    experiment = workloads.import_package()
    tables = workloads.build_tables(workload, workloads.seed_list(workload, seed))
    workloads.warm_up(experiment, workload, tables[0])
    return experiment, tables, time.perf_counter() - t0


def _fresh_setup_seconds(workload, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def _timed_op(experiment, workload, table, check, ops: list, tracer=None, op_id=-1) -> float:
    """Run, time and check one op; a failed op is recorded, never skipped."""
    problems = []
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
            tracer.begin_op(op_id)
        try:
            text = workloads.run_op(experiment, workload, table)
        finally:
            if tracer is not None:
                tracer.end_op()
                tracer.uninstall()
    except Exception as exc:  # noqa: BLE001 - the op boundary counts every failure
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        problems.append(f"raised {type(exc).__name__}: {exc}")
    else:
        seconds = time.perf_counter() - t0
        problems = check.problems(table, text)
    for problem in problems:
        print(f"op {len(ops)} (seed {table.master_seed}): {problem}", file=sys.stderr)
    ops.append({"seed": table.master_seed, "s": seconds, "traced": tracer is not None,
                "ok": not problems})
    return seconds


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _over_time_cap(workload) -> bool:
    """True, with a message, once the run has gone on longer than TIME_CAP_S."""
    elapsed = time.perf_counter() - STARTED
    if elapsed <= TIME_CAP_S:
        return False
    print(f"{workload.name}: still measuring {elapsed:.0f} s after start (cap {TIME_CAP_S} s); "
          f"no result", file=sys.stderr)
    return True


def run_workload(args) -> int:
    from outcheck import OutputCheck, load_golden
    from tracer import Tracer, layer_summary

    workload = WORKLOADS[args.workload]
    spec = _spec()
    experiment, tables, main_setup = _setup(workload, args.seed)
    setups = [main_setup]
    if not args.trace:
        setups += [_fresh_setup_seconds(workload, args.seed) for _ in range(SETUP_REPS - 1)]
    check = OutputCheck(workload, load_golden())
    ops: list[dict] = []
    n_ops = workloads.op_count(workload, args.seconds)
    if args.trace:
        tracer = Tracer()
        untraced, traced, per_op = [], [], []
        # each seed runs untraced and then traced, so the overhead is paired;
        # the pairs cover the first half of the timed run's ops
        for i in range((n_ops + 1) // 2):
            table = tables[i % len(tables)]
            untraced.append(_timed_op(experiment, workload, table, check, ops))
            traced.append(_timed_op(experiment, workload, table, check, ops, tracer, i))
            per_op.append(tracer.op_metrics(i))
            if _over_time_cap(workload):
                return 1
        units = {m["name"]: m["unit"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"}
        metrics = layer_summary(per_op, units)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
        wanted = spec["per_layer"]
    else:
        for i in range(n_ops):
            _timed_op(experiment, workload, tables[i % len(tables)], check, ops)
            if _over_time_cap(workload):
                return 1
        metrics = {
            "op_s": statistics.median(op["s"] for op in ops),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]

    attempted, failed = len(ops), sum(not op["ok"] for op in ops)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seeds": workloads.seed_list(workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": _machine(),
        "inputs": [t.record() for t in tables],
        "setup_s": setups,
        "ops": ops,
        "golden_compared": check.compared,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
    }
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    machine = record["machine"]
    print(f"workload {workload.name}: seeds {record['seeds'][0]}..{record['seeds'][-1]}, "
          f"{attempted} ops, {check.compared} compared with recorded outputs")
    print(f"machine: nproc {machine['nproc']}, python {machine['python']}, "
          f"numpy {machine['numpy']}, blas threads {machine['blas_threads']}")
    for t in tables[:1] if workload.blocks == 0 else tables:
        print(f"input seed {t.master_seed}: {t.rows} rows ({t.positives}+/{t.negatives}-) "
              f"sha256 {t.sha256}")
    print(f"fail_ratio {record['fail_ratio']:.4g} ({failed}/{attempted})")
    result = {}
    for m in wanted:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<28} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def run_profile(args) -> int:
    import cProfile
    import pstats

    workload = WORKLOADS[args.workload]
    experiment, tables, _ = _setup(workload, args.seed)
    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.runcall(workloads.run_op, experiment, workload, tables[0])
    print(f"== {workload.name}, seed {args.seed}: one op, {time.perf_counter() - t0:.3f} s "
          f"(profiled), top functions by self time")
    pstats.Stats(profile, stream=sys.stdout).sort_stats("tottime").print_stats(PROFILE_ROWS)
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print one summary table."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.profile:
            cmd.append("--profile")
        proc = subprocess.run(cmd, capture_output=not args.profile, text=True,
                              timeout=CHILD_TIMEOUT)
        if args.profile:
            status |= proc.returncode
            continue
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        last = json.loads(proc.stdout.splitlines()[-1])
        status |= not last["correct"]
        rows.append((name, last))
    if args.profile or not rows:
        return status
    names = list(rows[0][1]["metrics"])
    print(f"{'metric':<28}" + "".join(f"{name:>16}" for name, _ in rows) + "  unit")
    for metric in names:
        cells = "".join(f"{last['metrics'][metric]['value']:>16.6g}" for _, last in rows)
        print(f"{metric:<28}{cells}  {rows[0][1]['metrics'][metric]['unit']}")
    ratios = "".join(f"{last['failed'] / last['attempted']:>16.4g}" for _, last in rows)
    print(f"{'fail_ratio':<28}{ratios}  failed/attempted")
    summary = {name: last for name, last in rows}
    (OUT_DIR / f"summary-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8"
    )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=42,
                        help="first master seed of each workload's seed list (default 42)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="sizes the timed run: whole passes over the seed list that "
                             "took about this long when the benchmark was written (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--profile", action="store_true",
                        help="print cProfile's top functions by self time for one op")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = workloads.missing_sources()
    if missing or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: cannot build the program from this directory; missing "
              f"{', '.join(missing or ['BENCHMARK.json'])}", file=sys.stderr)
        return 2
    workloads.limit_threads()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        print(json.dumps({"setup_s": _setup(WORKLOADS[args.workload], args.seed)[2]}))
        return 0
    if args.profile:
        return run_profile(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
