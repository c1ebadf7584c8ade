"""Benchmark workloads: which tables an op reads and which models it fits.

An operation (op) is one ``experiment.run_experiment(RunConfig(...))``
followed by ``emit_comparison(report, "structured")``: what ``pdvox
compare`` / ``pdvox run`` do after argument parsing.

Every input follows from the benchmark's seed argument alone. A
workload's seed list is ``seed .. seed+n-1`` (n is ``Workload.seeds``),
and a run makes whole passes over it, so the set of timed ops depends on
the seed and on ``--seconds``, never on how fast the code runs. For the
generated workloads each master seed has its own table, built from
generator seeds derived from the master seed, so one run averages over
several tables instead of timing one table's difficulty (tree node
counts on 780-row tables differ by up to a quarter from table to table).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SRC_DIR = ROOT / "src"
DATA_FILE = ROOT / "data" / "synthetic_vocal.csv"
GENERATOR = ROOT / "scripts" / "make_synthetic_vocal.py"



@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    blocks: int  # 0: the committed 195-row file; k: k generated 195-row blocks
    seeds: int  # length of the seed list
    design_op_s: float  # seconds per op when the benchmark was written (sizes the runs)


#: Why each workload exists, and which layers it stresses: README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("compare-195", "all", 0, seeds=10, design_op_s=2.0),
        Workload("compare-780", "all", 4, seeds=4, design_op_s=6.5),
        Workload("svm-1560", "svm", 8, seeds=5, design_op_s=0.5),
    )
}


def seed_list(workload: Workload, seed: int) -> list[int]:
    return list(range(seed, seed + workload.seeds))


def op_count(workload: Workload, seconds: float) -> int:
    """Ops in a timed run: the whole passes over the seed list that took
    about ``seconds`` when the benchmark was written (at least one pass)."""
    passes = max(1, round(seconds / (workload.seeds * workload.design_op_s)))
    return passes * workload.seeds


def generator_seed(master_seed: int, block: int) -> int:
    """Seed of one generated block; independent of the package's own RNG."""
    digest = hashlib.sha256(f"perfbench/{master_seed}/{block}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def missing_sources() -> list[str]:
    """Repository files the benchmark builds from that are absent."""
    needed = (SRC_DIR / "pdvox" / "__init__.py", DATA_FILE, GENERATOR)
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def import_package():
    """Import pdvox from this checkout's sources (not an installed copy)."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    from pdvox import experiment

    return experiment


def _generator():
    spec = importlib.util.spec_from_file_location("make_synthetic_vocal", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Table:
    master_seed: int
    path: Path
    sha256: str
    rows: int
    positives: int
    negatives: int

    def record(self) -> dict:
        return {
            "seed": self.master_seed,
            "path": str(self.path.relative_to(ROOT)),
            "sha256": self.sha256,
            "rows": self.rows,
            "positives": self.positives,
            "negatives": self.negatives,
        }


def build_tables(workload: Workload, seeds: list[int]) -> list[Table]:
    """Write (or reuse the committed) input table of each master seed."""
    import numpy as np
    from pdvox.dataset import CANONICAL_FEATURES, Dataset, load_dataset, write_dataset_csv

    if workload.blocks == 0:
        data = load_dataset(DATA_FILE)
        digest = hashlib.sha256(DATA_FILE.read_bytes()).hexdigest()
        negatives, positives = data.class_counts()
        return [
            Table(s, DATA_FILE, digest, data.n_records, positives, negatives) for s in seeds
        ]
    gen = _generator()
    tables = []
    for seed in seeds:
        parts = [gen.generate(generator_seed(seed, k)) for k in range(workload.blocks)]
        # the per-block prefix keeps subjects of different blocks distinct
        data = Dataset(
            ids=tuple(f"b{k}_{i}" for k, part in enumerate(parts) for i in part.ids),
            features=np.vstack([p.features for p in parts]),
            labels=np.concatenate([p.labels for p in parts]),
            feature_names=CANONICAL_FEATURES,
        )
        path = OUT_DIR / "tables" / f"{workload.name}-{seed}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_dataset_csv(data, path)
        negatives, positives = data.class_counts()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        tables.append(Table(seed, path, digest, data.n_records, positives, negatives))
    return tables


def _op(experiment, path: Path, model: str, seed: int) -> str:
    report = experiment.run_experiment(experiment.RunConfig(data=str(path), model=model, seed=seed))
    return experiment.emit_comparison(report, "structured")


def run_op(experiment, workload: Workload, table: Table) -> str:
    """One op: run the experiment and render the structured report."""
    return _op(experiment, table.path, workload.model, table.master_seed)


def warm_up(experiment, workload: Workload, table: Table) -> None:
    """Bring the process to steady state before timing.

    An op of the workload's model on the committed file runs every code
    path the timed ops take. An SVM op on the first table then settles the
    large allocations: the first SVM fit in a process runs about twice as
    long as later ones.
    """
    _op(experiment, DATA_FILE, workload.model, table.master_seed)
    _op(experiment, table.path, "svm", table.master_seed)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def limit_threads() -> None:
    """Cap BLAS/OpenMP pools at nproc; call before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc():
            os.environ[var] = str(nproc())
