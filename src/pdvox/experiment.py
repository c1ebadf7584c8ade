"""Experiment orchestration: one config in, one reproducible report out.

Pipeline order: load -> (``smote="before"``: whole-dataset resample) ->
stratified split -> (``smote="after"``: training-split resample) -> fit
the selected models -> score the untouched test split -> metrics. Every
stochastic stage draws from a named substream of the single master seed,
and the report embeds the resolved config plus a dataset fingerprint, so
a report can be regenerated bit-identically from its own contents.

On Linux the fits of a multi-model run go to forked worker processes, at
most one per fit and one per usable CPU; the parent scores every model. A fit's result depends only
on the training split, its config and its own RNG streams, so the report
is the same bytes either way. Wrappers set on this module's names still
see every call, but a ``fit_*`` wrapper runs in the worker that fits.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .dataset import Dataset, load_dataset, stratified_split
from .ensemble import (
    AdaBoostParams,
    BaggingParams,
    LeafwiseGbdtParams,
    LevelwiseGbdtParams,
    ensemble_scores,
    fit_adaboost,
    fit_bagging,
    fit_gbdt,
)
from .errors import ConfigError, PdvoxError, SchemaError, check_float_field, check_int_field
from .metrics import (
    ConfusionMatrix,
    MetricSet,
    RocCurve,
    classification_metrics,
    confusion,
    format_percent,
    roc_auc,
)
from .resample import smote
from .svm import SvmParams, decision_scores, fit_svm


#: The one place that knows the learners: name -> (fit on the training
#: split, test-set scorer, confusion threshold), in the canonical order of
#: "all" runs and comparison tables. Each entry looks ``fit_*``,
#: ``ensemble_scores`` and ``decision_scores`` up in this module at call
#: time, so a wrapper set on one of those names sees every call. A fit runs
#: in the process that fits it (a forked worker, see :func:`_fit_all`), so a
#: wrapper on a ``fit_*`` name runs there; scorers run in the caller's.
_LEARNERS = {
    "lightgbm-like": (lambda tr, cfg: fit_gbdt(tr, cfg.gbdt_leafwise),
                      lambda m, X: ensemble_scores(m, X), 0.0),
    "xgboost-like": (lambda tr, cfg: fit_gbdt(tr, cfg.gbdt_levelwise),
                     lambda m, X: ensemble_scores(m, X), 0.0),
    "adaboost": (lambda tr, cfg: fit_adaboost(tr, cfg.adaboost),
                 lambda m, X: ensemble_scores(m, X), 0.0),
    "bagging": (lambda tr, cfg: fit_bagging(tr, cfg.bagging, seed=cfg.seed),
                lambda m, X: ensemble_scores(m, X), 0.5),
    "svm": (lambda tr, cfg: fit_svm(tr, cfg.svm), lambda m, X: decision_scores(m, X), 0.0),
}

MODEL_NAMES = tuple(_LEARNERS)

#: The order in which worker processes take the fits: longest first (at 940
#: training rows, in the workers, 0.86, 0.71, 0.56, 0.12 and 0.08 s), so the
#: short fits fill in behind the long ones: two workers end after about
#: 1.27 s this way and after about 1.50 s in canonical order. Every learner
#: is listed.
_FIT_ORDER = ("bagging", "xgboost-like", "lightgbm-like", "svm", "adaboost")

FORMATS = ("table", "csv", "structured")

SMOTE_MODES = ("after", "before", "off")

#: The comparison's metric columns, in order: (MetricSet field, table
#: heading). The csv header and the seed sweep name columns by field.
COLUMNS = (
    ("accuracy", "Accuracy %"),
    ("sensitivity", "Sensitivity %"),
    ("specificity", "Specificity %"),
    ("auc", "AUC %"),
    ("f1", "F1-score %"),
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; serialized whole into each report.

    ``seed`` is the master seed: the split, the resampler, and each
    bagging tree consume independent named substreams of it. ``smote``
    balances the training split ("after"), the whole file before the
    split ("before": test rows leak into training), or nothing ("off").
    Per-model hyperparameters are override points for programmatic use;
    the CLI always runs the documented defaults.
    """

    data: str
    model: str = "all"
    seed: int = 42
    test_fraction: float = 0.2
    smote: str = "after"
    smote_k: int = 5
    gbdt_leafwise: LeafwiseGbdtParams = field(default_factory=LeafwiseGbdtParams)
    gbdt_levelwise: LevelwiseGbdtParams = field(default_factory=LevelwiseGbdtParams)
    adaboost: AdaBoostParams = field(default_factory=AdaBoostParams)
    bagging: BaggingParams = field(default_factory=BaggingParams)
    svm: SvmParams = field(default_factory=SvmParams)

    def __post_init__(self):
        path = os.fspath(self.data) if isinstance(self.data, (str, os.PathLike)) else None
        if not isinstance(path, str):
            raise ConfigError(f"data must be a file path (str or os.PathLike), got {self.data!r}")
        object.__setattr__(self, "data", path)
        if self.model != "all" and self.model not in MODEL_NAMES:
            raise ConfigError(
                f"model must be 'all' or one of {MODEL_NAMES}, got {self.model!r}"
            )
        if self.smote not in SMOTE_MODES:
            raise ConfigError(f"smote must be one of {SMOTE_MODES}, got {self.smote!r}")
        check_float_field(self, "test_fraction", gt=0, lt=1)
        check_int_field(self, "seed")
        check_int_field(self, "smote_k", 1)
        for name, cls in _PARAMS_SECTIONS.items():
            section = getattr(self, name)
            if not isinstance(section, cls):
                raise ConfigError(f"{name} must be {cls.__name__}, got {type(section).__name__}")

    def selected_models(self) -> tuple[str, ...]:
        return MODEL_NAMES if self.model == "all" else (self.model,)


#: RunConfig's params sections: field name -> the dataclass it holds.
_PARAMS_SECTIONS = {n: t for n, t in get_type_hints(RunConfig).items() if is_dataclass(t)}


@dataclass(frozen=True)
class DatasetFingerprint:
    rows: int
    positives: int
    negatives: int
    sha256: str


@dataclass(frozen=True)
class SplitSummary:
    train_rows: int
    test_rows: int
    train_rows_after_resample: int


@dataclass(frozen=True)
class ModelResult:
    """Test-set evaluation of one fitted model.

    ``threshold`` is the score cut used for the confusion matrix: 0.0 for
    margin-scored models, 0.5 for bagging's vote fraction.
    """

    model: str
    threshold: float
    confusion: ConfusionMatrix
    metrics: MetricSet
    roc: RocCurve


@dataclass(frozen=True)
class ExperimentReport:
    toolkit_version: str
    config: RunConfig
    fingerprint: DatasetFingerprint
    split: SplitSummary
    results: tuple[ModelResult, ...]


@contextmanager
def _stage(name: str):
    """Prefix toolkit errors with the pipeline stage that raised them."""
    try:
        yield
    except PdvoxError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _fit(name: str, cfg: RunConfig, train: Dataset):
    """Fit one learner; return the model and the warnings its fit raised."""
    with warnings.catch_warnings(record=True) as caught, _stage(f"fit {name}"):
        model = _LEARNERS[name][0](train, cfg)
    return model, caught


def _workers(n_fits: int) -> int:
    """Worker processes for ``n_fits`` fits: one per CPU this process may
    use, at most one per fit; 0 fits in this process (one fit, one CPU, no
    affinity mask to read, or a daemonic process, which may not fork)."""
    if n_fits < 2 or not hasattr(os, "sched_getaffinity"):
        return 0
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        return 0
    import multiprocessing

    return 0 if multiprocessing.current_process().daemon else min(n_fits, cpus)


def _fit_all(names: tuple[str, ...], cfg: RunConfig, train: Dataset) -> list:
    """``_fit`` of each name, in ``names`` order; the first failure in that
    order raises. Workers are forked, not spawned: they inherit wrappers set
    on this module's names and the parent's BLAS thread count, which the SVM
    bits depend on, and they start without importing anything again."""
    workers = _workers(len(names))
    if not workers:
        return [_fit(name, cfg, train) for name in names]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = {n: pool.submit(_fit, n, cfg, train) for n in _FIT_ORDER if n in names}
        return [futures[name].result() for name in names]
    finally:
        pool.shutdown(cancel_futures=True)


def _evaluate(name: str, model, test: Dataset) -> ModelResult:
    _, score, threshold = _LEARNERS[name]
    scores = score(model, test.features)
    cm = confusion(scores, test.labels, threshold)
    curve, auc = roc_auc(scores, test.labels)
    return ModelResult(
        model=name,
        threshold=threshold,
        confusion=cm,
        metrics=replace(classification_metrics(cm), auc=auc),
        roc=curve,
    )


def _load(path) -> tuple[Dataset, str]:
    """Parse the data file and fingerprint the very bytes that were parsed."""
    with open(path, "rb") as handle:
        content = handle.read()
    return load_dataset(path, content), hashlib.sha256(content).hexdigest()


def run_experiment(cfg: RunConfig) -> ExperimentReport:
    with _stage("load"):
        data, digest = _load(cfg.data)
    n_neg, n_pos = data.class_counts()
    fingerprint = DatasetFingerprint(
        rows=data.n_records, positives=n_pos, negatives=n_neg, sha256=digest
    )
    if cfg.smote == "before":
        with _stage("resample"):
            data = smote(data, cfg.smote_k, cfg.seed)
    with _stage("split"):
        train, test = stratified_split(data, cfg.test_fraction, cfg.seed)
    resampled = train
    if cfg.smote == "after":
        with _stage("resample"):
            resampled = smote(train, cfg.smote_k, cfg.seed)
    names = cfg.selected_models()
    results = []
    for name, (model, caught) in zip(names, _fit_all(names, cfg, resampled)):
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        with _stage(f"score {name}"):
            results.append(_evaluate(name, model, test))
    return ExperimentReport(
        toolkit_version=__version__,
        config=cfg,
        fingerprint=fingerprint,
        split=SplitSummary(
            train_rows=train.n_records,
            test_rows=test.n_records,
            train_rows_after_resample=resampled.n_records,
        ),
        results=tuple(results),
    )


def _array_to_json(value):
    """``json.dumps`` hook: an array is its list, with the ROC anchor's +inf
    threshold as null (strict JSON has no infinity)."""
    if isinstance(value, np.ndarray):
        return [None if v == math.inf else v for v in value.tolist()]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(asdict(report), default=_array_to_json, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _is_number(value) -> bool:
    """A JSON number that is a finite float. ``json.loads`` also reads NaN,
    Infinity and integers too large for a float; the comparisons fail them."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max
    )


#: What a JSON leaf must be, by its dataclass field's annotation: (its
#: description, its test). Other annotations are sections, tuples of
#: sections, or settings such as ``float | str`` that only their
#: constructor checks.
_LEAVES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", _is_number),
    float | None: ("a number or null", lambda v: v is None or _is_number(v)),
    str: ("a string", lambda v: isinstance(v, str)),
    np.ndarray: ("an array of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
}

#: ROC thresholds, the one leaf that differs from its annotation: null
#: stands for the +inf anchor (see ``_array_to_json``).
_THRESHOLDS = (
    "an array of numbers and nulls",
    lambda v: isinstance(v, list) and all(t is None or _is_number(t) for t in v),
)


def _from_json(cls, obj, path: str):
    """The ``cls`` dataclass that ``obj`` encodes. ``obj`` must be a JSON
    object with exactly the fields of ``cls``, each leaf of the JSON type
    its annotation asks (:data:`_LEAVES`); sections and ``tuple[X, ...]``
    fields are decoded in turn. Else a SchemaError naming ``path`` ("" for
    the whole report) or the first field at fault."""
    if not isinstance(obj, dict):
        where = f"report field {path!r}" if path else "report"
        raise SchemaError(f"{where} is not a JSON object")
    hints = get_type_hints(cls)
    prefix = f"{path}." if path else ""
    for name, hint in hints.items():
        if name not in obj:
            raise SchemaError(f"report field {prefix + name!r} is missing")
        rule = _THRESHOLDS if (cls, name) == (RocCurve, "thresholds") else _LEAVES.get(hint)
        if rule and not rule[1](obj[name]):
            raise SchemaError(f"report field {prefix + name!r} is not {rule[0]}")
    for key in obj:
        if key not in hints:
            raise SchemaError(f"report field {prefix + key!r} is unknown")
    values = dict(obj)
    for name, hint in hints.items():
        if is_dataclass(hint):
            values[name] = _from_json(hint, obj[name], prefix + name)
        elif get_origin(hint) is tuple:
            if not isinstance(obj[name], list):
                raise SchemaError(f"report field {prefix + name!r} is not a JSON array")
            item = get_args(hint)[0]
            values[name] = tuple(
                _from_json(item, v, f"{prefix}{name}[{i}]") for i, v in enumerate(obj[name])
            )
    if cls is RocCurve:
        values["thresholds"] = [math.inf if t is None else t for t in obj["thresholds"]]
    return cls(**values)


def parse_report(text: str) -> ExperimentReport:
    """Inverse of :func:`report_to_json` (structured-format round trip).

    Text that is not JSON, and a field that is missing, unknown, not an
    object or a leaf of the wrong JSON type, raise SchemaError; a setting
    of the right type but out of range keeps its constructor's ConfigError.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"report is not JSON: {exc}") from None
    return _from_json(ExperimentReport, obj, "")


def _csv_cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def emit_comparison(report: ExperimentReport, fmt: str = "table") -> str:
    """Render the per-model comparison; see FORMATS.

    table: each heading over its column, percentages at 2 decimals, 'n/a'
    for undefined.
    csv: full-precision ratios, empty cell for undefined.
    structured: the complete JSON report (parse_report inverts it).
    """
    if fmt == "structured":
        return report_to_json(report)
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    csv = fmt == "csv"
    cell = _csv_cell if csv else format_percent
    rows = [["model" if csv else "Model", *(name if csv else head for name, head in COLUMNS)]]
    for r in report.results:
        rows.append([r.model, *(cell(getattr(r.metrics, name)) for name, _ in COLUMNS)])
    if csv:
        return "".join(",".join(row) + "\n" for row in rows)
    return align_columns(rows)


def align_columns(rows) -> str:
    """``rows`` of text cells as lines of aligned columns: the first column
    left-aligned, the rest right-aligned, each as wide as its widest cell,
    so every heading ends where its column ends."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join(
        "  ".join([row[0].ljust(widths[0]), *map(str.rjust, row[1:], widths[1:])]) + "\n"
        for row in rows
    )
