"""Experiment orchestration: one config in, one reproducible report out.

Pipeline order: load -> (``smote="before"``: whole-dataset resample) ->
stratified split -> (``smote="after"``: training-split resample) -> fit
the selected models -> score the untouched test split -> metrics. Every
stochastic stage draws from a named substream of the single master seed,
and the report embeds the resolved config plus a dataset fingerprint, so
a report can be regenerated bit-identically from its own contents.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import get_type_hints

import numpy as np

from . import __version__
from .dataset import Dataset, SplitPair, check_float, check_int_field, load_dataset, stratified_split
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
from .errors import ConfigError, PdvoxError, SchemaError, ValidationError
from .metrics import (
    ConfusionMatrix,
    MetricSet,
    RocCurve,
    classification_metrics,
    confusion,
    format_percent,
    roc_auc,
)
from .resample import SmoteConfig, smote
from .svm import SvmParams, decision_scores, fit_svm


#: The one place that knows the learners: name -> (fit on the training
#: split, test-set scorer, confusion threshold), in the canonical order of
#: "all" runs and comparison tables. Each entry looks ``fit_*``,
#: ``ensemble_scores`` and ``decision_scores`` up in this module at call
#: time, so a wrapper set on one of those names sees every call.
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

FORMATS = ("table", "csv", "structured")

SMOTE_MODES = ("after", "before", "off")

TABLE_HEADER = "Model  Accuracy %  Sensitivity %  Specificity %  AUC %  F1-score %"


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
        if self.model != "all" and self.model not in MODEL_NAMES:
            raise ConfigError(
                f"model must be 'all' or one of {MODEL_NAMES}, got {self.model!r}"
            )
        if self.smote not in SMOTE_MODES:
            raise ConfigError(f"smote must be one of {SMOTE_MODES}, got {self.smote!r}")
        check_float("test_fraction", self.test_fraction, gt=0, lt=1)
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


def _fit_and_score(name: str, cfg: RunConfig, train: Dataset, test: Dataset) -> ModelResult:
    fit, score, threshold = _LEARNERS[name]
    scores = score(fit(train, cfg), test.features)
    cm = confusion(scores, test.labels, threshold)
    curve, auc = roc_auc(scores, test.labels)
    return ModelResult(
        model=name,
        threshold=threshold,
        confusion=cm,
        metrics=classification_metrics(cm).with_auc(auc),
        roc=curve,
    )


def _load(path) -> tuple[Dataset, str]:
    """Parse the data file and fingerprint the very bytes that were parsed."""
    with open(path, "rb") as handle:
        content = handle.read()
    return load_dataset(path, content), hashlib.sha256(content).hexdigest()


def _require_both_classes(pair: SplitPair, test_fraction: float) -> None:
    """Every model is fitted on both classes and scored (AUC) on both, so a
    partition missing a class fails here, before any fit."""
    names = ("class 0 (healthy)", "class 1 (Parkinson's)")
    for side, part in (("training", pair.train), ("test", pair.test)):
        missing = [name for name, count in zip(names, part.class_counts()) if count == 0]
        if missing:
            raise ValidationError(
                f"the {side} partition has no {' or '.join(missing)} rows "
                f"at test fraction {test_fraction}"
            )


def run_experiment(cfg: RunConfig) -> ExperimentReport:
    with _stage("load"):
        data, digest = _load(cfg.data)
    n_neg, n_pos = data.class_counts()
    fingerprint = DatasetFingerprint(
        rows=data.n_records, positives=n_pos, negatives=n_neg, sha256=digest
    )
    if cfg.smote == "before":
        with _stage("resample"):
            data = smote(data, SmoteConfig(k_neighbors=cfg.smote_k, seed=cfg.seed))
    with _stage("split"):
        pair = stratified_split(data, cfg.test_fraction, cfg.seed)
        _require_both_classes(pair, cfg.test_fraction)
    train = pair.train
    if cfg.smote == "after":
        with _stage("resample"):
            train = smote(train, SmoteConfig(k_neighbors=cfg.smote_k, seed=cfg.seed))
    results = []
    for name in cfg.selected_models():
        with _stage(f"fit {name}"):
            results.append(_fit_and_score(name, cfg, train, pair.test))
    return ExperimentReport(
        toolkit_version=__version__,
        config=cfg,
        fingerprint=fingerprint,
        split=SplitSummary(
            train_rows=pair.train.n_records,
            test_rows=pair.test.n_records,
            train_rows_after_resample=train.n_records,
        ),
        results=tuple(results),
    )


def _roc_dict(curve: RocCurve) -> dict:
    return {
        # the (0,0) anchor's +inf threshold is stored as null (strict JSON)
        "thresholds": [None if math.isinf(t) else float(t) for t in curve.thresholds],
        "fpr": [float(v) for v in curve.fpr],
        "tpr": [float(v) for v in curve.tpr],
    }


def report_to_json(report: ExperimentReport) -> str:
    obj = {
        "toolkit_version": report.toolkit_version,
        "config": asdict(report.config),
        "fingerprint": asdict(report.fingerprint),
        "split": asdict(report.split),
        "results": [
            {
                "model": r.model,
                "threshold": r.threshold,
                "confusion": asdict(r.confusion),
                "metrics": asdict(r.metrics),
                "roc": _roc_dict(r.roc),
            }
            for r in report.results
        ],
    }
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _is_number(value) -> bool:
    """A JSON number that is a finite float. ``json.loads`` also reads NaN,
    Infinity and integers too large for a float; the comparisons fail them."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max
    )


#: What a JSON leaf must be, by its dataclass field's annotation: (its
#: description, its test). Other annotations are sections, or settings
#: such as ``float | str`` that only their constructor checks.
_LEAVES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", _is_number),
    float | None: ("a number or null", lambda v: v is None or _is_number(v)),
    str: ("a string", lambda v: isinstance(v, str)),
    np.ndarray: ("an array of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
}

#: ROC thresholds hold null for the +inf anchor (see ``_roc_dict``).
_THRESHOLDS = (
    "an array of numbers and nulls",
    lambda v: isinstance(v, list) and all(t is None or _is_number(t) for t in v),
)


def _json_object(cls, obj, path: str, **rules) -> dict:
    """``obj``, once it is a JSON object with exactly the fields of the
    dataclass ``cls``, each leaf of the JSON type its annotation asks
    (:data:`_LEAVES`, or ``rules[field]``); else a SchemaError naming
    ``path`` ("" for the whole report) or the first field at fault."""
    if not isinstance(obj, dict):
        where = f"report field {path!r}" if path else "report"
        raise SchemaError(f"{where} is not a JSON object")
    hints = get_type_hints(cls)
    prefix = f"{path}." if path else ""
    for name, hint in hints.items():
        if name not in obj:
            raise SchemaError(f"report field {prefix + name!r} is missing")
        rule = rules.get(name) or _LEAVES.get(hint)
        if rule and not rule[1](obj[name]):
            raise SchemaError(f"report field {prefix + name!r} is not {rule[0]}")
    for key in obj:
        if key not in hints:
            raise SchemaError(f"report field {prefix + key!r} is unknown")
    return obj


def parse_report(text: str) -> ExperimentReport:
    """Inverse of :func:`report_to_json` (structured-format round trip).

    Text that is not JSON, and a field that is missing, unknown, not an
    object or a leaf of the wrong JSON type, raise SchemaError; a setting
    of the right type but out of range keeps its constructor's ConfigError.
    """
    try:
        obj = _json_object(ExperimentReport, json.loads(text), "")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"report is not JSON: {exc}") from None
    config = _json_object(RunConfig, obj["config"], "config")
    sections = {
        name: cls(**_json_object(cls, config[name], f"config.{name}"))
        for name, cls in _PARAMS_SECTIONS.items()
    }
    if not isinstance(obj["results"], list):
        raise SchemaError("report field 'results' is not a JSON array")
    results = []
    for i, r in enumerate(obj["results"]):
        path = f"results[{i}]"
        r = _json_object(ModelResult, r, path)
        roc = _json_object(RocCurve, r["roc"], f"{path}.roc", thresholds=_THRESHOLDS)
        results.append(
            ModelResult(
                model=r["model"],
                threshold=float(r["threshold"]),
                confusion=ConfusionMatrix(
                    **_json_object(ConfusionMatrix, r["confusion"], f"{path}.confusion")
                ),
                metrics=MetricSet(**_json_object(MetricSet, r["metrics"], f"{path}.metrics")),
                roc=RocCurve(
                    thresholds=[math.inf if t is None else t for t in roc["thresholds"]],
                    fpr=roc["fpr"],
                    tpr=roc["tpr"],
                ),
            )
        )
    return ExperimentReport(
        toolkit_version=obj["toolkit_version"],
        config=RunConfig(**{**config, **sections}),
        fingerprint=DatasetFingerprint(
            **_json_object(DatasetFingerprint, obj["fingerprint"], "fingerprint")
        ),
        split=SplitSummary(**_json_object(SplitSummary, obj["split"], "split")),
        results=tuple(results),
    )


def _csv_cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def emit_comparison(report: ExperimentReport, fmt: str = "table") -> str:
    """Render the per-model comparison; see FORMATS.

    table: fixed header, percentages at 2 decimals, 'n/a' for undefined.
    csv: full-precision ratios, empty cell for undefined.
    structured: the complete JSON report (parse_report inverts it).
    """
    if fmt == "structured":
        return report_to_json(report)
    if fmt == "csv":
        lines = ["model,accuracy,sensitivity,specificity,auc,f1"]
        for r in report.results:
            m = r.metrics
            lines.append(
                ",".join(
                    (
                        r.model,
                        _csv_cell(m.accuracy),
                        _csv_cell(m.sensitivity),
                        _csv_cell(m.specificity),
                        _csv_cell(m.auc),
                        _csv_cell(m.f1),
                    )
                )
            )
        return "\n".join(lines) + "\n"
    if fmt == "table":
        name_width = max(5, *(len(r.model) for r in report.results)) if report.results else 5
        lines = [TABLE_HEADER]
        for r in report.results:
            m = r.metrics
            lines.append(
                f"{r.model:<{name_width}}  "
                f"{format_percent(m.accuracy):>10}  "
                f"{format_percent(m.sensitivity):>13}  "
                f"{format_percent(m.specificity):>13}  "
                f"{format_percent(m.auc):>5}  "
                f"{format_percent(m.f1):>10}"
            )
        return "\n".join(lines) + "\n"
    raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
