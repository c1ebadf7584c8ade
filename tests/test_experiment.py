"""End-to-end experiment pipeline: reports, serialization, determinism."""

from __future__ import annotations

import builtins
import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import re
import types
from dataclasses import replace

import numpy as np
import pytest

import pdvox
from conftest import REPO_ROOT, SYNTHETIC_CSV, load_script, make_dataset
from pdvox import experiment
from pdvox.dataset import CANONICAL_FEATURES, Dataset, load_dataset, write_dataset_csv
from pdvox.cli import main
from pdvox.ensemble import AdaBoostParams, BaggingParams, LeafwiseGbdtParams, LevelwiseGbdtParams
from pdvox.errors import ConfigError, SchemaError, ValidationError
from pdvox.experiment import (
    MODEL_NAMES,
    RunConfig,
    emit_comparison,
    parse_report,
    report_to_json,
    run_experiment,
)
from pdvox.resample import smote
from pdvox.svm import SvmParams
from pdvox.tree import MAX_BINS_LIMIT, TreeParams

SWEEP = load_script("scripts/run_seed_sweep.py")


def _make_csv(path, n_pos=40, n_neg=20, seed=0):
    """Small canonically-shaped file with a separable signal."""
    rng = np.random.default_rng(seed)
    n = n_pos + n_neg
    labels = np.array([1] * n_pos + [0] * n_neg)
    X = rng.normal(0.0, 1.0, size=(n, len(CANONICAL_FEATURES)))
    X += labels[:, None] * np.linspace(1.5, 0.2, len(CANONICAL_FEATURES))
    X = np.round(np.abs(X) + 0.01, 6)  # plausible positive measurements
    data = Dataset(
        ids=tuple(f"rec-{i:03d}" for i in range(n)),
        features=X,
        labels=labels,
        feature_names=CANONICAL_FEATURES,
    )
    write_dataset_csv(data, path)
    return path


def _fast_config(data_path, **kw):
    base = dict(
        data=str(data_path),
        gbdt_leafwise=LeafwiseGbdtParams(rounds=8, min_samples_leaf=2),
        gbdt_levelwise=LevelwiseGbdtParams(rounds=8, max_depth=3),
        adaboost=AdaBoostParams(rounds=8),
        bagging=BaggingParams(n_trees=8, max_depth=4),
        svm=SvmParams(max_passes=5),
    )
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return _make_csv(tmp_path_factory.mktemp("exp") / "vocal.csv")


@pytest.fixture(scope="module")
def report(csv_path):
    return run_experiment(_fast_config(csv_path))


def test_fingerprint_matches_file(csv_path, report):
    fp = report.fingerprint
    assert fp.rows == 60 and fp.positives == 40 and fp.negatives == 20
    digest = hashlib.sha256(open(csv_path, "rb").read()).hexdigest()
    assert fp.sha256 == digest


def test_run_reads_data_file_once(csv_path, monkeypatch):
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if file == str(csv_path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    report = run_experiment(_fast_config(csv_path, model="adaboost"))
    assert len(opened) == 1
    assert report.fingerprint.sha256 == digest


def test_split_summary_counts(report):
    # 20% of 40 positives = 8, 20% of 20 negatives = 4 -> 12 test rows
    assert report.split.test_rows == 12
    assert report.split.train_rows == 48
    # training split holds 32 pos / 16 neg; balancing doubles the minority
    assert report.split.train_rows_after_resample == 64


def test_results_cover_all_models_in_order(report):
    assert tuple(r.model for r in report.results) == MODEL_NAMES


def test_thresholds_by_model(report):
    by_name = {r.model: r.threshold for r in report.results}
    assert by_name["lightgbm-like"] == 0.0
    assert by_name["xgboost-like"] == 0.0
    assert by_name["adaboost"] == 0.0
    assert by_name["bagging"] == 0.5
    assert by_name["svm"] == 0.0


def test_confusion_totals_equal_test_rows(report):
    for r in report.results:
        assert r.confusion.total == report.split.test_rows


def test_report_json_round_trip(report):
    text = report_to_json(report)
    back = parse_report(text)
    assert back == report


@pytest.mark.parametrize(
    "settings",
    [{}, {"smote": "before"}, {"smote": "off"}, {"svm": SvmParams(gamma=0.5)}, {"model": "bagging"}],
    ids=["default", "smote-before", "smote-off", "svm-gamma", "single-model"],
)
def test_report_text_round_trips_byte_for_byte(csv_path, settings):
    text = report_to_json(run_experiment(_fast_config(csv_path, **settings)))
    assert report_to_json(parse_report(text)) == text


def _drop(obj, *path):
    *outer, last = path
    for key in outer:
        obj = obj[key]
    del obj[last]


def _set(obj, *path, value=1):
    *outer, last = path
    for key in outer:
        obj = obj[key]
    obj[last] = value


def _config_before_smote_modes(obj):
    """The config as reports held it before ``smote`` took a mode: two SMOTE
    booleans, a GBDT variant tag and both growth limits, and bagging's
    bootstrap hook."""
    config = obj["config"]
    config.update(smote=True, smote_before_split=False)
    config["gbdt_leafwise"].update(variant="leaf-wise", max_depth=6, min_samples_leaf=None)
    config["gbdt_levelwise"].update(variant="level-wise", max_leaves=31, min_samples_leaf=None)
    config["bagging"]["bootstrap"] = True


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda r: _drop(r, "config", "svm"), "report field 'config.svm' is missing"),
        (lambda r: _drop(r, "config", "seed"), "report field 'config.seed' is missing"),
        (lambda r: _drop(r, "split"), "report field 'split' is missing"),
        (lambda r: _drop(r, "results", 1, "roc", "fpr"),
         "report field 'results[1].roc.fpr' is missing"),
        (lambda r: _set(r, "config", "svm", "kernel"),
         "report field 'config.svm.kernel' is unknown"),
        (lambda r: _set(r, "schema"), "report field 'schema' is unknown"),
        (lambda r: _set(r, "config", "adaboost"),
         "report field 'config.adaboost' is not a JSON object"),
        (lambda r: _set(r, "results"), "report field 'results' is not a JSON array"),
        (lambda r: _set(r, "results", 0, "threshold", value="x"),
         "report field 'results[0].threshold' is not a number"),
        (lambda r: _set(r, "results", 0, "threshold", value=math.nan),
         "report field 'results[0].threshold' is not a number"),
        (lambda r: _set(r, "results", 0, "roc", "thresholds", value=3),
         "report field 'results[0].roc.thresholds' is not an array of numbers and nulls"),
        (lambda r: _set(r, "results", 0, "roc", "fpr", value=[None, 1.0]),
         "report field 'results[0].roc.fpr' is not an array of numbers"),
        (lambda r: _set(r, "results", 0, "confusion", "tp", value="x"),
         "report field 'results[0].confusion.tp' is not an integer"),
        (lambda r: _set(r, "results", 0, "metrics", "auc", value="x"),
         "report field 'results[0].metrics.auc' is not a number or null"),
        (lambda r: _set(r, "fingerprint", "rows", value="x"),
         "report field 'fingerprint.rows' is not an integer"),
        (lambda r: _set(r, "results", 0, "model", value=5),
         "report field 'results[0].model' is not a string"),
        (lambda r: _set(r, "config", "seed", value="42"),
         "report field 'config.seed' is not an integer"),
        (lambda r: _config_before_smote_modes(r), "report field 'config.smote' is not a string"),
    ],
)
def test_parse_report_names_the_bad_field(report, edit, message):
    obj = json.loads(report_to_json(report))
    edit(obj)
    with pytest.raises(SchemaError) as info:
        parse_report(json.dumps(obj))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "report is not JSON: "),
        ("{", "report is not JSON: "),
        ("not a report", "report is not JSON: "),
        ('{"config": {', "report is not JSON: "),
        ("[1, 2]", "report is not a JSON object"),
    ],
)
def test_parse_report_rejects_text_that_is_not_a_report(text, message):
    with pytest.raises(SchemaError) as info:
        parse_report(text)
    assert str(info.value).startswith(message)


def test_parse_report_keeps_constructor_errors(report):
    obj = json.loads(report_to_json(report))
    obj["config"]["svm"]["C"] = -1.0
    with pytest.raises(ConfigError, match="C"):
        parse_report(json.dumps(obj))


def test_report_json_is_sorted_and_newline_terminated(report):
    text = report_to_json(report)
    assert text.endswith("\n")
    obj = json.loads(text)
    assert list(obj) == sorted(obj)
    assert obj["toolkit_version"] == report.toolkit_version


def test_roc_infinite_anchor_serializes_as_null(report):
    obj = json.loads(report_to_json(report))
    first_thresholds = obj["results"][0]["roc"]["thresholds"]
    assert first_thresholds[0] is None
    back = parse_report(report_to_json(report))
    assert math.isinf(back.results[0].roc.thresholds[0])


def test_byte_identical_reruns(csv_path):
    a = report_to_json(run_experiment(_fast_config(csv_path)))
    b = report_to_json(run_experiment(_fast_config(csv_path)))
    assert a == b


def test_seed_changes_split(csv_path):
    a = run_experiment(_fast_config(csv_path, model="adaboost", seed=1))
    b = run_experiment(_fast_config(csv_path, model="adaboost", seed=2))
    assert report_to_json(a) != report_to_json(b)


def test_smote_off_keeps_train_rows(csv_path):
    rep = run_experiment(_fast_config(csv_path, model="adaboost", smote="off"))
    assert rep.split.train_rows_after_resample == rep.split.train_rows == 48


def test_smote_before_split_balances_whole_dataset(csv_path, tmp_path):
    # Each --smote value is the mode the report records, and the row
    # accounting shows what that mode resampled. The file's 60 rows
    # (40+/20-) split 48/12; "after" balances the 48 training rows to 64,
    # "before" balances the whole file to 80 and then splits 20% of 40 per
    # class, "off" adds none. The fingerprint always names the file.
    expected = {
        "after": (48, 12, 64),
        "before": (64, 16, 64),
        "off": (48, 12, 48),
    }
    for mode, rows in expected.items():
        out = tmp_path / f"smote-{mode}.json"
        main(["run", "--data", str(csv_path), "--model", "adaboost", "--smote", mode,
              "--format", "structured", "--out", str(out)])
        rep = parse_report(out.read_text())
        assert rep.config.smote == mode
        assert rep.fingerprint.rows == 60
        split = rep.split
        assert (split.train_rows, split.test_rows, split.train_rows_after_resample) == rows


def test_single_model_config(csv_path):
    rep = run_experiment(_fast_config(csv_path, model="svm"))
    assert [r.model for r in rep.results] == ["svm"]


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_single_model_result_matches_its_entry_in_all(csv_path, report, name):
    # A model's result does not depend on which other models run.
    alone = json.loads(report_to_json(run_experiment(_fast_config(csv_path, model=name))))
    together = json.loads(report_to_json(report))
    [entry] = [r for r in together["results"] if r["model"] == name]
    assert [json.dumps(r, sort_keys=True) for r in alone["results"]] == [
        json.dumps(entry, sort_keys=True)
    ]
    assert alone["split"] == together["split"]


def test_path_config_gives_the_str_report(csv_path):
    # a Path used to run the whole experiment, then fail to serialize
    cfg = _fast_config(csv_path, data=pathlib.Path(csv_path), model="adaboost")
    assert cfg.data == str(csv_path)
    text = report_to_json(run_experiment(cfg))
    assert text == report_to_json(run_experiment(_fast_config(csv_path, model="adaboost")))


@pytest.mark.parametrize("data", [None, b"vocal.csv", 3], ids=["none", "bytes", "int"])
def test_config_rejects_data_that_is_not_a_path(data):
    with pytest.raises(ConfigError, match="data must be a file path"):
        RunConfig(data=data)


def test_config_rejects_unknown_model(csv_path):
    with pytest.raises(ConfigError):
        RunConfig(data=str(csv_path), model="random-forest")


def test_config_rejects_bad_fraction(csv_path):
    with pytest.raises(ConfigError):
        RunConfig(data=str(csv_path), test_fraction=0.0)
    with pytest.raises(ConfigError):
        RunConfig(data=str(csv_path), test_fraction=1.0)


@pytest.mark.parametrize(
    "settings",
    [
        lambda: {"gbdt_levelwise": LevelwiseGbdtParams(max_depth=-1)},
        lambda: {"gbdt_leafwise": LeafwiseGbdtParams(max_leaves=0)},
        lambda: {"gbdt_leafwise": LeafwiseGbdtParams(max_bins=1)},
        lambda: {"gbdt_leafwise": LeafwiseGbdtParams(max_bins=300)},
        lambda: {"gbdt_levelwise": LevelwiseGbdtParams(lam=-1)},
        lambda: {"gbdt_leafwise": LeafwiseGbdtParams(min_samples_leaf=0)},
        lambda: {"smote_k": 0},
        lambda: {"smote": False},
        lambda: {"smote": "on"},
    ],
    ids=["max_depth", "max_leaves", "max_bins-low", "max_bins-high", "lam", "min_samples_leaf",
         "smote_k", "smote-bool", "smote-flag-value"],
)
def test_config_rejects_bad_gbdt_and_smote_settings(csv_path, settings):
    # caught when the config is built, not after load, split, SMOTE and
    # the fits of the models before the one that uses the setting
    with pytest.raises(ConfigError):
        RunConfig(data=str(csv_path), **settings())


@pytest.mark.parametrize(
    "make",
    [
        lambda: SvmParams(C=math.nan),
        lambda: SvmParams(C=math.inf),
        lambda: SvmParams(gamma=math.nan),
        lambda: SvmParams(gamma=math.inf),
        lambda: SvmParams(tol=math.nan),
        lambda: SvmParams(tol=math.inf),
        lambda: TreeParams(objective="newton", max_leaves=8, lam=math.nan),
        lambda: TreeParams(objective="newton", max_leaves=8, lam=math.inf),
        lambda: TreeParams(objective="newton", max_leaves=8, gamma=math.nan),
        lambda: TreeParams(objective="newton", max_leaves=8, gamma=math.inf),
        lambda: LeafwiseGbdtParams(lam=math.nan),
        lambda: LevelwiseGbdtParams(gamma=math.inf),
    ],
    ids=["svm-C-nan", "svm-C-inf", "svm-gamma-nan", "svm-gamma-inf", "svm-tol-nan",
         "svm-tol-inf", "tree-lam-nan", "tree-lam-inf", "tree-gamma-nan", "tree-gamma-inf",
         "gbdt-lam-nan", "gbdt-gamma-inf"],
)
def test_params_reject_nonfinite_values(make):
    # a NaN fails no `x <= 0` check; such a run used to end in a degenerate
    # model and a report that JSON output could not encode
    with pytest.raises(ConfigError, match="must be finite"):
        make()


_INTEGER_SETTINGS = {
    "gbdt-rounds": lambda v: LeafwiseGbdtParams(rounds=v),
    "gbdt-max_leaves": lambda v: LeafwiseGbdtParams(max_leaves=v),
    "gbdt-max_depth": lambda v: LevelwiseGbdtParams(max_depth=v),
    "gbdt-min_samples_leaf": lambda v: LevelwiseGbdtParams(min_samples_leaf=v),
    "gbdt-max_bins": lambda v: LevelwiseGbdtParams(max_bins=v),
    "tree-max_leaves": lambda v: TreeParams(objective="newton", max_leaves=v),
    "tree-max_depth": lambda v: TreeParams(objective="gini", max_depth=v),
    "tree-min_samples_leaf": lambda v: TreeParams(objective="gini", max_depth=3, min_samples_leaf=v),
    "adaboost-rounds": lambda v: AdaBoostParams(rounds=v),
    "bagging-n_trees": lambda v: BaggingParams(n_trees=v),
    "bagging-max_depth": lambda v: BaggingParams(max_depth=v),
    "svm-max_passes": lambda v: SvmParams(max_passes=v),
    # balanced, so these check their settings before the early return
    "smote-k_neighbors": lambda v: smote(make_dataset([[0.0], [1.0]], [0, 1]), k_neighbors=v),
    "smote-seed": lambda v: smote(make_dataset([[0.0], [1.0]], [0, 1]), seed=v),
    "run-smote_k": lambda v: RunConfig(data="unused.csv", smote_k=v),
    "run-seed": lambda v: RunConfig(data="unused.csv", seed=v),
}


@pytest.mark.parametrize("value", [math.nan, 2.5, True], ids=["nan", "2.5", "bool"])
@pytest.mark.parametrize("make", list(_INTEGER_SETTINGS.values()), ids=list(_INTEGER_SETTINGS))
def test_integer_settings_reject_nan_and_fractions(make, value):
    # NaN fails no `x < 1` check, 2.5 used to fail later as a bare
    # TypeError from range(), and True is an int to Python, so a report
    # recorded "seed": true
    with pytest.raises(ConfigError, match="must be an integer"):
        make(value)


_FLOAT_SETTINGS = {
    "gbdt-learning_rate": lambda v: LeafwiseGbdtParams(learning_rate=v),
    "gbdt-lam": lambda v: LeafwiseGbdtParams(lam=v),
    "gbdt-gamma": lambda v: LevelwiseGbdtParams(gamma=v),
    "tree-lam": lambda v: TreeParams(objective="newton", max_leaves=8, lam=v),
    "tree-gamma": lambda v: TreeParams(objective="newton", max_leaves=8, gamma=v),
    "svm-C": lambda v: SvmParams(C=v),
    "svm-gamma": lambda v: SvmParams(gamma=v),
    "svm-tol": lambda v: SvmParams(tol=v),
    "run-test_fraction": lambda v: RunConfig(data="unused.csv", test_fraction=v),
}


@pytest.mark.parametrize("value", [True, np.True_, "0.1", 10**400],
                         ids=["bool", "numpy-bool", "str", "int-past-float-range"])
@pytest.mark.parametrize("setting", list(_FLOAT_SETTINGS))
def test_float_settings_reject_bools_and_strings(setting, value):
    # True compares as 1, so it passed every range check and a report
    # recorded "learning_rate": true; a string failed as a bare TypeError,
    # and 10**400 passed every comparison, then failed in float() as a
    # bare OverflowError
    name = setting.split("-", 1)[1]
    with pytest.raises(ConfigError, match=f"{name} must be"):
        _FLOAT_SETTINGS[setting](value)


def test_float_settings_accept_numpy_floats():
    # each is stored as a Python float: a numpy float32 in the config made
    # the report fail to serialize, after the whole run
    for setting, make in _FLOAT_SETTINGS.items():
        value = getattr(make(np.float32(0.5)), setting.split("-", 1)[1])
        assert value == 0.5 and type(value) is float, setting


def test_numpy_and_int_float_settings_give_the_plain_float_report(csv_path):
    def text(test_fraction, C):
        cfg = _fast_config(csv_path, model="svm", test_fraction=test_fraction,
                           svm=SvmParams(C=C, max_passes=5))
        return report_to_json(run_experiment(cfg))

    plain = text(0.25, 2.0)
    assert '"C": 2.0' in plain
    assert text(np.float32(0.25), np.float32(2.0)) == plain
    assert text(0.25, 2) == plain  # an int setting is written as 2.0


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: RunConfig(data="unused.csv", seed="42"), "seed must be an integer, got '42'"),
        (lambda: RunConfig(data="unused.csv", smote_k=0), "smote_k must be an integer >= 1, got 0"),
        (lambda: LeafwiseGbdtParams(max_bins=1),
         f"max_bins must be an integer >= 2 and <= {MAX_BINS_LIMIT}, got 1"),
    ],
    ids=["unbounded", "one-sided", "two-sided"],
)
def test_integer_setting_message_names_only_finite_bounds(make, message):
    with pytest.raises(ConfigError) as info:
        make()
    assert str(info.value) == message


def test_integer_settings_accept_numpy_integers():
    # each is stored as a Python int: a numpy integer in the config made
    # the report fail to serialize, after the whole run
    for setting, make in _INTEGER_SETTINGS.items():
        if setting.startswith("smote-"):
            continue  # smote stores no settings; see the next test
        value = getattr(make(np.int64(3)), setting.split("-", 1)[1])
        assert value == 3 and type(value) is int, setting


def test_smote_takes_numpy_integers():
    rng = np.random.default_rng(5)
    d = make_dataset(rng.normal(size=(12, 3)), [0] * 8 + [1] * 4)
    plain = smote(d, 3, 7)
    numpy_ints = smote(d, np.int64(3), np.int64(7))
    assert plain.n_records == numpy_ints.n_records == 16
    assert plain.ids == numpy_ints.ids
    assert np.array_equal(plain.features, numpy_ints.features)
    assert np.array_equal(plain.labels, numpy_ints.labels)


def test_numpy_integer_settings_give_the_plain_int_report(csv_path):
    plain = _fast_config(csv_path, model="adaboost", seed=42, adaboost=AdaBoostParams(rounds=3))
    numpy_ints = _fast_config(
        csv_path, model="adaboost", seed=np.int64(42), adaboost=AdaBoostParams(rounds=np.int64(3))
    )
    assert report_to_json(run_experiment(numpy_ints)) == report_to_json(run_experiment(plain))


def test_config_rejects_swapped_variants(csv_path):
    with pytest.raises(ConfigError, match="gbdt_leafwise must be LeafwiseGbdtParams"):
        RunConfig(data=str(csv_path), gbdt_leafwise=LevelwiseGbdtParams())


_SECTIONS = {
    "gbdt_leafwise": LeafwiseGbdtParams,
    "gbdt_levelwise": LevelwiseGbdtParams,
    "adaboost": AdaBoostParams,
    "bagging": BaggingParams,
    "svm": SvmParams,
}


@pytest.mark.parametrize("section", list(_SECTIONS))
def test_each_params_section_rejects_another_sections_params(csv_path, section):
    # caught, with the field named, when the config is built, not as a bare
    # AttributeError inside the fit that reads the section
    sections = list(_SECTIONS)
    other = _SECTIONS[sections[(sections.index(section) + 1) % len(sections)]]()
    with pytest.raises(ConfigError) as info:
        RunConfig(data=str(csv_path), **{section: other})
    assert str(info.value) == (
        f"{section} must be {_SECTIONS[section].__name__}, got {type(other).__name__}"
    )


def test_learners_call_through_module_names(csv_path, tmp_path, monkeypatch):
    # Wrappers set on experiment's names (as the benchmark tracer sets
    # them) must see every fit and score; fit_gbdt gets its params as the
    # second positional argument. Fits may run in forked workers, so the
    # spies log to a file, and fits may finish in any order.
    log = tmp_path / "calls.log"

    def spy(name):
        real = getattr(experiment, name)

        def wrapper(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write((args[1].variant if name == "fit_gbdt" else name) + "\n")
            return real(*args, **kwargs)

        return wrapper

    scorers = ("ensemble_scores", "decision_scores")
    for name in ("fit_gbdt", "fit_adaboost", "fit_bagging", "fit_svm", *scorers):
        monkeypatch.setattr(experiment, name, spy(name))
    run_experiment(_fast_config(csv_path))
    calls = log.read_text(encoding="utf-8").splitlines()
    assert sorted(c for c in calls if c not in scorers) == [
        "fit_adaboost", "fit_bagging", "fit_svm", "leaf-wise", "level-wise",
    ]
    assert [c for c in calls if c in scorers] == ["ensemble_scores"] * 4 + ["decision_scores"]


def _structured(cfg):
    return report_to_json(run_experiment(cfg))


def test_one_cpu_fits_in_process_with_the_same_bytes(monkeypatch):
    # With one usable CPU the fits run in this process; the report must be
    # the bytes the worker processes give, and each model's result the one
    # it gets when it runs alone.
    cfg = RunConfig(data=str(SYNTHETIC_CSV), seed=42)
    pids = []
    real_fit_svm = experiment.fit_svm

    def fit_svm(*args, **kwargs):
        pids.append(os.getpid())
        return real_fit_svm(*args, **kwargs)

    monkeypatch.setattr(experiment, "fit_svm", fit_svm)
    in_workers = run_experiment(cfg)
    # a fit in a worker appends to the worker's copy of the list
    assert pids == ([] if len(os.sched_getaffinity(0)) > 1 else [os.getpid()])
    pids.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert report_to_json(run_experiment(cfg)) == report_to_json(in_workers)
    assert pids == [os.getpid()]
    for result in in_workers.results:
        assert run_experiment(replace(cfg, model=result.model)).results == (result,)


def test_no_affinity_mask_fits_in_process_with_the_same_bytes(csv_path, monkeypatch):
    # where os.sched_getaffinity does not exist (not Linux) the fits run in
    # this process, and the report is the bytes the worker processes give
    cfg = _fast_config(csv_path)
    in_workers = _structured(cfg)
    pids = []
    real_fit_svm = experiment.fit_svm

    def fit_svm(*args, **kwargs):
        pids.append(os.getpid())
        return real_fit_svm(*args, **kwargs)

    monkeypatch.setattr(experiment, "fit_svm", fit_svm)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _structured(cfg) == in_workers
    assert pids == [os.getpid()]


def test_fit_order_names_every_learner_once():
    # the pool takes the fits in this order; a learner left out would
    # raise KeyError on the worker path only
    assert sorted(experiment._FIT_ORDER) == sorted(MODEL_NAMES)


@pytest.mark.parametrize("first, second", [("bagging", "svm"), ("adaboost", "bagging")])
def test_first_failing_learner_in_canonical_order_raises(csv_path, monkeypatch, first, second):
    # workers start bagging's fit first, so in the second case bagging
    # fails first in time; adaboost comes first in canonical order
    def failing(name):
        def fit(*args, **kwargs):
            raise ValidationError(f"no {name}")

        return fit

    for name in (first, second):
        monkeypatch.setattr(experiment, f"fit_{name}", failing(name))
    with pytest.raises(ValidationError, match=rf"^fit {first}: no {first}$"):
        run_experiment(_fast_config(csv_path))
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_run(csv_path):
    run_experiment(_fast_config(csv_path))
    assert multiprocessing.active_children() == []


def test_run_inside_a_pool_worker_gives_the_same_bytes(csv_path):
    # a Pool worker is daemonic, and a daemonic process may not fork
    # workers of its own: there the fits run in process
    cfg = _fast_config(csv_path)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        text = pool.apply_async(_structured, (cfg,)).get(timeout=120)
    assert text == _structured(cfg)


def test_fit_warnings_reach_the_caller(tmp_path):
    data = load_dataset(SYNTHETIC_CSV)
    features = data.features.copy()
    features[:, CANONICAL_FEATURES.index("MDVP:Fo(Hz)")] = 150.0
    flat = tmp_path / "flat.csv"
    write_dataset_csv(replace(data, features=features), flat)
    expected = re.escape("constant columns standardize to zero: ['MDVP:Fo(Hz)']")
    with pytest.warns(UserWarning, match=expected):
        run_experiment(_fast_config(flat))


def test_top_level_exports_only_the_entry_points_and_errors():
    exported = {
        name for name, value in vars(pdvox).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert exported == {
        "RunConfig", "run_experiment", "emit_comparison", "parse_report",
        "PdvoxError", "SchemaError", "ValidationError", "ConfigError",
    }


def test_missing_file_raises_oserror():
    with pytest.raises(OSError):
        run_experiment(RunConfig(data="/nonexistent/nowhere.csv"))


def test_emit_table_layout(report):
    text = emit_comparison(report, "table")
    lines = text.splitlines()
    assert lines[0] == "Model          Accuracy %  Sensitivity %  Specificity %  AUC %  F1-score %"
    assert len(lines) == 1 + len(MODEL_NAMES)
    assert lines[1].startswith("lightgbm-like")
    # every percentage cell renders with two decimals or as n/a
    for line in lines[1:]:
        cells = line.split()
        for cell in cells[1:]:
            assert cell == "n/a" or "." in cell


def test_table_headings_sit_over_their_columns(report):
    # Model names start under "Model" and each metric cell ends where its
    # heading ends, also with a cell wider than its heading (an AUC of
    # 100.00 under "AUC %") and with "n/a" cells
    first, second = report.results[:2]
    edited = (
        replace(first, metrics=replace(first.metrics, auc=1.0)),
        replace(second, metrics=replace(second.metrics, sensitivity=None, f1=None)),
        *report.results[2:],
    )
    for rep in (report, replace(report, results=edited), replace(report, results=edited[:1])):
        header, *rows = emit_comparison(rep, "table").splitlines()
        assert header.startswith("Model ")
        headings = ("Accuracy %", "Sensitivity %", "Specificity %", "AUC %", "F1-score %")
        ends = [header.index(heading) + len(heading) for heading in headings]
        for row in rows:
            cells = list(re.finditer(r"\S+", row))
            assert cells[0].start() == 0
            assert [cell.end() for cell in cells[1:]] == ends, (header, row)


def test_emit_csv_layout(report):
    text = emit_comparison(report, "csv")
    lines = text.splitlines()
    assert lines[0] == "model,accuracy,sensitivity,specificity,auc,f1"
    assert len(lines) == 1 + len(MODEL_NAMES)
    for line in lines[1:]:
        assert len(line.split(",")) == 6


def test_emit_structured_is_full_report(report):
    assert emit_comparison(report, "structured") == report_to_json(report)


def test_emit_unknown_format(report):
    with pytest.raises(ConfigError):
        emit_comparison(report, "yaml")


def test_stage_prefix_on_validation_errors(tmp_path):
    # a file whose minority class has a single row fails inside resampling,
    # and the error must say which stage raised it
    rng = np.random.default_rng(1)
    X = np.round(np.abs(rng.normal(size=(30, 22))) + 0.01, 6)
    data = Dataset(
        ids=tuple(f"r{i}" for i in range(30)),
        features=X,
        labels=np.array([1] * 29 + [0]),
        feature_names=CANONICAL_FEATURES,
    )
    path = tmp_path / "lopsided.csv"
    write_dataset_csv(data, path)
    with pytest.raises(Exception, match="resample|split"):
        run_experiment(_fast_config(path, model="adaboost", smote="before"))


def test_seed_sweep_table_has_a_column_per_metric_and_a_row_per_model(csv_path, capsys):
    assert SWEEP.main(["--data", str(csv_path), "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "medians over 1 seeds (42..42), smote=after"
    assert lines[1] == "model          accuracy  sensitivity  specificity    auc     f1"
    rows = [line.split() for line in lines[2:-2]]
    assert [row[0] for row in rows] == list(MODEL_NAMES)
    assert all(len(row) == 6 for row in rows)
    assert lines[-2].startswith("per-seed compare time: ")
    assert lines[-1].startswith("structured reports sha256: ")


def test_seed_sweep_digest_ignores_how_the_data_path_is_spelt(tmp_path, monkeypatch, capsys):
    copy = tmp_path / "copy.csv"
    copy.write_bytes(SYNTHETIC_CSV.read_bytes())
    monkeypatch.chdir(REPO_ROOT)
    printed = set()
    for spelling in ("data/synthetic_vocal.csv", "./data/synthetic_vocal.csv",
                     str(SYNTHETIC_CSV), str(copy)):
        assert SWEEP.main(["--data", spelling, "--seeds", "1"]) == 0
        printed.add(capsys.readouterr().out.splitlines()[-1])
    assert len(printed) == 1


def test_seed_sweep_table_rows_are_as_wide_as_its_header(report, monkeypatch, capsys):
    # a median of 100.00 is six characters, one more than "95.52"
    first = report.results[0]
    perfect = replace(first, metrics=replace(first.metrics, auc=1.0))
    perfect_report = replace(report, results=(perfect, *report.results[1:]))
    monkeypatch.setattr(SWEEP, "run_experiment", lambda cfg: perfect_report)
    assert SWEEP.main(["--data", "unused.csv", "--seeds", "1"]) == 0
    table = capsys.readouterr().out.splitlines()[1:-2]
    assert "100.00" in table[1]
    assert {len(line) for line in table} == {len(table[0])}


def test_benchmark_count_hooks_read_what_the_package_returns(csv_path, monkeypatch):
    # perfbench/tracer.py counts from the objects its wrapped calls return,
    # one hook per LAYERS entry; a hook that reads a field a model no longer
    # has would otherwise fail only in a traced benchmark run. The fits run
    # in process, where the hooks see them.
    tracer = load_script("perfbench/tracer.py")
    hooks = {counter.__name__ for *_, counter in tracer.LAYERS if counter is not None}
    ran = set()

    def seen(counter):
        def hook(*args):
            counter(*args)
            ran.add(counter.__name__)
        return hook

    tracer.LAYERS = tuple((module, attr, name, counter and seen(counter))
                          for module, attr, name, counter in tracer.LAYERS)
    monkeypatch.setattr(experiment, "_workers", lambda n_fits: 0)
    traced = tracer.Tracer()
    traced.install()
    try:
        traced.begin_op(0)
        run_experiment(_fast_config(csv_path))
        traced.end_op()
    finally:
        traced.uninstall()
    assert ran == hooks
    counts = traced.counts[0]
    assert counts["ensemble.gbdt_rounds"] == 16
    assert 0 < counts["ensemble.adaboost_stumps"] <= 8
    assert all(value > 0 for key, value in counts.items() if key != "svm.unconverged")
