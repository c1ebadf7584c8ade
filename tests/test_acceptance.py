"""End-to-end acceptance checks.

Every test in this module is marked ``acceptance`` and shows up as one
PASS/FAIL/SKIP line in the terminal summary (hook in conftest).  They pin
the released guarantees of the toolkit: the metric bands the default
pipeline reaches on the vocal-features data, oracle equivalence for the
scoring and routing primitives, resampling geometry, optimizer
invariants, and bit-level reproducibility.

The band tests run against the evaluation file resolved by conftest
(``PDVOX_DATA``, else ``data/parkinsons.data`` if fetched, else the
committed synthetic stand-in).  Tests that are only meaningful on the
original recordings file skip with instructions when it is absent.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import brute_force_auc, make_dataset, recover_interpolation_u, walk_tree_naive
from pdvox.dataset import load_dataset, stratified_split
from pdvox.ensemble import (
    AdaBoostParams,
    LeafwiseGbdtParams,
    LevelwiseGbdtParams,
    fit_adaboost,
    fit_gbdt,
)
from pdvox.experiment import MODEL_NAMES, RunConfig, parse_report, report_to_json, run_experiment
from pdvox.metrics import ConfusionMatrix, classification_metrics, format_percent, roc_auc
from pdvox.resample import smote
from pdvox.svm import SvmParams, decision_scores, fit_svm
from pdvox.tree import TreeParams, build_bins, fit_cart, predict_many

pytestmark = pytest.mark.acceptance

SWEEP_SEEDS = tuple(range(42, 52))

# median-over-seeds floors for the default pipeline, as (accuracy, auc);
# None means the metric is not constrained for that model
METRIC_FLOORS = {
    "lightgbm-like": (0.88, 0.90),
    "xgboost-like": (0.88, 0.90),
    "adaboost": (0.85, None),
    "bagging": (0.83, None),
    "svm": (0.78, 0.82),
}
BOOSTED = ("lightgbm-like", "xgboost-like", "adaboost")

# SHA-256 over seeds 42..51 of each model's confusion counts and ROC arrays
# on the committed synthetic file (whose own SHA-256 is SYNTHETIC_SHA256),
# as the structured report serializes them. Any change in tree shape,
# split choice or score moves a digest, even one the metric floors absorb.
SYNTHETIC_SHA256 = "a9dca3c8505cbedefdb6c3788961e6b4920ffb86ad861c1a8d7340fb9c339030"
PINNED_RESULT_DIGESTS = {
    "lightgbm-like": "1927ba7372970dbdce19559292d5090d1096eeb9715389c3eaaa18fc4be1f250",
    "xgboost-like": "0e777c2fef013da8becd9d8809c665498e2bf01b966f68258a8097d7426bb351",
    "adaboost": "bacbac1426d54283dd99e07ee33de9a58f8805a6ca0286c8bb19caa83d04e077",
    "bagging": "a45158802a9199c05cbb6af141f02f1b354e0140a2e6aac5b447c6cc09c99afc",
    "svm": "ab53b26f1195cc8a908668daef27732f8b926e700c6fbfdbd27e4401a5079846",
}
# SHA-256 over the whole structured reports at seeds 42..51, in seed order,
# with the config's data path written as "data/synthetic_vocal.csv": the
# digest scripts/run_seed_sweep.py prints for that file. It also pins how
# the config, fingerprint and split accounting are serialized.
PINNED_REPORTS_DIGEST = "7cc54081be0c384bca52c176bd9b764f046be31bfb35f81a77a887c7ae7a021f"


@pytest.fixture(scope="module")
def seed_sweep(data_path):
    """Run the full five-model comparison at each sweep seed.

    Returns per-model accuracy/AUC lists (seed order), per-model digests
    of the serialized confusion counts and ROC arrays over all seeds, each
    seed's structured report text, a digest of the whole reports (data path
    normalised), the data file's SHA-256, and the wall time of the first
    full comparison.
    """
    acc = {name: [] for name in MODEL_NAMES}
    auc = {name: [] for name in MODEL_NAMES}
    digests = {name: hashlib.sha256() for name in MODEL_NAMES}
    reports = hashlib.sha256()
    texts = []
    compare_seconds = None
    for seed in SWEEP_SEEDS:
        cfg = RunConfig(data=str(data_path), seed=seed)
        started = time.perf_counter()
        report = run_experiment(cfg)
        elapsed = time.perf_counter() - started
        if compare_seconds is None:
            compare_seconds = elapsed
        for result in report.results:
            acc[result.model].append(result.metrics.accuracy)
            auc[result.model].append(result.metrics.auc)
        texts.append(report_to_json(report))
        for entry in json.loads(texts[-1])["results"]:
            pinned = [entry["confusion"], entry["roc"]]
            digests[entry["model"]].update(json.dumps(pinned, sort_keys=True).encode())
        normalised = replace(report, config=replace(cfg, data="data/synthetic_vocal.csv"))
        reports.update(report_to_json(normalised).encode())
    return {
        "data": data_path,
        "data_sha256": report.fingerprint.sha256,
        "acc": acc,
        "auc": auc,
        "digests": {name: h.hexdigest() for name, h in digests.items()},
        "texts": texts,
        "reports_digest": reports.hexdigest(),
        "compare_seconds": compare_seconds,
    }


def _assert_bands(sweep) -> None:
    failures = []
    for model, (acc_floor, auc_floor) in METRIC_FLOORS.items():
        med_acc = statistics.median(sweep["acc"][model])
        if med_acc < acc_floor:
            failures.append(f"{model}: median accuracy {med_acc:.4f} < {acc_floor}")
        if auc_floor is not None:
            med_auc = statistics.median(sweep["auc"][model])
            if med_auc < auc_floor:
                failures.append(f"{model}: median AUC {med_auc:.4f} < {auc_floor}")
    assert not failures, f"on {sweep['data']}: " + "; ".join(failures)


def test_default_pipeline_metric_bands(seed_sweep):
    """Median test metrics over seeds 42..51 stay above the released floors."""
    _assert_bands(seed_sweep)


def test_metric_bands_on_original_recordings(uci_path, seed_sweep):
    """Same floors, explicitly on the original recordings file."""
    assert seed_sweep["data"] == uci_path
    _assert_bands(seed_sweep)


def test_boosted_models_lead_svm_on_auc(seed_sweep):
    """The strongest boosted model's median AUC is at least the SVM's."""
    best_boosted = max(statistics.median(seed_sweep["auc"][m]) for m in BOOSTED)
    svm_auc = statistics.median(seed_sweep["auc"]["svm"])
    assert best_boosted >= svm_auc, (
        f"best boosted median AUC {best_boosted:.4f} < svm {svm_auc:.4f}"
    )


@pytest.mark.blas_pinned
def test_sweep_results_match_pinned_digests(seed_sweep):
    """Confusion counts and ROC arrays at seeds 42..51 are bit-identical to
    the pinned ones on the committed synthetic file."""
    if seed_sweep["data_sha256"] != SYNTHETIC_SHA256:
        pytest.skip(f"digests are pinned for the synthetic file, not {seed_sweep['data']}")
    drifted = [
        name
        for name, digest in PINNED_RESULT_DIGESTS.items()
        if seed_sweep["digests"][name] != digest
    ]
    assert not drifted, f"results drifted from the pinned digests: {drifted}"


@pytest.mark.blas_pinned
def test_sweep_reports_match_pinned_digest(seed_sweep):
    """The whole structured reports at seeds 42..51 (config, fingerprint,
    split accounting and results) are byte-identical to the pinned ones on
    the committed synthetic file."""
    if seed_sweep["data_sha256"] != SYNTHETIC_SHA256:
        pytest.skip(f"digest is pinned for the synthetic file, not {seed_sweep['data']}")
    assert seed_sweep["reports_digest"] == PINNED_REPORTS_DIGEST


def test_sweep_reports_round_trip_byte_for_byte(seed_sweep):
    """Parsing each seed's structured report and writing it again gives the
    same text, byte for byte."""
    for seed, text in zip(SWEEP_SEEDS, seed_sweep["texts"]):
        assert report_to_json(parse_report(text)) == text, f"seed {seed}"


def test_full_comparison_fits_time_budget(seed_sweep):
    """One five-model comparison completes in under 30 seconds."""
    assert seed_sweep["compare_seconds"] < 30.0


def test_auc_matches_pairwise_oracle():
    """Rank-sum AUC equals brute-force pair counting on 1000 random sets,
    a third of them with heavily tied scores."""
    rng = np.random.default_rng(990100)
    for trial in range(1000):
        n = int(rng.integers(2, 60))
        labels = np.zeros(n, dtype=np.int64)
        labels[: max(1, int(rng.integers(1, n)))] = 1
        rng.shuffle(labels)
        style = trial % 3
        if style == 0:
            scores = rng.normal(size=n)
        elif style == 1:
            # few distinct values -> many ties across and within classes
            scores = rng.integers(0, 4, size=n).astype(np.float64)
        else:
            scores = np.round(rng.normal(size=n), 1)
        _, auc = roc_auc(scores, labels)
        assert abs(auc - brute_force_auc(scores, labels)) <= 1e-9


def test_tree_routing_matches_naive_walker():
    """Fitted trees route exactly like a recursive path walker."""
    rng = np.random.default_rng(7120)
    X = rng.normal(size=(200, 6))
    y = (X[:, 0] + 0.5 * X[:, 3] ** 2 + 0.3 * rng.normal(size=200) > 0.4).astype(float)
    bins = build_bins(X)
    gini_tree = fit_cart(bins, y, np.ones(200), TreeParams(objective="gini", max_depth=5))
    newton_tree = fit_cart(
        bins,
        2.0 * y - 1.0,
        np.full(200, 0.25),
        TreeParams(objective="newton", max_leaves=12, min_samples_leaf=2),
    )
    probes = rng.normal(scale=1.5, size=(1000, 6))
    for tree in (gini_tree, newton_tree):
        batch = predict_many(tree, probes)
        for i, row in enumerate(probes):
            expected = walk_tree_naive(tree, row)
            assert batch[i] == expected


def test_smote_segments_and_exact_balance():
    """Every synthetic row sits on a segment from a minority row to one of
    its k nearest minority neighbours (single u in [0, 1] at 1e-9), and
    the output classes are exactly balanced with originals unchanged."""
    rng = np.random.default_rng(5150)
    for trial in range(5):
        n_maj, n_min, k = 40, 11, 5
        X = np.vstack(
            [rng.normal(size=(n_maj, 4)), rng.normal(loc=2.0, size=(n_min, 4))]
        )
        y = np.array([1] * n_maj + [0] * n_min)
        train = make_dataset(X, y)
        out = smote(train, k_neighbors=k, seed=trial)

        labels = out.labels
        assert int((labels == 0).sum()) == int((labels == 1).sum())
        assert out.ids[: len(train.ids)] == train.ids
        assert np.array_equal(out.features[: len(train.ids)], train.features)

        minority = X[n_maj:]
        diffs = minority[:, None, :] - minority[None, :, :]
        dist = np.einsum("ijk,ijk->ij", diffs, diffs)
        np.fill_diagonal(dist, np.inf)
        neighbor_table = np.argsort(dist, axis=1, kind="stable")[:, :k]

        for row, label in zip(out.features[len(train.ids):], labels[len(train.ids):]):
            assert label == 0
            found = any(
                recover_interpolation_u(minority[b], minority[nb], row) is not None
                for b in range(n_min)
                for nb in neighbor_table[b]
            )
            assert found, "synthetic row off every base->neighbour segment"


def test_resampling_before_split_balances_file(data_path):
    """The before-split mode balances the whole file, and the pipeline's
    row accounting reflects resample-then-split."""
    data = load_dataset(data_path)
    balanced = smote(data, k_neighbors=5, seed=0)
    pos = int((balanced.labels == 1).sum())
    neg = int((balanced.labels == 0).sum())
    assert pos == neg == max(
        int((data.labels == 1).sum()), int((data.labels == 0).sum())
    )

    report = run_experiment(
        RunConfig(data=str(data_path), smote="before")
    )
    assert report.split.train_rows + report.split.test_rows == 2 * pos
    assert report.split.train_rows_after_resample == report.split.train_rows


def test_gbdt_training_loss_never_increases():
    """Both boosting variants produce a non-increasing loss trace on 50
    random datasets (tolerance 1e-9)."""
    rng = np.random.default_rng(33001)
    for trial in range(50):
        n = int(rng.integers(24, 80))
        d = int(rng.integers(3, 8))
        X = rng.normal(size=(n, d))
        y = (X @ rng.normal(size=d) + 0.8 * rng.normal(size=n) > 0).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        train = make_dataset(X, y)
        for variant in (LeafwiseGbdtParams, LevelwiseGbdtParams):
            params = variant(
                rounds=12,
                learning_rate=float(rng.uniform(0.1, 0.5)),
                min_samples_leaf=int(rng.integers(1, 6)),
            )
            trace = np.array(fit_gbdt(train, params).trace)
            rises = np.diff(trace) > 1e-9
            assert not rises.any(), (
                f"trial {trial} {variant.variant}: loss rose at rounds {np.nonzero(rises)[0]}"
            )


def test_smo_satisfies_kkt_conditions():
    """On 50 random datasets (n <= 60) every multiplier satisfies its KKT
    condition at the solver tolerance."""
    rng = np.random.default_rng(77002)
    for trial in range(50):
        n = int(rng.integers(12, 61))
        d = int(rng.integers(2, 7))
        X = rng.normal(size=(n, d))
        w = rng.normal(size=d)
        y = (X @ w + 0.6 * rng.normal(size=n) > 0).astype(int)
        if y.min() == y.max():
            y[: n // 2] = 1 - y[: n // 2]
        train = make_dataset(X, y)
        params = SvmParams(C=float(rng.choice([0.5, 1.0, 2.0])))
        model = fit_svm(train, params)

        margins = decision_scores(model, train.features) * (2.0 * train.labels - 1.0)
        alphas = np.array(model.alphas)
        tol = params.tol
        at_zero = alphas <= 1e-9
        at_C = alphas >= params.C - 1e-9
        interior = ~(at_zero | at_C)
        bad = (
            int((margins[at_zero] < 1.0 - tol).sum())
            + int((margins[at_C] > 1.0 + tol).sum())
            + int((np.abs(margins[interior] - 1.0) > tol).sum())
        )
        assert bad == 0, f"trial {trial}: {bad} KKT violations"


def test_adaboost_round_invariants():
    """Kept rounds have weighted error below one half."""
    rng = np.random.default_rng(12003)
    for trial in range(50):
        n = int(rng.integers(20, 70))
        X = rng.normal(size=(n, 4))
        y = (X[:, 0] + 0.7 * rng.normal(size=n) > 0).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        model = fit_adaboost(make_dataset(X, y), AdaBoostParams(rounds=15))
        assert all(eps < 0.5 for eps in model.trace)


def test_comparison_runs_are_byte_identical(data_path):
    """Two identical comparison runs serialize to the same bytes."""
    cfg = RunConfig(data=str(data_path))
    first = report_to_json(run_experiment(cfg)).encode()
    second = report_to_json(run_experiment(cfg)).encode()
    assert first == second


def test_seed_changes_split_partition(data_path):
    """Different master seeds shuffle different rows into the test set."""
    data = load_dataset(data_path)
    test_ids_42 = set(stratified_split(data, 0.2, seed=42)[1].ids)
    test_ids_43 = set(stratified_split(data, 0.2, seed=43)[1].ids)
    assert test_ids_42 != test_ids_43


def test_reference_confusion_arithmetic():
    """tp=30 fn=0 tn=28 fp=2 formats as 96.67 / 100.00 / 93.33 percent."""
    metrics = classification_metrics(ConfusionMatrix(tp=30, fn=0, tn=28, fp=2))
    assert format_percent(metrics.accuracy) == "96.67"
    assert format_percent(metrics.sensitivity) == "100.00"
    assert format_percent(metrics.specificity) == "93.33"
