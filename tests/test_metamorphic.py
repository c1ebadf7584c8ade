"""Metamorphic relations: input changes with a known effect on the output,
checked by running both. They need no recorded answer, so they still hold
after a re-pin, and both runs share one BLAS thread count. "Identical"
means equal confusion counts, metrics and ROC arrays for every model.

R1 every column x 4, and R2 ``MDVP:Jitter(%)`` x 8 without SMOTE (whose
raw distance sees one column's scale): a power of two commutes with every
rounding step (distances, interpolation, cut midpoints, the standardizer). R3: binning is rank-based, so a
strictly increasing map of one column grows the same trees. R4: flipped
training labels negate the SVM's scores; not the trees', where
sigmoid(-m) != 1 - sigmoid(m) flips near-tie splits. R5: an id only names
its row. (Murphy, Kaiser & Hu 2008; Xie et al. 2011; Chen et al. 2018.)
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SYNTHETIC_CSV
from pdvox.dataset import load_dataset, stratified_split, write_dataset_csv
from pdvox.experiment import RunConfig, run_experiment
from pdvox.svm import SvmParams, decision_scores, fit_svm
from pdvox.tree import TreeParams, build_bins, fit_cart

SEED = 42
DATA = load_dataset(SYNTHETIC_CSV)


def _results(path, smote):
    report = run_experiment(RunConfig(data=str(path), seed=SEED, smote=smote))
    return [(r.model, r.confusion, r.metrics, r.roc) for r in report.results]


@pytest.fixture(scope="module")
def original():
    return {smote: _results(SYNTHETIC_CSV, smote) for smote in ("after", "off")}


def _rewritten(tmp_path, **changes):
    path = tmp_path / "changed.csv"
    write_dataset_csv(replace(DATA, **changes), path)
    return path


@pytest.mark.parametrize("smote", ["after", "off"])
def test_every_column_times_four_changes_no_result(original, tmp_path, smote):
    path = _rewritten(tmp_path, features=DATA.features * 4.0)
    assert _results(path, smote) == original[smote]


def test_jitter_times_eight_without_smote_changes_no_result(original, tmp_path):
    features = DATA.features.copy()
    features[:, DATA.feature_names.index("MDVP:Jitter(%)")] *= 8.0
    assert _results(_rewritten(tmp_path, features=features), "off") == original["off"]


def test_renaming_every_id_changes_no_result(original, tmp_path):
    ids = tuple(f"renamed_{i:03d}" for i in reversed(range(len(DATA.ids))))
    assert _results(_rewritten(tmp_path, ids=ids), "after") == original["after"]


# strictly increasing maps; "ulp" puts neighbours one ulp apart, where a
# midpoint can round onto the upper neighbour
INCREASING = {
    "scale": lambda x, s: x * s,
    "cube": lambda x, s: (x - x.min() + s) ** 3,
    "log": lambda x, s: np.log(x - x.min() + s),
    "exp": lambda x, s: np.exp(s * (x - x.min()) / np.ptp(x)),
    "ulp": lambda x, s: 1.0 + np.unique(x, return_inverse=True)[1] * np.spacing(1.0),
}
TREE_PARAMS = [
    TreeParams(objective=objective, **limit)
    for objective in ("gini", "newton")
    for limit in ({"max_depth": 4}, {"max_leaves": 16})
]


@settings(max_examples=30, deadline=None)
@given(
    column=st.integers(0, DATA.features.shape[1] - 1),
    name=st.sampled_from(sorted(INCREASING)),
    s=st.floats(0.5, 4.0),
    max_bins=st.sampled_from([255, 16]),
)
def test_increasing_map_of_one_column_grows_the_same_trees(column, name, s, max_bins):
    X = DATA.features
    mapped = X.copy()
    mapped[:, column] = INCREASING[name](X[:, column], s)
    assume(np.unique(mapped[:, column]).size == np.unique(X[:, column]).size)
    bins, mapped_bins = build_bins(X, max_bins), build_bins(mapped, max_bins)
    assert np.array_equal(bins.codes, mapped_bins.codes)
    y = DATA.labels.astype(np.float64)
    for params in TREE_PARAMS:
        gini = params.objective == "gini"
        t, w = (y, np.ones_like(y)) if gini else (0.5 - y, np.full_like(y, 0.25))
        tree, mapped_tree = fit_cart(bins, t, w, params), fit_cart(mapped_bins, t, w, params)
        for field in ("feature", "left", "right", "value"):  # value is NaN on internal nodes
            assert np.array_equal(getattr(tree, field), getattr(mapped_tree, field),
                                  equal_nan=True), field


@pytest.mark.parametrize("seed", [42, 43])
def test_svm_on_flipped_labels_negates_every_score(seed):
    train, test = stratified_split(DATA, 0.2, seed)
    scores = decision_scores(fit_svm(train, SvmParams()), test.features)
    flipped = fit_svm(replace(train, labels=1 - train.labels), SvmParams())
    assert np.array_equal(decision_scores(flipped, test.features), -scores)
