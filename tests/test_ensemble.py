"""Boosted and bagged ensembles: traces, reference values, and invariants."""

from __future__ import annotations

import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, walk_tree_naive
from pdvox.ensemble import (
    AdaBoostParams,
    BaggingParams,
    GbdtParams,
    LeafwiseGbdtParams,
    LevelwiseGbdtParams,
    ensemble_scores,
    fit_adaboost,
    fit_bagging,
    fit_gbdt,
)
from pdvox.errors import ConfigError, ValidationError
from pdvox.svm import SvmParams, fit_svm
from pdvox.tree import TreeParams, build_bins, fit_cart, predict_many


def _toy(n=60, d=4, seed=0, sep=1.6):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = rng.normal(size=(n, d)) + sep * y[:, None] * np.array([1.0] + [0.0] * (d - 1))
    return make_dataset(X, y.astype(int))


# ------------------------------------------------------------------ GBDT


def test_base_score_is_log_odds():
    train = make_dataset(np.zeros((195, 1)), np.array([1] * 147 + [0] * 48))
    model = fit_gbdt(train, LeafwiseGbdtParams(rounds=0))
    assert model.base == pytest.approx(math.log(147 / 48))
    # a zero-round model scores every row at the training log-odds
    assert np.array_equal(ensemble_scores(model, np.zeros((3, 1))), np.full(3, model.base))


def test_rounds_zero_trace_has_single_entry():
    train = _toy()
    model = fit_gbdt(train, LeafwiseGbdtParams(rounds=0))
    assert len(model.trees) == 0
    assert len(model.trace) == 1


def test_first_tree_leaf_values_two_row_case():
    # Two rows, one feature separating them, labels 0/1: base score 0,
    # p = 0.5 each, g = p - y = (0.5, -0.5), h = 0.25. With lam=1 one
    # split gives leaves -g/(h+lam) = -/+ 0.4.
    train = make_dataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
    model = fit_gbdt(
        train, LeafwiseGbdtParams(rounds=1, learning_rate=0.1, lam=1.0, min_samples_leaf=1)
    )
    assert model.base == 0.0
    tree = model.trees[0]
    left = walk_tree_naive(tree, np.array([0.0]))
    right = walk_tree_naive(tree, np.array([1.0]))
    assert left == pytest.approx(-0.4, abs=1e-12)
    assert right == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("params", [LeafwiseGbdtParams, LevelwiseGbdtParams],
                         ids=["leaf-wise", "level-wise"])
def test_loss_trace_non_increasing(params):
    train = _toy(n=90, seed=3)
    model = fit_gbdt(train, params(rounds=40))
    trace = np.array(model.trace)
    assert len(trace) == 41
    assert np.all(np.diff(trace) <= 1e-9)
    assert trace[-1] < trace[0]


def test_variants_agree_at_stump_granularity():
    # A two-leaf budget and a depth-one cap describe the same tree, so
    # the two growth strategies must boost identically round for round.
    # (Deeper budgets diverge legitimately: a leaf budget may be spent
    # below the depth cap.)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(80, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(int)
    if len(set(y)) < 2:
        y[0] = 1 - y[0]
    train = make_dataset(X, y)
    a = fit_gbdt(train, LeafwiseGbdtParams(rounds=8, max_leaves=2, min_samples_leaf=1))
    b = fit_gbdt(train, LevelwiseGbdtParams(rounds=8, max_depth=1, min_samples_leaf=1))
    assert a.trace == b.trace
    Q = rng.normal(size=(50, 3))
    assert np.array_equal(ensemble_scores(a, Q), ensemble_scores(b, Q))


def test_default_min_samples_leaf_depends_on_variant():
    # each variant grows to its own limit only
    assert LeafwiseGbdtParams().tree_params() == TreeParams(
        objective="newton", max_leaves=31, min_samples_leaf=20)
    assert LevelwiseGbdtParams().tree_params() == TreeParams(
        objective="newton", max_depth=6, min_samples_leaf=1)
    assert LeafwiseGbdtParams(min_samples_leaf=3).tree_params().min_samples_leaf == 3


def test_gbdt_separable_data_reaches_high_margin():
    train = _toy(n=100, seed=1, sep=4.0)
    model = fit_gbdt(train, LeafwiseGbdtParams(rounds=30))
    scores = ensemble_scores(model, train.features)
    preds = (scores >= 0.0).astype(int)
    assert np.mean(preds == train.labels) >= 0.97


def test_gbdt_hand_walked_round():
    # Independently replay one boosting round with numpy primitives.
    train = _toy(n=40, d=2, seed=9)
    params = LeafwiseGbdtParams(rounds=1, learning_rate=0.1, max_leaves=31, lam=1.0)
    model = fit_gbdt(train, params)
    n1 = int(train.labels.sum())
    n0 = len(train.labels) - n1
    base = math.log(n1 / n0)
    p = 1 / (1 + np.exp(-base))
    margins = base + params.learning_rate * np.array(
        [walk_tree_naive(model.trees[0], row) for row in train.features]
    )
    y = train.labels.astype(np.float64)
    expected_loss = np.mean(np.logaddexp(0.0, np.where(y == 1, -margins, margins)))
    assert model.trace[1] == pytest.approx(expected_loss, abs=1e-12)
    base_loss = np.mean(np.logaddexp(0.0, np.where(y == 1, -base, base)))
    assert model.trace[0] == pytest.approx(base_loss, abs=1e-12)


def test_gbdt_param_validation():
    with pytest.raises(ConfigError):
        LeafwiseGbdtParams(learning_rate=0.0)
    with pytest.raises(ConfigError):
        LeafwiseGbdtParams(learning_rate=1.5)
    with pytest.raises(ConfigError):
        LeafwiseGbdtParams(rounds=-1)
    # a variant has no field for the other's growth limit, and the shared
    # base names no growth limit at all
    with pytest.raises(TypeError):
        LeafwiseGbdtParams(max_depth=6)
    with pytest.raises(TypeError):
        LevelwiseGbdtParams(max_leaves=31)
    with pytest.raises(TypeError):
        GbdtParams()


def test_gbdt_deterministic():
    train = _toy(seed=8)
    a = fit_gbdt(train, LeafwiseGbdtParams(rounds=10))
    b = fit_gbdt(train, LeafwiseGbdtParams(rounds=10))
    assert a.trace == b.trace
    q = np.zeros((1, train.n_features))
    assert np.array_equal(ensemble_scores(a, q), ensemble_scores(b, q))


# -------------------------------------------------------------- AdaBoost


def test_adaboost_alpha_formula():
    train = _toy(n=80, seed=2)
    model = fit_adaboost(train, AdaBoostParams(rounds=12))
    assert len(model.weights) == len(model.trace) == len(model.trees)
    for alpha, eps in zip(model.weights, model.trace):
        assert 0.0 < eps < 0.5
        assert alpha == pytest.approx(0.5 * math.log((1 - eps) / (eps + 1e-10)))


def test_adaboost_first_round_uses_uniform_weights():
    # epsilon_1 must equal the plain error rate of the best stump.
    X = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0], [7.0], [8.0]])
    y = np.array([0, 0, 0, 1, 0, 1, 1, 1])
    train = make_dataset(X, y)
    model = fit_adaboost(train, AdaBoostParams(rounds=1))
    # best stump is x <= 3.5: pure left, one mistake right -> eps = 1/8
    assert model.trace[0] == pytest.approx(0.125)
    assert model.weights[0] == pytest.approx(0.5 * math.log(7.0), abs=1e-12)


def test_adaboost_weights_renormalized_each_round():
    train = _toy(n=70, seed=4)
    model = fit_adaboost(train, AdaBoostParams(rounds=20))
    # each epsilon is its stump's error under weights that sum to 1: replay
    # the weights from the stumps and alphas, normalising only here
    w = np.ones(train.n_records)
    for stump, alpha, eps in zip(model.trees, model.weights, model.trace):
        miss = (predict_many(stump, train.features) > 0) != train.labels
        assert eps == pytest.approx(w[miss].sum() / w.sum(), abs=1e-12)
        w *= np.exp(np.where(miss, alpha, -alpha))


def test_adaboost_training_error_bound():
    # Freund–Schapire bound: train error <= prod 2*sqrt(eps(1-eps)).
    train = _toy(n=80, seed=6)
    model = fit_adaboost(train, AdaBoostParams(rounds=25))
    bound = np.prod([2 * math.sqrt(e * (1 - e)) for e in model.trace])
    scores = ensemble_scores(model, train.features)
    train_err = np.mean((scores >= 0).astype(int) != train.labels)
    assert train_err <= bound + 1e-12


def test_adaboost_perfect_stump_stops_early():
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = fit_adaboost(make_dataset(X, y), AdaBoostParams(rounds=50))
    assert len(model.trees) == 1
    assert model.trace[0] == 0.0
    # capped alpha from the epsilon floor
    assert model.weights[0] == pytest.approx(0.5 * math.log(1.0 / 1e-10))
    scores = ensemble_scores(model, X)
    assert np.all((scores >= 0).astype(int) == y)


def test_adaboost_discards_a_stump_at_error_one_half():
    # XOR: every stump errs on half the weight, so none is kept
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    model = fit_adaboost(make_dataset(X, [0, 1, 1, 0]), AdaBoostParams(rounds=5))
    assert model.trees == () and model.weights == () and model.trace == ()
    assert ensemble_scores(model, X).tolist() == [0.0] * 4


def test_adaboost_score_is_alpha_weighted_stump_vote():
    # each stump votes +1 or -1 with its round weight, summed in stump order
    train = _toy(n=50, seed=7)
    model = fit_adaboost(train, AdaBoostParams(rounds=5))
    expected = []
    for x in train.features:
        total = 0.0
        for alpha, stump in zip(model.weights, model.trees):
            total += alpha * walk_tree_naive(stump, x)
        expected.append(total)
    assert ensemble_scores(model, train.features).tolist() == expected


# --------------------------------------------------------------- Bagging


def test_bagging_identity_hook_reduces_to_single_fit(monkeypatch):
    # a stream that draws 0, 1, ..., n-1 makes every "bootstrap" the full set
    monkeypatch.setattr(
        "pdvox.ensemble.stream",
        lambda *key: types.SimpleNamespace(below=lambda n, rows=itertools.count(): next(rows)),
    )
    train = _toy(n=60, seed=3)
    model = fit_bagging(train, BaggingParams(n_trees=7), seed=5)
    q = train.features[:10]
    votes = np.stack([predict_many(t, q) for t in model.trees])
    # without bootstrap every tree sees identical data -> identical trees
    assert np.all(votes == votes[0])
    assert set(np.unique(ensemble_scores(model, q))) <= {0.0, 1.0}


def test_bagging_identical_rows_give_unanimous_vote():
    X = np.vstack([np.zeros((8, 2)), np.ones((8, 2))])
    y = np.array([0] * 8 + [1] * 8)
    model = fit_bagging(make_dataset(X, y), BaggingParams(n_trees=15), seed=1)
    scores = ensemble_scores(model, np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert scores.tolist() == [0.0, 1.0]


def test_bagging_score_is_vote_fraction():
    train = _toy(n=80, seed=11)
    model = fit_bagging(train, BaggingParams(n_trees=9), seed=3)
    q = train.features[:20]
    votes = [sum(walk_tree_naive(tree, x) for tree in model.trees) for x in q]
    assert ensemble_scores(model, q).tolist() == [v / 9 for v in votes]


def test_bagging_deterministic_and_seed_sensitive():
    train = _toy(n=70, seed=12)
    a = fit_bagging(train, BaggingParams(n_trees=10), seed=4)
    b = fit_bagging(train, BaggingParams(n_trees=10), seed=4)
    c = fit_bagging(train, BaggingParams(n_trees=10), seed=5)
    q = train.features[:15]
    assert np.array_equal(ensemble_scores(a, q), ensemble_scores(b, q))
    assert not np.array_equal(ensemble_scores(a, q), ensemble_scores(c, q))


@pytest.mark.parametrize("labels", [[1, 1, 1, 1], [0, 0, 0], []],
                         ids=["positive", "negative", "empty"])
@pytest.mark.parametrize("fit", [fit_gbdt, fit_adaboost, fit_bagging],
                         ids=["gbdt", "adaboost", "bagging"])
def test_ensembles_reject_a_one_class_training_set(fit, labels):
    # a one-class set would give bagging 100 trees of one leaf each, which
    # score every row alike; each learner refuses it before fitting
    n1 = sum(labels)
    with pytest.raises(ValidationError, match=f"got {n1} positive, {len(labels) - n1} negative"):
        fit(make_dataset(np.zeros((len(labels), 1)), np.array(labels)))


# ------------------------------------------------------------- TreeSum


def test_gbdt_tree_sum_fields():
    train = _toy(n=60, seed=15)
    params = LeafwiseGbdtParams(rounds=6, learning_rate=0.3)
    model = fit_gbdt(train, params)
    assert len(model.trees) == 6
    assert model.weights == (0.3,) * 6
    assert model.divisor == 1.0
    y = train.labels
    base_loss = np.mean(np.logaddexp(0.0, np.where(y == 1, -model.base, model.base)))
    assert model.trace[0] == pytest.approx(base_loss, abs=1e-12)
    assert len(model.trace) == 7


def test_adaboost_tree_sum_fields():
    train = _toy(n=60, seed=16)
    model = fit_adaboost(train, AdaBoostParams(rounds=6))
    assert model.base == 0.0 and model.divisor == 1.0
    assert len(model.trees) == len(model.weights) == len(model.trace) > 0
    for stump in model.trees:
        leaf = stump.feature < 0
        assert set(stump.value[leaf].tolist()) <= {-1.0, 1.0}
        assert np.all(np.isnan(stump.value[~leaf]))
    # the weights are the alphas of the epsilons that the trace holds
    assert model.weights == tuple(float(0.5 * np.log((1.0 - e) / e)) for e in model.trace)
    # the first stump is the uniform-weight 0/1 gini stump, leaves mapped to -1/+1
    first = fit_cart(build_bins(train.features), train.labels.astype(np.float64),
                     np.full(train.n_records, 1.0 / train.n_records),
                     TreeParams(objective="gini", max_depth=1))
    np.testing.assert_array_equal(model.trees[0].value, 2.0 * first.value - 1.0)
    np.testing.assert_array_equal(model.trees[0].threshold, first.threshold)


def test_bagging_tree_sum_fields():
    model = fit_bagging(_toy(n=40, seed=17), BaggingParams(n_trees=5), seed=2)
    assert model.base == 0.0
    assert model.weights == (1.0,) * 5
    assert model.divisor == 5.0
    assert model.trace == ()


def test_tree_sum_scores_equal_each_learners_own_formula():
    # each learner's score as it was written before the three shared one
    # type: the GBDT margin, the AdaBoost +-alpha vote on 0/1 stumps, and
    # bagging's vote sum divided last
    train = _toy(n=60, seed=18)
    X = _toy(n=25, seed=19).features
    gbdt = fit_gbdt(train, LevelwiseGbdtParams(rounds=5, learning_rate=0.2))
    margin = np.full(len(X), gbdt.base)
    for tree in gbdt.trees:
        margin += 0.2 * predict_many(tree, X)
    assert ensemble_scores(gbdt, X).tolist() == margin.tolist()
    ada = fit_adaboost(train, AdaBoostParams(rounds=5))
    vote = np.zeros(len(X))
    for alpha, stump in zip(ada.weights, ada.trees):
        vote += alpha * (2.0 * (predict_many(stump, X) > 0) - 1.0)
    assert ensemble_scores(ada, X).tolist() == vote.tolist()
    bag = fit_bagging(train, BaggingParams(n_trees=7), seed=3)
    votes = np.zeros(len(X))
    for tree in bag.trees:
        votes += predict_many(tree, X)
    assert ensemble_scores(bag, X).tolist() == (votes / 7).tolist()


def test_scores_reject_a_model_that_is_not_a_tree_sum():
    train = _toy(n=30, d=3, seed=14)
    model = fit_svm(train, SvmParams(max_passes=2))
    with pytest.raises(ConfigError, match="unknown model type SvmModel"):
        ensemble_scores(model, train.features)


# ------------------------------------------------------------- plumbing


def test_scores_reject_wrong_width():
    train = _toy(n=30, d=3, seed=14)
    model = fit_gbdt(train, LeafwiseGbdtParams(rounds=2))
    with pytest.raises(ValidationError):
        ensemble_scores(model, np.zeros((2, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "fit",
    [
        lambda train: fit_gbdt(train, LeafwiseGbdtParams(rounds=2)),
        lambda train: fit_adaboost(train, AdaBoostParams(rounds=5)),
        lambda train: fit_bagging(train, BaggingParams(n_trees=2), seed=0),
    ],
    ids=["gbdt", "adaboost", "bagging"],
)
def test_scores_reject_nonfinite_features(fit, bad):
    # a NaN row routes right at every split, so it used to get a score
    train = _toy(n=30, d=3, seed=14)
    model = fit(train)
    X = train.features[:3].copy()
    X[1] = bad
    with pytest.raises(ValidationError, match=r"features must be finite \(no NaN/inf\)"):
        ensemble_scores(model, X)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gbdt_loss_trace_monotone_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 60))
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, size=n)
    y[0], y[1] = 0, 1
    train = make_dataset(X, y)
    model = fit_gbdt(train, LeafwiseGbdtParams(rounds=15))
    assert np.all(np.diff(model.trace) <= 1e-9)
