"""Histogram binning, CART growth, and split selection against naive oracles."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import naive_gini_stump, reference_best_split, reference_fit_cart, walk_tree_naive
from pdvox import tree as tree_module
from pdvox.errors import ConfigError, ValidationError
from pdvox.tree import (
    BinMap,
    TreeParams,
    _best_split,
    _bin_sums,
    build_bins,
    fit_cart,
    predict_many,
)


def _histogram(codes_sub, a_sub, b_sub, padded):
    """Stacked (A, B, count) histograms, shape (3, d, padded)."""
    d = codes_sub.shape[1]
    flat = codes_sub.astype(np.int64) + np.arange(d) * padded
    return _bin_sums(flat, a_sub, b_sub, d * padded).reshape(3, d, padded)


def _gini_params(**kw):
    base = dict(objective="gini", max_depth=3, min_samples_leaf=1)
    base.update(kw)
    return TreeParams(**base)


def _newton_params(**kw):
    base = dict(objective="newton", max_leaves=8, min_samples_leaf=1, lam=1.0, gamma=0.0)
    base.update(kw)
    return TreeParams(**base)


# ------------------------------------------------------------------ bins


def test_bins_few_uniques_get_own_bins():
    X = np.array([[1.0], [2.0], [2.0], [4.0]])
    bins = build_bins(X, max_bins=255)
    assert np.allclose(bins.cuts[0], [1.5, 3.0])
    assert bins.codes[:, 0].tolist() == [0, 1, 1, 2]
    assert bins.n_bins[0] == 3


def test_bins_single_value_column():
    X = np.array([[7.0], [7.0], [7.0]])
    bins = build_bins(X, max_bins=8)
    assert len(bins.cuts[0]) == 0
    assert bins.n_bins[0] == 1
    assert np.all(bins.codes == 0)


def test_bins_quantile_downsampling_respects_cap():
    X = np.arange(1000, dtype=np.float64).reshape(-1, 1)
    bins = build_bins(X, max_bins=16)
    assert bins.n_bins[0] <= 16
    assert len(bins.cuts[0]) == bins.n_bins[0] - 1
    # cuts are strictly increasing midpoints between observed values
    cuts = np.array(bins.cuts[0])
    assert np.all(np.diff(cuts) > 0)


def test_bins_codes_consistent_with_route_rule():
    # For every cut c: x <= c must be exactly the rows whose code falls in
    # bins left of the cut, the same comparison predict_many applies.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 3))
    X[:, 1] = np.round(X[:, 1], 1)  # heavy ties
    bins = build_bins(X, max_bins=32)
    for j in range(3):
        for b, cut in enumerate(bins.cuts[j]):
            left_by_value = X[:, j] <= cut
            left_by_code = bins.codes[:, j] <= b
            assert np.array_equal(left_by_value, left_by_code)


def test_bins_keep_adjacent_floats_apart():
    # (a + b) / 2 is a tie that rounds to b; a cut at b would bin a with b
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    X = np.array([[a], [b], [2.0]])
    bins = build_bins(X)
    assert bins.codes[:, 0].tolist() == [0, 1, 2]
    stump = fit_cart(bins, np.array([0.0, 1.0, 1.0]), np.ones(3), _gini_params(max_depth=1))
    assert predict_many(stump, X).tolist() == [0.0, 1.0, 1.0]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_bins_midpoints_do_not_overflow(sign):
    # lower + upper overflowed: both cuts were ±inf and every row one bin
    X = sign * np.array([[1e308], [1.5e308], [1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bins = build_bins(X)
    assert bins.codes[:, 0].tolist() == ([0, 1, 2] if sign > 0 else [2, 1, 0])
    values, cuts = np.sort(X[:, 0]), bins.cuts[0]
    assert np.isfinite(cuts).all()
    assert (values[:-1] < cuts).all() and (cuts < values[1:]).all()


def test_bins_invalid_limits():
    X = np.zeros((3, 1))
    with pytest.raises(ConfigError):
        build_bins(X, max_bins=1)
    with pytest.raises(ConfigError):
        build_bins(X, max_bins=256)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_bins_reject_nonfinite_values(bad):
    # a NaN used to become a NaN cut and share the bin of 2.0
    with pytest.raises(ValidationError, match=r"features must be finite \(no NaN/inf\)"):
        build_bins([[0.0], [bad], [2.0]])


@pytest.mark.parametrize("X", [np.zeros(3), np.zeros((3, 0)), np.zeros((2, 3, 1))],
                         ids=["1-D", "no-columns", "3-D"])
def test_bins_reject_a_matrix_without_columns(X):
    with pytest.raises(ValidationError, match=r"expected \(n, d >= 1\) feature matrix"):
        build_bins(X)


def _toy_stump():
    X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
    return fit_cart(build_bins(X), np.array([0.0, 0.0, 1.0, 1.0]), np.ones(4),
                    params=_gini_params(max_depth=1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_predict_many_rejects_nonfinite_rows(bad):
    # a NaN row fails every `<=` and used to land in the right-most leaf
    with pytest.raises(ValidationError, match=r"features must be finite \(no NaN/inf\)"):
        predict_many(_toy_stump(), [[1.0, 0.0], [bad, 0.0]])


@pytest.mark.parametrize("X", [np.zeros((2, 1)), np.zeros((2, 3)), np.zeros(2)],
                         ids=["narrow", "wide", "1-D"])
def test_predict_many_rejects_another_width(X):
    with pytest.raises(ValidationError, match=r"expected \(n, 2\) feature matrix"):
        predict_many(_toy_stump(), X)


# ------------------------------------------------------------ gini trees


def test_depth_one_stump_reference():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = fit_cart(build_bins(X), y, np.ones(4), params=_gini_params(max_depth=1))
    assert tree.n_leaves == 2
    root = 0
    assert tree.feature[root] == 0
    assert tree.threshold[root] == pytest.approx(2.5)
    assert np.array_equal(predict_many(tree, np.array([[2.0], [2.6]])), [0.0, 1.0])


def test_pure_node_never_splits():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 1.0, 1.0])
    tree = fit_cart(build_bins(X), y, np.ones(3), params=_gini_params(max_depth=4))
    assert tree.n_nodes == 1
    assert tree.value[0] == 1.0


def test_tie_break_prefers_lowest_feature_then_lowest_threshold():
    # Duplicate the separating feature; both columns give identical gain.
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = fit_cart(build_bins(X), y, np.ones(4), params=_gini_params(max_depth=1))
    assert tree.feature[0] == 0
    # Symmetric labels make thresholds 1.5 / 2.5 / 3.5... only 2.5 is max
    # gain; check threshold ties with a label layout where two cuts tie.
    X2 = np.array([[1.0], [2.0], [3.0], [4.0]])
    y2 = np.array([0.0, 1.0, 0.0, 1.0])
    tree2 = fit_cart(build_bins(X2), y2, np.ones(4), params=_gini_params(max_depth=1))
    stump = naive_gini_stump(X2, y2, np.ones(4))
    assert stump is not None
    assert tree2.feature[0] == stump[1]
    assert tree2.threshold[0] == pytest.approx(stump[2])


def test_min_samples_leaf_blocks_unbalanced_cut():
    X = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    y = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    params = _gini_params(max_depth=1, min_samples_leaf=2)
    tree = fit_cart(build_bins(X), y, np.ones(5), params=params)
    if tree.n_nodes > 1:
        # any surviving split must leave >= 2 rows on each side
        thr = tree.threshold[0]
        assert np.sum(X[:, 0] <= thr) >= 2 and np.sum(X[:, 0] > thr) >= 2


def test_unrestricted_gini_tree_fits_training_data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(80, 5))
    y = (X[:, 0] + 0.5 * X[:, 2] > 0).astype(np.float64)
    params = _gini_params(max_depth=None, max_leaves=80)
    tree = fit_cart(build_bins(X), y, np.ones(80), params=params)
    preds = predict_many(tree, X)
    assert np.array_equal(preds, y)


def test_majority_leaf_tie_goes_positive():
    X = np.array([[1.0], [1.0]])
    y = np.array([0.0, 1.0])
    tree = fit_cart(build_bins(X), y, np.ones(2), params=_gini_params(max_depth=3))
    assert tree.n_nodes == 1
    assert tree.value[0] == 1.0


def _exact_gain(X, y, w, f, thr):
    left = X[:, f] <= thr

    def imp(mask):
        tot = math.fsum(w[mask].tolist())
        if tot == 0.0:
            return 0.0
        w1 = math.fsum((w[mask] * y[mask]).tolist())
        return 2.0 * w1 * (tot - w1) / tot

    parent = imp(np.ones(len(y), dtype=bool))
    return parent - imp(left) - imp(~left)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 40),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_stump_matches_naive_oracle(n, d, seed):
    # Mathematically tied gains can round to values one ulp apart under
    # the two accumulation orders, so the chosen split is only pinned to
    # the oracle when the optimum is unique by a clear margin; otherwise
    # the chosen split must still achieve the optimal gain.
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)), 1)
    y = rng.integers(0, 2, size=n).astype(np.float64)
    w = np.ones(n)
    stump = naive_gini_stump(X, y, w)
    tree = fit_cart(build_bins(X), y, w, params=_gini_params(max_depth=1))
    if stump is None:
        assert tree.n_nodes == 1
        return
    assert tree.n_nodes == 3
    best_gain = stump[0]
    chosen_gain = _exact_gain(X, y, w, int(tree.feature[0]), float(tree.threshold[0]))
    assert chosen_gain >= best_gain - 1e-9 * (1.0 + abs(best_gain))
    rivals = [
        (f, (a + b) / 2.0)
        for f in range(d)
        for a, b in zip(np.unique(X[:, f])[:-1], np.unique(X[:, f])[1:])
        if _exact_gain(X, y, w, f, (a + b) / 2.0) >= best_gain - 1e-9
    ]
    if len(rivals) == 1:
        assert tree.feature[0] == stump[1]
        assert tree.threshold[0] == pytest.approx(stump[2], abs=1e-12)


def _node_table(rng, objective, n, discrete):
    """Binned rows as fit_cart sees them: rows land in each feature's real
    bins, columns past a feature's bin count are padding, and discrete
    targets and a duplicated feature produce exactly tied gains.
    Returns (codes, a, b, bins, padded)."""
    scale = 10.0 ** rng.integers(-3, 4, size=n)  # wide range: dust that matters
    d = int(rng.integers(1, 5))
    padded = int(rng.integers(2, 48))
    n_bins = rng.integers(1, padded + 1, size=d)
    n_bins[rng.integers(d)] = padded
    codes = np.column_stack([rng.integers(0, k, size=n) for k in n_bins])
    if d > 1 and rng.random() < 0.5:
        codes[:, 1] = np.minimum(codes[:, 0], n_bins[1] - 1)
    if objective == "gini":
        t = rng.integers(0, 2, size=n).astype(np.float64)
        w = np.full(n, 1.0 / n) if discrete else rng.uniform(0.01, 1.0, size=n) * scale
        a, b = w * t, w
    else:
        a = rng.choice([-1.0, -0.5, 0.5, 1.0], size=n) if discrete else rng.normal(size=n) * scale
        b = np.full(n, 0.25) if discrete else rng.uniform(0.05, 0.25, size=n) * scale
    cuts = tuple(np.arange(k - 1, dtype=np.float64) + 0.5 for k in n_bins)
    bins = BinMap(cuts=cuts, codes=codes.astype(np.uint8), n_bins=n_bins)
    return codes, a, b, bins, padded


def _subtracted_node(rng, codes, a, b, padded, rounds):
    """A node histogram after ``rounds`` sibling subtractions, each removing
    a random share of the rows; subtraction leaves float dust in bins it
    emptied. Returns (hist, rows left)."""
    kept = np.arange(codes.shape[0])
    hist = _histogram(codes, a, b, padded)
    for _ in range(rounds):
        gone = kept[rng.random(kept.size) < rng.uniform(0.2, 0.8)]
        kept = np.setdiff1d(kept, gone)
        hist = hist - _histogram(codes[gone], a[gone], b[gone], padded)
    return hist, kept


def _search(hist, bins, params, ratio):
    """:func:`_best_split` of one node's histogram with the packed-search
    gate at ``ratio``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_module, "PACKED_SEARCH_RATIO", ratio)
        return _best_split(hist, hist.sum(axis=2, keepdims=True), bins, params)


#: Gate ratios: every node packed, nodes either way by size, and every
#: node with rows swept over its full grid.
_RATIOS = [0, 4, 10**9]


@pytest.mark.parametrize("ratio", _RATIOS)
@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["gini", "newton"]),
    st.sampled_from([1, 20]),
    st.integers(1, 90),
    st.booleans(),
    st.integers(0, 3),
    st.booleans(),
)
def test_packed_search_matches_full_grid(
    ratio, seed, objective, msl, n, discrete, subtractions, zero_weights
):
    rng = np.random.default_rng(seed)
    codes, a, b, bins, padded = _node_table(rng, objective, n, discrete)
    if zero_weights:
        # rows with zero weight (gini) or zero hessian (newton with lam=0)
        # can leave a cut's side with B == 0; its gain term divides by
        # zero, and the cut must be skipped, not won with an inf or NaN gain
        zero = rng.random(n) < 0.5
        if objective == "gini":
            a[zero] = 0.0
        b[zero] = 0.0
    hist, _ = _subtracted_node(rng, codes, a, b, padded, subtractions)
    lam = 0.0 if zero_weights else 1.0
    params = TreeParams(objective=objective, max_depth=4, min_samples_leaf=msl, lam=lam)
    assert _search(hist, bins, params, ratio) == reference_best_split(hist, bins, params)


def test_gate_sweeps_large_nodes_over_their_own_grid(monkeypatch):
    # Both sweeps pick the same split, so only the histogram that reaches
    # _cut_gains shows the gate: a node with more than padded / 4 rows is
    # swept in place, every other node through its packed buffer.
    cut_gains = tree_module._cut_gains
    swept = []

    def spy(hist, *args):
        swept.append(hist)
        return cut_gains(hist, *args)

    monkeypatch.setattr(tree_module, "_cut_gains", spy)
    rng = np.random.default_rng(5)
    params = TreeParams(objective="newton", max_depth=4)
    for _ in range(40):
        codes, a, b, bins, padded = _node_table(rng, "newton", int(rng.integers(2, 90)), False)
        for _ in range(6):
            hist, rows = _subtracted_node(rng, codes, a, b, padded, int(rng.integers(0, 4)))
            swept.clear()
            _search(hist, bins, params, 4)
            in_place = any(s is hist for s in swept)
            assert in_place == (padded >= 2 and 4 * rows.size > padded)


def test_gini_cut_with_negative_dust_weight_is_skipped():
    # One feature, three bins. The first cut's left side holds one row of
    # weight zero, whose B sum histogram subtraction left at -1e-17: its
    # gini term S_A * (S_B - S_A) / S_B is a finite 0, so only the B > 0 guard keeps
    # that cut from being taken with a gain of 0.
    hist = np.array([[[0.0, 1.0, 0.0]], [[-1e-17, 2.0, 1.0]], [[1.0, 2.0, 1.0]]])
    totals = hist.sum(axis=2, keepdims=True)
    gain = tree_module._cut_gains(hist, totals, _gini_params(max_depth=1))
    assert gain[0, 0] == -np.inf
    assert gain[0, 1] == pytest.approx(1.0 / 3.0)


def _counted(func, calls, key):
    """``func``, adding one to ``calls[key]`` per call."""

    def wrapper(*args):
        calls[key] += 1
        return func(*args)

    return wrapper


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["gini", "newton"]),
    st.sampled_from(["depth", "leaves"]),
    st.sampled_from([1, 20]),
    st.sampled_from(["uniform", "reweighted", "pure"]),
    st.integers(2, 240),
)
def test_fit_cart_matches_reference_growth(seed, objective, growth, msl, weighting, n):
    # fit_cart builds only feature 0's bin row for a child it will not
    # search, subtracts the larger child in place and packs small nodes'
    # non-empty bins; the reference builds every full grid and sweeps it
    # whole. Every node array must match bit for bit, and both must search
    # the same nodes: none at max_depth, below 2 * min_samples_leaf rows or
    # on a pure gini node.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    levels = rng.integers(2, 400, size=d)  # repeated values, some tied gains
    X = rng.integers(0, levels, size=(n, d)).astype(np.float64) * rng.uniform(0.1, 10.0, size=d)
    if objective == "gini":
        t = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.float64)
        if weighting == "pure":
            t[:] = t[0]
        if weighting == "reweighted":
            # AdaBoost-style: a stump's misses scaled up, then normalised
            miss = rng.random(n) < 0.3
            w = np.where(miss, math.exp(0.7), math.exp(-0.7)) / n
            w = w / w.sum()
        else:
            w = np.full(n, 1.0 / n)
    else:
        t = rng.normal(size=n)
        w = rng.uniform(0.05, 0.25, size=n) if weighting != "uniform" else np.full(n, 0.25)
    if growth == "depth":
        budget = {"max_depth": int(rng.integers(0, 9))}
    else:
        budget = {"max_leaves": int(rng.integers(1, 40))}
    params = TreeParams(objective=objective, min_samples_leaf=msl, **budget)
    bins = build_bins(X, max_bins=int(rng.integers(2, 256)))
    searches = {"fit_cart": 0, "reference": 0}
    with pytest.MonkeyPatch.context() as mp:
        for module, name, key in [
            (tree_module, "_best_split", "fit_cart"),
            (conftest, "reference_best_split", "reference"),
        ]:
            mp.setattr(module, name, _counted(getattr(module, name), searches, key))
        tree = fit_cart(bins, t, w, params)
        ref_arrays = reference_fit_cart(bins, t, w, params)
    assert searches["fit_cart"] == searches["reference"]
    got = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    for mine, ref in zip(got, ref_arrays):
        assert mine.dtype == ref.dtype
        assert np.array_equal(mine, ref, equal_nan=True)


def _fit_counting_searches(bins, t, w, params):
    """``fit_cart``'s tree and its number of ``_best_split`` calls."""
    searches = {"fit_cart": 0}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_module, "_best_split",
                   _counted(tree_module._best_split, searches, "fit_cart"))
        tree = fit_cart(bins, t, w, params)
    return tree, searches["fit_cart"]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["depth", "leaves"]), st.integers(2, 120))
def test_zero_weight_rows_stay_out_of_a_gini_tree(seed, growth, n):
    # Bagging passes a bootstrap as draw counts on the training set's one
    # BinMap. At min_samples_leaf 1 that grows the tree of the drawn rows,
    # each repeated as often as drawn with weight 1: node for node, and
    # with the same searches, which out-of-bag rows in a node would change
    # by making a pure node look impure. Real weights with zeros grow the
    # tree of the positive-weight rows alone.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    levels = rng.integers(2, 60, size=d)  # repeated values, some tied gains
    X = rng.integers(0, levels, size=(n, d)).astype(np.float64)
    y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.float64)
    bins = build_bins(X, max_bins=int(rng.integers(2, 256)))
    if growth == "depth":
        params = _gini_params(max_depth=int(rng.integers(0, 11)))
    else:
        params = TreeParams(objective="gini", max_leaves=int(rng.integers(1, 40)))

    def on_rows(rows):
        return BinMap(cuts=bins.cuts, codes=bins.codes[rows], n_bins=bins.n_bins)

    drawn = rng.integers(0, n, size=n)
    counts = np.bincount(drawn, minlength=n)
    assert (_fit_counting_searches(bins, y, counts, params)
            == _fit_counting_searches(on_rows(drawn), y[drawn], np.ones(n), params))

    # AdaBoost-style: misses scaled up, then normalised, and some rows at 0
    w = np.where(rng.random(n) < 0.3, math.exp(0.7), math.exp(-0.7)) / n
    w[rng.random(n) < 0.4] = 0.0
    w[rng.integers(n)] = 1.0 / n
    w = w / w.sum()
    kept = np.flatnonzero(w)
    assert (_fit_counting_searches(bins, y, w, params)
            == _fit_counting_searches(on_rows(kept), y[kept], w[kept], params))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["gini", "newton"]))
def test_predictions_match_naive_walker(seed, objective):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 4))
    if objective == "gini":
        y = rng.integers(0, 2, size=60).astype(np.float64)
        tree = fit_cart(build_bins(X), y, np.ones(60), params=_gini_params(max_depth=4))
    else:
        g = rng.normal(size=60)
        h = rng.uniform(0.1, 2.0, size=60)
        tree = fit_cart(build_bins(X), g, h, params=_newton_params())
    Q = rng.normal(size=(25, 4))
    fast = predict_many(tree, Q)
    slow = np.array([walk_tree_naive(tree, q) for q in Q])
    assert np.array_equal(fast, slow)


# ---------------------------------------------------------- newton trees


def test_newton_leaf_value_reference():
    # one leaf: G=-2, H=4, lam=1 -> -(-2)/(4+1) = 0.4
    X = np.array([[0.0], [0.0]])
    g = np.array([-1.0, -1.0])
    h = np.array([2.0, 2.0])
    tree = fit_cart(build_bins(X), g, h, params=_newton_params(max_leaves=4))
    assert tree.n_nodes == 1
    assert tree.value[0] == pytest.approx(0.4)


def test_newton_leaves_equal_closed_form_on_partition():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(50, 3))
    g = rng.normal(size=50)
    h = rng.uniform(0.2, 1.5, size=50)
    lam = 1.3
    tree = fit_cart(build_bins(X), g, h, params=_newton_params(max_leaves=6, lam=lam, gamma=0.0))
    # group rows by the leaf they land in and verify -G/(H+lam) per leaf
    leaf_of = np.zeros(50, dtype=int)
    for i in range(50):
        node = 0
        while tree.feature[node] >= 0:
            if X[i, tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        leaf_of[i] = node
    for leaf in np.unique(leaf_of):
        rows = leaf_of == leaf
        expected = -g[rows].sum() / (h[rows].sum() + lam)
        assert tree.value[leaf] == pytest.approx(expected, abs=1e-12)


def test_newton_gamma_blocks_weak_splits():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 2))
    g = rng.normal(scale=0.01, size=40)
    h = np.ones(40)
    eager = fit_cart(build_bins(X), g, h, params=_newton_params(max_leaves=8, gamma=0.0))
    pruned = fit_cart(build_bins(X), g, h, params=_newton_params(max_leaves=8, gamma=10.0))
    assert pruned.n_leaves == 1
    assert eager.n_leaves >= pruned.n_leaves


def test_leafwise_split_order_takes_best_gain_first():
    # Construct data where feature 0 carries a huge gain and feature 1 a
    # small one; with max_leaves=3 the big gain must be consumed first.
    X = np.array(
        [
            [0.0, 0.0],
            [0.0, 1.0],
            [1.0, 0.0],
            [1.0, 1.0],
        ]
        * 5,
        dtype=np.float64,
    )
    g = np.where(X[:, 0] > 0.5, -4.0, 4.0) + np.where(X[:, 1] > 0.5, -0.5, 0.5)
    h = np.ones(len(X))
    tree = fit_cart(build_bins(X), g, h, params=_newton_params(max_leaves=2))
    assert tree.feature[0] == 0


def test_leaf_budget_gain_tie_goes_to_node_made_first(monkeypatch):
    # The root splits on feature 0 into two 4-row children whose best
    # cuts (feature 1) have bit-equal gains: with unit weights every gini
    # sum is a small integer. With one split left in the budget, the left
    # child, made before the right one, takes it.
    X = np.array([[0, 0]] * 3 + [[0, 1]] + [[1, 0]] * 3 + [[1, 1]], dtype=np.float64)
    y = np.array([0, 0, 0, 1, 1, 1, 1, 0], dtype=np.float64)
    search = tree_module._best_split
    found = []

    def recording(*args):
        found.append(search(*args))
        return found[-1]

    monkeypatch.setattr(tree_module, "_best_split", recording)
    tree = fit_cart(build_bins(X), y, np.ones(8), _gini_params(max_depth=None, max_leaves=3))
    root, left, right = found  # searched in creation order; grandchildren are pure
    assert root[1] == 0
    assert left[1] == right[1] == 1
    assert left[0] == right[0] > 0
    assert tree.feature.tolist() == [0, 1, -1, -1, -1]
    assert tree.left.tolist() == [1, 3, -1, -1, -1]


# ----------------------------------------------------------- validation


def test_params_require_exactly_one_growth_limit():
    with pytest.raises(ConfigError):
        TreeParams(objective="gini", min_samples_leaf=1)
    with pytest.raises(ConfigError):
        TreeParams(objective="newton", max_depth=3, max_leaves=8, min_samples_leaf=1)


def test_params_reject_an_unknown_objective():
    with pytest.raises(ConfigError, match="^unknown objective 'entropy'$"):
        TreeParams(objective="entropy", max_depth=1)


def test_zero_rows_fail_before_the_weights_check():
    bins = build_bins(np.empty((0, 2)))
    with pytest.raises(ValidationError, match="^cannot fit a tree on zero rows$"):
        fit_cart(bins, np.empty(0), np.empty(0), params=_gini_params())


def test_gini_requires_binary_targets():
    X = np.array([[0.0], [1.0]])
    with pytest.raises(ValidationError):
        fit_cart(build_bins(X), np.array([0.0, 2.0]), np.ones(2), params=_gini_params())


def test_negative_weights_rejected():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    with pytest.raises(ValidationError):
        fit_cart(build_bins(X), y, np.array([1.0, -1.0]), params=_gini_params())
    with pytest.raises(ValidationError):
        fit_cart(build_bins(X), y, np.zeros(2), params=_gini_params())


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["targets", "weights"])
@pytest.mark.parametrize("objective", ["gini", "newton"])
def test_nonfinite_targets_and_weights_rejected(objective, name, bad):
    # a NaN weight passes both `w < 0` and `w > 0`, and an inf weight makes
    # inf * 0 a NaN in plane A, so no later check would catch either
    given = {"targets": np.array([0.0, 1.0, 0.0]), "weights": np.ones(3)}
    given[name][1] = bad
    params = _gini_params() if objective == "gini" else _newton_params()
    with pytest.raises(ValidationError, match=rf"^{name} must be finite \(no NaN/inf\)$"):
        fit_cart(build_bins(np.arange(3.0).reshape(3, 1)), given["targets"], given["weights"],
                 params)


def test_shape_mismatch_rejected():
    X = np.array([[0.0], [1.0]])
    with pytest.raises(ValidationError):
        fit_cart(build_bins(X), np.array([0.5, -0.5, 0.1]), np.ones(2), params=_newton_params())
    with pytest.raises(ValidationError):
        fit_cart(build_bins(X), np.array([0.5, -0.5]), np.ones(3), params=_newton_params())
