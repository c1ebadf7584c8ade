"""RBF-kernel SVM: kernel values, KKT conditions, and dual-solver oracles."""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SYNTHETIC_CSV,
    dual_objective,
    make_dataset,
    projected_gradient_svm,
    reference_kernel_matrix,
)
from pdvox import svm
from pdvox.dataset import Standardizer, load_dataset, stratified_split, transform_features
from pdvox.errors import ConfigError, ValidationError
from pdvox.resample import smote
from pdvox.svm import SvmParams, decision_scores, fit_svm


def _plain_kernel(X, gamma):
    sq = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1)
    return np.exp(-gamma * sq)


def _two_blobs(n_per=12, d=3, seed=0, sep=3.0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.normal(0.0, 1.0, size=(n_per, d)),
            rng.normal(sep, 1.0, size=(n_per, d)),
        ]
    )
    y = np.array([0] * n_per + [1] * n_per)
    return make_dataset(X, y)


def _kkt_violations(model, train, params, tol=1e-3):
    """Count KKT violations at tolerance tol, mirroring the solver's own
    standardized view of the data through public pieces only."""
    Xs = transform_features(model.standardizer, train.features)
    y = 2.0 * train.labels - 1.0
    alphas = np.array(model.alphas)
    f = decision_scores(model, train.features)
    viol = 0
    for i in range(len(y)):
        margin = y[i] * f[i]
        if alphas[i] <= 1e-9:
            ok = margin >= 1.0 - tol
        elif alphas[i] >= params.C - 1e-9:
            ok = margin <= 1.0 + tol
        else:
            ok = abs(margin - 1.0) <= tol
        viol += 0 if ok else 1
    return viol


# ---------------------------------------------------------------- kernel


def _pair_kernel(x, z, gamma):
    return float(svm._kernel_matrix(np.array([x], float), np.array([z], float), gamma)[0, 0])


def test_rbf_reference_values():
    assert _pair_kernel([0.0, 0.0], [0.0, 0.0], gamma=0.5) == 1.0
    assert _pair_kernel([1.0, 0.0], [0.0, 0.0], gamma=0.5) == pytest.approx(
        math.exp(-0.5)
    )
    assert _pair_kernel([1.0, 1.0], [-1.0, -1.0], gamma=0.25) == pytest.approx(
        math.exp(-2.0)
    )


def test_rbf_bounds_and_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.normal(size=4), rng.normal(size=4)
        k = _pair_kernel(a, b, gamma=0.7)
        assert 0.0 < k <= 1.0
        assert k == _pair_kernel(b, a, gamma=0.7)


def test_rbf_shape_mismatch():
    model = fit_svm(make_dataset(np.array([[-1.0], [1.0]]), np.array([0, 1])), SvmParams())
    with pytest.raises(ValidationError):
        decision_scores(model, np.array([[1.0, 2.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scores_reject_nonfinite_features(bad):
    train = _two_blobs(seed=3)
    model = fit_svm(train, SvmParams())
    X = train.features[:3].copy()
    X[1] = bad
    with pytest.raises(ValidationError, match=r"features must be finite \(no NaN/inf\)"):
        decision_scores(model, X)


_BLOCK = svm._KERNEL_BLOCK_ROWS


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(
        st.integers(1, 12), st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    ),
    m=st.integers(1, 40),
    d=st.integers(1, 6),
    gamma=st.floats(1e-3, 10.0),
    same=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matrix_matches_whole_matrix_oracle(n, m, d, gamma, same, seed):
    # Bit-equal to the one-expression kernel on either side of the block
    # height; repeated rows drive squared distances to rounding dust that
    # the clamp at 0 must treat the same way.
    rng = np.random.default_rng(seed)
    A = rng.normal(scale=3.0, size=(n, d))
    A[n // 2 :] = A[: n - n // 2]
    B = A if same else rng.normal(scale=3.0, size=(m, d))
    if not same:
        B[: min(m, n)] = A[: min(m, n)]
    K = svm._kernel_matrix(A, B, gamma)
    assert np.array_equal(K, reference_kernel_matrix(A, B, gamma))
    if same:
        assert np.array_equal(K, K.T)


# ------------------------------------------------------------- reference


def test_symmetric_pair_reference_solution():
    # One point per class, mirrored: alpha_1 = alpha_2 by symmetry; the
    # bias vanishes and both points are support vectors on the margin.
    train = make_dataset(np.array([[-1.0], [1.0]]), np.array([0, 1]))
    model = fit_svm(train, SvmParams(C=1.0, gamma=0.5))
    assert model.converged
    a = np.array(model.alphas)
    assert a[0] == pytest.approx(a[1], abs=1e-9)
    assert abs(model.bias) <= 1e-9
    assert np.dot(a, [-1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    f_pos = decision_scores(model, np.array([[1.0]]))[0]
    f_neg = decision_scores(model, np.array([[-1.0]]))[0]
    assert f_pos == pytest.approx(-f_neg, abs=1e-9)
    assert f_pos > 0


def test_duplicated_conflicting_labels_saturate_alphas():
    # Identical coordinates with opposite labels cannot be separated:
    # both multipliers run to the box ceiling C.
    X = np.array([[0.5, 0.5], [0.5, 0.5], [-2.0, 1.0], [2.0, -1.0]])
    y = np.array([1, 0, 0, 1])
    model = fit_svm(make_dataset(X, y), SvmParams(C=1.0, gamma=0.5))
    a = np.array(model.alphas)
    assert a[0] == pytest.approx(1.0, abs=1e-6)
    assert a[1] == pytest.approx(1.0, abs=1e-6)


def test_equality_constraint_holds():
    train = _two_blobs(seed=2)
    model = fit_svm(train, SvmParams())
    y = 2.0 * train.labels - 1.0
    assert abs(float(np.dot(model.alphas, y))) <= 1e-6


def test_kkt_conditions_at_tolerance():
    params = SvmParams()
    train = _two_blobs(n_per=20, seed=3, sep=2.0)
    model = fit_svm(train, params)
    assert model.converged
    assert _kkt_violations(model, train, params) == 0


def test_non_bound_support_vectors_sit_on_margin():
    params = SvmParams(C=5.0)
    train = _two_blobs(n_per=15, seed=4, sep=2.5)
    model = fit_svm(train, params)
    y = 2.0 * train.labels - 1.0
    f = decision_scores(model, train.features)
    a = np.array(model.alphas)
    interior = (a > 1e-8) & (a < params.C - 1e-8)
    for i in np.where(interior)[0]:
        assert y[i] * f[i] == pytest.approx(1.0, abs=5e-3)


def test_objective_trace_non_decreasing_and_consistent():
    train = _two_blobs(n_per=14, seed=5, sep=1.5)
    model = fit_svm(train, SvmParams())
    trace = np.array(model.objective_trace)
    assert trace[0] == 0.0
    assert np.all(np.diff(trace) >= -1e-9)
    Xs = transform_features(model.standardizer, train.features)
    y = 2.0 * train.labels - 1.0
    K = _plain_kernel(Xs, model.gamma)
    final = dual_objective(K, y, np.array(model.alphas))
    assert trace[-1] == pytest.approx(final, abs=1e-8)


def test_label_swap_antisymmetry():
    train = _two_blobs(n_per=10, seed=6, sep=2.0)
    flipped = make_dataset(train.features, 1 - train.labels)
    a = fit_svm(train, SvmParams())
    b = fit_svm(flipped, SvmParams())
    fa = decision_scores(a, train.features)
    fb = decision_scores(b, train.features)
    assert np.allclose(fa, -fb, atol=1e-9)


def test_gamma_scale_resolves_to_inverse_dimension_on_full_rank():
    train = _two_blobs(n_per=16, d=4, seed=7)
    model = fit_svm(train, SvmParams(gamma="scale"))
    # standardized features have unit variance, so scale = 1/d
    assert model.gamma == pytest.approx(1.0 / 4.0, rel=1e-9)


def test_gamma_scale_is_one_when_every_column_is_constant():
    # every standardized column is 0, so their mean variance is 0
    ds = make_dataset(np.full((4, 2), 3.0), [0, 1, 0, 1])
    with pytest.warns(UserWarning, match=r"constant columns standardize to zero: \['f0', 'f1'\]"):
        model = fit_svm(ds)
    assert model.gamma == 1.0


def test_gamma_explicit_value_respected():
    train = _two_blobs(seed=8)
    model = fit_svm(train, SvmParams(gamma=0.123))
    assert model.gamma == 0.123


def test_single_class_rejected():
    X = np.zeros((4, 2))
    with pytest.raises(ValidationError, match="SVM needs both classes in the training set"):
        fit_svm(make_dataset(X, np.ones(4, dtype=int)), SvmParams())


def test_param_validation():
    with pytest.raises(ConfigError):
        SvmParams(C=0.0)
    with pytest.raises(ConfigError):
        SvmParams(gamma=-1.0)
    with pytest.raises(ConfigError):
        SvmParams(gamma="auto")
    with pytest.raises(ConfigError):
        SvmParams(tol=0.0)
    with pytest.raises(ConfigError):
        SvmParams(max_passes=0)


@pytest.mark.parametrize("setting", ["C", "gamma", "tol"])
def test_float_params_reject_booleans(setting):
    # True compares as 1 and would pass the range check
    with pytest.raises(ConfigError, match=f"{setting} must be finite and > 0, got True"):
        SvmParams(**{setting: True})


def test_deterministic_fit():
    train = _two_blobs(seed=9)
    a = fit_svm(train, SvmParams())
    b = fit_svm(train, SvmParams())
    assert a == b


def test_support_vectors_restricted_to_positive_alphas():
    train = _two_blobs(n_per=18, seed=10, sep=3.5)
    model = fit_svm(train, SvmParams())
    a = np.array(model.alphas)
    assert model.support_vectors.shape[0] == int(np.sum(a > 0))
    assert len(model.dual_coef) == model.support_vectors.shape[0]


def test_decision_scores_shape_checks():
    train = _two_blobs(seed=11)
    model = fit_svm(train, SvmParams())
    with pytest.raises(ValidationError):
        decision_scores(model, np.zeros((2, 7)))
    with pytest.raises(ValidationError):
        decision_scores(model, np.zeros(3))


def test_decision_scores_without_support_vectors_are_the_bias():
    # the empty (m, 0) kernel contributes 0 to every row
    d = 3
    model = svm.SvmModel(
        support_vectors=np.empty((0, d)),
        dual_coef=np.empty(0),
        bias=-0.25,
        gamma=0.5,
        standardizer=Standardizer(means=np.zeros(d), stds=np.ones(d), constant=np.zeros(d, bool)),
        alphas=(),
        objective_trace=(0.0,),
        sweeps=0,
        converged=True,
    )
    X = np.random.default_rng(0).normal(size=(5, d))
    assert decision_scores(model, X).tolist() == [-0.25] * 5


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matches_projected_gradient_oracle(seed):
    # An unrelated solver (projected gradient on the dual) must land on
    # the same objective value; the optimum is unique in f even when
    # alpha is not.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 16))
    X = rng.normal(size=(n, 2))
    y = rng.integers(0, 2, size=n)
    y[0], y[1] = 0, 1
    train = make_dataset(X, y)
    params = SvmParams(C=1.0, gamma=0.5)
    model = fit_svm(train, params)
    Xs = transform_features(model.standardizer, train.features)
    ypm = 2.0 * train.labels - 1.0
    K = _plain_kernel(Xs, 0.5)
    _, theirs = projected_gradient_svm(K, ypm, C=1.0)
    ours = dual_objective(K, ypm, np.array(model.alphas))
    assert ours >= theirs - 5e-4 * (1.0 + abs(theirs))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kkt_property_random_small_problems(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 30))
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, size=n)
    y[0], y[1] = 0, 1
    train = make_dataset(X, y)
    params = SvmParams()
    model = fit_svm(train, params)
    if model.converged:
        assert _kkt_violations(model, train, params) == 0


# SHA-256 of alphas, objective trace, bias and sweeps from fit_svm on the
# default pipeline's training split (SMOTE'd, test fraction 0.2) of the
# committed synthetic file, per seed; any change in the solver's arithmetic
# moves them.
PINNED_FIT_DIGESTS = {
    42: "73c3ca5bfe46150f430968ffd7218184aed7db8fc2e8f2f6b3e4fb7803f950a8",
    43: "7a0bb747db9c4499634717bc4c77765a836ebb176a606a63e8f70cd251c9d938",
    44: "624fa79de3ccd52f7370b8af04f0463299bd39f9cd1a2f95c754993239911766",
}


def _fit_digest(model) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(model.alphas, dtype=np.float64).tobytes())
    h.update(np.asarray(model.objective_trace, dtype=np.float64).tobytes())
    h.update(np.float64(model.bias).tobytes())
    h.update(str(model.sweeps).encode())
    return h.hexdigest()


@pytest.mark.blas_pinned
@pytest.mark.parametrize("seed", sorted(PINNED_FIT_DIGESTS))
def test_fit_on_committed_file_matches_pinned_digest(seed):
    data = load_dataset(SYNTHETIC_CSV)
    train = smote(stratified_split(data, 0.2, seed)[0], k_neighbors=5, seed=seed)
    model = fit_svm(train, SvmParams())
    assert _fit_digest(model) == PINNED_FIT_DIGESTS[seed]


# Hand-built fits that reach pair-step branches the committed file's fits
# at seeds 42-44 never take, pinned with _fit_digest like the fits above.
# "flat": rows 0 and 1 coincide with opposite labels, so K11 = K22 = K12 and
# eta = 0; the endpoint comparison moves both to C, and with neither
# multiplier strictly inside the box the bias is 0.5 * (b1 + b2).
# "snaps": multiplier dust within _STEP_EPS of 0 and of C is snapped onto
# the box, and one step ends with both multipliers at bounds (averaged bias).
# "flat-rejected": rows 0 and 3 coincide with the same label, so eta = 0 for
# the pair (0, 3); neither box endpoint beats the current point, so that step
# is refused and leaves every multiplier, the bias, the errors and the trace
# as they were.
PINNED_BRANCH_FITS = {
    "flat": (
        [[0.5, 0.5], [0.5, 0.5], [-2.0, 1.0], [2.0, -1.0]],
        [1, 0, 0, 1],
        SvmParams(C=1.0, gamma=0.5),
        "6c6c897f993a4eb7beee0b2d389a9592b071af236b6d9e0d38c92043e2adb525",
    ),
    "snaps": (
        [[-1.2, -1.6], [-0.9, -0.2], [0.4, -0.5], [2.2, -0.8],
         [-0.5, -0.6], [0.7, 0.3], [-1.8, 1.1], [-0.7, -0.3]],
        [0, 1, 1, 0, 1, 0, 1, 1],
        SvmParams(C=0.7, gamma=1.0),
        "62553c6602aa3dc319646a0599fdf1ae8203677f0f7b23d252ea70f3ccd4ea09",
    ),
    "flat-rejected": (
        [[1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [1.0, 0.0]],
        [0, 1, 1, 0],
        SvmParams(C=1.0, gamma=1.0),
        "3a52fdea1943350c12878578b7ebcab9101f7ad7c28e27ed8a73cadabccd4c98",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BRANCH_FITS))
def test_branch_fit_matches_pinned_digest(name):
    X, y, params, digest = PINNED_BRANCH_FITS[name]
    model = fit_svm(make_dataset(np.array(X), np.array(y)), params)
    assert model.converged
    assert _fit_digest(model) == digest


def test_sweep_cap_stop_warns(monkeypatch):
    monkeypatch.setattr(svm, "_SWEEP_CAP", 1)
    with pytest.warns(RuntimeWarning, match=r"after 1 sweeps: stopped by the sweep cap \(1\)"):
        model = fit_svm(_two_blobs(n_per=12, seed=0, sep=1.0), SvmParams())
    assert not model.converged
    assert model.sweeps == 1


def test_quiet_pass_stop_warns_and_converged_fit_does_not():
    train = _two_blobs(n_per=12, seed=0, sep=1.0)
    with pytest.warns(RuntimeWarning, match=r"stopped by the quiet-pass limit \(max_passes=1 "):
        model = fit_svm(train, SvmParams(tol=1e-14, max_passes=1))
    assert not model.converged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit_svm(train, SvmParams()).converged
