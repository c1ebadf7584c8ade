"""Soft-margin RBF-kernel SVM trained by sequential minimal optimization.

Training standardizes features (``dataset.fit_standardizer``, z-scores of
the training rows), maps labels to {-1, +1}, and ascends the dual objective

    W(alpha) = sum(alpha) - 1/2 * (alpha*y)' K (alpha*y)

two coordinates at a time, always along the equality constraint
sum(alpha*y) = 0. The pair step is analytic when the kernel-induced
curvature eta = K11 + K22 - 2*K12 is positive and an endpoint-objective
comparison otherwise. Convergence means a full deterministic sweep finds
no KKT violation beyond the tolerance; every accepted step appends the
dual objective to a trace so optimizer progress is auditable. A fit that
stops without converging, at the sweep cap or after ``max_passes``
sweeps in a row without a step, emits a RuntimeWarning saying which.

Memory: the kernel is one n x m float64 buffer. The matmul A @ B.T
returns it and the RBF transform finishes it in place, a block of rows
at a time, so a fit on n training rows peaks at about 8*n^2 bytes (28 MB
at n = 1882) plus one block's temporary.

Each accepted step updates the error cache from the kernel rows K[i1]
and K[i2], contiguous O(n) reads, in place of the strided columns the
update is defined by. That is exact because the training kernel is
exactly symmetric: numpy evaluates X @ X.T as a symmetric rank-k update,
and the squared norms enter as a2[i] + a2[j], which commutes.

Candidate order (Platt 1998): a sweep visits the rows in index order, and
a row that violates KKT tries partners until a step is taken: the
non-bound row with the largest |E_i - E_j|, then the non-bound rows, then
all rows, each in index order. The pinned fit digests depend on it.

Each multiplier is held once, in a list of Python floats; the array
expressions read alpha*y, and the objective's sum(alpha) is
(alpha*y*y).sum(), exact because y is +-1. The per-pair arithmetic
(bounds, eta, clipping, the endpoint comparison, snapping, the bias) and
the per-row KKT check run on that list, on list mirrors of y and the
kernel diagonal and on ``.item()`` reads of E and K, not on numpy float64
scalars, which cost several times more per operation. That is exact: both
are IEEE binary64 with round-to-nearest, so + - * /, comparisons, min,
max and abs give the same bits, and the results enter the array
expressions as the same values. The per-step reductions call the array
methods (``.sum()``, ``.nonzero()``, ``.argmax()``), which skip about a
microsecond of numpy's module-level dispatch per call and reduce in the
same order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .dataset import (
    Dataset, Standardizer, fit_standardizer, require_both_classes, transform_features,
)
from .errors import ConfigError, FrozenArrays, check_float_field, check_int_field

#: Minimum multiplier movement for a step to count as progress.
_STEP_EPS = 1e-12

#: Absolute safety limit on full sweeps (convergence normally takes far fewer).
_SWEEP_CAP = 1000

#: Kernel rows finished per block. A block's temporary is this many rows
#: of the n x m kernel, small enough to stay in cache; heights from 32 to
#: 512 timed alike on an 1882-row kernel, one whole-matrix block ~50% slower.
_KERNEL_BLOCK_ROWS = 128


@dataclass(frozen=True)
class SvmParams:
    """gamma may be a positive finite real or the string "scale", which
    resolves to 1 / (n_features * mean per-feature sample variance) on
    the standardized training matrix (variance with n-1 denominator)."""

    C: float = 1.0
    gamma: float | str = "scale"
    tol: float = 1e-3
    max_passes: int = 10

    def __post_init__(self):
        check_float_field(self, "C", gt=0)
        if isinstance(self.gamma, str):
            if self.gamma != "scale":
                raise ConfigError(f"gamma must be positive or 'scale', got {self.gamma!r}")
        else:
            check_float_field(self, "gamma", gt=0)
        check_float_field(self, "tol", gt=0)
        check_int_field(self, "max_passes", 1)


@dataclass(frozen=True, eq=False)
class SvmModel(FrozenArrays):
    """Fitted solver state plus diagnostics.

    ``support_vectors`` are standardized rows with alpha > 0 and
    ``dual_coef`` holds their alpha_i * y_i. ``standardizer`` is the
    training rows' z-score transform, and its width is the model's:
    :func:`decision_scores` reads raw rows through it. ``alphas`` is the
    full multiplier vector, a read-only float64 array in training-row
    order, and ``objective_trace`` the dual objective after each accepted
    step, for auditing.
    """

    ARRAYS = {"support_vectors": np.float64, "dual_coef": np.float64, "alphas": np.float64}
    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: float
    gamma: float
    standardizer: Standardizer
    alphas: np.ndarray
    objective_trace: tuple[float, ...]
    sweeps: int
    converged: bool


def _kernel_matrix(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * max(|a|^2 + |b|^2 - 2 a.b, 0)) for every row pair,
    finished in place over the one n x m buffer the matmul returns."""
    a2 = np.sum(A * A, axis=1)
    b2 = np.sum(B * B, axis=1)
    # one matmul over the whole matrices: splitting it would change the
    # BLAS summation order (and lose the symmetric update when A is B)
    K = A @ B.T
    for start in range(0, K.shape[0], _KERNEL_BLOCK_ROWS):
        rows = slice(start, start + _KERNEL_BLOCK_ROWS)
        blk = K[rows]
        blk *= 2.0
        np.subtract(a2[rows, None] + b2[None, :], blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
        blk *= -gamma
        np.exp(blk, out=blk)
    return K


def _resolve_gamma(params: SvmParams, Xs: np.ndarray) -> float:
    if not isinstance(params.gamma, str):
        return float(params.gamma)
    d = Xs.shape[1]
    mean_var = float(np.mean(Xs.var(axis=0, ddof=1)))
    if mean_var <= 0:
        return 1.0
    return 1.0 / (d * mean_var)


def _smo(K: np.ndarray, y: np.ndarray, C: float, tol: float, max_passes: int):
    """Sweep all rows until KKT holds or progress stalls.

    Returns (alphas, bias, trace, sweeps, converged): the multipliers as
    an array, the objective after each accepted step after a leading 0.0,
    and converged when a full sweep saw no KKT violation beyond tol.
    """
    n = y.shape[0]
    C = float(C)
    alpha = [0.0] * n  # the only copy of the multipliers (module docstring)
    y_list = y.tolist()
    diag = K.diagonal().tolist()
    # alpha * y and the 0 < alpha < C mask, kept current at the two
    # positions each step changes
    alpha_y = np.zeros(n) * y
    free = np.zeros(n, dtype=bool)
    b = 0.0
    trace = [0.0]

    def take_step(i1: int, i2: int) -> bool:
        nonlocal b, E
        if i1 == i2:
            return False
        a1o, a2o = alpha[i1], alpha[i2]
        y1, y2 = y_list[i1], y_list[i2]
        E1, E2 = E.item(i1), E.item(i2)
        s = y1 * y2
        if s < 0:
            L = max(0.0, a2o - a1o)
            H = min(C, C + a2o - a1o)
        else:
            L = max(0.0, a1o + a2o - C)
            H = min(C, a1o + a2o)
        if L >= H:
            return False
        k11, k22, k12 = diag[i1], diag[i2], K.item(i1, i2)
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2 = a2o + y2 * (E1 - E2) / eta
            a2 = min(max(a2, L), H)
        else:
            # flat or concave direction: compare the dual objective at the
            # two box endpoints and move to the better one
            F1 = E1 + y1 - b
            F2 = E2 + y2 - b
            best_gain, a2 = 0.0, a2o
            for cand in (L, H):
                d2 = cand - a2o
                d1 = s * (a2o - cand)
                gain = (
                    d1 + d2
                    - d1 * y1 * F1
                    - d2 * y2 * F2
                    - 0.5 * (d1 * d1 * k11 + d2 * d2 * k22)
                    - d1 * d2 * s * k12
                )
                if gain > best_gain + _STEP_EPS:
                    best_gain, a2 = gain, cand
        if abs(a2 - a2o) < _STEP_EPS * (a2 + a2o + _STEP_EPS):
            return False
        a1 = a1o + s * (a2o - a2)
        # snap multiplier dust onto the box so bound classification is exact
        if a1 < _STEP_EPS:
            a1 = 0.0
        elif a1 > C - _STEP_EPS:
            a1 = C
        if a2 < _STEP_EPS:
            a2 = 0.0
        elif a2 > C - _STEP_EPS:
            a2 = C
        d1, d2 = a1 - a1o, a2 - a2o
        b1 = b - E1 - y1 * d1 * k11 - y2 * d2 * k12
        b2 = b - E2 - y1 * d1 * k12 - y2 * d2 * k22
        if 0.0 < a1 < C:
            b_new = b1
        elif 0.0 < a2 < C:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        # K is symmetric, so the contiguous rows K[i] stand in for the columns
        E += K[i1] * (y1 * d1) + K[i2] * (y2 * d2) + (b_new - b)
        alpha[i1], alpha[i2] = a1, a2
        alpha_y[i1], alpha_y[i2] = a1 * y1, a2 * y2
        free[i1], free[i2] = 0.0 < a1 < C, 0.0 < a2 < C
        b = b_new
        # the dual objective from the error cache; alpha_y * y is alpha
        trace.append(float((alpha_y * y).sum() - 0.5 * np.dot(alpha_y, E + y - b)))
        return True

    quiet = 0
    sweeps = 0
    while quiet < max_passes and sweeps < _SWEEP_CAP:
        E = K @ alpha_y + b - y
        violations = 0
        changed = 0
        for i in range(n):
            r = y_list[i] * E.item(i)
            if (r < -tol and alpha[i] < C) or (r > tol and alpha[i] > 0):
                violations += 1
                # partners in Platt's order: the non-bound row with the
                # largest |E_i - E_j|, then the non-bound rows, then all rows
                non_bound = free.nonzero()[0]
                if (
                    non_bound.size > 1
                    and take_step(int(non_bound[np.abs(E.item(i) - E[non_bound]).argmax()]), i)
                ) or any(take_step(j, i) for j in chain(non_bound.tolist(), range(n))):
                    changed += 1
        sweeps += 1
        if violations == 0:
            return np.array(alpha), b, trace, sweeps, True
        quiet = quiet + 1 if changed == 0 else 0
    return np.array(alpha), b, trace, sweeps, False


def fit_svm(train: Dataset, params: SvmParams = SvmParams()) -> SvmModel:
    """Train on a Dataset; see the module docstring for the procedure."""
    require_both_classes(train, "SVM")
    standardizer = fit_standardizer(train)
    Xs = transform_features(standardizer, train.features)
    y = (2 * train.labels - 1).astype(np.float64)
    gamma = _resolve_gamma(params, Xs)
    K = _kernel_matrix(Xs, Xs, gamma)
    alphas, bias, trace, sweeps, converged = _smo(K, y, params.C, params.tol, params.max_passes)
    if not converged:
        stop = (
            f"the sweep cap ({_SWEEP_CAP})"
            if sweeps >= _SWEEP_CAP
            else f"the quiet-pass limit (max_passes={params.max_passes} sweeps in a row "
            "without a step)"
        )
        warnings.warn(
            f"SVM did not converge after {sweeps} sweeps: stopped by {stop} "
            f"with KKT violations beyond tol={params.tol}",
            RuntimeWarning,
            stacklevel=2,
        )
    support = np.flatnonzero(alphas > 0)
    return SvmModel(
        support_vectors=Xs[support],
        dual_coef=alphas[support] * y[support],
        bias=bias,
        gamma=gamma,
        standardizer=standardizer,
        alphas=alphas,
        objective_trace=tuple(trace),
        sweeps=sweeps,
        converged=converged,
    )


def decision_scores(model: SvmModel, X) -> np.ndarray:
    """Margin f(x) for every row of a raw (unstandardized) matrix; the
    standardizer checks ``X`` (:func:`~pdvox.dataset.transform_features`)."""
    Ms = transform_features(model.standardizer, X)
    K = _kernel_matrix(Ms, model.support_vectors, model.gamma)
    return K @ model.dual_coef + model.bias
