"""Soft-margin RBF-kernel SVM trained by sequential minimal optimization.

Training standardizes features internally (z-scores fitted on the
training rows), maps labels to {-1, +1}, and ascends the dual objective

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

The per-pair arithmetic (bounds, eta, clipping, the endpoint comparison,
snapping, the bias) and the per-row KKT check run on Python floats read
from list mirrors of alpha, y and the kernel diagonal and from ``.item()``
reads of E and K, not on numpy float64 scalars, which cost several times
more per operation. That is exact: both are IEEE binary64 with
round-to-nearest, so + - * /, comparisons, min, max and abs give the same
bits, and the results enter the array expressions as the same values.
The per-step reductions call the array methods (``.sum()``,
``.nonzero()``, ``.argmax()``), which skip about a microsecond of numpy's
module-level dispatch per call and reduce in the same order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .dataset import Dataset, require_both_classes
from .errors import (
    ConfigError, FrozenArrays, ValidationError, check_float_field, check_int_field, check_matrix,
)

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
class Standardizer(FrozenArrays):
    """Per-column z-score transform fitted on training rows only.

    Constant training columns are flagged and map to all-zero output.
    ``stds`` holds the sample (n-1 denominator) standard deviation, with
    1.0 stored in flagged slots so the transform stays division-safe.
    """

    ARRAYS = {"means": np.float64, "stds": np.float64, "constant": bool}
    means: np.ndarray
    stds: np.ndarray
    constant: np.ndarray


def fit_standardizer(train: Dataset) -> Standardizer:
    if train.n_records == 0:
        raise ValidationError("cannot fit standardizer on an empty dataset")
    X = train.features
    means = X.mean(axis=0)
    constant = np.all(X == X[0], axis=0)
    if constant.any():
        names = [train.feature_names[i] for i in np.flatnonzero(constant)]
        warnings.warn(f"constant columns standardize to zero: {names}", stacklevel=2)
    stds = np.ones(X.shape[1], dtype=np.float64)
    live = ~constant
    if live.any():
        stds[live] = X[:, live].std(axis=0, ddof=1)
    return Standardizer(means=means, stds=stds, constant=constant)


def transform_features(s: Standardizer, X: np.ndarray) -> np.ndarray:
    """Apply the z-score transform to a raw feature matrix."""
    X = np.asarray(X, dtype=np.float64)
    out = (X - s.means) / s.stds
    out[..., s.constant] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class SvmModel(FrozenArrays):
    """Fitted solver state plus diagnostics.

    ``support_vectors`` are standardized rows with alpha > 0 and
    ``dual_coef`` holds their alpha_i * y_i. ``alphas`` keeps the full
    multiplier vector (training-row order) and ``objective_trace`` the
    dual objective after each accepted step, for auditing.
    """

    ARRAYS = {"support_vectors": np.float64, "dual_coef": np.float64}
    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: float
    gamma: float
    standardizer: Standardizer
    alphas: tuple[float, ...]
    objective_trace: tuple[float, ...]
    sweeps: int
    converged: bool
    n_features: int


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
    if mean_var <= 0 or d == 0:
        return 1.0
    return 1.0 / (d * mean_var)


class _SmoState:
    """Mutable solver workspace over a fixed kernel matrix."""

    def __init__(self, K: np.ndarray, y: np.ndarray, C: float, tol: float):
        self.K = K
        self.y = y
        self.C = float(C)
        self.tol = tol
        self.n = y.shape[0]
        self.alpha = np.zeros(self.n, dtype=np.float64)
        # Python-float mirrors for the scalar path (module docstring)
        self.alpha_list = self.alpha.tolist()
        self.y_list = y.tolist()
        self.diag_list = K.diagonal().tolist()
        # alpha * y and the 0 < alpha < C mask, kept current at the two
        # positions each step changes
        self.alpha_y = self.alpha * y
        self.free = np.zeros(self.n, dtype=bool)
        self.b = 0.0
        self.E = -y.astype(np.float64)  # f(x) = 0 everywhere at the start
        self.trace: list[float] = [0.0]

    def refresh_errors(self) -> None:
        self.E = self.K @ self.alpha_y + self.b - self.y

    def objective(self) -> float:
        """Dual objective from the (incrementally maintained) error cache."""
        F = self.E + self.y - self.b
        return float(self.alpha.sum() - 0.5 * np.dot(self.alpha_y, F))

    def take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        alpha, y, K, C = self.alpha_list, self.y_list, self.K, self.C
        a1o, a2o = alpha[i1], alpha[i2]
        y1, y2 = y[i1], y[i2]
        E1, E2 = self.E.item(i1), self.E.item(i2)
        s = y1 * y2
        if s < 0:
            L = max(0.0, a2o - a1o)
            H = min(C, C + a2o - a1o)
        else:
            L = max(0.0, a1o + a2o - C)
            H = min(C, a1o + a2o)
        if L >= H:
            return False
        k11, k22, k12 = self.diag_list[i1], self.diag_list[i2], K.item(i1, i2)
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2 = a2o + y2 * (E1 - E2) / eta
            a2 = min(max(a2, L), H)
        else:
            # flat or concave direction: compare the dual objective at the
            # two box endpoints and move to the better one
            F1 = E1 + y1 - self.b
            F2 = E2 + y2 - self.b
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
        b1 = self.b - E1 - y1 * d1 * k11 - y2 * d2 * k12
        b2 = self.b - E2 - y1 * d1 * k12 - y2 * d2 * k22
        if 0.0 < a1 < C:
            b_new = b1
        elif 0.0 < a2 < C:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        # K is symmetric, so the contiguous rows K[i] stand in for the columns
        self.E += K[i1] * (y1 * d1) + K[i2] * (y2 * d2) + (b_new - self.b)
        alpha[i1], alpha[i2] = a1, a2
        self.alpha[i1], self.alpha[i2] = a1, a2
        self.alpha_y[i1], self.alpha_y[i2] = a1 * y1, a2 * y2
        self.free[i1], self.free[i2] = 0.0 < a1 < C, 0.0 < a2 < C
        self.b = b_new
        self.trace.append(self.objective())
        return True

    def examine(self, i: int) -> bool:
        """Try to improve the pair (j, i) for the best-looking j."""
        non_bound = self.free.nonzero()[0]
        if non_bound.size > 1:
            j = int(non_bound[np.abs(self.E.item(i) - self.E[non_bound]).argmax()])
            if self.take_step(j, i):
                return True
        for j in chain(non_bound.tolist(), range(self.n)):
            if self.take_step(j, i):
                return True
        return False

    def solve(self, max_passes: int) -> tuple[int, bool]:
        """Sweep all points until KKT holds or progress stalls.

        Returns (sweeps, converged); converged means a full sweep saw no
        KKT violation beyond tol.
        """
        y, alpha, C, tol = self.y_list, self.alpha_list, self.C, self.tol
        quiet = 0
        sweeps = 0
        while quiet < max_passes and sweeps < _SWEEP_CAP:
            self.refresh_errors()
            violations = 0
            changed = 0
            for i in range(self.n):
                r = y[i] * self.E.item(i)
                if (r < -tol and alpha[i] < C) or (r > tol and alpha[i] > 0):
                    violations += 1
                    if self.examine(i):
                        changed += 1
            sweeps += 1
            if violations == 0:
                return sweeps, True
            quiet = quiet + 1 if changed == 0 else 0
        return sweeps, False


def fit_svm(train: Dataset, params: SvmParams = SvmParams()) -> SvmModel:
    """Train on a Dataset; see the module docstring for the procedure."""
    require_both_classes(train, "SVM")
    standardizer = fit_standardizer(train)
    Xs = transform_features(standardizer, train.features)
    y = (2 * train.labels - 1).astype(np.float64)
    gamma = _resolve_gamma(params, Xs)
    K = _kernel_matrix(Xs, Xs, gamma)
    state = _SmoState(K, y, params.C, params.tol)
    sweeps, converged = state.solve(params.max_passes)
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
    support = np.flatnonzero(state.alpha > 0)
    return SvmModel(
        support_vectors=Xs[support],
        dual_coef=state.alpha_y[support],
        bias=state.b,
        gamma=gamma,
        standardizer=standardizer,
        alphas=tuple(state.alpha_list),
        objective_trace=tuple(state.trace),
        sweeps=sweeps,
        converged=converged,
        n_features=train.n_features,
    )


def decision_scores(model: SvmModel, X) -> np.ndarray:
    """Margin f(x) for every row of a raw (unstandardized) matrix."""
    M = check_matrix(X, model.n_features)
    Ms = transform_features(model.standardizer, M)
    K = _kernel_matrix(Ms, model.support_vectors, model.gamma)
    return K @ model.dual_coef + model.bias
