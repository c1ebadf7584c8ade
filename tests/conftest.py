"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately reimplement behavior in the most naive way
possible (pairwise rank counting, recursive path walking, projected
gradient on the SVM dual) so the production implementations are checked
against genuinely different computations.
"""

from __future__ import annotations

import heapq
import importlib.util
import math
import os
from pathlib import Path

# The SVM pins, the whole-report digest and perfbench/golden.json were
# recorded at 2 OpenBLAS threads, and the SVM bits depend on the count.
# OpenBLAS reads it once, when numpy loads, so it is set before any import
# of numpy; a count already set in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    if not os.environ.get(_var):
        os.environ[_var] = "2"

import numpy as np
import pytest
from hypothesis import settings

from pdvox.dataset import Dataset

# CI runs with --hypothesis-profile=ci: every run draws the same examples,
# so a red run means the code changed, and a failure prints the blob that
# reproduces it (@reproduce_failure). Local runs keep the random default.
settings.register_profile("ci", derandomize=True, print_blob=True)

REPO_ROOT = Path(__file__).resolve().parent.parent
SYNTHETIC_CSV = REPO_ROOT / "data" / "synthetic_vocal.csv"
UCI_CSV = REPO_ROOT / "data" / "parkinsons.data"


def resolve_uci_path() -> Path | None:
    """The original recordings: PDVOX_DATA, else the file if fetched into
    data/, else None."""
    env = os.environ.get("PDVOX_DATA")
    if env and Path(env).exists():
        return Path(env)
    if UCI_CSV.exists():
        return UCI_CSV
    return None


@pytest.fixture(scope="session")
def data_path() -> Path:
    """Evaluation data: the original recordings if present, else the
    committed synthetic stand-in."""
    path = resolve_uci_path() or SYNTHETIC_CSV
    if not path.exists():
        pytest.skip(f"no evaluation data file at {path}")
    return path


@pytest.fixture(scope="session")
def uci_path() -> Path:
    path = resolve_uci_path()
    if path is None:
        pytest.skip(
            "original recordings file not present (run scripts/fetch_uci_parkinsons.py); "
            "file-specific expectations are skipped"
        )
    return path


def load_script(path: str):
    """The Python file at ``path``, relative to the repository root (a
    script or a benchmark module), loaded as a fresh module."""
    path = REPO_ROOT / path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_dataset(X, y, names=None) -> Dataset:
    """X and y as given, so that Dataset converts and checks them itself."""
    if names is None:
        names = tuple(f"f{i}" for i in range(np.shape(X[:1])[1]))  # first row's width
    return Dataset(
        ids=tuple(f"r{i}" for i in range(len(X))),
        features=X,
        labels=y,
        feature_names=names,
    )


# ---------------------------------------------------------------- oracles


def brute_force_auc(scores, labels) -> float:
    """Pairwise rank statistic: P(s+ > s-) + 0.5 P(s+ = s-)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def walk_tree_naive(tree, x) -> float:
    """Recursive single-row router, independent of predict_many."""

    def descend(node: int) -> float:
        feat = int(tree.feature[node])
        if feat < 0:
            return float(tree.value[node])
        if float(x[feat]) <= float(tree.threshold[node]):
            return descend(int(tree.left[node]))
        return descend(int(tree.right[node]))

    return descend(0)


def naive_gini_stump(X, y, w):
    """Exhaustive best single split by weighted Gini decrease.

    Thresholds are midpoints between adjacent unique values per feature;
    ties resolve to the lowest feature index, then lowest threshold —
    mirroring the production tie rule through an unrelated code path.
    Returns (gain, feature, threshold) or None. Gains use exact
    accumulation over row subsets.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)

    def weighted_impurity(mask) -> float:
        total = math.fsum(w[mask].tolist())
        if total == 0.0:
            return 0.0
        w1 = math.fsum((w[mask] * y[mask]).tolist())
        return 2.0 * w1 * (total - w1) / total

    parent = weighted_impurity(np.ones(len(y), dtype=bool))
    best = None
    for f in range(X.shape[1]):
        uniq = np.unique(X[:, f])
        for a, b in zip(uniq[:-1], uniq[1:]):
            threshold = (a + b) / 2.0
            left = X[:, f] <= threshold
            if math.fsum(w[left].tolist()) == 0.0 or math.fsum(w[~left].tolist()) == 0.0:
                continue
            gain = parent - weighted_impurity(left) - weighted_impurity(~left)
            if best is None or gain > best[0] + 1e-15:
                best = (gain, f, threshold)
    if best is None or best[0] <= 1e-12:
        return None
    return best


def reference_best_split(hist, bins, params):
    """Split search as ``fit_cart`` first did it: the highest-gain
    (gain, feature, bin, threshold) over one node's full (3, d, padded)
    bin grid, with freshly allocated temporaries, or None. Ties go to the
    first maximum (lowest feature, then lowest cut), and a cut on a
    padding column (past a feature's last real bin) is never returned.
    """
    padded = hist.shape[2]
    if padded < 2:
        return None
    totals = hist.sum(axis=2, keepdims=True)
    S_A, S_B, S_C = np.cumsum(hist[:, :, :-1], axis=2)
    R_A, R_B, R_C = totals - np.cumsum(hist[:, :, :-1], axis=2)
    At, Bt, _ = totals
    valid = np.minimum(S_C, R_C) >= params.min_samples_leaf
    with np.errstate(divide="ignore", invalid="ignore"):
        if params.objective == "gini":
            valid &= np.minimum(S_B, R_B) > 0
            parent = At * (Bt - At) / Bt
            gain = 2.0 * (parent - S_A * (S_B - S_A) / S_B - R_A * (R_B - R_A) / R_B)
        else:
            lam = params.lam
            left, right = S_A * S_A / (S_B + lam), R_A * R_A / (R_B + lam)
            gain = 0.5 * (left + right - At * At / (Bt + lam)) - params.gamma
    gain = np.where(valid & np.isfinite(gain), gain, -np.inf)
    f, cut = divmod(int(np.argmax(gain)), padded - 1)  # first maximum
    if not gain[f, cut] > 1e-12 or cut >= bins.n_bins[f] - 1:
        return None
    return float(gain[f, cut]), f, cut, float(bins.cuts[f][cut])


def reference_fit_cart(bins, t, w, params):
    """CART growth as ``fit_cart`` first did it, with the same skip rules.

    Every child gets a full (3, d, padded) histogram: the smaller child's
    by bincount over its rows, the larger one's by subtracting that from
    its parent. Every node that may split is searched on its own by
    :func:`reference_best_split`, and leaf values come from feature 0's
    bin row. Returns the five node arrays.
    """
    t = np.asarray(t, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, d = bins.codes.shape
    a, b = (w * t, w) if params.objective == "gini" else (t, w)
    padded = int(bins.n_bins.max())

    def histogram(rows):
        flat = (bins.codes[rows].astype(np.int64) + np.arange(d) * padded).ravel()
        size = d * padded
        counts = np.bincount(flat, minlength=size).astype(np.float64)
        a_hist = np.bincount(flat, weights=np.repeat(a[rows], d), minlength=size)
        b_hist = np.bincount(flat, weights=np.repeat(b[rows], d), minlength=size)
        return np.stack([h.reshape(d, padded) for h in (a_hist, b_hist, counts)])

    def can_split(rows, depth):
        if params.max_depth is not None and depth >= params.max_depth:
            return False
        if rows.size < 2 * params.min_samples_leaf:
            return False
        return params.objective != "gini" or bool(np.any(t[rows] != t[rows][0]))

    feature, threshold, left, right, value = [], [], [], [], []

    def node(rows, hist, depth):
        i = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        A, B = float(hist[0, 0].sum()), float(hist[1, 0].sum())
        if params.objective == "gini":
            value.append(1.0 if A >= B - A else 0.0)
        else:
            value.append(-A / (B + params.lam) if B + params.lam > 0 else 0.0)
        best = reference_best_split(hist, bins, params) if can_split(rows, depth) else None
        return [i, rows, hist, depth, best]

    def split(state):
        i, rows, hist, depth, (_, feat, cut, thr) = state
        goes_left = bins.codes[rows, feat] <= cut
        l_rows, r_rows = rows[goes_left], rows[~goes_left]
        if l_rows.size <= r_rows.size:
            l_hist = histogram(l_rows)
            r_hist = hist - l_hist
        else:
            r_hist = histogram(r_rows)
            l_hist = hist - r_hist
        feature[i], threshold[i], value[i] = feat, thr, np.nan
        left[i] = len(feature)
        l_node = node(l_rows, l_hist, depth + 1)
        right[i] = len(feature)
        return l_node, node(r_rows, r_hist, depth + 1)

    rows = np.arange(n, dtype=np.int64)
    root = node(rows, histogram(rows), 0)
    if params.max_depth is not None:
        frontier = [root]
        while frontier:
            frontier = [c for s in frontier if s[4] is not None for c in split(s)]
    else:
        heap, seq, leaves = [], 0, 1
        if root[4] is not None:
            heap.append((-root[4][0], seq, root))
        while heap and leaves < params.max_leaves:
            for child in split(heapq.heappop(heap)[2]):
                if child[4] is not None:
                    seq += 1
                    heapq.heappush(heap, (-child[4][0], seq, child))
            leaves += 1
    return (
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(value, dtype=np.float64),
    )


def project_box_hyperplane(z, y, C) -> np.ndarray:
    """Euclidean projection of z onto {0 <= a <= C, sum(a*y) = 0}.

    The projection is clip(z - nu*y, 0, C) for the nu that zeroes the
    constraint g(nu) = sum(clip(z - nu*y, 0, C) * y). g is non-increasing
    and piecewise linear with kinks where z_i - nu*y_i hits 0 or C, so the
    root is found exactly: evaluate g at every kink, then interpolate
    linearly between the last kink with g > 0 and the first with g <= 0.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    kinks = np.sort(np.concatenate([z / y, (z - C) / y]))
    g = np.sum(np.clip(z - kinks[:, None] * y, 0.0, C) * y, axis=1)
    k = int(np.argmax(g <= 0))  # g(kinks[-1]) <= 0: every term sits at a bound
    nu = kinks[k]
    if k > 0 and g[k] < 0:
        lo, hi = kinks[k - 1], kinks[k]
        nu = lo + g[k - 1] * (hi - lo) / (g[k - 1] - g[k])
    return np.clip(z - nu * y, 0.0, C)


def projected_gradient_svm(K, y, C, iters=4000) -> tuple[np.ndarray, float]:
    """Reference dual maximizer: projected gradient ascent on
    W(a) = sum(a) - 0.5 (a*y)' K (a*y). Returns (alpha, W)."""
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    alpha = project_box_hyperplane(np.full(n, 0.5 * C), y, C)
    eig_bound = float(np.max(np.sum(np.abs(K), axis=1)))  # Gershgorin
    step = 1.0 / max(eig_bound, 1e-9)
    for _ in range(iters):
        grad = 1.0 - y * (K @ (alpha * y))
        alpha = project_box_hyperplane(alpha + step * grad, y, C)
    v = alpha * y
    objective = float(np.sum(alpha) - 0.5 * v @ K @ v)
    return alpha, objective


def reference_kernel_matrix(A, B, gamma) -> np.ndarray:
    """RBF kernel as one whole-matrix expression: the element-wise steps
    of the solver's blocked in-place kernel, in the same order."""
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def dual_objective(K, y, alpha) -> float:
    v = np.asarray(alpha, dtype=np.float64) * np.asarray(y, dtype=np.float64)
    return float(np.sum(alpha) - 0.5 * v @ K @ v)


def reference_neighbor_table(minority, k) -> np.ndarray:
    """SMOTE's (m, k) nearest-neighbour indices from the whole (m, m, d)
    difference tensor at once: own row excluded, ties to the lower index."""
    diffs = minority[:, None, :] - minority[None, :, :]
    sq_dist = np.einsum("ijk,ijk->ij", diffs, diffs)
    np.fill_diagonal(sq_dist, np.inf)
    return np.argsort(sq_dist, axis=1, kind="stable")[:, :k]


def recover_interpolation_u(base, neighbor, synth, tol=1e-9):
    """The single u with synth = base + u*(neighbor - base), or None.

    Coordinates where neighbor == base are consistent with any u; the
    others must agree on one u in [0, 1] within tol.
    """
    base = np.asarray(base, dtype=np.float64)
    neighbor = np.asarray(neighbor, dtype=np.float64)
    synth = np.asarray(synth, dtype=np.float64)
    span = neighbor - base
    live = np.abs(span) > 1e-12 * (1.0 + np.abs(base) + np.abs(neighbor))
    if not live.any():
        return 0.0 if np.allclose(synth, base, atol=tol) else None
    us = (synth[live] - base[live]) / span[live]
    u = float(us[0])
    if np.max(np.abs(us - u)) > tol:
        return None
    if u < -tol or u > 1.0 + tol:
        return None
    # the dead coordinates must still match the base point
    dead = ~live
    if dead.any() and np.max(np.abs(synth[dead] - base[dead])) > tol * (
        1.0 + np.max(np.abs(base))
    ):
        return None
    return u


# ------------------------------------------------- acceptance summary hook

_ACCEPTANCE_RESULTS: dict[str, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if item.get_closest_marker("acceptance") is None:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _ACCEPTANCE_RESULTS[item.nodeid] = report.outcome.upper()


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid, outcome in sorted(_ACCEPTANCE_RESULTS.items()):
        label = {"PASSED": "PASS", "FAILED": "FAIL", "SKIPPED": "SKIP"}.get(
            outcome, outcome
        )
        terminalreporter.write_line(f"{label}  {nodeid}")
