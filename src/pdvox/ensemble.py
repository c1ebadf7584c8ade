"""Tree ensembles: two gradient-boosting variants, AdaBoost, and bagging.

All four learners consume a :class:`~pdvox.dataset.Dataset` and return one
model type, the additive :class:`TreeSum`, which :func:`ensemble_scores`
turns into one real-valued score per row, (base + Σ w_t·tree_t(X)) /
divisor, so every model feeds the same threshold and ROC machinery.

* GBDT — additive Newton trees on logistic-loss gradients; the leaf-wise
  variant grows best-gain-first to a leaf budget, the level-wise variant
  grows breadth-first to a depth limit. The variants differ in nothing
  else: one :class:`GbdtParams` body holds every shared setting and builds
  each round's :class:`~pdvox.tree.TreeParams`, which checks the growth
  settings. The base is the training log-odds and every weight the
  learning rate.
* AdaBoost — weighted-error decision stumps with the classic half-log-odds
  round weights; each stump votes ±1.
* Bagging — full CART trees on bootstrap draw counts, weight 1 each,
  divided by the number of trees: the fraction voting positive.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .dataset import Dataset, require_both_classes
from .errors import ConfigError, check_float_field, check_int_field, check_matrix
from .rng import stream
from .tree import MAX_BINS_LIMIT, Tree, TreeParams, build_bins, fit_cart, predict_many


def _sigmoid(z):
    """1 / (1 + e^-z) from e^-|z|, which never overflows."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _log_loss(margins: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss of raw margins against 0/1 labels."""
    signed = np.where(y == 1, -margins, margins)
    return float(np.mean(np.logaddexp(0.0, signed)))


@dataclass(frozen=True)
class GbdtParams:
    """Boosting settings both variants share. A variant subclass names
    itself in the class attribute ``variant`` and adds its growth limit,
    ``max_leaves`` or ``max_depth``. :class:`TreeParams` checks the growth
    settings, and they are stored back as the Python numbers it holds."""

    rounds: int = 100
    learning_rate: float = 0.1
    lam: float = 1.0
    gamma: float = 0.0
    max_bins: int = MAX_BINS_LIMIT
    min_samples_leaf: int = 1

    def __post_init__(self):
        check_int_field(self, "rounds", 0)
        check_int_field(self, "max_bins", 2, MAX_BINS_LIMIT)
        check_float_field(self, "learning_rate", gt=0, le=1)
        tree = self.tree_params()
        for f in fields(self):
            if hasattr(tree, f.name):
                object.__setattr__(self, f.name, getattr(tree, f.name))

    def tree_params(self) -> TreeParams:
        """Growth settings of every round's Newton tree."""
        return TreeParams(objective="newton", max_depth=getattr(self, "max_depth", None),
                          max_leaves=getattr(self, "max_leaves", None),
                          min_samples_leaf=self.min_samples_leaf, lam=self.lam, gamma=self.gamma)


@dataclass(frozen=True)
class LeafwiseGbdtParams(GbdtParams):
    """lightgbm-like: best-first growth to a leaf budget."""

    variant = "leaf-wise"
    max_leaves: int = 31
    min_samples_leaf: int = 20


@dataclass(frozen=True)
class LevelwiseGbdtParams(GbdtParams):
    """xgboost-like: breadth-first growth to a depth limit."""

    variant = "level-wise"
    max_depth: int = 6


@dataclass(frozen=True)
class AdaBoostParams:
    rounds: int = 100

    def __post_init__(self):
        check_int_field(self, "rounds", 0)


@dataclass(frozen=True)
class BaggingParams:
    n_trees: int = 100
    max_depth: int = 10

    def __post_init__(self):
        check_int_field(self, "n_trees", 1)
        check_int_field(self, "max_depth", 0)


@dataclass(frozen=True)
class TreeSum:
    """An additive tree model: a row scores (base + Σ w_t·tree_t(x)) /
    divisor. ``trace`` holds the fit's diagnostics: GBDT's training loss
    (entry 0 at the base, then one per round) or AdaBoost's weighted error
    of each kept stump; bagging records none."""

    base: float
    weights: tuple[float, ...]
    trees: tuple[Tree, ...]
    divisor: float
    n_features: int
    trace: tuple[float, ...] = ()

    @property
    def stumps(self) -> tuple[Tree, ...]:
        """The trees, under the name the benchmark's AdaBoost counter reads."""
        return self.trees


def fit_gbdt(train: Dataset, params: GbdtParams = LeafwiseGbdtParams()) -> TreeSum:
    """Boost Newton trees on the logistic loss.

    The initial score is the training log-odds ln(n1/n0); each round fits
    a tree to gradients g = p - y with hessians h = p(1 - p) and adds
    ``learning_rate`` times its prediction to every margin. Training
    log-loss is recorded at the base score and after every round.
    """
    require_both_classes(train, "gradient boosting")
    n0, n1 = train.class_counts()
    X = train.features
    y = train.labels
    base = float(np.log(n1 / n0))
    margins = np.full(train.n_records, base, dtype=np.float64)
    bins = build_bins(X, params.max_bins)
    tree_params = params.tree_params()
    trees: list[Tree] = []
    trace = [_log_loss(margins, y)]
    for _ in range(params.rounds):
        p = _sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        if not np.any(h > 0):
            break  # numerically saturated fit; further rounds are no-ops
        tree = fit_cart(bins, g, h, tree_params)
        margins += params.learning_rate * predict_many(tree, X)
        trees.append(tree)
        trace.append(_log_loss(margins, y))
    return TreeSum(base, (params.learning_rate,) * len(trees), tuple(trees), 1.0,
                   train.n_features, tuple(trace))


def fit_adaboost(train: Dataset, params: AdaBoostParams = AdaBoostParams()) -> TreeSum:
    """Boost depth-1 gini stumps with exponential weight updates.

    Round weights start uniform. A stump with weighted error eps_t >= 0.5
    is discarded and boosting stops; a perfect stump (eps_t = 0) is kept
    with a capped weight and boosting stops; otherwise alpha_t =
    0.5 ln((1-eps)/eps), misclassified rows are up-weighted by e^alpha,
    the rest down-weighted, and weights renormalize to sum 1. The kept
    stumps' 0/1 gini leaves become -1/+1 votes on return.
    """
    require_both_classes(train, "adaboost")
    X = train.features
    y = train.labels.astype(np.float64)
    n = train.n_records
    bins = build_bins(X)
    stump_params = TreeParams(objective="gini", max_depth=1)
    w = np.full(n, 1.0 / n, dtype=np.float64)
    stumps: list[Tree] = []
    alphas: list[float] = []
    epsilons: list[float] = []
    for _ in range(params.rounds):
        stump = fit_cart(bins, y, w, stump_params)
        predicted = predict_many(stump, X)
        miss = predicted != y
        eps = float(np.sum(w[miss]))
        if eps >= 0.5:
            break
        alpha = 0.5 * np.log((1.0 - eps) / (eps if eps > 0.0 else 1e-10))
        stumps.append(stump)
        alphas.append(float(alpha))
        epsilons.append(eps)
        if eps == 0.0:
            break
        w *= np.exp(np.where(miss, alpha, -alpha))
        w /= w.sum()
    votes = tuple(replace(stump, value=2.0 * stump.value - 1.0) for stump in stumps)
    return TreeSum(0.0, tuple(alphas), votes, 1.0, train.n_features, tuple(epsilons))


def fit_bagging(
    train: Dataset, params: BaggingParams = BaggingParams(), seed: int = 0
) -> TreeSum:
    """Fit gini CART trees on size-n bootstrap resamples.

    Tree t draws its sample from its own PRNG stream keyed by
    (seed, "bagging", t), so trees are independent of fit order and a
    fixed master seed reproduces the ensemble exactly. The draw counts are
    the tree's row weights on the training set's bins (see :func:`fit_cart`).
    """
    require_both_classes(train, "bagging")
    y = train.labels.astype(np.float64)
    n = train.n_records
    bins = build_bins(train.features)
    tree_params = TreeParams(objective="gini", max_depth=params.max_depth)
    trees: list[Tree] = []
    for t in range(params.n_trees):
        gen = stream(seed, "bagging", t)
        idx = np.fromiter((gen.below(n) for _ in range(n)), dtype=np.int64, count=n)
        trees.append(fit_cart(bins, y, np.bincount(idx, minlength=n), tree_params))
    return TreeSum(0.0, (1.0,) * len(trees), tuple(trees), float(params.n_trees), train.n_features)


def ensemble_scores(model: TreeSum, X) -> np.ndarray:
    """Score for every row of X: (base + Σ w_t·tree_t(X)) / divisor, in tree
    order, so the GBDT margin, the AdaBoost weighted stump vote, or bagging's
    fraction of trees voting positive."""
    if not isinstance(model, TreeSum):
        raise ConfigError(f"unknown model type {type(model).__name__}")
    M = check_matrix(X, model.n_features)
    scores = np.full(M.shape[0], model.base, dtype=np.float64)
    for weight, tree in zip(model.weights, model.trees):
        scores += weight * predict_many(tree, M)
    return scores / model.divisor
