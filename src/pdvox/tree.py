"""CART decision trees over histogram-binned features.

One tree engine serves every ensemble in the toolkit:

* ``gini`` objective — weighted Gini-impurity decrease on 0/1 targets
  over the rows of positive weight; leaves predict the weighted majority
  class (ties to class 1).
* ``newton`` objective — second-order gain on (gradient, hessian) rows;
  leaves predict -G/(H+lambda).

Features are binned once per ensemble fit, by ``build_bins`` (at most
255 bins per feature, cut points at midpoints between adjacent unique
values on quantile boundaries, or at the lower value where the midpoint
rounds up to the upper one), and each of its trees grows from that
``BinMap`` with its own weights, a bagged tree's being its bootstrap draw
counts (Breiman 1996). A ``BinMap`` holds its cuts as one (d, m) matrix,
each feature's row padded with ``+inf`` past its last cut, where m is the
largest cut count, so every bin grid is m + 1 wide. Each node keeps (A,
B, count) histograms over the bins; a child's histogram is its parent's
minus its sibling's. Routing uses the raw cut value: ``x[feature] <=
threshold`` goes left, which agrees exactly with ``searchsorted(cuts, x,
side="left")`` binning.

Growth pops nodes that can split from one heap, keyed by (depth, node
id) under ``max_depth`` and by (-gain, node id) under ``max_leaves``;
ids count creation, and a depth-limited tree pops each level whole, in
id order, before the next, so its ids stay breadth first. A split makes
its left child, then its right one, so the right child's id is the left
child's plus one, and a ``Tree`` stores only the left.

Split search cost follows the node, not the bin grid. A node that can
split is swept once, when it is made, at its own width, by
``_best_split``:

* No search runs where it could only find nothing: at ``max_depth``,
  below ``2 * min_samples_leaf`` rows, or on a gini node whose rows all
  carry one target.
* A node with more than ``padded / PACKED_SEARCH_RATIO`` rows sweeps
  prefix sums over its full bin grid, in place. A smaller node sweeps
  only its bins where A, B or count is nonzero (including the float dust
  that histogram subtraction leaves in empty bins), packed left-aligned
  to its own widest feature. The row count is the node's count total:
  the count plane holds integer sums, so it is exact.

Both sweeps pick the same split, bit for bit. A dropped bin adds an
exact 0.0 to each sequential prefix sum, so the cut after it ties the
kept cut before it, and the first-maximum tie-break (lowest feature,
then lowest cut) still lands on the kept one. Per-feature totals come
from the full bin rows in both, because pairwise summation depends on
the row length. No cut lands on a padding column (past a feature's last
real bin, or past its last kept bin when packed): everything right of
it is empty, and ``min_samples_leaf >= 1`` makes a cut with no rows on
its right invalid.

Histograms follow the same rule. A split decides which children will
be searched before it builds anything:

* If either child is searched, the smaller child gets the full
  (3, d, padded) grid by bincount over its rows, and the larger one is
  the parent's grid minus it, subtracted in place into the parent's
  buffer when that child is searched.
* A child that is never searched keeps only feature 0's bin row,
  (3, 1, padded): a bincount of feature 0 alone for the smaller child,
  ``parent[:, :1] - small[:, :1]`` for the larger one.

Feature 0's row is all a leaf value reads: every feature's bins
partition the same rows, so that row carries the node totals. Both
short rows are elementwise equal to row 0 of the full grid (bincount
adds each row's weight to its bin in row order whatever the other
features are, and subtraction is elementwise), so totals and leaf
values do not change.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError, FrozenArrays, ValidationError, check_float_field, check_int, check_int_field,
    check_matrix, check_reals,
)

#: Positive-gain floor: splits must clear this to be accepted, which keeps
#: float dust from histogram subtraction from manufacturing splits.
GAIN_EPS = 1e-12

MAX_BINS_LIMIT = 255

#: Nodes with ``PACKED_SEARCH_RATIO * rows <= padded bins`` search only
#: their non-empty bins; larger nodes search the full bin grid. Timed per
#: node on 195- and 780-row tables (22 features, 236-255 bins), the two
#: searches cost the same at about 4 bins per row.
PACKED_SEARCH_RATIO = 4


@dataclass(frozen=True, eq=False)
class BinMap(FrozenArrays):
    """Per-feature cut points plus the binned rows of one training set,
    which every tree of an ensemble fitted on it grows from: growth reads
    only ``codes`` and ``cuts``, never the raw feature values.

    ``cuts`` is (d, m), m the largest cut count of any feature: row f
    holds feature f's cuts in ascending order, then ``+inf`` to the end of
    the row. Feature f has ``n_bins[f]`` bins, one more than its cuts.
    """

    ARRAYS = {"cuts": np.float64, "codes": None}
    cuts: np.ndarray  # (d, m) float64
    codes: np.ndarray  # (n, d) uint8

    @property
    def n_bins(self) -> np.ndarray:
        return np.isfinite(self.cuts).sum(axis=1) + 1


def build_bins(features, max_bins: int = MAX_BINS_LIMIT) -> BinMap:
    """Quantile-boundary binning of each feature column.

    When a column has at most ``max_bins`` unique values every value gets
    its own bin; otherwise cut points sit at midpoints between unique
    values straddling the b/max_bins quantile boundaries. A midpoint that
    rounds up to the upper value is replaced by the lower value, so that
    ``x <= cut`` still sends the lower value left and the upper one right.
    Constant columns produce zero cuts (one bin). Every value must be finite.
    """
    X = check_matrix(features)
    check_int("max_bins", max_bins, 2, MAX_BINS_LIMIT)
    n, d = X.shape
    cuts = np.full((d, max_bins - 1), np.inf)
    codes = np.empty((n, d), dtype=np.uint8)
    for f in range(d):
        uniq = np.unique(X[:, f])
        if uniq.size <= max_bins:
            boundary = np.arange(1, uniq.size)
        else:
            boundary = np.unique(np.arange(1, max_bins) * uniq.size // max_bins)
        lower, upper = uniq[boundary - 1], uniq[boundary]
        with np.errstate(over="ignore"):
            total = lower + upper
        # halves first only where the sum overflows, so every other cut keeps its bits
        cut = np.where(np.isfinite(total), total / 2.0, lower / 2.0 + upper / 2.0)
        cut = np.where(cut == upper, lower, cut)  # neighbours an ulp apart
        cuts[f, :cut.size] = cut
        codes[:, f] = np.searchsorted(cut, X[:, f], side="left")
    # as many columns as the most cuts, so fit_cart's bin grid is as wide
    # as the widest feature's bins
    return BinMap(cuts=cuts[:, :np.isfinite(cuts).sum(axis=1).max()], codes=codes)


@dataclass(frozen=True)
class TreeParams:
    """Growth settings; exactly one of max_depth / max_leaves must be set.

    ``lam`` (ridge on leaf values) and ``gamma`` (flat per-split penalty)
    apply to the newton objective only.
    """

    objective: str
    max_depth: int | None = None
    max_leaves: int | None = None
    min_samples_leaf: int = 1
    lam: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.objective not in ("gini", "newton"):
            raise ConfigError(f"unknown objective {self.objective!r}")
        if (self.max_depth is None) == (self.max_leaves is None):
            raise ConfigError("set exactly one of max_depth / max_leaves")
        if self.max_depth is not None:
            check_int_field(self, "max_depth", 0)
        if self.max_leaves is not None:
            check_int_field(self, "max_leaves", 1)
        check_int_field(self, "min_samples_leaf", 1)
        check_float_field(self, "lam", ge=0)
        check_float_field(self, "gamma", ge=0)


@dataclass(frozen=True, eq=False)
class Tree(FrozenArrays):
    """Flat node arrays; node 0 is the root.

    Internal nodes have ``feature >= 0`` and route ``x[feature] <=
    threshold`` to ``left`` and the rest to ``left + 1``: a split's two
    children are made one after the other. Leaves have ``feature == -1``
    and ``left == -1``, and carry ``value``.
    """

    ARRAYS = {"feature": np.int32, "threshold": np.float64, "left": np.int32,
              "value": np.float64}
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    n_features: int

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))


def _bin_sums(flat, a_sub, b_sub, size):
    """(A, B, count) sums of m rows over flat bin indices ``flat`` (m, k),
    as one (3, size) buffer."""
    idx = flat.ravel()
    k = flat.shape[1]
    out = np.empty((3, size))
    out[0] = np.bincount(idx, weights=np.repeat(a_sub, k), minlength=size)
    out[1] = np.bincount(idx, weights=np.repeat(b_sub, k), minlength=size)
    out[2] = np.bincount(idx, minlength=size)
    return out


def _leaf_value(totals, params) -> float:
    A, B, _ = totals
    if params.objective == "gini":
        return 1.0 if A >= B - A else 0.0
    denom = B + params.lam
    return -A / denom if denom > 0 else 0.0


def _cut_gains(hist, totals, params: TreeParams):
    """Gain of the cut after every column but the last of a (3, r, m)
    histogram, shape (r, m - 1); -inf where the cut is not allowed.

    ``totals`` are the (A, B, C) sums over each row's full bin row, shape
    (3, r, 1).
    """
    left = hist[:, :, :-1].cumsum(axis=2)
    right = totals - left
    S_A, S_B, S_C = left
    R_A, R_B, R_C = right
    At, Bt, _ = totals
    valid = np.minimum(S_C, R_C) >= params.min_samples_leaf
    with np.errstate(divide="ignore", invalid="ignore"):
        if params.objective == "gini":
            valid &= np.minimum(S_B, R_B) > 0
            parent = At * (Bt - At) / Bt
            cL, cR = S_A * (S_B - S_A) / S_B, R_A * (R_B - R_A) / R_B
            gain = 2.0 * (parent - cL - cR)
        else:
            lam = params.lam
            cL, cR = S_A * S_A / (S_B + lam), R_A * R_A / (R_B + lam)
            gain = 0.5 * (cL + cR - At * At / (Bt + lam)) - params.gamma
    valid &= np.isfinite(gain)
    gain[~valid] = -np.inf
    return gain


def _best_split(hist, totals, bins: BinMap, params: TreeParams):
    """Highest-gain (gain, feature, bin, threshold) of one node's
    (3, d, padded) histogram, or None if no cut clears GAIN_EPS.

    ``totals`` are the histogram's sums over axis 2. Ties resolve to the
    lowest feature, then the lowest cut (the first maximum in a
    feature-major, bin-ascending scan). A node with more than ``padded /
    PACKED_SEARCH_RATIO`` rows (its count total) is swept over its own
    full grid, in place. A smaller node keeps only the bins where any of
    A, B or C is nonzero, packed left-aligned per feature in bin order to
    its widest feature's width.
    """
    _, d, padded = hist.shape
    kept = None
    if PACKED_SEARCH_RATIO * totals[2, 0, 0] <= padded:
        kept = np.flatnonzero((hist != 0).any(axis=0))  # flat feature * padded + bin
        width = np.bincount(kept // padded, minlength=d)
        start = width.cumsum() - width
        k = int(width.max())
        # packed column of each kept bin: feature * k + its rank in the
        # row; slots past a row's width stay zero, and their cuts leave no
        # rows on the right
        dest = np.arange(kept.size) + (np.arange(d) * k - start).repeat(width)
        packed = np.zeros((3, d * k))
        packed[:, dest] = hist.reshape(3, -1).take(kept, axis=1)
        hist = packed.reshape(3, d, k)
    k = hist.shape[2]
    if k < 2:  # no feature has two (kept) bins, so no cut
        return None
    gain = _cut_gains(hist, totals, params).ravel()
    col = int(gain.argmax())
    if not gain[col] > GAIN_EPS:
        return None
    f, b = divmod(col, k - 1)
    if kept is not None:  # packed column -> bin
        b = int(kept[start[f] + b]) - f * padded
    return (float(gain[col]), f, b, float(bins.cuts[f, b]))


def fit_cart(bins: BinMap, targets, weights, params: TreeParams) -> Tree:
    """Grow one tree on the rows of ``bins`` (see :func:`build_bins`), one
    finite target and one finite weight per row.

    gini objective: ``targets`` are 0/1 labels, ``weights`` are sample
    weights (>= 0, not all zero); only rows of positive weight enter, and
    ``min_samples_leaf`` counts those. At ``min_samples_leaf == 1``,
    integer weights (bootstrap draw counts) grow, bit for bit and search
    for search, the tree of their rows repeated that often: a weight-0 row
    would add an exact 0.0 to planes A and B (but could make a pure node
    look impure), integer sums are exact in any order, and a cut needs
    ``S_B > 0`` on both sides, so the count plane only picks the full or
    packed sweep. newton objective: ``targets`` are per-row gradients,
    ``weights`` are hessians, and every row enters (a zero hessian still
    carries a gradient).
    """
    t = check_reals(targets, "targets")
    w = check_reals(weights, "weights")
    n, d = bins.codes.shape
    if t.shape != (n,) or w.shape != (n,):
        raise ValidationError(
            f"dimension mismatch: {n} rows vs {t.shape} targets, {w.shape} weights"
        )
    if n == 0:
        raise ValidationError("cannot fit a tree on zero rows")
    if np.any(w < 0) or not np.any(w > 0):
        raise ValidationError("weights must be >= 0 and not all zero")
    if params.objective == "gini" and not np.isin(t, (0.0, 1.0)).all():
        raise ValidationError("gini objective requires 0/1 targets")
    # histogram plane A sums weighted targets (gini) or gradients (newton);
    # plane B sums the weights, which are the hessians under newton
    a = w * t if params.objective == "gini" else t
    padded = bins.cuts.shape[1] + 1  # the widest feature's bins
    # feature f's bins are the flat histogram columns f*padded .. f*padded+padded-1
    flat_codes = bins.codes + np.arange(d) * padded

    nodes: list[list] = []  # [feature, threshold, left, value] by node id
    # one frontier for both limits, of (key, id, rows, histogram, depth,
    # split). Depth limits pop by (depth, id): a level pops whole, in id
    # order, before the next, so ids stay breadth first. Leaf budgets pop
    # by (-gain, id), the best split first; ids count creation, so equal
    # gains go to the node made first, and no two entries compare arrays
    heap: list[tuple] = []

    def histogram(rows, k):
        """(A, B, count) of ``rows`` over the bins of features 0..k-1."""
        return _bin_sums(flat_codes[rows, :k], a[rows], w[rows], k * padded).reshape(3, k, padded)

    def can_split(rows, depth) -> bool:
        # a search here could only return None. Purity is tested on the
        # targets because the float totals of an impure weighted node can
        # round to A == B
        if params.max_depth is not None and depth >= params.max_depth:
            return False
        if rows.size < 2 * params.min_samples_leaf:
            return False
        if params.objective == "gini":
            node_t = t[rows]
            return bool(np.any(node_t != node_t[0]))
        return True

    def add(rows, hist, depth, search) -> int:
        # every feature's bins partition the same rows, so feature 0 alone
        # carries the node totals (summing all features would count each
        # row d times); a searched node's sums over all features feed its
        # sweep too
        totals = (hist if search else hist[:, :1]).sum(axis=2, keepdims=True)
        node_id = len(nodes)
        nodes.append([-1, np.nan, -1, _leaf_value(totals[:, 0, 0].tolist(), params)])
        best = _best_split(hist, totals, bins, params) if search else None
        if best is not None:  # the histogram is kept for the split
            key = depth if params.max_leaves is None else -best[0]
            heapq.heappush(heap, (key, node_id, rows, hist, depth, best))
        return node_id

    root_rows = np.flatnonzero(w) if params.objective == "gini" else np.arange(n)
    search_root = can_split(root_rows, 0)
    add(root_rows, histogram(root_rows, d if search_root else 1), 0, search_root)
    leaves = 1
    while heap and (params.max_leaves is None or leaves < params.max_leaves):
        _, node_id, rows, hist, depth, (_, feat, cut_bin, threshold) = heapq.heappop(heap)
        leaves += 1
        depth += 1
        left_mask = bins.codes[rows, feat] <= cut_bin
        left_rows = rows[left_mask]
        right_rows = rows[~left_mask]
        search_left = can_split(left_rows, depth)
        search_right = can_split(right_rows, depth)
        small_is_left = left_rows.size <= right_rows.size
        if small_is_left:
            small_rows, search_big = left_rows, search_right
        else:
            small_rows, search_big = right_rows, search_left
        # the big child's grid is the parent's minus the small child's, so
        # the small child needs every feature if either child is searched
        small_hist = histogram(small_rows, d if search_left or search_right else 1)
        if search_big:
            big_hist = np.subtract(hist, small_hist, out=hist)
        else:
            big_hist = hist[:, :1] - small_hist[:, :1]
        hist = None  # free the parent's grid (or leave it to the big child)
        left_hist, right_hist = (
            (small_hist, big_hist) if small_is_left else (big_hist, small_hist)
        )
        left = add(left_rows, left_hist, depth, search_left)
        add(right_rows, right_hist, depth, search_right)  # node left + 1
        nodes[node_id] = [feat, threshold, left, np.nan]

    return Tree(*zip(*nodes), n_features=d)


def predict_many(tree: Tree, X) -> np.ndarray:
    """Leaf values for every row of X (batched routing)."""
    M = check_matrix(X, tree.n_features)
    out = np.empty(M.shape[0], dtype=np.float64)
    stack = [(0, np.arange(M.shape[0], dtype=np.int64))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        feat = tree.feature[node]
        if feat < 0:
            out[idx] = tree.value[node]
            continue
        mask = M[idx, feat] <= tree.threshold[node]
        left = int(tree.left[node])
        stack.append((left, idx[mask]))
        stack.append((left + 1, idx[~mask]))
    return out
