"""CART decision trees over histogram-binned features.

One tree engine serves every ensemble in the toolkit:

* ``gini`` objective — weighted Gini-impurity decrease on 0/1 targets;
  leaves predict the weighted majority class (ties to class 1).
* ``newton`` objective — second-order gain on (gradient, hessian) rows;
  leaves predict -G/(H+lambda).

Features are pre-binned (at most 255 bins per feature, cut points at
midpoints between adjacent unique values on quantile boundaries), and
each node keeps (A, B, count) histograms over the bins; a child's
histogram is its parent's minus its sibling's. Routing uses the raw cut
value: ``x[feature] <= threshold`` goes left, which agrees exactly with
``searchsorted(cuts, x, side="left")`` binning.

Split search cost follows the node, not the bin grid:

* No search runs where its result could not be used: at ``max_depth``,
  below ``2 * min_samples_leaf`` rows, or on a gini node whose rows all
  carry one target.
* A node with more than ``padded / PACKED_SEARCH_RATIO`` rows sweeps
  prefix sums over the full bin grid. A smaller node sweeps only its
  bins where A, B or count is nonzero (including the float dust that
  histogram subtraction leaves in empty bins), packed left-aligned.

Both sweeps pick the same split, bit for bit. A dropped bin adds an
exact 0.0 to each sequential prefix sum, so the cut after it ties the
kept cut before it, and the first-maximum tie-break (lowest feature,
then lowest cut) still lands on the kept one. Per-feature totals come
from the full bin rows in both, because pairwise summation depends on
the row length.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError

#: Positive-gain floor: splits must clear this to be accepted, which keeps
#: float dust from histogram subtraction from manufacturing splits.
GAIN_EPS = 1e-12

MAX_BINS_LIMIT = 255

#: Nodes with ``PACKED_SEARCH_RATIO * rows <= padded bins`` search only
#: their non-empty bins; larger nodes search the full bin grid. Timed per
#: node on 195- and 780-row tables (22 features, 236-255 bins), the two
#: searches cost the same at about 4 bins per row.
PACKED_SEARCH_RATIO = 4


@dataclass(frozen=True)
class BinMap:
    """Per-feature cut points plus the binned codes of the source rows."""

    cuts: tuple[np.ndarray, ...]
    codes: np.ndarray  # (n, d) uint8
    n_bins: np.ndarray  # (d,) int64

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]


def build_bins(features, max_bins: int = MAX_BINS_LIMIT) -> BinMap:
    """Quantile-boundary binning of each feature column.

    When a column has at most ``max_bins`` unique values every value gets
    its own bin; otherwise cut points sit at midpoints between unique
    values straddling the b/max_bins quantile boundaries. Constant
    columns produce zero cuts (one bin).
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValidationError("features must be a 2-D matrix with at least one column")
    if not 2 <= max_bins <= MAX_BINS_LIMIT:
        raise ConfigError(f"max_bins must be in [2, {MAX_BINS_LIMIT}], got {max_bins}")
    n, d = X.shape
    cuts: list[np.ndarray] = []
    codes = np.empty((n, d), dtype=np.uint8)
    n_bins = np.empty(d, dtype=np.int64)
    for f in range(d):
        uniq = np.unique(X[:, f])
        if uniq.size <= max_bins:
            boundary = np.arange(1, uniq.size)
        else:
            boundary = np.unique(
                (np.arange(1, max_bins) * uniq.size) // max_bins
            )
            boundary = boundary[(boundary >= 1) & (boundary <= uniq.size - 1)]
        cut = (uniq[boundary - 1] + uniq[boundary]) / 2.0
        cuts.append(cut)
        codes[:, f] = np.searchsorted(cut, X[:, f], side="left")
        n_bins[f] = cut.size + 1
    codes.flags.writeable = False
    n_bins.flags.writeable = False
    return BinMap(cuts=tuple(cuts), codes=codes, n_bins=n_bins)


def take_rows(bins: BinMap, indices) -> BinMap:
    """BinMap view over a row subset (cuts shared), e.g. a bootstrap sample."""
    idx = np.asarray(indices, dtype=np.int64)
    sub = bins.codes[idx].copy()
    sub.flags.writeable = False
    return BinMap(cuts=bins.cuts, codes=sub, n_bins=bins.n_bins)


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
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError("max_depth must be >= 0")
        if self.max_leaves is not None and self.max_leaves < 1:
            raise ConfigError("max_leaves must be >= 1")
        if self.min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")
        if self.lam < 0 or self.gamma < 0:
            raise ConfigError("lam and gamma must be >= 0")


@dataclass(frozen=True)
class Tree:
    """Flat node arrays; node 0 is the root.

    Internal nodes have ``feature >= 0`` and route ``x[feature] <=
    threshold`` to ``left``; leaves have ``feature == -1`` and carry
    ``value``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_features: int

    def __post_init__(self):
        for name in ("feature", "threshold", "left", "right", "value"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))


class _Node:
    """Mutable growth-time state for one frontier node."""

    __slots__ = ("node_id", "rows", "hist", "totals", "depth", "best")

    def __init__(self, node_id, rows, hist, totals, depth, best):
        self.node_id = node_id
        self.rows = rows
        self.hist = hist
        self.totals = totals  # (A, B, C) over all bins
        self.depth = depth
        self.best = best  # (gain, feature, bin, threshold) or None


def _histogram(codes_sub, a_sub, b_sub, padded):
    """Stacked (A, B, count) histograms, shape (3, d, padded)."""
    m, d = codes_sub.shape
    flat = (codes_sub.astype(np.int64) + np.arange(d) * padded).ravel()
    size = d * padded
    counts = np.bincount(flat, minlength=size).astype(np.float64)
    a_hist = np.bincount(flat, weights=np.repeat(a_sub, d), minlength=size)
    b_hist = np.bincount(flat, weights=np.repeat(b_sub, d), minlength=size)
    return np.stack(
        [a_hist.reshape(d, padded), b_hist.reshape(d, padded), counts.reshape(d, padded)]
    )


def _leaf_value(totals, params) -> float:
    A, B, _ = totals
    if params.objective == "gini":
        return 1.0 if A >= B - A else 0.0
    denom = B + params.lam
    return -A / denom if denom > 0 else 0.0


def _cut_gains(hist, totals, params: TreeParams):
    """Gain of the cut after every column but the last of a (3, d, m)
    histogram, shape (d, m - 1); -inf where the cut is not allowed.

    ``totals`` are the (A, B, C) sums over each feature's full bin row,
    shape (3, d, 1).
    """
    # sides[0] holds the left (A, B, C) prefix sums, sides[1] the right
    # remainders, so each child term below is one pass over both sides
    sides = np.empty((2,) + hist.shape[:2] + (hist.shape[2] - 1,))
    np.cumsum(hist[:, :, :-1], axis=2, out=sides[0])
    np.subtract(totals, sides[0], out=sides[1])
    S_A, S_B, S_C = sides[:, 0], sides[:, 1], sides[:, 2]
    At, Bt, _ = totals
    valid = np.minimum(S_C[0], S_C[1]) >= params.min_samples_leaf
    with np.errstate(divide="ignore", invalid="ignore"):
        if params.objective == "gini":
            valid &= np.minimum(S_B[0], S_B[1]) > 0
            parent = At * (Bt - At) / Bt
            child = S_A * (S_B - S_A) / S_B
            gain = 2.0 * (parent - child[0] - child[1])
        else:
            lam = params.lam
            child = S_A * S_A / (S_B + lam)
            gain = 0.5 * (child[0] + child[1] - At * At / (Bt + lam)) - params.gamma
    return np.where(valid & np.isfinite(gain), gain, -np.inf)


def _first_max(gain):
    """(gain, feature, column) of the first maximum in a feature-major,
    column-ascending scan, or None when no gain clears GAIN_EPS."""
    flat = int(np.argmax(gain))
    best = gain.ravel()[flat]
    if not best > GAIN_EPS:
        return None
    feat, col = divmod(flat, gain.shape[1])
    return float(best), feat, col


def _split_at(gain: float, feat: int, b: int, bins: BinMap):
    if b >= bins.n_bins[feat] - 1:  # padding column; empty right side, never valid
        return None
    return gain, int(feat), int(b), float(bins.cuts[feat][b])


def _best_split(hist, bins: BinMap, params: TreeParams):
    """Highest-gain (gain, feature, bin, threshold) over the full bin grid,
    or None.

    Ties resolve to the lowest feature index, then the lowest threshold
    (the first maximum in a feature-major, bin-ascending scan).
    """
    if hist.shape[2] < 2:
        return None
    found = _first_max(_cut_gains(hist, hist.sum(axis=2, keepdims=True), params))
    return None if found is None else _split_at(*found, bins)


def _best_split_packed(hist, bins: BinMap, params: TreeParams):
    """Same result as :func:`_best_split` (see the module docstring),
    sweeping only the bins where any of A, B or C is nonzero, packed
    left-aligned per feature in bin order."""
    _, d, padded = hist.shape
    totals = hist.sum(axis=2, keepdims=True)
    kept = np.flatnonzero((hist != 0).any(axis=0))  # flat feature * padded + bin
    width = np.bincount(kept // padded, minlength=d)
    k = int(width.max())
    if k < 2:
        return None
    # src[f, j]: flat column of feature f's j-th kept bin; slots past a
    # feature's width read some other column and are zeroed below
    slot = (np.cumsum(width) - width)[:, None] + np.arange(k)
    src = kept[np.minimum(slot, kept.size - 1)]
    packed = np.where(np.arange(k) < width[:, None], hist.reshape(3, -1)[:, src], 0.0)
    found = _first_max(_cut_gains(packed, totals, params))
    if found is None:
        return None
    gain, f, p = found
    return _split_at(gain, f, int(src[f, p]) - f * padded, bins)


def fit_cart(features, targets, weights, params: TreeParams, bins: BinMap | None = None) -> Tree:
    """Grow one tree.

    gini objective: ``targets`` are 0/1 labels, ``weights`` are sample
    weights (>= 0, not all zero). newton objective: ``targets`` are
    per-row gradients, ``weights`` are hessians. ``bins`` must describe
    exactly these rows; omitted, it is built here with 255 bins.
    """
    X = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValidationError("features must be a 2-D matrix with at least one column")
    n, d = X.shape
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
    if bins is None:
        bins = build_bins(X)
    elif bins.n_rows != n or bins.n_features != d:
        raise ValidationError(
            f"bin map shape ({bins.n_rows}, {bins.n_features}) does not match "
            f"features ({n}, {d})"
        )
    if params.objective == "gini":
        a = w * t
        b = w
    else:
        a = t
        b = w
    padded = int(bins.n_bins.max())

    node_feature: list[int] = []
    node_threshold: list[float] = []
    node_left: list[int] = []
    node_right: list[int] = []
    node_value: list[float] = []

    def alloc() -> int:
        node_feature.append(-1)
        node_threshold.append(np.nan)
        node_left.append(-1)
        node_right.append(-1)
        node_value.append(np.nan)
        return len(node_feature) - 1

    def can_split(rows, depth) -> bool:
        # a search here could only return None or be discarded; purity is
        # tested on the targets because the float totals of an impure
        # weighted node can round to A == B
        if params.max_depth is not None and depth >= params.max_depth:
            return False
        if rows.size < 2 * params.min_samples_leaf:
            return False
        if params.objective == "gini":
            node_t = t[rows]
            return bool(np.any(node_t != node_t[0]))
        return True

    def make_state(node_id, rows, hist, depth) -> _Node:
        # every feature's bins partition the same rows, so feature 0 alone
        # carries the node totals; summing all features would count each
        # row d times
        totals = tuple(float(hist[c, 0].sum()) for c in range(3))
        node_value[node_id] = _leaf_value(totals, params)
        best = None
        if can_split(rows, depth):
            packed = PACKED_SEARCH_RATIO * rows.size <= padded
            best = (_best_split_packed if packed else _best_split)(hist, bins, params)
        return _Node(node_id, rows, hist, totals, depth, best)

    def split(state: _Node) -> tuple[_Node, _Node]:
        gain, feat, cut_bin, threshold = state.best
        rows = state.rows
        left_mask = bins.codes[rows, feat] <= cut_bin
        left_rows = rows[left_mask]
        right_rows = rows[~left_mask]
        if left_rows.size <= right_rows.size:
            small_rows, big_rows, small_is_left = left_rows, right_rows, True
        else:
            small_rows, big_rows, small_is_left = right_rows, left_rows, False
        small_hist = _histogram(bins.codes[small_rows], a[small_rows], b[small_rows], padded)
        big_hist = state.hist - small_hist
        left_hist, right_hist = (
            (small_hist, big_hist) if small_is_left else (big_hist, small_hist)
        )
        left_id = alloc()
        right_id = alloc()
        node_feature[state.node_id] = feat
        node_threshold[state.node_id] = threshold
        node_left[state.node_id] = left_id
        node_right[state.node_id] = right_id
        node_value[state.node_id] = np.nan
        state.hist = None  # free
        return (
            make_state(left_id, left_rows, left_hist, state.depth + 1),
            make_state(right_id, right_rows, right_hist, state.depth + 1),
        )

    root_rows = np.arange(n, dtype=np.int64)
    root_hist = _histogram(bins.codes, a, b, padded)
    root = make_state(alloc(), root_rows, root_hist, 0)

    if params.max_depth is not None:
        frontier = [root]
        while frontier:
            nxt: list[_Node] = []
            for state in frontier:
                if state.best is None:
                    continue
                nxt.extend(split(state))
            frontier = nxt
    else:
        heap: list[tuple[float, int, _Node]] = []
        seq = 0
        if root.best is not None:
            heapq.heappush(heap, (-root.best[0], seq, root))
            seq += 1
        leaves = 1
        while heap and leaves < params.max_leaves:
            _, _, state = heapq.heappop(heap)
            for child in split(state):
                if child.best is not None:
                    heapq.heappush(heap, (-child.best[0], seq, child))
                    seq += 1
            leaves += 1

    return Tree(
        feature=np.asarray(node_feature, dtype=np.int32),
        threshold=np.asarray(node_threshold, dtype=np.float64),
        left=np.asarray(node_left, dtype=np.int32),
        right=np.asarray(node_right, dtype=np.int32),
        value=np.asarray(node_value, dtype=np.float64),
        n_features=d,
    )


def predict_tree(tree: Tree, x) -> float:
    """Route one feature vector to its leaf value."""
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (tree.n_features,):
        raise ValidationError(
            f"expected {tree.n_features} features, got shape {v.shape}"
        )
    node = 0
    while tree.feature[node] >= 0:
        if v[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return float(tree.value[node])


def predict_many(tree: Tree, X) -> np.ndarray:
    """Leaf values for every row of X (batched routing)."""
    M = np.asarray(X, dtype=np.float64)
    if M.ndim != 2 or M.shape[1] != tree.n_features:
        raise ValidationError(
            f"expected (n, {tree.n_features}) features, got shape {M.shape}"
        )
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
        stack.append((int(tree.left[node]), idx[mask]))
        stack.append((int(tree.right[node]), idx[~mask]))
    return out


def serialize_tree(tree: Tree) -> str:
    """Readable node list for debugging; not a stability contract."""
    lines = [f"tree nodes={tree.n_nodes} leaves={tree.n_leaves} features={tree.n_features}"]
    for i in range(tree.n_nodes):
        if tree.feature[i] < 0:
            lines.append(f"{i}: leaf value={tree.value[i]!r}")
        else:
            lines.append(
                f"{i}: if x[{tree.feature[i]}] <= {tree.threshold[i]!r} "
                f"then {tree.left[i]} else {tree.right[i]}"
            )
    return "\n".join(lines)
