"""Synthetic minority oversampling for class balance.

New minority rows are interpolations ``x + u * (x_nn - x)`` between a
minority row and one of its k nearest minority neighbours (Euclidean
distance on raw feature values), with u drawn uniformly from [0, 1].
Enough rows are synthesized to equalize the class counts exactly.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .errors import ValidationError, check_int
from .rng import stream


#: Minority rows per block of the neighbour table: a block's difference
#: tensor is (64, m, d), not (m, m, d), so memory grows as m, not m^2.
#: On 22 features, 64-row blocks took 9 ms against 14 ms for the whole
#: tensor at m = 307, and timed alike at m = 154.
_NEIGHBOR_BLOCK_ROWS = 64


def _minority_neighbor_table(minority: np.ndarray, k: int) -> np.ndarray:
    """(m, k) indices of each minority row's k nearest minority rows.

    Distance ties are broken toward the lower row index (stable sort);
    a row is never its own neighbour.
    """
    m = minority.shape[0]
    table = np.empty((m, k), dtype=np.intp)
    for start in range(0, m, _NEIGHBOR_BLOCK_ROWS):
        rows = slice(start, start + _NEIGHBOR_BLOCK_ROWS)
        diffs = minority[rows, None, :] - minority[None, :, :]
        sq_dist = np.einsum("ijk,ijk->ij", diffs, diffs)
        own = np.arange(sq_dist.shape[0])
        sq_dist[own, start + own] = np.inf
        table[rows] = np.argsort(sq_dist, axis=1, kind="stable")[:, :k]
    return table


def smote(train: Dataset, k_neighbors: int = 5, seed: int = 0) -> Dataset:
    """Balanced copy of ``train``: all original rows plus synthetic ones.

    Synthetic rows carry the minority label and fresh ids prefixed
    ``synth-``. ``k_neighbors`` (at least 1) is clamped to the minority
    count - 1. Output is deterministic for a given (train, k_neighbors,
    seed).
    """
    k_neighbors = check_int("k_neighbors", k_neighbors, 1)
    gen = stream(seed, "smote")  # before any return: the stream checks the seed
    n0, n1 = train.class_counts()
    if n0 == 0 or n1 == 0:
        raise ValidationError("SMOTE needs both classes present")
    if n0 == n1:
        return train
    minority_label = 0 if n0 < n1 else 1
    minority_count = min(n0, n1)
    if minority_count < 2:
        raise ValidationError(
            "cannot interpolate: minority class has fewer than 2 records"
        )
    n_synth = abs(n1 - n0)
    k = min(k_neighbors, minority_count - 1)
    minority_rows = np.flatnonzero(train.labels == minority_label)
    minority = train.features[minority_rows]
    neighbors = _minority_neighbor_table(minority, k)
    synth = np.empty((n_synth, train.n_features), dtype=np.float64)
    for i in range(n_synth):
        base = gen.below(minority_count)
        nn = neighbors[base, gen.below(k)]
        u = gen.random()
        synth[i] = minority[base] + u * (minority[nn] - minority[base])
    return Dataset(
        ids=train.ids + tuple(f"synth-{i}" for i in range(n_synth)),
        features=np.vstack([train.features, synth]),
        labels=np.concatenate(
            [train.labels, np.full(n_synth, minority_label, dtype=np.int64)]
        ),
        feature_names=train.feature_names,
    )
