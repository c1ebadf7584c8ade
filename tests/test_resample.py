"""SMOTE oversampling: balance, segment geometry, and determinism."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, recover_interpolation_u, reference_neighbor_table
from pdvox.dataset import load_dataset, stratified_split
from pdvox.errors import ConfigError, ValidationError
from pdvox.resample import _NEIGHBOR_BLOCK_ROWS, _minority_neighbor_table, smote


def _imbalanced(n_min=6, n_maj=20, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.normal(0.0, 1.0, size=(n_maj, d)),
            rng.normal(3.0, 1.0, size=(n_min, d)),
        ]
    )
    y = np.array([0] * n_maj + [1] * n_min)
    return make_dataset(X, y)


def test_balances_exact_counts():
    train = _imbalanced(n_min=6, n_maj=20)
    out = smote(train, seed=11)
    neg, pos = out.class_counts()
    assert neg == pos == 20
    assert out.n_records == 40


def test_originals_pass_through_unchanged_and_first():
    train = _imbalanced()
    out = smote(train, seed=5)
    assert out.ids[: train.n_records] == train.ids
    assert np.array_equal(out.features[: train.n_records], train.features)
    assert np.array_equal(out.labels[: train.n_records], train.labels)


def test_synthetic_ids_and_labels():
    train = _imbalanced(n_min=4, n_maj=9)
    out = smote(train, seed=2)
    new_ids = out.ids[train.n_records :]
    assert new_ids == tuple(f"synth-{i}" for i in range(len(new_ids)))
    assert np.all(out.labels[train.n_records :] == 1)


def test_equal_classes_returned_untouched():
    train = _imbalanced(n_min=8, n_maj=8)
    out = smote(train, seed=3)
    assert out is train


def test_deterministic_per_seed_and_sensitive_to_seed():
    train = _imbalanced()
    a = smote(train, seed=7)
    b = smote(train, seed=7)
    c = smote(train, seed=8)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_minority_singleton_cannot_interpolate():
    X = np.vstack([np.zeros((5, 3)), np.ones((1, 3))])
    y = np.array([0] * 5 + [1])
    with pytest.raises(ValidationError, match="cannot interpolate"):
        smote(make_dataset(X, y), seed=0)


def test_config_rejects_no_neighbors():
    with pytest.raises(ConfigError, match="k_neighbors must be an integer >= 1"):
        smote(_imbalanced(), k_neighbors=0)


def test_single_class_rejected():
    X = np.zeros((4, 2))
    y = np.zeros(4, dtype=int)
    with pytest.raises(ValidationError):
        smote(make_dataset(X, y), seed=0)


def test_k_clamped_to_available_neighbors():
    # Three minority points leave at most two neighbors each; the default
    # k=5 must silently clamp instead of failing.
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(0, 1, (10, 3)), rng.normal(4, 1, (3, 3))])
    y = np.array([0] * 10 + [1] * 3)
    out = smote(make_dataset(X, y), k_neighbors=5, seed=1)
    neg, pos = out.class_counts()
    assert neg == pos == 10


def test_minority_can_be_the_positive_free_label():
    # Minority selection keys on counts, not on label value.
    rng = np.random.default_rng(9)
    X = np.vstack([rng.normal(0, 1, (4, 2)), rng.normal(5, 1, (12, 2))])
    y = np.array([0] * 4 + [1] * 12)
    out = smote(make_dataset(X, y), seed=6)
    assert np.all(out.labels[16:] == 0)
    neg, pos = out.class_counts()
    assert neg == pos == 12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_synthetics_lie_on_minority_segments(seed):
    train = _imbalanced(n_min=5, n_maj=14, d=3, seed=3)
    out = smote(train, seed=seed)
    minority = train.features[train.labels == 1]
    for row in out.features[train.n_records :]:
        hits = []
        for a in range(len(minority)):
            for b in range(len(minority)):
                if a == b:
                    continue
                u = recover_interpolation_u(minority[a], minority[b], row)
                if u is not None:
                    hits.append((a, b, u))
        assert hits, f"synthetic row {row} not on any minority segment"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_synthetics_stay_in_coordinate_hull(seed):
    train = _imbalanced(n_min=6, n_maj=15, d=4, seed=1)
    out = smote(train, seed=seed)
    minority = train.features[train.labels == 1]
    lo, hi = minority.min(axis=0), minority.max(axis=0)
    synth = out.features[train.n_records :]
    eps = 1e-9 * (1.0 + np.abs(hi - lo))
    assert np.all(synth >= lo - eps) and np.all(synth <= hi + eps)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, _NEIGHBOR_BLOCK_ROWS - 1, _NEIGHBOR_BLOCK_ROWS, _NEIGHBOR_BLOCK_ROWS + 1,
                     2 * _NEIGHBOR_BLOCK_ROWS + 2]),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_neighbor_table_in_blocks_matches_whole_tensor(m, d, seed, coarse):
    # m on both sides of the block height. Coarse rows sit on a 3-point
    # grid, so rows repeat and distances tie; the stable sort must still
    # send every tie to the lower row index, block by block
    rng = np.random.default_rng(seed)
    if coarse:
        minority = rng.integers(0, 3, size=(m, d)) * rng.uniform(0.5, 2.0, size=d)
    else:
        minority = rng.normal(size=(m, d))
    k = int(rng.integers(1, m))
    got = _minority_neighbor_table(minority, k)
    assert got.shape == (m, k)
    assert np.array_equal(got, reference_neighbor_table(minority, k))


def test_pipeline_scale_counts(data_path):
    data = load_dataset(data_path)
    train, _ = stratified_split(data, seed=42, test_fraction=0.2)
    n_neg, n_pos = train.class_counts()
    out = smote(train, seed=42)
    neg, pos = out.class_counts()
    assert neg == pos == max(n_neg, n_pos)
    assert out.n_records == 2 * max(n_neg, n_pos)
