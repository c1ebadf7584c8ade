"""Every frozen value owns its arrays: it holds read-only copies, and the
arrays its caller passed in stay the caller's, writeable and unchanged.
The arrays stay read-only through pickling, and so through the worker
processes that fit models. Frozen values compare by value, NaN equal to
NaN, so a model fitted in a worker equals the same fit in process."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from conftest import SYNTHETIC_CSV
from pdvox import experiment
from pdvox.dataset import Dataset, load_dataset, stratified_split
from pdvox.experiment import MODEL_NAMES
from pdvox.errors import frozen
from pdvox.metrics import RocCurve
from pdvox.svm import Standardizer, SvmModel
from pdvox.tree import BinMap, Tree


#: value type -> (the caller's arrays, by field, in the held dtypes so that a
#: copy is never forced by a cast; the constructor's other fields)
VALUES = {
    Dataset: (
        lambda: {"features": np.arange(6.0).reshape(3, 2), "labels": np.array([0, 1, 1])},
        {"ids": ("a", "b", "c"), "feature_names": ("x", "y")},
    ),
    Standardizer: (
        lambda: {"means": np.array([1.0, 2.0]), "stds": np.array([0.5, 1.0]),
                 "constant": np.array([False, True])},
        {},
    ),
    SvmModel: (
        lambda: {"support_vectors": np.ones((2, 2)), "dual_coef": np.array([0.5, -0.5])},
        {"bias": 0.0, "gamma": 0.5,
         "standardizer": Standardizer(np.zeros(2), np.ones(2), np.zeros(2, bool)),
         "alphas": (0.5, 0.5), "objective_trace": (0.0,), "sweeps": 1, "converged": True,
         "n_features": 2},
    ),
    RocCurve: (
        lambda: {"thresholds": np.array([np.inf, 0.5]), "fpr": np.array([0.0, 1.0]),
                 "tpr": np.array([0.0, 1.0])},
        {},
    ),
    Tree: (
        lambda: {"feature": np.array([0, -1, -1], np.int32),
                 "threshold": np.array([0.5, np.nan, np.nan]),
                 "left": np.array([1, -1, -1], np.int32), "right": np.array([2, -1, -1], np.int32),
                 "value": np.array([np.nan, 0.0, 1.0])},
        {"n_features": 1},
    ),
    BinMap: (
        lambda: {"cuts": (np.array([0.5]), np.array([1.5, 2.5])),
                 "codes": np.array([[0, 1], [1, 2]], np.uint8), "n_bins": np.array([2, 3])},
        {},
    ),
}


def _arrays(field):
    """A field's arrays: BinMap.cuts is a tuple of them."""
    return field if isinstance(field, tuple) else (field,)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_frozen_values_copy_the_arrays_they_are_given(cls):
    make, others = VALUES[cls]
    given, before = make(), make()
    value = cls(**given, **others)
    for name, field in given.items():
        held = _arrays(getattr(value, name))
        assert len(held) == len(_arrays(field))
        for arr, old, kept in zip(_arrays(field), _arrays(before[name]), held):
            assert arr.flags.writeable, name
            np.testing.assert_array_equal(arr, old)
            np.testing.assert_array_equal(kept, arr)
            assert not kept.flags.writeable, name
            assert not np.shares_memory(kept, arr), name


def test_frozen_shares_only_an_array_that_is_already_frozen():
    # a row subset keeps its map's cuts: another frozen value's arrays are
    # read-only and own their memory, so passing them on needs no copy
    a = np.arange(4.0)
    held = frozen(a)
    assert a.flags.writeable and not held.flags.writeable
    assert frozen(held) is held
    assert frozen(held, np.float64) is held
    assert frozen(held, np.float32).dtype == np.float32
    view = held[::2]  # read-only, but its memory is held's
    assert frozen(view) is not view and frozen(view).flags.c_contiguous
    read_only_view = a.view()
    read_only_view.flags.writeable = False  # a's writes would still reach it
    assert not np.shares_memory(frozen(read_only_view), a)


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_frozen_values_stay_frozen_through_pickling(cls, protocol):
    # unpickling skips __post_init__, and numpy restores an array writeable
    make, others = VALUES[cls]
    value = cls(**make(), **others)
    restored = pickle.loads(pickle.dumps(value, protocol))
    for name in make():
        held, got = _arrays(getattr(value, name)), _arrays(getattr(restored, name))
        assert len(got) == len(held)
        for arr, kept in zip(held, got):
            np.testing.assert_array_equal(kept, arr)
            assert kept.dtype == arr.dtype, name
            assert not kept.flags.writeable, name


def test_models_fitted_in_workers_hold_frozen_arrays(monkeypatch):
    # two CPUs send both fits to worker processes, which pickle the models
    # back to this one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    train, _ = stratified_split(load_dataset(SYNTHETIC_CSV), 0.2, 42)
    cfg = experiment.RunConfig(data=str(SYNTHETIC_CSV))
    (ada, _), (svm, _) = experiment._fit_all(("adaboost", "svm"), cfg, train)
    arrays = [svm.support_vectors, svm.dual_coef, svm.standardizer.means,
              svm.standardizer.stds, svm.standardizer.constant]
    for stump in ada.trees:
        arrays += [stump.feature, stump.threshold, stump.left, stump.right, stump.value]
    assert not any(arr.flags.writeable for arr in arrays)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_frozen_values_compare_by_value(cls):
    make, others = VALUES[cls]
    value = cls(**make(), **others)
    assert value == cls(**make(), **others)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) == value, protocol
    for name in make():
        given = make()
        arr = _arrays(given[name])[0]
        arr.flat[0] = 0 if arr.flat[0] else 1  # NaN and inf are truthy
        assert cls(**given, **others) != value, name


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_frozen_values_are_unhashable(cls):
    make, others = VALUES[cls]
    with pytest.raises(TypeError, match=f"'{cls.__name__}'"):
        hash(cls(**make(), **others))


def test_models_fitted_in_workers_equal_the_same_fits_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    train, _ = stratified_split(load_dataset(SYNTHETIC_CSV), 0.2, 42)
    cfg = experiment.RunConfig(data=str(SYNTHETIC_CSV))
    in_workers = experiment._fit_all(MODEL_NAMES, cfg, train)
    monkeypatch.setattr(experiment, "_workers", lambda n_fits: 0)
    in_process = experiment._fit_all(MODEL_NAMES, cfg, train)
    for name, (got, _), (want, _) in zip(MODEL_NAMES, in_workers, in_process, strict=True):
        assert got == want, name
