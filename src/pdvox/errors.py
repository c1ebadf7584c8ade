"""Exception types raised by the toolkit, and the per-value checks that
raise them: settings, seeds (``rng.derive_key`` checks every one),
arrays of real numbers (:func:`check_reals`, one rule for features,
scores, tree targets and weights), 0/1 labels (:func:`check_labels`, which
takes the dtype half of that rule) and feature matrices
(:func:`check_matrix`).
A rule about a whole table belongs to the function that makes the table,
as the both-classes rule belongs to the split. Every frozen value that
holds arrays is a :class:`FrozenArrays`: it owns a read-only copy of each
(:func:`frozen`), read-only through pickling too, and two such values
compare by value, NaN equal to NaN. They are unhashable. So a model
fitted in a worker process equals the same fit in process."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import fields

import numpy as np


class PdvoxError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(PdvoxError):
    """Input data violates the expected tabular layout."""


class ValidationError(PdvoxError):
    """Numeric content fails a well-formedness check (NaN, bad label, ...)."""


class ConfigError(PdvoxError):
    """A run configuration combines options that cannot be honoured."""


def _real_dtype(values, name: str) -> np.ndarray:
    """``values`` as an ndarray of bool, integer or float dtype, unconverted;
    ValidationError ``"{name} must be real numbers"`` on any other: text
    (even ``"1.5"``), complex values (numpy would keep only the real
    parts), object arrays and ragged rows. The dtype decides, so an object
    array of floats fails too. Shared by :func:`check_reals` and
    :func:`check_labels`."""
    try:
        values = np.asarray(values)
        if values.dtype.kind in "biuf":
            return values
    except ValueError:  # ragged rows
        pass
    raise ValidationError(f"{name} must be real numbers")


def check_reals(values, name: str) -> np.ndarray:
    """``values`` as a float64 array of finite real numbers: the one rule
    for every array of numbers the toolkit reads (features, scores, tree
    targets and weights). ValidationError as in :func:`_real_dtype`, or
    ``"{name} must be finite (no NaN/inf)"``. A float64 ndarray is
    returned as it is, without a copy."""
    values = _real_dtype(values, name).astype(np.float64, copy=False)
    if not np.isfinite(values).all():
        raise ValidationError(f"{name} must be finite (no NaN/inf)")
    return values


def check_labels(values) -> np.ndarray:
    """``values`` as an int64 array of 0s and 1s: the one label rule, for a
    ``Dataset`` and for the metrics. ValidationError as in
    :func:`_real_dtype`, or ``"labels must be 0 or 1; saw {v}"`` naming
    the first other value (0.5 and NaN among them). The shape is the
    caller's to check."""
    labels = _real_dtype(values, "labels")
    bad = (labels != 0) & (labels != 1)
    if bad.any():
        raise ValidationError(f"labels must be 0 or 1; saw {labels[bad][0]}")
    return labels.astype(np.int64)


def check_matrix(X, n_features: int | None = None) -> np.ndarray:
    """``X`` as a float64 matrix of at least one column, and of
    ``n_features`` columns when given: :func:`check_reals` plus the shape
    rule. Every feature matrix a dataset, a tree or a model takes in
    passes here."""
    M = check_reals(X, "features")
    if M.ndim != 2 or M.shape[1] == 0 or n_features not in (None, M.shape[1]):
        want = n_features or "d >= 1"
        raise ValidationError(f"expected (n, {want}) feature matrix, got shape {M.shape}")
    return M


def frozen(value, dtype=None) -> np.ndarray:
    """A fresh, read-only, C-ordered copy of ``value`` (in ``dtype`` when
    given): the caller's array stays writeable and apart from the copy."""
    value = np.array(value, dtype=dtype, order="C")
    value.flags.writeable = False
    return value


class FrozenArrays:
    """Base of every frozen dataclass that holds arrays. ``ARRAYS``, a
    class attribute left unannotated so that no report reads it as a
    field, maps each array field to its dtype, None keeping the given one;
    each field holds one array. ``__post_init__`` passes each through
    :func:`frozen`. Unpickling skips it and numpy restores arrays
    writeable, so ``__setstate__`` makes each read-only again, in place
    (nothing else holds them). ``==`` compares the fields in order: arrays
    with NaN equal to NaN (leaf thresholds are NaN), the rest by ``==``.
    Subclasses are ``eq=False`` (the dataclass ``==`` raises on arrays)
    and unhashable."""

    def __post_init__(self):
        for name, dtype in self.ARRAYS.items():
            object.__setattr__(self, name, frozen(getattr(self, name), dtype))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
                   for a, b in pairs)

    def __setstate__(self, state):
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)


def check_int(name: str, value, low: float = -math.inf, high: float = math.inf) -> int:
    """``value`` as a Python int; ConfigError unless it is an integer in
    [low, high], so a NaN or 2.5 setting fails where it is built, not in a
    later fit. A bool is an int to Python but not a setting's value, so it
    fails too. The message names only the finite bounds."""
    if not (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
        and low <= value <= high
    ):
        finite = [(op, b) for op, b in ((">=", low), ("<=", high)) if math.isfinite(b)]
        bounds = " and ".join(f"{op} {b}" for op, b in finite)
        raise ConfigError(f"{name} must be an integer {bounds}".rstrip() + f", got {value!r}")
    return int(value)


def check_int_field(owner, name: str, low: float = -math.inf, high: float = math.inf) -> None:
    """:func:`check_int` on a frozen dataclass's field, stored back as a
    Python int (a report holding a numpy integer cannot be serialized)."""
    object.__setattr__(owner, name, check_int(name, getattr(owner, name), low, high))


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def check_float(name: str, value, *, gt=None, ge=None, lt=None, le=None) -> float:
    """``value`` as a Python float; ConfigError unless it is a finite real
    number that is > gt, >= ge, < lt and <= le, for each bound given. As
    in :func:`check_int`, a bool fails (numpy's is not a ``numbers.Real``
    at all), and a string fails here rather than as a bare TypeError in a
    comparison. So does an int too large for a float, such as 10**400."""
    bounds = [(op, b) for op, b in ((">", gt), (">=", ge), ("<", lt), ("<=", le)) if b is not None]
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if not (math.isfinite(number) and all(_COMPARE[op](number, b) for op, b in bounds)):
        limits = "".join(f" and {op} {b}" for op, b in bounds)
        raise ConfigError(f"{name} must be finite{limits}, got {value!r}")
    return number


def check_float_field(owner, name: str, **bounds) -> None:
    """:func:`check_float` on a frozen dataclass's field, stored back as a
    Python float, as :func:`check_int_field` stores ints."""
    object.__setattr__(owner, name, check_float(name, getattr(owner, name), **bounds))
