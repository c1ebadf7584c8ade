"""Exception types raised by the toolkit, and the per-value checks that
raise them: settings, seeds (``rng.derive_key`` checks every one) and
feature matrices. A rule about a whole table belongs to the function that
makes the table, as the both-classes rule belongs to the split. Every
frozen value that holds arrays is a :class:`FrozenArrays`: it owns a
read-only copy of each (:func:`frozen`), read-only through pickling too,
and two such values compare by value, NaN equal to NaN. They are
unhashable. So a model fitted in a worker process equals the same fit in
process."""

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


def check_matrix(X, n_features: int | None = None) -> np.ndarray:
    """``X`` as a float64 matrix of at least one column, and of
    ``n_features`` columns when given; ValidationError on another shape,
    on a value that is not a real number (complex, non-numeric text,
    ragged rows) or on a NaN/inf value. Every feature matrix a dataset, a
    tree or a model takes in passes here."""
    try:
        if np.iscomplexobj(X):  # numpy would keep only the real parts, with a warning
            raise TypeError
        M = np.asarray(X, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError("features must be real numbers") from None
    if M.ndim != 2 or M.shape[1] == 0 or n_features not in (None, M.shape[1]):
        want = n_features or "d >= 1"
        raise ValidationError(f"expected (n, {want}) feature matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValidationError("features must be finite (no NaN/inf)")
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
    field, maps each array field to its dtype: None keeps the given one,
    ``(dtype,)`` marks a tuple of arrays (``BinMap.cuts``). ``__post_init__``
    passes each through :func:`frozen`. Unpickling skips it and numpy
    restores arrays writeable, so ``__setstate__`` makes each read-only
    again, in place (nothing else holds them). ``==`` compares the fields
    in order: arrays with NaN equal to NaN (leaf thresholds are NaN),
    tuples item by item, the rest by ``==``. Subclasses are ``eq=False``
    (the dataclass ``==`` raises on arrays) and unhashable."""

    def __post_init__(self):
        for name, dtype in self.ARRAYS.items():
            value = getattr(self, name)
            object.__setattr__(self, name, tuple(frozen(v, dtype[0]) for v in value)
                               if isinstance(dtype, tuple) else frozen(value, dtype))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def __setstate__(self, state):
        for value in state.values():
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    item.flags.writeable = False
        self.__dict__.update(state)


def _equal(a, b) -> bool:
    """One field of :meth:`FrozenArrays.__eq__`."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_equal, a, b))
    return np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b


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
