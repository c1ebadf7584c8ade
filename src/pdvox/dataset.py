"""Vocal-feature table ingestion, validation, column statistics, and splitting.

The column statistics are the Pearson correlation matrix and the z-score
standardizer the SVM fits on its training rows. Both share one rule: a
column that holds one value is constant, and a warning names it.

The on-disk format is the 24-column comma-separated layout used by the
sustained-phonation recordings table: a text ``name`` identifier, 22
numeric vocal features (jitter family, shimmer family, noise ratios,
nonlinear dynamics measures), and a binary ``status`` label where 0 marks
a healthy speaker and 1 a speaker with Parkinson's disease.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from itertools import combinations, zip_longest

import numpy as np

from .errors import (
    FrozenArrays, SchemaError, ValidationError, check_float, check_labels, check_matrix,
)
from .rng import stream

CANONICAL_HEADER: tuple[str, ...] = (
    "name",
    "MDVP:Fo(Hz)",
    "MDVP:Fhi(Hz)",
    "MDVP:Flo(Hz)",
    "MDVP:Jitter(%)",
    "MDVP:Jitter(Abs)",
    "MDVP:RAP",
    "MDVP:PPQ",
    "Jitter:DDP",
    "MDVP:Shimmer",
    "MDVP:Shimmer(dB)",
    "Shimmer:APQ3",
    "Shimmer:APQ5",
    "MDVP:APQ",
    "Shimmer:DDA",
    "NHR",
    "HNR",
    "status",
    "RPDE",
    "DFA",
    "spread1",
    "spread2",
    "D2",
    "PPE",
)

_STATUS_POS = CANONICAL_HEADER.index("status")

#: The 22 numeric predictor names, in on-disk order with ``status`` removed.
CANONICAL_FEATURES: tuple[str, ...] = (
    CANONICAL_HEADER[1:_STATUS_POS] + CANONICAL_HEADER[_STATUS_POS + 1 :]
)


@dataclass(frozen=True, eq=False)
class Dataset(FrozenArrays):
    """Immutable record table: ids, a features matrix, and binary labels.

    ``features`` is (n, d) float64 and ``labels`` is (n,) int64 with values
    in {0, 1}; both arrays are read-only. ``feature_names`` fixes the
    column order and must match the matrix width.
    """

    ARRAYS = {"features": None, "labels": None}
    ids: tuple[str, ...]
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        features = check_matrix(self.features, len(self.feature_names))
        labels = check_labels(self.labels)
        n = features.shape[0]
        if len(self.ids) != n or labels.shape != (n,):
            raise ValidationError(
                f"inconsistent lengths: {len(self.ids)} ids, "
                f"{n} feature rows, {labels.shape[0] if labels.ndim == 1 else '?'} labels"
            )
        self.__dict__.update(ids=tuple(self.ids), feature_names=tuple(self.feature_names),
                             features=features, labels=labels)
        super().__post_init__()

    @property
    def n_records(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """(negatives, positives) = (# status 0, # status 1)."""
        counts = np.bincount(self.labels, minlength=2)
        return int(counts[0]), int(counts[1])


def require_both_classes(data: Dataset, learner: str) -> None:
    n0, n1 = data.class_counts()
    if n0 == 0 or n1 == 0:
        raise ValidationError(
            f"{learner} needs both classes in the training set "
            f"(got {n1} positive, {n0} negative)"
        )


def subset(data: Dataset, indices) -> Dataset:
    """New Dataset holding ``data``'s rows at ``indices`` (order kept).
    ``indices`` must be 1-D integer row numbers in [0, n); an empty list
    selects no rows. Floats, a boolean mask and a negative or too-large
    index fail with a ValidationError."""
    idx = np.asarray(indices)
    n = data.n_records
    if idx.ndim != 1 or idx.size and (
        idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= n
    ):
        raise ValidationError(f"indices must be 1-D integer row numbers in [0, {n})")
    idx = idx.astype(np.int64, copy=False)
    return Dataset(
        ids=tuple(data.ids[i] for i in idx),
        features=data.features[idx],
        labels=data.labels[idx],
        feature_names=data.feature_names,
    )


def _csv_records(text: str, path):
    """(line, row) for each CSV record, ``line`` being the 1-based file line
    the record starts on (a quoted cell may span lines). A record the CSV
    reader cannot parse fails as a SchemaError naming that line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    line_no = 1
    try:
        for row in reader:
            yield line_no, row
            line_no = reader.line_num + 1
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {line_no}: unreadable CSV record: {exc}") from None


def load_dataset(path, content: bytes | None = None) -> Dataset:
    """Read the canonical 24-column CSV into a validated Dataset.

    The header must match :data:`CANONICAL_HEADER` exactly; the first
    mismatched column name is reported, and a leading UTF-8 byte-order
    mark is named as such. The 23 numeric cells of a record (the
    features and ``status``) must parse as finite numbers, the first bad
    one in file order reported; ``status`` must then be 0 or 1. No two
    records may share an id (a repeated recording could land on both
    sides of a split); a repeat names both lines. Bytes that are not
    UTF-8, and records the CSV reader rejects (such as a cell over its
    field size limit), fail as a SchemaError. Every error names the
    file; an error in a record or a byte also gives the 1-based file line
    it starts on, counting line breaks as the CSV reader does (LF, CR LF
    or a lone CR). ``content`` is the file's bytes when the caller has
    already read them; ``path`` then only names the source in messages.
    """
    if content is None:
        with open(path, "rb") as handle:
            content = handle.read()
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = content[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise SchemaError(
            f"{path}: line {line_no}: not UTF-8 text "
            f"(byte 0x{content[exc.start]:02x} at offset {exc.start})"
        ) from None
    if text.startswith("\ufeff"):
        raise SchemaError(f"{path}: line 1: file starts with a UTF-8 byte-order mark")
    records = _csv_records(text, path)
    _, header = next(records, (None, None))
    if header is None:
        raise SchemaError(f"{path}: empty file, expected header row")
    for pos, (expected, actual) in enumerate(zip_longest(CANONICAL_HEADER, header)):
        if expected != actual:
            if expected is None:
                raise SchemaError(
                    f"{path}: unexpected extra column {actual!r} at position {pos}"
                )
            raise SchemaError(
                f"{path}: header mismatch at position {pos}: expected "
                f"{expected!r}, found {actual!r}"
            )
    id_lines: dict[str, int] = {}  # each id's line, in file order
    rows: list[list[float]] = []
    labels: list[int] = []
    for line_no, row in records:
        if not row:
            continue
        if len(row) != len(CANONICAL_HEADER):
            raise ValidationError(
                f"{path}: line {line_no}: expected {len(CANONICAL_HEADER)} fields, "
                f"got {len(row)}"
            )
        first = id_lines.setdefault(row[0], line_no)
        if first != line_no:
            raise ValidationError(
                f"{path}: line {line_no}: id {row[0]!r} repeats the record on line {first}"
            )
        values = []
        for pos, token in enumerate(row[1:], 1):
            try:
                value = float(token)
            except ValueError:
                raise ValidationError(
                    f"{path}: line {line_no}: column {CANONICAL_HEADER[pos]!r} value "
                    f"{token!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise ValidationError(
                    f"{path}: line {line_no}: column {CANONICAL_HEADER[pos]!r} value "
                    f"{token!r} is not finite"
                )
            values.append(value)
        status = values.pop(_STATUS_POS - 1)
        if status != 0.0 and status != 1.0:
            raise ValidationError(
                f"{path}: line {line_no}: status must be 0 or 1, saw {row[_STATUS_POS]!r}"
            )
        labels.append(int(status))
        rows.append(values)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return Dataset(
        ids=tuple(id_lines),
        features=np.array(rows, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        feature_names=CANONICAL_FEATURES,
    )


def write_dataset_csv(data: Dataset, path) -> None:
    """Write ``data`` in the canonical 24-column layout, value-exact.

    Each feature is written as the shortest text that parses back to the
    same float (its ``repr``), except that an integral value below 1e16
    drops the ``.0`` (``3``, not ``3.0``). Negative zero keeps it: it is
    written ``-0.0``, so it loads back with its sign.
    """
    if data.feature_names != CANONICAL_FEATURES:
        raise SchemaError("CSV writer requires the canonical 22-feature schema")
    X = data.features
    rows = X.tolist()
    # the csv writer writes a float as its repr and an int as its digits,
    # so integral values go to it as ints (-0.0 stays a float, for its sign)
    integral = (X == np.trunc(X)) & (np.abs(X) < 1e16) & ~((X == 0) & np.signbit(X))
    for i, j in zip(*np.nonzero(integral)):
        rows[i][j] = int(rows[i][j])
    head = _STATUS_POS - 1  # feature columns left of ``status``
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CANONICAL_HEADER)
        writer.writerows(
            [name, *row[:head], label, *row[head:]]
            for name, row, label in zip(data.ids, rows, data.labels.tolist())
        )


def _constant_columns(data: Dataset, consequence: str) -> np.ndarray:
    """Mask of the columns of ``data`` that hold one value. Any such
    column is named in the warning ``constant columns {consequence}``,
    issued at the caller's caller."""
    X = data.features
    constant = np.all(X == X[0], axis=0)
    if constant.any():
        names = [data.feature_names[i] for i in np.flatnonzero(constant)]
        warnings.warn(f"constant columns {consequence}: {names}", stacklevel=3)
    return constant


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
    """z-scores fitted on ``train``. A column that is not constant but whose
    sample standard deviation is not finite or below 2**-511 (its variance
    is then not a normal float) fails with a ValidationError naming it."""
    if train.n_records == 0:
        raise ValidationError("cannot fit standardizer on an empty dataset")
    X = train.features
    constant = _constant_columns(train, "standardize to zero")
    stds = np.ones(X.shape[1])
    if not constant.all():
        with np.errstate(over="ignore"):  # an overflow fails below, naming its column
            stds[~constant] = X[:, ~constant].std(axis=0, ddof=1)
    bad = ~((stds >= 2.0**-511) & (stds < np.inf))  # a constant column's 1.0 passes
    if bad.any():
        names = [train.feature_names[i] for i in np.flatnonzero(bad)]
        raise ValidationError(f"cannot standardize {names}: sample std not finite or below 2**-511")
    return Standardizer(means=X.mean(axis=0), stds=stds, constant=constant)


def transform_features(s: Standardizer, X: np.ndarray) -> np.ndarray:
    """Apply the z-score transform to a raw feature matrix, which must pass
    :func:`~pdvox.errors.check_matrix` at the standardizer's width."""
    out = (check_matrix(X, s.means.size) - s.means) / s.stds
    out[..., s.constant] = 0.0
    return out


def correlation_matrix(data: Dataset) -> np.ndarray:
    """Pearson correlation between every pair of feature columns.

    Symmetric with unit diagonal. Constant columns cannot support a
    correlation; their off-diagonal entries are set to 0.0 and a warning
    is issued. Each column is first scaled, exactly, by the power of two
    that puts its largest magnitude in [0.5, 1), so no square over- or
    underflows. Sums use exactly-rounded accumulation (math.fsum), so the
    result is bit-identical under any permutation of the rows.
    """
    if data.n_records < 2:
        raise ValidationError("correlation requires at least 2 records")
    n, d = data.features.shape
    constant = _constant_columns(data, "have undefined correlation, reported as 0")
    X = np.ldexp(data.features, -np.frexp(np.abs(data.features).max(axis=0))[1])
    means = np.array([math.fsum(X[:, j].tolist()) / n for j in range(d)])
    centered = X - means
    centered[:, constant] = 0.0
    norms = [math.sqrt(math.fsum((c * c).tolist())) for c in centered.T]
    corr = np.eye(d, dtype=np.float64)
    for j, k in combinations(range(d), 2):
        if norms[j] != 0.0 and norms[k] != 0.0:
            r = math.fsum((centered[:, j] * centered[:, k]).tolist()) / (norms[j] * norms[k])
            corr[j, k] = corr[k, j] = min(1.0, max(-1.0, r))
    return corr


def correlation_csv_text(data: Dataset) -> str:
    """Correlation matrix as CSV text with feature-name header row/column."""
    corr = correlation_matrix(data)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("", *data.feature_names))
    for name, row in zip(data.feature_names, corr):
        writer.writerow((name, *(repr(float(v)) for v in row)))
    return buffer.getvalue()


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def stratified_split(data: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded per-class hold-out split into ``(train, test)``.

    Each class is shuffled independently with the toolkit PRNG and its
    first ``round_half_up(class_count * test_fraction)`` records go to the
    test side. Surviving indices are re-sorted so both partitions keep the
    source row order.

    Both partitions must hold both classes (every model is fitted and
    AUC-scored on both): a class whose test count is 0 or all its rows
    fails with a ValidationError naming the partition and the class's
    row count in ``data``. This is the one place that rule is checked.
    """
    test_fraction = check_float("test_fraction", test_fraction, gt=0, lt=1)
    gen = stream(seed, "split")
    test_parts: list[np.ndarray] = []
    for cls, name in enumerate(("class 0 (healthy)", "class 1 (Parkinson's)")):
        members = np.flatnonzero(data.labels == cls)
        n_test = _round_half_up(members.size * test_fraction)
        if n_test in (0, members.size):
            raise ValidationError(
                f"the {'test' if n_test == 0 else 'training'} partition has no {name} "
                f"rows at test fraction {test_fraction} ({members.size} in the data)"
            )
        order = list(range(members.size))
        gen.shuffle(order)
        test_parts.append(members[order[:n_test]])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.ones(data.n_records, dtype=bool)
    mask[test_idx] = False
    train_idx = np.flatnonzero(mask)
    return subset(data, train_idx), subset(data, test_idx)
