"""Ingestion, correlation, splitting, and the standardizer."""

from __future__ import annotations

import hashlib
import re
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import SYNTHETIC_CSV, load_script, make_dataset
from pdvox.dataset import (
    CANONICAL_FEATURES,
    CANONICAL_HEADER,
    Dataset,
    correlation_matrix,
    fit_standardizer,
    load_dataset,
    stratified_split,
    subset,
    transform_features,
    write_dataset_csv,
)
from pdvox.errors import ConfigError, PdvoxError, SchemaError, ValidationError
from pdvox.tree import TreeParams, build_bins, fit_cart, predict_many


def canonical_dataset(n_rows: int, rng: np.random.Generator) -> Dataset:
    features = rng.normal(size=(n_rows, 22))
    labels = rng.integers(0, 2, size=n_rows)
    if labels.max() == labels.min():  # ensure both classes for split tests
        labels[0] = 1 - labels[0]
    return Dataset(
        ids=tuple(f"rec-{i:03d}" for i in range(n_rows)),
        features=features,
        labels=labels,
        feature_names=CANONICAL_FEATURES,
    )


# ------------------------------------------------------------ construction


def test_header_layout():
    assert len(CANONICAL_HEADER) == 24
    assert CANONICAL_HEADER[0] == "name"
    assert CANONICAL_HEADER[17] == "status"
    assert len(CANONICAL_FEATURES) == 22
    assert "status" not in CANONICAL_FEATURES
    assert CANONICAL_FEATURES[15] == "HNR"
    assert CANONICAL_FEATURES[16] == "RPDE"
    assert CANONICAL_FEATURES[21] == "PPE"


def test_dataset_rejects_bad_shapes_and_values():
    with pytest.raises(ValidationError):
        make_dataset(np.ones((2, 3)), [0, 1], names=("a", "b"))  # width mismatch
    with pytest.raises(ValidationError):
        make_dataset([[np.nan, 1.0]], [1])
    with pytest.raises(ValidationError):
        make_dataset([[1.0, 2.0]], [2])
    ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0  # arrays are read-only


@pytest.mark.parametrize("X", [[["x"]], [[1.0, 2.0], [3.0]], [[1 + 2j]],
                               np.array([[1 + 2j], [3 + 0j]]), [["1.5", "2"]],
                               np.array([[1.0]], dtype=object)],
                         ids=["text", "ragged", "complex-list", "complex-array", "numeric-text",
                              "object"])
@pytest.mark.parametrize("entry", ["make_dataset", "predict_many"])
def test_non_real_features_rejected(entry, X):
    # each used to raise a bare ValueError or TypeError, a complex array
    # only warned and kept its real parts, and text that parses and an
    # object array were read as numbers: the dtype decides
    stump = fit_cart(build_bins([[0.0], [1.0]]), np.array([0.0, 1.0]), np.ones(2),
                     TreeParams(objective="gini", max_depth=1))
    with pytest.raises(ValidationError, match="^features must be real numbers$"):
        if entry == "make_dataset":
            make_dataset(X, [0] * len(X))
        else:
            predict_many(stump, X)


@pytest.mark.parametrize("labels, message", [
    ([0.5, 1.0], "labels must be 0 or 1; saw"),
    ([0, 1.9], "labels must be 0 or 1; saw"),
    ([0, np.nan], "labels must be 0 or 1; saw nan"),
    (["0", "1"], "labels must be real numbers$"),
    ([0j, 1 + 0j], "labels must be real numbers$"),
], ids=["0.5", "1.9", "nan", "text", "complex"])
def test_dataset_rejects_labels_that_are_not_0_or_1(labels, message):
    # the int64 cast used to come first: 0.5 and 1.9 were stored as 0 and 1,
    # and a NaN failed as a bare ValueError; text failed as "saw 0", which
    # blamed a valid value, and complex labels were stored as their real parts
    with pytest.raises(ValidationError, match=f"^{message}"):
        make_dataset([[1.0], [2.0]], labels)


@pytest.mark.parametrize("labels", [[0, 1], [False, True], [0.0, 1.0]],
                         ids=["int", "bool", "float"])
def test_dataset_stores_0_1_labels_as_int64(labels):
    stored = make_dataset([[1.0], [2.0]], labels).labels
    assert stored.dtype == np.int64 and stored.tolist() == [0, 1]


@pytest.mark.parametrize("ids, labels, counts", [
    (("a",), [0, 1], "1 ids, 2 feature rows, 2 labels"),
    (("a", "b"), [0], "2 ids, 2 feature rows, 1 labels"),
    (("a", "b"), [[0, 1]], "2 ids, 2 feature rows, ? labels"),
], ids=["ids", "labels", "2-D-labels"])
def test_dataset_rejects_ids_or_labels_not_as_long_as_its_rows(ids, labels, counts):
    with pytest.raises(ValidationError, match=re.escape(f"inconsistent lengths: {counts}")):
        Dataset(ids=ids, features=np.ones((2, 1)), labels=labels, feature_names=("f",))


def test_dataset_rejects_a_table_without_feature_columns():
    # every learner needs a column; the SVM used to fit one with gamma 1.0
    with pytest.raises(ValidationError,
                       match=r"expected \(n, d >= 1\) feature matrix, got shape \(4, 0\)"):
        Dataset(ids=tuple("abcd"), features=np.empty((4, 0)), labels=[0, 1, 0, 1],
                feature_names=())


# --------------------------------------------------------------- load/save


def write_rows(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sample_row(name="rec-1", status="1"):
    row = [name] + [f"{i}.5" for i in range(16)] + [status] + [f"{i}.25" for i in range(6)]
    return row


def test_load_roundtrip_values_and_order(tmp_path):
    path = tmp_path / "ok.csv"
    write_rows(path, CANONICAL_HEADER, [sample_row("a", "1"), sample_row("b", "0")])
    ds = load_dataset(path)
    assert ds.ids == ("a", "b")
    assert ds.labels.tolist() == [1, 0]
    assert ds.n_features == 22
    assert ds.features[0, 0] == 0.5
    assert ds.features[0, 15] == 15.5  # HNR, last column before status
    assert ds.features[0, 16] == 0.25  # RPDE, first column after status


def test_load_missing_last_column_names_it(tmp_path):
    path = tmp_path / "short.csv"
    write_rows(path, CANONICAL_HEADER[:-1], [])
    with pytest.raises(SchemaError, match="PPE"):
        load_dataset(path)


def test_load_permuted_header_names_first_mismatch(tmp_path):
    header = list(CANONICAL_HEADER)
    header[4], header[5] = header[5], header[4]
    path = tmp_path / "perm.csv"
    write_rows(path, header, [])
    with pytest.raises(SchemaError, match=r"MDVP:Jitter\(%\)"):
        load_dataset(path)


def test_load_extra_column_rejected(tmp_path):
    path = tmp_path / "extra.csv"
    write_rows(path, list(CANONICAL_HEADER) + ["bogus"], [])
    with pytest.raises(SchemaError, match="bogus"):
        load_dataset(path)


def test_load_bad_status_and_bad_cell_carry_line_numbers(tmp_path):
    path = tmp_path / "bad_status.csv"
    write_rows(path, CANONICAL_HEADER, [sample_row(), sample_row("rec-2", status="2")])
    with pytest.raises(ValidationError, match="line 3: status"):
        load_dataset(path)

    path2 = tmp_path / "bad_cell.csv"
    row = sample_row()
    row[3] = "oops"
    write_rows(path2, CANONICAL_HEADER, [row])
    with pytest.raises(ValidationError, match="line 2.*MDVP:Flo"):
        load_dataset(path2)


def test_load_names_a_non_numeric_status(tmp_path):
    path = tmp_path / "word_status.csv"
    write_rows(path, CANONICAL_HEADER, [sample_row(), sample_row("rec-2", status="x")])
    with pytest.raises(ValidationError,
                       match=re.escape(f"{path}: line 3: status 'x' is not numeric")):
        load_dataset(path)


def test_writer_rejects_a_non_canonical_schema(tmp_path):
    out = tmp_path / "two_columns.csv"
    with pytest.raises(SchemaError, match="canonical 22-feature schema"):
        write_dataset_csv(make_dataset([[1.0, 2.0]], [1]), out)
    assert not out.exists()


def test_load_rejects_a_repeated_id_naming_both_lines(tmp_path):
    path = tmp_path / "repeat.csv"
    rows = [sample_row("a"), sample_row("b"), sample_row("c"), sample_row("b", "0")]
    write_rows(path, CANONICAL_HEADER, rows)
    with pytest.raises(
        ValidationError, match=r"line 5: id 'b' repeats the record on line 3$"
    ):
        load_dataset(path)


def test_load_accepts_numeric_status_spellings(tmp_path):
    path = tmp_path / "status.csv"
    write_rows(path, CANONICAL_HEADER, [sample_row("a", "1.0"), sample_row("b", "0.0")])
    assert load_dataset(path).labels.tolist() == [1, 0]


def test_load_rejects_nonfinite_feature(tmp_path):
    path = tmp_path / "inf.csv"
    row = sample_row()
    row[2] = "inf"
    write_rows(path, CANONICAL_HEADER, [row])
    with pytest.raises(ValidationError, match="not finite"):
        load_dataset(path)


@pytest.mark.parametrize(
    "bad, first",
    [
        # (line, column position, token) cells; the first in row-major order is reported
        ({(3, 20, "nan"), (3, 5, "-inf"), (4, 1, "inf")}, (3, 5, "-inf")),
        ({(2, 22, "inf"), (3, 1, "nan")}, (2, 22, "inf")),
        ({(4, 2, "NaN"), (5, 9, "-Infinity")}, (4, 2, "NaN")),
    ],
)
def test_load_reports_first_nonfinite_cell(tmp_path, bad, first):
    rows = [sample_row(f"rec-{i}") for i in range(4)]
    for line_no, pos, token in bad:
        rows[line_no - 2][pos] = token
    path = tmp_path / "nonfinite.csv"
    write_rows(path, CANONICAL_HEADER, rows)
    line_no, pos, token = first
    with pytest.raises(ValidationError) as info:
        load_dataset(path)
    assert str(info.value) == (
        f"{path}: line {line_no}: column {CANONICAL_HEADER[pos]!r} value {token!r} "
        "is not finite"
    )


def test_load_oversized_cell_names_file_and_line(tmp_path):
    # The CSV reader's field size limit (131,072 bytes by default) fails as
    # a SchemaError naming the file and the record's line.
    path = tmp_path / "huge.csv"
    write_rows(path, CANONICAL_HEADER, [sample_row("a"), sample_row("x" * 200_000)])
    with pytest.raises(SchemaError) as info:
        load_dataset(path)
    assert str(info.value).startswith(f"{path}: line 3: unreadable CSV record: field larger")


def test_load_line_numbers_count_file_lines_across_quoted_newlines(tmp_path):
    # A quoted id holding a newline spans lines 2-3, so the next record
    # starts on file line 4, not on the third record's "line 3".
    rows = [sample_row('"a\nb"'), sample_row("c")]
    rows[1][3] = "oops"
    path = tmp_path / "quoted.csv"
    write_rows(path, CANONICAL_HEADER, rows)
    with pytest.raises(ValidationError) as info:
        load_dataset(path)
    assert str(info.value).startswith(f"{path}: line 4: column 'MDVP:Flo")
    rows[1][3] = "1.5"
    write_rows(path, CANONICAL_HEADER, rows)
    assert load_dataset(path).ids == ("a\nb", "c")


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"])
def test_load_non_utf8_line_counts_line_breaks_as_the_reader_does(tmp_path, newline):
    # The CSV reader ends lines at LF, CR LF and a lone CR alike, so a
    # Latin-1 byte on the fourth line is on line 4 whichever the file uses.
    rows = [sample_row("a"), sample_row("b"), sample_row("voix-\u00e9")]
    text = newline.join([",".join(CANONICAL_HEADER)] + [",".join(row) for row in rows]) + newline
    path = tmp_path / "latin1.csv"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(SchemaError) as info:
        load_dataset(path)
    assert str(info.value).startswith(f"{path}: line 4: not UTF-8 text (byte 0xe9")


def test_load_names_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "ok.csv"
    write_rows(path, CANONICAL_HEADER, [sample_row("a")])
    assert load_dataset(path).ids == ("a",)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    with pytest.raises(SchemaError) as info:
        load_dataset(bom)
    assert str(info.value) == f"{bom}: line 1: file starts with a UTF-8 byte-order mark"


_STRAY = (b"\x00", b'"', b"\r", b"\n", b",", b" ", b"\xff", b"\xe9", b"\xc3", b"\xef\xbb\xbf")


@st.composite
def malformed_csv(draw):
    """Canonical header plus rows, then one to three random mutations."""
    header = list(CANONICAL_HEADER)
    rows = [
        sample_row(f"rec-{i}", draw(st.sampled_from(["0", "1"])))
        for i in range(draw(st.integers(0, 4)))
    ]
    text_cell = st.text(max_size=6)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["header", "ragged", "cell", "quote", "huge", "none"]))
        if kind == "header":
            pos = draw(st.integers(0, len(header) - 1))
            edit = draw(st.sampled_from(["rename", "extra", "drop"]))
            if edit == "rename":
                header[pos] = draw(text_cell)
            elif edit == "extra":
                header.insert(pos, draw(text_cell))
            else:
                del header[pos]
        elif kind != "none" and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            pos = draw(st.integers(0, len(row) - 1))
            if kind == "ragged":
                if draw(st.booleans()):
                    del row[pos]
                else:
                    row.insert(pos, draw(text_cell))
            elif kind == "cell":
                row[pos] = draw(text_cell)
            elif kind == "huge":
                row[pos] = "9" * 140_000  # past the CSV reader's field size limit
            else:
                row[pos] = '"' + row[pos]  # unbalanced quote
    head = (",".join(header) + "\n").encode("utf-8", "surrogatepass")
    body = "".join(",".join(row) + "\n" for row in rows).encode("utf-8", "surrogatepass")
    content = bytearray(head + body)
    for _ in range(draw(st.integers(0, 3))):
        # mostly into the rows, which the header checks do not cover
        at = draw(st.integers(len(head) if draw(st.booleans()) else 0, len(content)))
        content[at:at] = draw(st.sampled_from(_STRAY) | st.binary(min_size=1, max_size=3))
    if draw(st.integers(0, 9)) == 0:
        content = bytearray(draw(st.sampled_from([b"", b"\n", b" \n\t\r\n", b"\r\n\r\n"])))
    return bytes(content)


@settings(max_examples=400, deadline=None)
@given(malformed_csv())
def test_load_fuzzed_csv_fails_only_with_toolkit_errors(content):
    # Ragged rows, bad header names, stray or non-UTF-8 bytes, unbalanced
    # quotes, oversized cells and empty files either load or fail as a
    # PdvoxError.
    try:
        data = load_dataset("fuzz.csv", content)
    except PdvoxError as exc:
        assert str(exc)
    else:
        assert data.n_records >= 1


#: Finite floats the writer must not bend: both zeros, integral values on
#: either side of 1e16 (where it stops writing integer digits), the
#: smallest normal and subnormals.
EDGE_FLOATS = (
    0.0, -0.0, 1e16, -1e16, 1e16 - 2, 1e16 + 2, 2.0**53 + 2,
    2.2250738585072014e-308, 5e-324, -4.9e-322,
)


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.just(22)),
        elements=st.one_of(
            st.sampled_from(EDGE_FLOATS),
            st.integers(-(10**17), 10**17).map(float),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    )
)
@example(np.array([EDGE_FLOATS * 2 + EDGE_FLOATS[:2]]))
def test_csv_roundtrip_is_bit_exact(tmp_path_factory, X):
    ds = Dataset(
        ids=tuple(f"id{i}" for i in range(X.shape[0])),
        features=X,
        labels=np.arange(X.shape[0]) % 2,
        feature_names=CANONICAL_FEATURES,
    )
    path = tmp_path_factory.mktemp("rt") / "round.csv"
    write_dataset_csv(ds, path)
    loaded = load_dataset(path)
    assert loaded.ids == ds.ids
    assert loaded.features.tobytes() == ds.features.tobytes()  # -0.0 keeps its sign
    assert np.array_equal(loaded.labels, ds.labels)


@pytest.fixture(scope="module")
def generator():
    return load_script("scripts/make_synthetic_vocal.py")


def test_generator_reproduces_committed_file(tmp_path, generator):
    # every benchmark table and pinned digest comes from this generator;
    # at its default seed it must write the committed file byte for byte
    out = tmp_path / "synthetic_vocal.csv"
    assert generator.main(["--out", str(out)]) == 0
    assert out.read_bytes() == SYNTHETIC_CSV.read_bytes()


def test_generator_rounding_matches_python_round(generator):
    # _round_cells is the generator's exact stand-in for round(v, d) per
    # cell: uniform cells within the clip bounds, and cells a few ulps
    # from a rounding half, where the float product can mislead np.rint
    rng = np.random.default_rng(11)
    lower, upper = np.array(generator._LOWER), np.array(generator._UPPER)
    uniform = lower + (upper - lower) * rng.random((3000, 22))
    scale = generator._SCALES
    halves = (np.floor(uniform * scale) + 0.5) / scale
    nudged = halves + rng.integers(-3, 4, halves.shape) * np.spacing(halves)
    for values in (uniform, np.clip(nudged, lower, upper)):
        expected = [
            [round(v, d) for v, d in zip(row, generator._DECIMALS)]
            for row in values.tolist()
        ]
        got = generator._round_cells(values)
        assert got.tobytes() == np.array(expected).tobytes()


#: SHA-256 over generate(s) for seeds 0-99: each table's ids (joined by
#: newlines), its features as little-endian float64 and its labels as
#: little-endian int64. Recorded on a generator that made one numpy call per
#: draw and rounded each cell with Python's round.
GENERATOR_SEEDS_DIGEST = "e401f89c1faa2e04e9ea954b0939f34958ad4696057cd2ba48a2d36ab7ba76e3"


def test_generator_output_is_pinned_over_seeds(generator):
    # the committed file pins one seed; this pins the generator's every
    # draw, clip and rounding over a hundred more
    digest = hashlib.sha256()
    for seed in range(100):
        data = generator.generate(seed)
        digest.update("\n".join(data.ids).encode())
        digest.update(data.features.astype("<f8").tobytes())
        digest.update(data.labels.astype("<i8").tobytes())
    assert digest.hexdigest() == GENERATOR_SEEDS_DIGEST


@pytest.mark.parametrize("size", [5000, None])
def test_fetch_writes_only_a_verified_download(tmp_path, monkeypatch, capsys, size):
    # a truncated download must leave no file where the tests would prefer
    # it over the synthetic one; the whole 195-row, 147-positive table is
    # written byte for byte (the fetch itself is replaced: no network)
    fetcher = load_script("scripts/fetch_uci_parkinsons.py")
    raw = SYNTHETIC_CSV.read_bytes()[:size]
    monkeypatch.setattr(fetcher, "fetch", lambda url, timeout: raw)
    out = tmp_path / "parkinsons.data"
    status = fetcher.main(["--out", str(out)])
    if size is None:
        assert status == 0 and out.read_bytes() == raw
        assert "verified: 195 rows, 147 positive" in capsys.readouterr().out
    else:
        assert status == 1 and not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {out}: line ")


# -------------------------------------------------------------- correlation


def test_correlation_perfect_dependences():
    ds = make_dataset(
        np.column_stack([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [6.0, 4.0, 2.0]]),
        [0, 1, 1],
    )
    corr = correlation_matrix(ds)
    assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert corr[0, 2] == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(corr, corr.T)
    assert np.all(np.diag(corr) == 1.0)


def test_correlation_matches_stdlib_oracle():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5))
    ds = make_dataset(X, rng.integers(0, 2, size=40))
    corr = correlation_matrix(ds)
    for j in range(5):
        for k in range(5):
            expected = statistics.correlation(X[:, j].tolist(), X[:, k].tolist()) if j != k else 1.0
            assert corr[j, k] == pytest.approx(expected, abs=1e-9)


def test_correlation_constant_column_sentinel_and_warning():
    X = np.column_stack([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]])
    ds = make_dataset(X, [0, 1, 1])
    with pytest.warns(UserWarning, match="constant"):
        corr = correlation_matrix(ds)
    assert corr[0, 1] == 0.0
    assert corr[0, 0] == 1.0


def test_correlation_does_not_depend_on_a_column_scale():
    # r is scale-free, but the squares of 3e200 * x overflow and those of
    # 3e-200 * x underflow: both used to read r = 0.0
    data = load_dataset(SYNTHETIC_CSV)
    x = data.features[:, 0]
    ds = make_dataset(np.column_stack([x, 3e200 * x, 3e-200 * x]), data.labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corr = correlation_matrix(ds)
    assert np.allclose(corr, 1.0, rtol=0, atol=1e-12)


def test_correlation_requires_two_records():
    ds = make_dataset([[1.0, 2.0]], [1])
    with pytest.raises(ValidationError):
        correlation_matrix(ds)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_correlation_invariant_under_row_permutation(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(17, 4)) * rng.lognormal(size=4)
    ds = make_dataset(X, rng.integers(0, 2, size=17))
    perm = rng.permutation(17)
    permuted = subset(ds, perm)
    assert np.array_equal(correlation_matrix(ds), correlation_matrix(permuted))


def test_correlation_entries_bounded_random():
    rng = np.random.default_rng(11)
    ds = make_dataset(rng.normal(size=(30, 6)), rng.integers(0, 2, size=30))
    corr = correlation_matrix(ds)
    assert np.all(corr <= 1.0) and np.all(corr >= -1.0)


# -------------------------------------------------------------------- split


def test_split_counts_on_canonical_class_sizes():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(195, 22))
    labels = np.array([1] * 147 + [0] * 48)
    ds = Dataset(
        ids=tuple(f"r{i}" for i in range(195)),
        features=features,
        labels=labels,
        feature_names=CANONICAL_FEATURES,
    )
    train, test = stratified_split(ds, 0.2, seed=42)
    assert test.n_records == 39
    assert train.n_records == 156
    test_neg, test_pos = test.class_counts()
    assert (test_pos, test_neg) == (29, 10)
    train_neg, train_pos = train.class_counts()
    assert (train_pos, train_neg) == (118, 38)


def test_split_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(1)
    ds = canonical_dataset(60, rng)
    a_train, a_test = stratified_split(ds, 0.25, seed=7)
    b_train, b_test = stratified_split(ds, 0.25, seed=7)
    assert a_test.ids == b_test.ids and a_train.ids == b_train.ids
    _, c_test = stratified_split(ds, 0.25, seed=8)
    assert set(a_test.ids) != set(c_test.ids)


def test_split_preserves_source_order():
    rng = np.random.default_rng(2)
    ds = canonical_dataset(40, rng)
    train, test = stratified_split(ds, 0.3, seed=3)
    positions = [ds.ids.index(i) for i in train.ids]
    assert positions == sorted(positions)
    positions_t = [ds.ids.index(i) for i in test.ids]
    assert positions_t == sorted(positions_t)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 40),
    st.floats(0.05, 0.95),
    st.integers(0, 2**32 - 1),
)
def test_split_is_a_partition(n, fraction, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    if labels.max() == labels.min():
        labels[0] = 1 - labels[0]
    ds = make_dataset(rng.normal(size=(n, 3)), labels)
    # per-class round-half-up rule
    totals = [int(np.sum(labels == cls)) for cls in (0, 1)]
    expected = [int(np.floor(total * fraction + 0.5)) for total in totals]
    for cls, (count, total) in enumerate(zip(expected, totals)):
        if count in (0, total):
            # the first class left off a side names that side and the class
            side = "test" if count == 0 else "training"
            with pytest.raises(ValidationError, match=f"^the {side} partition has no class {cls} "):
                stratified_split(ds, fraction, seed=seed)
            return
    train, test = stratified_split(ds, fraction, seed=seed)
    train_ids, test_ids = set(train.ids), set(test.ids)
    assert train_ids.isdisjoint(test_ids)
    assert train_ids | test_ids == set(ds.ids)
    assert train.n_records + test.n_records == n
    for cls in (0, 1):
        assert int(np.sum(test.labels == cls)) == expected[cls]
    assert min(train.class_counts() + test.class_counts()) > 0


def test_split_rejects_missing_class_and_bad_fraction():
    ds = make_dataset([[0.0], [1.0]], [1, 1])
    with pytest.raises(ValidationError, match=r"no class 0 \(healthy\) rows .* \(0 in the data\)$"):
        stratified_split(ds, 0.5, seed=0)
    both = make_dataset([[0.0], [1.0]], [0, 1])
    with pytest.raises(ConfigError):
        stratified_split(both, 1.0, seed=0)


# --------------------------------------------- standardizer (pdvox.dataset)


def test_standardizer_closed_form():
    ds = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 1])
    s = fit_standardizer(ds)
    assert s.means[0] == pytest.approx(2.0)
    assert s.stds[0] == pytest.approx(1.0)  # sample sd, n-1 denominator
    out = transform_features(s, ds.features)
    assert np.allclose(out[:, 0], [-1.0, 0.0, 1.0])


def test_standardizer_self_application_centers():
    rng = np.random.default_rng(9)
    ds = make_dataset(rng.lognormal(size=(50, 4)), rng.integers(0, 2, size=50))
    s = fit_standardizer(ds)
    out = transform_features(s, ds.features)
    assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
    assert np.allclose(out.std(axis=0, ddof=1), 1.0, atol=1e-9)


def test_standardizer_constant_column_zeroed_with_warning():
    ds = make_dataset([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]], [0, 1, 1])
    with pytest.warns(UserWarning, match="constant"):
        s = fit_standardizer(ds)
    out = transform_features(s, ds.features)
    assert np.all(out[:, 0] == 0.0)
    # constant column zeroes even for unseen values
    other = transform_features(s, np.array([[7.0, 3.0]]))
    assert other[0, 0] == 0.0


def test_standardizer_one_row_is_all_constant():
    ds = make_dataset([[5.0, -1.0, 2.5]], [1])
    with pytest.warns(UserWarning, match=r"constant columns standardize to zero: \['f0', 'f1', 'f2'\]"):
        s = fit_standardizer(ds)
    assert s.constant.all()
    out = transform_features(s, np.array([[5.0, -1.0, 2.5], [7.0, 3.0, -4.0]]))
    assert np.array_equal(out, np.zeros((2, 3)))


def test_standardizer_names_columns_whose_squares_leave_the_float_range():
    # 1e-200 * x has a variance below the smallest normal float, 1e170 * x
    # one above the largest; 1e-150 * x still standardizes like x
    x = np.array([1.0, 2.0, 4.0])
    ds = make_dataset(np.column_stack([x, 1e-200 * x, 1e170 * x, 1e-150 * x]), [0, 1, 1])
    with pytest.raises(ValidationError, match=re.escape(
            "cannot standardize ['f1', 'f2']: sample std not finite or below 2**-511")):
        fit_standardizer(ds)
    small = make_dataset(np.column_stack([x, 1e-150 * x]), [0, 1, 1])
    out = transform_features(fit_standardizer(small), small.features)
    assert np.allclose(out[:, 1], out[:, 0], rtol=0, atol=1e-12)


def test_standardizer_never_reads_test_rows():
    rng = np.random.default_rng(4)
    train = make_dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, size=20))
    s1 = fit_standardizer(train)
    # perturbing unrelated "test" data cannot change a fitted transform;
    # refitting on identical train rows reproduces it bit-for-bit
    _ = rng.normal(size=(10, 3)) * 100
    s2 = fit_standardizer(train)
    assert np.array_equal(s1.means, s2.means)
    assert np.array_equal(s1.stds, s2.stds)
    assert np.array_equal(s1.constant, s2.constant)


def test_standardizer_empty_errors():
    with pytest.raises(ValidationError):
        fit_standardizer(
            Dataset(ids=(), features=np.empty((0, 2)), labels=np.empty(0, dtype=int),
                    feature_names=("a", "b"))
        )
