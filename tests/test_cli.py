"""Command-line surface: subcommands, data resolution, exit codes."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import SYNTHETIC_CSV, load_script
from pdvox.cli import main
from pdvox.dataset import (
    CANONICAL_FEATURES,
    CANONICAL_HEADER,
    Dataset,
    load_dataset,
    write_dataset_csv,
)
from pdvox.experiment import RunConfig, parse_report, report_to_json, run_experiment


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    rng = np.random.default_rng(3)
    n_pos, n_neg = 30, 14
    labels = np.array([1] * n_pos + [0] * n_neg)
    X = rng.normal(size=(n_pos + n_neg, 22))
    X += labels[:, None] * np.linspace(1.4, 0.1, 22)
    X = np.round(np.abs(X) + 0.01, 6)
    data = Dataset(
        ids=tuple(f"voice-{i:02d}" for i in range(n_pos + n_neg)),
        features=X,
        labels=labels,
        feature_names=CANONICAL_FEATURES,
    )
    path = tmp_path_factory.mktemp("cli") / "vocal.csv"
    write_dataset_csv(data, path)
    return path


@pytest.fixture(autouse=True)
def clear_env(monkeypatch):
    monkeypatch.delenv("PDVOX_DATA", raising=False)


def test_ingest_prints_counts(csv_path, capsys):
    assert main(["ingest", "--data", str(csv_path)]) == 0
    assert capsys.readouterr().out == "44 rows, 30 positive, 14 negative\n"


def test_ingest_has_no_check_flag(csv_path, capsys):
    # ingest always validates; the former no-op --check is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--check", "--data", str(csv_path)])
    assert exc.value.code == 2
    assert "--check" in capsys.readouterr().err


def test_data_from_environment(csv_path, capsys, monkeypatch):
    monkeypatch.setenv("PDVOX_DATA", str(csv_path))
    assert main(["ingest"]) == 0
    assert "44 rows" in capsys.readouterr().out


def test_flag_overrides_environment(csv_path, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("PDVOX_DATA", "/nonexistent.csv")
    assert main(["ingest", "--data", str(csv_path)]) == 0
    assert "44 rows" in capsys.readouterr().out


def test_missing_data_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ingest"])
    assert exc.value.code == 2
    assert "PDVOX_DATA" in capsys.readouterr().err


def test_unreadable_data_is_runtime_error(capsys):
    assert main(["ingest", "--data", "/nonexistent/no.csv"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_data_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,status\nx,1\n")
    assert main(["ingest", "--data", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_utf8_data_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    row = ["voix-\u00e9"] + ["1"] * (len(CANONICAL_HEADER) - 1)
    bad.write_bytes((",".join(CANONICAL_HEADER) + "\n" + ",".join(row) + "\n").encode("latin-1"))
    assert main(["ingest", "--data", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 2: not UTF-8")
    assert "0xe9" in err


def test_oversized_cell_names_file_and_line(tmp_path, capsys):
    big = tmp_path / "huge.csv"
    row = ["x" * 200_000] + ["1"] * (len(CANONICAL_HEADER) - 1)
    big.write_text(",".join(CANONICAL_HEADER) + "\n" + ",".join(row) + "\n", encoding="utf-8")
    assert main(["ingest", "--data", str(big)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {big}: line 2: unreadable CSV record")


def test_ragged_row_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "ragged.csv"
    rows = [["a"] + ["1"] * (len(CANONICAL_HEADER) - 1), ["b"] + ["1"] * (len(CANONICAL_HEADER) - 2)]
    bad.write_text("\n".join(",".join(row) for row in [CANONICAL_HEADER, *rows]) + "\n")
    assert main(["ingest", "--data", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 3: expected 24 fields, got 23\n"


def test_correlate_stdout_shape(csv_path, capsys):
    assert main(["correlate", "--data", str(csv_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 23  # header + one row per feature
    assert lines[0].split(",")[1:] == list(CANONICAL_FEATURES)
    # unit diagonal
    assert lines[1].split(",")[1] == "1.0"


def test_correlate_warning_is_one_line(csv_path, tmp_path, capsys):
    data = load_dataset(csv_path)
    features = data.features.copy()
    features[:, 0] = 150.0
    flat = tmp_path / "flat.csv"
    write_dataset_csv(replace(data, features=features), flat)
    assert main(["correlate", "--data", str(flat)]) == 0
    assert capsys.readouterr().err == (
        "warning: constant columns have undefined correlation, reported as 0: ['MDVP:Fo(Hz)']\n"
    )


def test_compare_fit_warning_is_one_line(tmp_path, capsys):
    # the SVM fit warns in a worker process; the parent prints it once
    data = load_dataset(SYNTHETIC_CSV)
    features = data.features.copy()
    features[:, 0] = 150.0
    flat = tmp_path / "flat.csv"
    write_dataset_csv(replace(data, features=features), flat)
    assert main(["compare", "--data", str(flat)]) == 0
    assert capsys.readouterr().err == (
        "warning: constant columns standardize to zero: ['MDVP:Fo(Hz)']\n"
    )


def _rescaled(tmp_path, column, scale):
    """The committed file with one feature column times ``scale``."""
    data = load_dataset(SYNTHETIC_CSV)
    features = data.features.copy()
    features[:, CANONICAL_FEATURES.index(column)] *= scale
    path = tmp_path / "rescaled.csv"
    write_dataset_csv(replace(data, features=features), path)
    return path


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_correlate_reads_a_rescaled_column_as_the_original(tmp_path, capsys, scale):
    # at 1e200 r(Fo, Fhi) used to read 0.0 after an overflow warning, and
    # at 1e-200 it read 0.0 silently; the true value is about 0.898
    def matrix(path):
        assert main(["correlate", "--data", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return np.array([line.split(",")[1:] for line in out.splitlines()[1:]], dtype=float)

    rescaled = matrix(_rescaled(tmp_path, "MDVP:Fhi(Hz)", scale))
    assert np.allclose(rescaled, matrix(SYNTHETIC_CSV), rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-200, 1e170])
def test_svm_run_names_a_column_it_cannot_standardize(tmp_path, capsys, scale):
    # the parent divided by an underflowed std (1e-200) or zeroed the
    # column (1e170) and reported a fit
    path = _rescaled(tmp_path, "MDVP:Fo(Hz)", scale)
    assert main(["run", "--model", "svm", "--smote", "off", "--data", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: fit svm: cannot standardize ['MDVP:Fo(Hz)']: "
        "sample std not finite or below 2**-511\n"
    )


def test_correlate_out_file(csv_path, tmp_path, capsys):
    out = tmp_path / "corr.csv"
    assert main(["correlate", "--data", str(csv_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert len(out.read_text().splitlines()) == 23


def test_run_requires_model(csv_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--data", str(csv_path)])
    assert exc.value.code == 2


def test_run_rejects_unknown_model(csv_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--data", str(csv_path), "--model", "perceptron"])
    assert exc.value.code == 2


def test_run_single_model_table(csv_path, capsys):
    assert main(["run", "--data", str(csv_path), "--model", "adaboost"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # "Model" is padded to the width of "adaboost"
    assert lines[0] == "Model     Accuracy %  Sensitivity %  Specificity %  AUC %  F1-score %"
    assert len(lines) == 2
    assert lines[1].startswith("adaboost")


def test_run_csv_format(csv_path, capsys):
    assert (
        main(["run", "--data", str(csv_path), "--model", "adaboost",
              "--format", "csv"]) == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "model,accuracy,sensitivity,specificity,auc,f1"
    assert len(lines) == 2


def test_run_structured_to_file_parses_back(csv_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--data", str(csv_path), "--model", "adaboost",
         "--format", "structured", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    report = parse_report(out.read_text())
    assert [r.model for r in report.results] == ["adaboost"]
    assert report.config.model == "adaboost"
    assert report.config.seed == 42


def test_run_seed_and_fraction_flags_flow_through(csv_path, tmp_path):
    out = tmp_path / "report.json"
    main(
        ["run", "--data", str(csv_path), "--model", "adaboost",
         "--seed", "7", "--test-fraction", "0.25",
         "--format", "structured", "--out", str(out)]
    )
    report = parse_report(out.read_text())
    assert report.config.seed == 7
    assert report.config.test_fraction == 0.25
    # 25% of 30 positives = 8 (round-half-up), 25% of 14 negatives = 4
    assert report.split.test_rows == 12


def test_smote_flags_flow_through(csv_path, tmp_path):
    out = tmp_path / "report.json"
    main(
        ["run", "--data", str(csv_path), "--model", "adaboost",
         "--smote", "off", "--format", "structured", "--out", str(out)]
    )
    report = parse_report(out.read_text())
    assert report.config.smote == "off"
    assert report.split.train_rows_after_resample == report.split.train_rows


def test_bad_fraction_is_usage_error(csv_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--data", str(csv_path), "--model", "adaboost",
              "--test-fraction", "1.5"])
    assert exc.value.code == 2
    assert "test_fraction" in capsys.readouterr().err


@pytest.mark.parametrize("fraction, side", [("0.01", "test"), ("0.99", "training")])
def test_degenerate_split_fails_before_any_fit(csv_path, capsys, monkeypatch, fraction, side):
    def no_fit(*args):
        raise AssertionError("a model was fitted on a degenerate split")

    monkeypatch.setattr("pdvox.experiment._fit", no_fit)
    assert main(["compare", "--data", str(csv_path), "--test-fraction", fraction]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: split: the {side} partition has no class 0 (healthy)")
    assert f"at test fraction {fraction}" in err


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_seed_sweep_without_seeds_is_usage_error(csv_path, capsys, seeds):
    sweep = load_script("scripts/run_seed_sweep.py")
    with pytest.raises(SystemExit) as exc:
        sweep.main(["--data", str(csv_path), "--seeds", seeds])
    assert exc.value.code == 2
    assert f"--seeds must be at least 1, got {seeds}" in capsys.readouterr().err


def test_bad_format_is_usage_error(csv_path):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--data", str(csv_path), "--format", "yaml"])
    assert exc.value.code == 2


def test_compare_lists_all_models(csv_path, capsys):
    assert main(["compare", "--data", str(csv_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # "Model" is padded to the width of "lightgbm-like"
    assert lines[0] == "Model          Accuracy %  Sensitivity %  Specificity %  AUC %  F1-score %"
    assert [line.split()[0] for line in lines[1:]] == [
        "lightgbm-like", "xgboost-like", "adaboost", "bagging", "svm",
    ]


@pytest.mark.parametrize("argv, model", [(["compare"], "all"), (["run", "--model", "svm"], "svm")])
def test_run_flag_defaults_are_the_library_defaults(csv_path, tmp_path, argv, model):
    # with no run flags the CLI writes the report of RunConfig's defaults
    out = tmp_path / "report.json"
    assert main([*argv, "--data", str(csv_path), "--format", "structured", "--out", str(out)]) == 0
    expected = report_to_json(run_experiment(RunConfig(data=str(csv_path), model=model)))
    assert out.read_bytes() == expected.encode()
