"""Confusion/ratio metrics and ROC/AUC against independent oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_auc
from pdvox.errors import ValidationError
from pdvox.metrics import (
    ConfusionMatrix,
    classification_metrics,
    confusion,
    format_percent,
    roc_auc,
)

# Scores live on a 1e-4 grid: coarse enough that strictly monotone float
# transforms (exp, affine) cannot collapse two distinct scores into a tie,
# and the grid itself produces plenty of genuine ties.
score_label_sets = st.lists(
    st.tuples(
        st.one_of(
            st.floats(-10, 10, allow_nan=False).map(lambda s: round(s, 4)),
            st.sampled_from([0.0, 0.5, 1.0]),  # force heavy ties often
        ),
        st.integers(0, 1),
    ),
    min_size=2,
    max_size=60,
).filter(lambda rows: len({lab for _, lab in rows}) == 2)


# -------------------------------------------------------------- confusion


def test_confusion_direct_tally():
    cm = confusion([0.9, 0.2], [1, 0], 0.5)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 1, 0, 0)


def test_confusion_all_below_threshold():
    cm = confusion([0.1, 0.2, 0.3], [1, 1, 1], 0.5)
    assert (cm.tp, cm.fn, cm.tn, cm.fp) == (0, 3, 0, 0)


def test_confusion_threshold_zero_predicts_everything_positive():
    cm = confusion([0.0, 0.4, 0.9], [0, 1, 0], 0.0)
    assert cm.fp == 2 and cm.tp == 1 and cm.tn == 0 and cm.fn == 0


def test_confusion_ties_go_positive():
    cm = confusion([0.5, 0.5], [1, 0], 0.5)
    assert cm.tp == 1 and cm.fp == 1


def test_confusion_rejects_a_nan_threshold():
    # no score is >= NaN, so every row used to be predicted negative
    with pytest.raises(ValidationError, match="^threshold must not be NaN$"):
        confusion([0.1, 0.9], [0, 1], float("nan"))


def test_confusion_infinite_thresholds_predict_all_one_side():
    assert confusion([0.1, 0.9], [0, 1], np.inf) == ConfusionMatrix(tp=0, fn=1, tn=1, fp=0)
    assert confusion([0.1, 0.9], [0, 1], -np.inf) == ConfusionMatrix(tp=1, fn=0, tn=0, fp=1)


def test_confusion_length_mismatch():
    with pytest.raises(ValidationError):
        confusion([0.5], [1, 0], 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("metric", [lambda s, y: confusion(s, y, 0.5), roc_auc],
                         ids=["confusion", "roc_auc"])
def test_non_finite_scores_rejected(metric, bad):
    # a NaN would rank last and count as a negative prediction, and +inf
    # would become a second +inf threshold beside the ROC anchor
    with pytest.raises(ValidationError, match="scores must be finite"):
        metric([bad, 0.2, 0.9, 0.1], [0, 1, 1, 0])


def test_negative_confusion_count_rejected():
    with pytest.raises(ValidationError, match="^fp must be non-negative$"):
        ConfusionMatrix(tp=1, fn=0, tn=0, fp=-1)


@pytest.mark.parametrize("scores, labels, message", [
    (np.zeros((2, 2)), [0, 1], "scores and labels must be 1-D"),
    ([], [], "need at least one record"),
    ([0.1, 0.9], [0, 2], "labels must be 0 or 1"),
], ids=["2-D", "empty", "label-2"])
@pytest.mark.parametrize("metric", [lambda s, y: confusion(s, y, 0.5), roc_auc],
                         ids=["confusion", "roc_auc"])
def test_malformed_scores_or_labels_rejected(metric, scores, labels, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        metric(scores, labels)


# ---------------------------------------------------------- ratio metrics


def test_metrics_match_reference_pattern():
    ms = classification_metrics(ConfusionMatrix(tp=30, fn=0, tn=28, fp=2))
    assert format_percent(ms.accuracy) == "96.67"
    assert format_percent(ms.sensitivity) == "100.00"
    assert format_percent(ms.specificity) == "93.33"


def test_metrics_symmetric_quarter_case():
    ms = classification_metrics(ConfusionMatrix(tp=25, fn=25, tn=25, fp=25))
    assert ms.accuracy == 0.5 and ms.sensitivity == 0.5 and ms.specificity == 0.5


def test_metrics_undefined_ratios_are_none_not_zero():
    ms = classification_metrics(ConfusionMatrix(tp=0, fn=3, tn=5, fp=0))
    assert ms.precision is None
    assert ms.f1 is None
    assert ms.specificity == 1.0
    assert format_percent(ms.precision) == "n/a"


def test_metrics_f1_closed_form():
    ms = classification_metrics(ConfusionMatrix(tp=6, fn=2, tn=5, fp=3))
    precision = 6 / 9
    sensitivity = 6 / 8
    assert ms.f1 == pytest.approx(2 * precision * sensitivity / (precision + sensitivity))


def test_metrics_empty_matrix_rejected():
    with pytest.raises(ValidationError):
        classification_metrics(ConfusionMatrix(tp=0, fn=0, tn=0, fp=0))


# ------------------------------------------------------------------- ROC


def test_auc_perfect_ranking():
    _, auc = roc_auc([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
    assert auc == 1.0


def test_auc_all_ties_is_half():
    _, auc = roc_auc([0.7] * 6, [1, 0, 1, 0, 1, 0])
    assert auc == pytest.approx(0.5, abs=1e-12)


def test_auc_mixed_example():
    _, auc = roc_auc([0.9, 0.6, 0.4, 0.2], [1, 0, 1, 0])
    assert auc == pytest.approx(0.75, abs=1e-12)


def test_roc_shape_and_anchors():
    curve, _ = roc_auc([0.9, 0.6, 0.4, 0.2], [1, 0, 1, 0])
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
    assert np.isinf(curve.thresholds[0])
    assert np.all(np.diff(curve.fpr) >= 0)
    assert np.all(np.diff(curve.tpr) >= 0)
    assert np.all(np.diff(curve.thresholds) < 0)  # strictly descending sweep


def test_auc_single_class_rejected():
    with pytest.raises(ValidationError):
        roc_auc([0.1, 0.9], [1, 1])


@settings(max_examples=200, deadline=None)
@given(score_label_sets)
def test_auc_equals_pairwise_oracle(rows):
    scores = [s for s, _ in rows]
    labels = [lab for _, lab in rows]
    _, auc = roc_auc(scores, labels)
    assert auc == pytest.approx(brute_force_auc(scores, labels), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(score_label_sets)
def test_auc_invariant_under_monotone_transforms(rows):
    scores = np.array([s for s, _ in rows])
    labels = [lab for _, lab in rows]
    _, base = roc_auc(scores, labels)
    _, scaled = roc_auc(3.0 * scores + 11.0, labels)
    _, warped = roc_auc(np.exp(scores / 4.0), labels)
    assert scaled == pytest.approx(base, abs=1e-9)
    assert warped == pytest.approx(base, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(score_label_sets)
def test_auc_negation_complements(rows):
    scores = np.array([s for s, _ in rows])
    labels = [lab for _, lab in rows]
    _, auc = roc_auc(scores, labels)
    _, neg = roc_auc(-scores, labels)
    assert neg == pytest.approx(1.0 - auc, abs=1e-9)


def test_roc_curve_monotone_on_random():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=200)
    labels = rng.integers(0, 2, size=200)
    labels[0], labels[1] = 0, 1
    curve, auc = roc_auc(scores, labels)
    assert 0.0 <= auc <= 1.0
    assert np.all(np.diff(curve.fpr) >= 0) and np.all(np.diff(curve.tpr) >= 0)


def test_format_percent_rounding():
    assert format_percent(1.0) == "100.00"
    assert format_percent(0.93333333) == "93.33"
    assert format_percent(0.966666) == "96.67"
    assert format_percent(None) == "n/a"
