from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidnet import (
    EmptyListError,
    LengthMismatchError,
    SingleClassError,
    accuracy,
    auc,
    f1,
    metrics_report,
    roc_points,
)

import oracles


# accuracy and F1

def test_accuracy_basic():
    assert accuracy([0, 1, 1, 0], [0, 1, 0, 1]) == 0.5
    assert accuracy([1, 1], [1, 1]) == 1.0
    assert accuracy([0, 0], [1, 1]) == 0.0
    assert accuracy([0, 1, 1, 1], [0, 1, 1, 0]) == 0.75


def test_accuracy_validation():
    with pytest.raises(LengthMismatchError):
        accuracy([0], [0, 1])
    with pytest.raises(EmptyListError):
        accuracy([], [])


def test_f1_counts():
    # tp=8, fp=2, fn=4 -> f1 = 16 / 22
    preds = [1] * 8 + [1] * 2 + [0] * 4 + [0] * 3
    truth = [1] * 8 + [0] * 2 + [1] * 4 + [0] * 3
    assert f1(preds, truth, positive=1) == pytest.approx(16 / 22, abs=1e-15)


def test_f1_edges():
    assert f1([1, 1], [1, 1], positive=1) == 1.0
    # the positive class never appears in preds or truth
    assert f1([0, 0], [0, 0], positive=1) == 0.0
    # all wrong
    assert f1([1, 0], [0, 1], positive=1) == 0.0


def test_f1_depends_on_positive_choice():
    preds = [0, 0, 1, 1, 1]
    truth = [0, 1, 1, 1, 0]
    assert f1(preds, truth, positive=1) != f1(preds, truth, positive=0)


# ROC curve

def test_roc_perfect_separation():
    curve = roc_points([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], positive=1)
    assert curve.points[0] == (0.0, 0.0, float("inf"))
    assert (0.0, 1.0, 0.8) in curve.points
    assert curve.points[-1][:2] == (1.0, 1.0)
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], positive=1) == 1.0


def test_roc_handles_ties_as_one_point():
    curve = roc_points([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0], positive=1)
    assert curve.points == ((0.0, 0.0, float("inf")), (1.0, 1.0, 0.5))
    assert auc([0.5] * 4, [1, 0, 1, 0], positive=1) == 0.5


def test_roc_hand_example():
    scores = [0.9, 0.7, 0.7, 0.3]
    truth = [1, 1, 0, 0]
    curve = roc_points(scores, truth, positive=1)
    assert curve.points == (
        (0.0, 0.0, float("inf")),
        (0.0, 0.5, 0.9),
        (0.5, 1.0, 0.7),
        (1.0, 1.0, 0.3),
    )
    # pairs: three wins plus one tie out of four -> 0.875
    assert auc(scores, truth, positive=1) == pytest.approx(0.875, abs=1e-15)


def test_roc_thresholds_strictly_decrease():
    rng = np.random.default_rng(2)
    scores = np.round(rng.random(40), 1)
    truth = rng.integers(0, 2, 40)
    truth[0], truth[1] = 0, 1
    curve = roc_points(scores, truth, positive=1)
    fpr, tpr, t = np.asarray(curve.points).T
    assert np.all(t[:-1] > t[1:])
    assert np.all(np.diff(fpr) >= 0)
    assert np.all(np.diff(tpr) >= 0)
    assert curve.points[-1][:2] == (1.0, 1.0)


def test_roc_validation():
    with pytest.raises(SingleClassError):
        roc_points([0.4, 0.6], [1, 1], positive=1)
    with pytest.raises(SingleClassError):
        auc([0.4, 0.6], [0, 0], positive=1)
    with pytest.raises(LengthMismatchError):
        roc_points([0.4], [1, 0], positive=1)
    with pytest.raises(ValueError):
        roc_points([np.nan, 0.5], [1, 0], positive=1)


# AUC

def test_auc_equals_pairwise_statistic():
    rng = np.random.default_rng(3)
    for trial in range(100):
        n = int(rng.integers(2, 50))
        scores = rng.random(n)
        if trial % 2:
            scores = np.round(scores, 1)  # force ties
        truth = rng.integers(0, 2, n)
        truth[:2] = [0, 1]
        got = auc(scores, truth, positive=1)
        want = oracles.pairwise_auc(scores, truth, positive=1)
        assert abs(got - want) <= 1e-12


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(4)
    scores = rng.random(30)
    truth = rng.integers(0, 2, 30)
    truth[:2] = [0, 1]
    base = auc(scores, truth, positive=1)
    assert auc(np.exp(scores), truth, positive=1) == base
    assert auc(scores * 10 + 3, truth, positive=1) == base


def test_auc_label_swap_complements():
    rng = np.random.default_rng(5)
    scores = rng.random(25)  # continuous, ties have measure zero
    truth = rng.integers(0, 2, 25)
    truth[:2] = [0, 1]
    a = auc(scores, truth, positive=1)
    b = auc(scores, truth, positive=0)
    assert a + b == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 30))
def test_auc_bounds_and_curve_shape(seed, n):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.random(n), 2)
    truth = rng.integers(0, 2, n)
    truth[:2] = [0, 1]
    curve = roc_points(scores, truth, positive=1)
    assert curve.points[0] == (0.0, 0.0, float("inf"))
    assert curve.points[-1][:2] == (1.0, 1.0)
    assert 0.0 <= auc(scores, truth, positive=1) <= 1.0


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 60), st.sampled_from([None, 1, 2]),
       st.booleans())
def test_roc_matches_row_by_row_sweep(seed, n, decimals, signed_zeros):
    # bit-equal points and area, tie-heavy sets and 0.0 / -0.0 ties included
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    if decimals is not None:
        scores = np.round(scores, decimals)
    if signed_zeros:
        scores[rng.random(n) < 0.5] = 0.0
        scores[rng.random(n) < 0.3] = -0.0
    truth = rng.integers(0, 2, n)
    truth[:2] = [0, 1]
    for positive in (0, 1):
        points, area = oracles.reference_roc(scores, truth, positive)
        curve = roc_points(scores, truth, positive)
        assert repr(curve.points) == repr(points)
        assert repr(curve.area) == repr(area)
        assert repr(auc(scores, truth, positive)) == repr(area)


# bundled report

def test_metrics_report_consistent_with_parts():
    preds = [1, 1, 0, 0, 1, 0]
    truth = [1, 0, 0, 1, 1, 0]
    scores = [0.9, 0.8, 0.3, 0.4, 0.7, 0.1]
    rep = metrics_report(preds, truth, scores, positive=1)
    assert rep.accuracy == accuracy(preds, truth)
    assert rep.f1 == f1(preds, truth, positive=1)
    assert rep.auc == auc(scores, truth, positive=1)
    assert rep.n == 6
    # tp=2, fp=1, fn=1, tn=2
    assert rep.accuracy == (2 + 2) / 6
    assert rep.f1 == 2 * 2 / (2 * 2 + 1 + 1)
