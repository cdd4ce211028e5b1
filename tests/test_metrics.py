"""Scalar metric values against worked examples and brute-force oracles."""

import math

import numpy as np
import pytest

from fireuq.errors import DegenerateClassError, ShapeError, ValidationError
from fireuq.metrics import (
    MetricRecord,
    average_precision,
    average_surface_distance,
    brier,
    error_map,
    nll,
    precision_recall,
    ranking_from_sorted,
    uq_auroc,
)
from fireuq.oracles import (
    oracle_asd,
    oracle_auprc,
    oracle_auroc,
    oracle_average_precision,
    oracle_brier,
    oracle_nll,
    oracle_precision_recall,
)

# six-pixel worked example used throughout: uncertainty descending,
# errors at ranks 1 and 3
UNC6 = np.array([[0.9, 0.8, 0.7], [0.6, 0.5, 0.4]])
ERR6 = np.array([[1, 0, 1], [0, 0, 0]])


def _rand_scores_labels(rng, n, tie_prob=0.5):
    if rng.random() < tie_prob:
        scores = rng.integers(0, 4, size=n) / 4.0
    else:
        scores = rng.random(n)
    labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.uint8)
    if labels.all():
        labels[int(rng.integers(n))] = 0
    if not labels.any():
        labels[int(rng.integers(n))] = 1
    return scores.reshape(1, n), labels.reshape(1, n)


def test_precision_recall_worked_example():
    pred = np.array([[1, 1, 0, 0]])
    gt = np.array([[1, 0, 1, 0]])
    p, r = precision_recall(pred, gt)
    assert p == 0.5
    assert r == 0.5


def test_precision_recall_none_denominators():
    zeros = np.zeros((1, 4), dtype=np.uint8)
    gt = np.array([[1, 0, 1, 0]])
    p, r = precision_recall(zeros, gt)
    assert p is None
    assert r == 0.0
    p, r = precision_recall(gt, zeros)
    assert p == 0.0
    assert r is None


def test_precision_recall_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        pred = (rng.random((3, 5)) < 0.5).astype(np.uint8)
        gt = (rng.random((3, 5)) < 0.5).astype(np.uint8)
        got = precision_recall(pred, gt)
        want = oracle_precision_recall(pred.astype(float), gt, 0.5)
        assert got == want


def test_average_precision_worked_example():
    # errors at ranks 1 and 3 of six: AP = (1/2)(1) + (1/2)(2/3) = 5/6
    ap = average_precision(UNC6, ERR6)
    assert ap == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_average_precision_perfect_and_tied():
    scores = np.array([[0.9, 0.8, 0.2, 0.1]])
    labels = np.array([[1, 1, 0, 0]])
    assert average_precision(scores, labels) == 1.0
    # all-tied scores collapse to a single threshold: AP = prevalence
    const = np.full((1, 4), 0.5)
    assert average_precision(const, labels) == 0.5


def test_average_precision_single_class_raises():
    with pytest.raises(DegenerateClassError):
        average_precision(UNC6, np.ones_like(ERR6))
    with pytest.raises(DegenerateClassError):
        average_precision(UNC6, np.zeros_like(ERR6))


def test_average_precision_matches_oracle_with_ties():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        scores, labels = _rand_scores_labels(rng, n)
        fast = average_precision(scores, labels)
        slow = oracle_average_precision(scores, labels)
        assert abs(fast - slow) <= 1e-12


def test_uq_auroc_worked_example():
    # 8 ordered pairs right out of 8 total minus the tie-free count:
    # positives at ranks 6 and 4 of 6 -> (5 + 3 - 1) / (2 * 4) = 7/8
    assert uq_auroc(UNC6, ERR6) == pytest.approx(0.875, abs=0.0)


def test_uq_auroc_constant_is_half():
    errors = np.array([[1, 0, 0, 1, 0]])
    assert uq_auroc(np.full((1, 5), 0.3), errors) == 0.5


def test_uq_auroc_matches_oracle_bitwise():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        scores, labels = _rand_scores_labels(rng, n)
        assert uq_auroc(scores, labels) == oracle_auroc(scores, labels)


def _sorted_desc(scores, labels):
    s = np.asarray(scores, dtype=np.float64).ravel()
    order = np.argsort(-s, kind="stable")
    return s[order], np.asarray(labels).ravel()[order]


def test_auprc_worked_example():
    # AUPRC is the AP of the uncertainty against the error map
    assert average_precision(UNC6, ERR6) == pytest.approx(5.0 / 6.0, abs=1e-12)
    ap, auroc, prev = ranking_from_sorted(*_sorted_desc(UNC6, ERR6))
    assert (ap, auroc) == (average_precision(UNC6, ERR6), uq_auroc(UNC6, ERR6))
    assert prev == pytest.approx(2.0 / 6.0, abs=1e-12)


def test_auprc_constant_equals_prevalence():
    errors = np.array([[1, 0, 0, 1, 0, 0, 0, 1]])
    const = np.full((1, 8), 0.7)
    ap, auroc, prev = ranking_from_sorted(*_sorted_desc(const, errors))
    assert average_precision(const, errors) == ap == prev == 3.0 / 8.0
    assert auroc == 0.5


def test_auprc_matches_oracle():
    rng = np.random.default_rng(33)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        scores, labels = _rand_scores_labels(rng, n)
        value = average_precision(scores, labels)
        assert abs(value - oracle_auprc(scores, labels)) <= 1e-12


def test_ranking_from_sorted_ignores_order_within_ties():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(2, 60))
        scores, labels = _rand_scores_labels(rng, n, tie_prob=1.0)
        s, y = _sorted_desc(scores, labels)
        want = ranking_from_sorted(s, y)
        assert want[:2] == (average_precision(scores, labels), uq_auroc(scores, labels))
        assert want[1] == oracle_auroc(scores, labels)
        # shuffle the labels inside each group of equal scores
        shuffled = y.copy()
        for value in np.unique(s):
            idx = np.nonzero(s == value)[0]
            shuffled[idx] = rng.permutation(y[idx])
        assert ranking_from_sorted(s, shuffled) == want


def test_ranking_from_sorted_single_class_raises():
    s = np.array([0.9, 0.5, 0.1])
    for y in (np.ones(3, dtype=np.uint8), np.zeros(3, dtype=np.uint8)):
        with pytest.raises(DegenerateClassError):
            ranking_from_sorted(s, y)
    with pytest.raises(DegenerateClassError):
        ranking_from_sorted(s[:0], np.zeros(0, dtype=np.uint8))


def test_rank_metrics_invariant_to_monotone_transform():
    rng = np.random.default_rng(4)
    for _ in range(20):
        scores, labels = _rand_scores_labels(rng, 25, tie_prob=0.3)
        warped = np.exp(3.0 * scores) / (1 + np.exp(3.0 * scores))
        assert uq_auroc(scores, labels) == pytest.approx(
            uq_auroc(warped, labels), abs=1e-12
        )
        assert average_precision(scores, labels) == pytest.approx(
            average_precision(warped, labels), abs=1e-12
        )


def test_region_restriction_ignores_outside_pixels():
    rng = np.random.default_rng(9)
    for _ in range(30):
        h, w = 6, 7
        unc = rng.random((h, w))
        err = (rng.random((h, w)) < 0.4).astype(np.uint8)
        region = (rng.random((h, w)) < 0.6).astype(np.uint8)
        y = err[region.astype(bool)]
        if y.size < 2 or y.all() or not y.any():
            continue
        base = (
            uq_auroc(unc, err, region),
            average_precision(unc, err, region),
            brier(unc, err, region),
            nll(unc, err, region),
        )
        # scribble arbitrary values outside the region
        unc2 = unc.copy()
        err2 = err.copy()
        outside = ~region.astype(bool)
        unc2[outside] = rng.random(int(outside.sum()))
        err2[outside] = (rng.random(int(outside.sum())) < 0.5).astype(np.uint8)
        edited = (
            uq_auroc(unc2, err2, region),
            average_precision(unc2, err2, region),
            brier(unc2, err2, region),
            nll(unc2, err2, region),
        )
        assert base == edited


def test_full_region_matches_unmasked_bitwise():
    rng = np.random.default_rng(14)
    unc = rng.random((9, 9))
    err = (rng.random((9, 9)) < 0.3).astype(np.uint8)
    err[0, 0] = 1
    err[1, 1] = 0
    ones = np.ones((9, 9), dtype=np.uint8)
    assert uq_auroc(unc, err, ones) == uq_auroc(unc, err, None)
    assert brier(unc, err, ones) == brier(unc, err, None)
    assert nll(unc, err, ones) == nll(unc, err, None)
    assert average_precision(unc, err, ones) == average_precision(unc, err, None)


def test_brier_worked_example_and_oracle():
    probs = np.array([[0.8, 0.4, 0.1, 0.9]])
    gt = np.array([[1, 0, 0, 1]])
    # ((0.2)^2 + (0.4)^2 + (0.1)^2 + (0.1)^2) / 4
    assert brier(probs, gt) == pytest.approx(0.055, abs=1e-12)
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = rng.random((2, 9))
        y = (rng.random((2, 9)) < 0.5).astype(np.uint8)
        assert abs(brier(p, y) - oracle_brier(p, y)) <= 1e-12


def test_brier_bounds_and_extremes():
    y = np.array([[1, 0]])
    assert brier(np.array([[1.0, 0.0]]), y) == 0.0
    assert brier(np.array([[0.0, 1.0]]), y) == 1.0


def test_nll_worked_example():
    probs = np.array([[0.1]])
    gt = np.array([[1]])
    assert nll(probs, gt) == pytest.approx(2.302585092994046, abs=1e-12)


def test_nll_clipping_bounds_confident_mistakes():
    probs = np.array([[0.0]])
    gt = np.array([[1]])
    assert nll(probs, gt) == pytest.approx(-math.log(1e-7), rel=1e-12)
    # a correct hard 0 costs the clipped complement, not exactly zero
    assert nll(probs, np.array([[0]])) == pytest.approx(-math.log(1.0 - 1e-7), rel=1e-12)


def test_nll_epsilon_validation_and_oracle():
    probs = np.array([[0.3, 0.8]])
    gt = np.array([[0, 1]])
    with pytest.raises(ValidationError):
        nll(probs, gt, epsilon=0.0)
    with pytest.raises(ValidationError):
        nll(probs, gt, epsilon=0.5)
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = rng.random((1, 12))
        y = (rng.random((1, 12)) < 0.5).astype(np.uint8)
        assert abs(nll(p, y) - oracle_nll(p, y)) <= 1e-12


def test_brier_and_nll_minimized_by_prevalence_constant():
    rng = np.random.default_rng(19)
    y = (rng.random((1, 40)) < 0.3).astype(np.uint8)
    prev = float(y.mean())
    grid = np.linspace(0.01, 0.99, 99)
    b_vals = [brier(np.full_like(y, c, dtype=float), y) for c in grid]
    n_vals = [nll(np.full_like(y, c, dtype=float), y) for c in grid]
    best_b = grid[int(np.argmin(b_vals))]
    best_n = grid[int(np.argmin(n_vals))]
    assert abs(best_b - prev) <= 0.011
    assert abs(best_n - prev) <= 0.011


def test_error_map_threshold_convention():
    probs = np.array([[0.5, 0.49, 0.51, 0.2]])
    gt = np.array([[1, 1, 0, 0]])
    # >= threshold counts as predicted fire, so 0.5 vs gt 1 is correct
    assert error_map(probs, gt).tolist() == [[0, 1, 1, 0]]
    assert error_map(probs, gt, threshold=0.2).tolist() == [[0, 0, 1, 1]]


def test_asd_worked_example_and_symmetry():
    # two single-pixel "boundaries" 3 px apart: ASD = 3 px = 1125 m at 375
    a = np.zeros((9, 9), dtype=np.uint8)
    b = np.zeros((9, 9), dtype=np.uint8)
    a[4, 2] = 1
    b[4, 5] = 1
    assert average_surface_distance(a, b, 375.0) == pytest.approx(1125.0, abs=1e-9)
    rng = np.random.default_rng(31)
    for _ in range(15):
        ma = (rng.random((10, 10)) < 0.25).astype(np.uint8)
        mb = (rng.random((10, 10)) < 0.25).astype(np.uint8)
        if not ma.any() or not mb.any():
            continue
        ab = average_surface_distance(ma, mb, 375.0)
        ba = average_surface_distance(mb, ma, 375.0)
        assert ab == pytest.approx(ba, abs=1e-9)


def test_asd_scales_linearly_with_pixel_size():
    rng = np.random.default_rng(37)
    ma = (rng.random((12, 12)) < 0.2).astype(np.uint8)
    mb = (rng.random((12, 12)) < 0.2).astype(np.uint8)
    ma[6, 6] = 1
    mb[3, 3] = 1
    one = average_surface_distance(ma, mb, 1.0)
    assert average_surface_distance(ma, mb, 375.0) == pytest.approx(
        375.0 * one, rel=1e-12
    )
    assert average_surface_distance(ma, ma, 375.0) == 0.0


def test_asd_matches_oracle():
    rng = np.random.default_rng(41)
    for _ in range(25):
        ma = (rng.random((11, 11)) < 0.3).astype(np.uint8)
        mb = (rng.random((11, 11)) < 0.3).astype(np.uint8)
        if not ma.any() or not mb.any():
            continue
        fast = average_surface_distance(ma, mb, 1.0)
        slow = oracle_asd(ma, mb, 1.0)
        assert abs(fast - slow) <= 1e-12


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        uq_auroc(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        brier(np.zeros((2, 2)), np.zeros((2, 2)), region=np.ones((3, 3)))
    with pytest.raises(ShapeError):
        average_surface_distance(np.ones((2, 2)), np.ones((3, 3)))


def test_metric_record_range_validation():
    MetricRecord(fire_id="f", year=2020, radius_px=4, ap=0.5, nll=1.0)
    with pytest.raises(ValidationError):
        MetricRecord(fire_id="f", year=2020, radius_px=4, ap=1.5)
    with pytest.raises(ValidationError):
        MetricRecord(fire_id="f", year=2020, radius_px=4, auroc=-0.1)
    with pytest.raises(ValidationError):
        MetricRecord(fire_id="f", year=2020, radius_px=4, nll=-0.5)
    with pytest.raises(ValidationError):
        MetricRecord(fire_id="f", year=2020, radius_px=4, asd_m=-1.0)
