"""Scalar metric values against worked examples and brute-force oracles."""

import math

import numpy as np
import pytest

from fireuq.errors import DegenerateClassError, ShapeError, ValidationError
from fireuq.metrics import (
    average_precision,
    average_precisions,
    average_surface_distance,
    brier,
    error_map,
    nll,
    precision_recall,
    ranking_counts,
    ranking_from_sorted,
    uq_auroc,
)
from fireuq.morphology import _EDT_AT_BLOCK, edt, extract_boundary
from fireuq.oracles import (
    oracle_asd,
    oracle_auprc,
    oracle_auroc,
    oracle_average_precision,
    oracle_brier,
    oracle_nll,
    oracle_precision_recall,
)
from fireuq.report import MetricRecord

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


# bool and integer scores are ranked in the float numpy promotes them to
_PERFECT_SCORES = {
    np.float64: [0.9, 0.8, 0.2, 0.1],
    np.uint8: [3, 2, 1, 0],
    np.int32: [3, 2, 1, 0],
    np.bool_: [1, 1, 0, 0],
}


def test_average_precision_perfect_and_tied():
    labels = np.array([[1, 1, 0, 0]])
    for dtype, values in _PERFECT_SCORES.items():
        scores = np.array([values], dtype=dtype)
        for region in (None, np.array([[1, 1, 1, 1]], dtype=np.uint8)):
            assert average_precision(scores, labels, region) == 1.0
            assert uq_auroc(scores, labels, region) == 1.0
        # all-tied scores collapse to a single threshold: AP = prevalence
        const = np.full((1, 4), 0.5 if dtype is np.float64 else 1, dtype=dtype)
        assert average_precision(const, labels) == 0.5
        assert uq_auroc(const, labels) == 0.5


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


def _sorted_asc(scores, labels):
    """The ranking kernel's inputs: scores widened as the metrics widen
    them and sorted ascending, and the positives' scores sorted
    ascending."""
    s = np.asarray(scores).ravel()
    s = s.astype(np.promote_types(s.dtype, np.float32), copy=False)
    return np.sort(s), np.sort(s[np.asarray(labels).ravel().astype(bool)])


def _sorted_desc(scores, labels):
    s = np.asarray(scores, dtype=np.float64).ravel()
    order = np.argsort(-s, kind="stable")
    return s[order], np.asarray(labels).ravel()[order]


def test_auprc_worked_example():
    # AUPRC is the AP of the uncertainty against the error map
    assert average_precision(UNC6, ERR6) == pytest.approx(5.0 / 6.0, abs=1e-12)
    ap, auroc, prev = ranking_from_sorted(*_sorted_asc(UNC6, ERR6))
    assert (ap, auroc) == (average_precision(UNC6, ERR6), uq_auroc(UNC6, ERR6))
    assert prev == pytest.approx(2.0 / 6.0, abs=1e-12)


def test_auprc_constant_equals_prevalence():
    errors = np.array([[1, 0, 0, 1, 0, 0, 0, 1]])
    const = np.full((1, 8), 0.7)
    ap, auroc, prev = ranking_from_sorted(*_sorted_asc(const, errors))
    assert average_precision(const, errors) == ap == prev == 3.0 / 8.0
    assert auroc == 0.5


def test_ranking_counts_are_the_cumulative_counts_per_distinct_score():
    s, p = _sorted_asc(np.array([[0.5, 0.5, 0.2], [0.9, 0.2, 0.2]]), ERR6)
    tp, cnt = ranking_counts(s, p)
    assert tp.dtype == cnt.dtype == np.int64
    # thresholds 0.9, 0.5, 0.2: positives (0.5, 0.2) at or above each
    assert tp.tolist() == [0, 1, 2]
    assert cnt.tolist() == [1, 3, 6]


def test_auprc_matches_oracle():
    rng = np.random.default_rng(33)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        scores, labels = _rand_scores_labels(rng, n)
        value = average_precision(scores, labels)
        assert abs(value - oracle_auprc(scores, labels)) <= 1e-12


def _reference_ranking_from_sorted(scores_desc, labels):
    """The argsort kernel that ranking_counts replaced, kept as its test
    reference: over scores sorted descending and their 0/1 labels in the
    same order, tp is the int64 cumulative sum of the labels at the last
    pixel of each distinct score, with a fresh array for every step."""
    if scores_desc.size and not (
        np.isfinite(scores_desc[0]) and np.isfinite(scores_desc[-1])
    ):
        raise ValidationError("reference: scores must be finite")
    y = labels.astype(np.int64)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClassError("reference: labels are single-class")
    last = np.nonzero(np.append(scores_desc[:-1] != scores_desc[1:], True))[0]
    tp = np.cumsum(y)[last]
    fp = (last + 1) - tp
    recall = tp / n_pos
    prev = np.concatenate([[0.0], recall[:-1]])
    ap = float(np.sum((recall - prev) * (tp / (last + 1))))
    pos_g = np.diff(tp, prepend=0)
    neg_g = np.diff(fp, prepend=0)
    wins2 = int(np.sum(pos_g * (2 * (n_neg - fp) + neg_g)))
    auroc = (wins2 / 2.0) / (n_pos * n_neg)
    return ap, auroc, n_pos / y.size


def _argsort_ranking(scores, labels):
    """_reference_ranking_from_sorted after the descending argsort the
    metrics used to make: scores widened, negated and argsorted, and the
    labels gathered in that order."""
    s = np.asarray(scores).ravel()
    s = s.astype(np.promote_types(s.dtype, np.float32), copy=False)
    order = np.argsort(-s)
    return _reference_ranking_from_sorted(s[order], np.asarray(labels).ravel()[order])


def _outcome(fn, *args):
    """fn(*args), or the class of the ranking error it raised."""
    try:
        return fn(*args)
    except (ValidationError, DegenerateClassError) as exc:
        return type(exc)


def _reverse_within_ties(s_desc, y):
    """y with the order inside each run of equal sorted scores reversed."""
    groups = np.split(y, np.flatnonzero(s_desc[:-1] != s_desc[1:]) + 1)
    return np.concatenate([g[::-1] for g in groups])


def test_ranking_from_sorted_ignores_order_within_ties():
    """The value kernel equals the argsort kernel whatever order the
    argsort leaves ties in."""
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(2, 60))
        scores, labels = _rand_scores_labels(rng, n, tie_prob=1.0)
        want = ranking_from_sorted(*_sorted_asc(scores, labels))
        assert want[:2] == (average_precision(scores, labels), uq_auroc(scores, labels))
        assert want[1] == oracle_auroc(scores, labels)
        s, y = _sorted_desc(scores, labels)
        assert _reference_ranking_from_sorted(s, y) == want
        # shuffle the labels inside each group of equal scores
        shuffled = y.copy()
        for value in np.unique(s):
            idx = np.nonzero(s == value)[0]
            shuffled[idx] = rng.permutation(y[idx])
        assert _reference_ranking_from_sorted(s, shuffled) == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ranking_is_tie_order_free_at_scale(dtype):
    """128x128 maps with at most 4 levels: big enough that no sort falls
    back to insertion sort, which would keep ties in input order."""
    rng = np.random.default_rng(57)
    for levels in (1, 2, 3, 4):
        scores = (rng.integers(0, levels, size=(128, 128)) / 4.0).astype(dtype)
        labels = (rng.random((128, 128)) < rng.uniform(0.1, 0.5)).astype(np.uint8)
        region = rng.random((128, 128)) < 0.6
        for reg in (None, region):
            keep = np.ones(scores.shape, bool) if reg is None else reg
            want = ranking_from_sorted(*_sorted_asc(scores[keep], labels[keep]))
            assert average_precision(scores, labels, reg) == want[0]
            assert uq_auroc(scores, labels, reg) == want[1]
            s, y = _sorted_desc(scores[keep], labels[keep])
            assert _reference_ranking_from_sorted(s, _reverse_within_ties(s, y)) == want
            if levels == 1:
                assert want[1] == 0.5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ranking_bitwise_equals_reference_kernel(dtype):
    """The kernel, and AP/AUROC that rank scores in their own dtype,
    equal the reference kernel over float64-widened scores bitwise: on
    tied and continuous scores, a single score group, and with and
    without a region."""
    rng = np.random.default_rng(93)
    for trial in range(300):
        n = int(rng.integers(2, 400))
        if trial % 3 == 0:
            scores = rng.integers(0, 1 + trial % 5, size=n) / 4.0  # 1 to 5 groups
        else:
            scores = rng.random(n)
        scores = scores.astype(dtype)
        labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.uint8)
        labels[:2] = (0, 1)
        want = _reference_ranking_from_sorted(*_sorted_desc(scores, labels))
        assert ranking_from_sorted(*_sorted_asc(scores, labels)) == want
        assert ranking_from_sorted(*_sorted_asc(scores, labels.astype(bool))) == want
        assert (average_precision(scores, labels), uq_auroc(scores, labels)) == want[:2]
        region = rng.random(n) < 0.7
        region[:2] = True
        want = _reference_ranking_from_sorted(*_sorted_desc(scores[region], labels[region]))
        got = (average_precision(scores, labels, region), uq_auroc(scores, labels, region))
        assert got == want[:2]


def _fuzz_ranking_case(rng, trial):
    """Scores and labels for one fuzz case: heavy ties or continuous
    scores in float32, float64, uint8 or bool, sometimes empty or
    single-class, sometimes with NaN or +-inf at either end."""
    n = int(rng.integers(0, 3)) if trial % 25 == 0 else int(rng.integers(1, 300))
    dtype = (np.float32, np.float64, np.uint8, np.bool_)[trial % 4]
    if dtype is np.bool_:
        scores = rng.random(n) < rng.random()
    elif dtype is np.uint8 or trial % 3 == 0:
        scores = rng.integers(0, int(rng.integers(1, 6)), size=n).astype(dtype)
    else:
        scores = rng.random(n).astype(dtype)
    prevalence = (0.0, 1.0, rng.random())[int(rng.integers(0, 3)) if trial % 7 == 0 else 2]
    labels = (rng.random(n) < prevalence).astype((np.uint8, np.bool_)[trial % 2])
    if n and dtype in (np.float32, np.float64) and trial % 5 == 0:
        bad = (np.nan, np.inf, -np.inf)[int(rng.integers(3))]
        scores[(0, n - 1, int(rng.integers(n)))[int(rng.integers(3))]] = bad
    return scores, labels


def test_ranking_fuzz_equals_argsort_kernel():
    """ranking_from_sorted, average_precision, uq_auroc and
    average_precisions equal the argsort kernel on random cases, values
    bitwise and errors by class."""
    rng = np.random.default_rng(2024)
    for trial in range(2000):
        scores, labels = _fuzz_ranking_case(rng, trial)
        want = _outcome(_argsort_ranking, scores, labels)
        got = _outcome(lambda s, y: ranking_from_sorted(*_sorted_asc(s, y)), scores, labels)
        assert got == want, trial
        if isinstance(want, tuple):
            assert average_precision(scores, labels) == want[0]
            assert uq_auroc(scores, labels) == want[1]
            assert average_precisions([scores, scores[::-1]], labels)[0] == want[0]
        else:
            for fn in (average_precision, uq_auroc):
                assert _outcome(fn, scores, labels) is want, trial
        if want is DegenerateClassError:
            assert average_precisions([scores], labels) is None


def test_average_precisions_equal_average_precision_per_map():
    """One sort over the stack gives each map's average_precision
    bitwise, for float, integer and bool maps and cropped views."""
    rng = np.random.default_rng(61)
    labels = (rng.random((24, 20)) < 0.3).astype(np.uint8)
    crop = (slice(2, 26), slice(1, 21))
    float32 = [rng.random((28, 22)).astype(np.float32)[crop] for _ in range(5)]
    ties = [(rng.integers(0, 4, (24, 20)) / 4.0) for _ in range(3)]
    uint8 = [rng.integers(0, 256, (24, 20)).astype(np.uint8) for _ in range(3)]
    bools = [rng.random((24, 20)) < 0.4 for _ in range(3)]
    for maps in (float32, ties, uint8, bools, float32 + ties):
        want = [average_precision(m, labels) for m in maps]
        assert average_precisions(maps, labels) == want
    assert average_precisions(float32, np.zeros_like(labels)) is None
    assert average_precisions(float32, np.ones_like(labels)) is None
    with pytest.raises(ShapeError):
        average_precisions(float32 + [np.zeros((20, 24))], labels)
    bad = float32[0].copy()
    bad[3, 4] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        average_precisions(float32 + [bad], labels)


def test_ranking_from_sorted_single_class_raises():
    s = np.array([0.1, 0.5, 0.9])
    for positives in (s, s[:0]):
        with pytest.raises(DegenerateClassError):
            ranking_from_sorted(s, positives)
        with pytest.raises(DegenerateClassError):
            ranking_counts(s, positives)
    with pytest.raises(DegenerateClassError):
        ranking_from_sorted(s[:0], s[:0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 4, 8])
def test_ranking_rejects_non_finite_scores(bad, at):
    scores = np.linspace(0.9, 0.1, 9).reshape(3, 3)
    labels = np.array([[1, 0, 1], [0, 0, 1], [0, 1, 0]], dtype=np.uint8)
    scores.flat[at] = bad
    for fn in (average_precision, uq_auroc):
        with pytest.raises(ValidationError, match="finite"):
            fn(scores, labels)
    with pytest.raises(ValidationError, match="finite"):
        ranking_from_sorted(*_sorted_asc(scores, labels))
    # single-class labels do not hide a bad score
    with pytest.raises(ValidationError, match="finite"):
        uq_auroc(scores, np.ones_like(labels))


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
    # an epsilon below float64's resolution at 1 would leave 1 - epsilon == 1.0,
    # so a hard 1 on a 0 label would cost log(0); 2**-53 is the smallest step below 1
    hard, labels = np.array([[0.0, 1.0]]), np.array([[1, 0]])
    for eps in (1e-17, 2.0**-54):
        with pytest.raises(ValidationError, match="1 - epsilon < 1"):
            nll(hard, labels, epsilon=eps)
    assert nll(hard, labels, epsilon=2.0**-53) == pytest.approx(53 * math.log(2), rel=1e-12)
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


def _asd_full_grid(ma, mb):
    """ASD from the two full-grid EDTs, each read at the other boundary
    under a boolean mask, in the same float64 arithmetic."""
    ba, bb = extract_boundary(ma), extract_boundary(mb)
    d_to_b = edt(bb)[ba.astype(bool)]
    d_to_a = edt(ba)[bb.astype(bool)]
    return float(np.sum(d_to_b) + np.sum(d_to_a)) / (d_to_b.size + d_to_a.size)


def test_asd_bitwise_equals_full_grid_edt_and_matches_oracle():
    """Dense random masks, and blobs with stray pixels, up to the
    oracle's 8192-pixel guard."""
    rng = np.random.default_rng(71)
    for k in range(24):
        if k % 2:
            h, w = (int(v) for v in rng.integers(18, 30, size=2))
            ma = (rng.random((h, w)) < rng.uniform(0.3, 0.5)).astype(np.uint8)
            mb = (rng.random((h, w)) < rng.uniform(0.3, 0.5)).astype(np.uint8)
        else:
            h, w = (int(v) for v in rng.integers(40, 90, size=2))
            yy, xx = np.mgrid[:h, :w]
            ma = (np.hypot(yy - h / 2, xx - w / 3) < rng.uniform(3, 12)).astype(np.uint8)
            mb = (np.hypot(yy - h / 3, xx - w / 2) < rng.uniform(3, 12)).astype(np.uint8)
            mb |= (rng.random((h, w)) < 0.005).astype(np.uint8)
        fast = average_surface_distance(ma, mb, 1.0)
        assert fast == _asd_full_grid(ma, mb)
        assert abs(fast - oracle_asd(ma, mb, 1.0)) <= 1e-12


def test_asd_boundaries_spanning_several_blocks():
    """Boundary sets whose (pixel, column) pairs fill many blocks of
    squared_edt_at give the bits of the full-grid EDTs."""
    rng = np.random.default_rng(73)
    yy, xx = np.mgrid[:128, :128]
    disk = (np.hypot(yy - 60, xx - 64) < 40).astype(np.uint8)
    ring = (np.hypot(yy - 70, xx - 58) < 45) & (rng.random((128, 128)) < 0.9)
    ring = ring.astype(np.uint8)
    dots = np.zeros((128, 128), dtype=np.uint8)
    dots[[5, 64, 100, 127], [120, 64, 3, 0]] = 1
    noise = (rng.random((128, 128)) < 0.6).astype(np.uint8)
    for ma, mb in ((disk, ring), (dots, noise), (noise[:40, :60], disk[:40, :60])):
        ba, bb = extract_boundary(ma), extract_boundary(mb)
        pairs = (int(ba.sum()) * int(bb.any(axis=0).sum()),
                 int(bb.sum()) * int(ba.any(axis=0).sum()))
        assert max(pairs) > 3 * _EDT_AT_BLOCK
        assert average_surface_distance(ma, mb, 1.0) == _asd_full_grid(ma, mb)
    small = (rng.random((40, 60)) < 0.3).astype(np.uint8)
    assert abs(average_surface_distance(small, disk[:40, :60], 1.0)
               - oracle_asd(small, disk[:40, :60], 1.0)) <= 1e-12


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
