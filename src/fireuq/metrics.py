"""Per-fire scalar metrics, each restrictable to an evaluation region.

Segmentation: precision/recall, step-wise average precision, average
surface distance.  Calibration: Brier score, negative log-likelihood.
Uncertainty ranking: error map construction, AUROC of uncertainty
scores against the error map, and AUPRC as their average precision.
AP and AUROC share one counting kernel, ranking_counts, fed by the
scores sorted ascending and the positives' scores sorted ascending; a
caller that reads only one of them skips the other's arithmetic.

Every masked metric funnels through one region-selection path, so a
region of all ones reproduces the unmasked value bitwise.  The record
that holds one fire's metrics at one radius, and its checks, live in
report.MetricRecord.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateClassError, ShapeError, ValidationError
from .morphology import extract_boundary, squared_edt_at

DEFAULT_NLL_EPSILON = 1e-7


def _check_shapes(a: np.ndarray, b: np.ndarray, region: np.ndarray | None):
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if region is not None and region.shape != a.shape:
        raise ShapeError(f"region shape {region.shape} != data shape {a.shape}")


def _select(arr: np.ndarray, region: np.ndarray | None) -> np.ndarray:
    """Flatten arr, keeping only region pixels when a region is given."""
    if region is None:
        return arr.ravel()
    return arr[region.astype(bool)]


def precision_recall(
    pred: np.ndarray, gt: np.ndarray, region: np.ndarray | None = None
) -> tuple[float | None, float | None]:
    """Precision and recall of a binary prediction against ground truth.

    Either value is None when its denominator is zero (no predicted
    positives, or no actual positives, inside the region).
    """
    _check_shapes(pred, gt, region)
    p = _select(np.asarray(pred), region).astype(bool)
    g = _select(np.asarray(gt), region).astype(bool)
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    return precision, recall


def ranking_counts(
    scores_asc: np.ndarray, positives_asc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The int64 counts every ranking metric is taken from: per distinct
    score, highest first, the positives scored at or above it (tp) and
    all pixels scored at or above it (cnt).

    scores_asc holds every score sorted ascending and positives_asc the
    positives' scores sorted ascending, ties in any order.  cnt comes
    from where each run of equal scores starts.  One searchsorted of
    positives_asc into the distinct scores counts the positives at each
    score, and tp sums those counts from the highest score down, so no
    permutation of the pixels is needed.  Raises ValidationError on a
    NaN or infinite score: sorted ascending, -inf comes first and +inf
    and NaN last, so checking the two ends is exact.  Raises
    DegenerateClassError when the labels are single-class.
    """
    n, n_pos = scores_asc.size, positives_asc.size
    if n and not (np.isfinite(scores_asc[0]) and np.isfinite(scores_asc[-1])):
        raise ValidationError("ranking: scores must be finite (found NaN or inf)")
    if n_pos == 0 or n_pos == n:
        raise DegenerateClassError("ranking: labels are single-class")
    first = np.flatnonzero(np.append(True, scores_asc[1:] != scores_asc[:-1]))
    distinct = scores_asc[first]
    per_score = np.bincount(np.searchsorted(distinct, positives_asc), minlength=distinct.size)
    return np.cumsum(per_score[::-1]), n - first[::-1]


def ranking_from_sorted(
    scores_asc: np.ndarray, positives_asc: np.ndarray
) -> tuple[float, float, float]:
    """AP, AUROC and prevalence from ranking_counts.

    AP sums (R_n - R_{n-1}) * P_n over the distinct scores; AUROC counts
    correctly ordered (positive, negative) pairs in int64, ties scoring
    half.  Raises like ranking_counts.
    """
    tp, cnt = ranking_counts(scores_asc, positives_asc)
    n_pos = positives_asc.size
    ap = _ap_from_counts(tp, cnt, n_pos)
    return ap, _auroc_from_counts(tp, cnt, n_pos), n_pos / scores_asc.size


def _ap_from_counts(tp: np.ndarray, cnt: np.ndarray, n_pos: int) -> float:
    """Sum over the thresholds of (R_n - R_{n-1}) * P_n."""
    recall = tp / n_pos
    terms = np.diff(recall, prepend=0.0)
    terms *= np.divide(tp, cnt, out=recall)
    return float(np.sum(terms))


def _auroc_from_counts(tp: np.ndarray, cnt: np.ndarray, n_pos: int) -> float:
    """Correctly ordered (positive, negative) pairs over all pairs; cnt
    is overwritten with the false positives."""
    n_neg = int(cnt[-1]) - n_pos
    fp = np.subtract(cnt, tp, out=cnt)
    return (_wins2_from_counts(tp, fp, n_neg) / 2.0) / (n_pos * n_neg)


def _wins2_from_counts(tp: np.ndarray, fp: np.ndarray, n_neg: int) -> int:
    """Twice the correctly ordered (positive, negative) pairs, ties
    counting half: per group pos_g * (2 * (negatives below) + neg_g)."""
    wins2 = n_neg - fp
    wins2 *= 2
    wins2 += np.diff(fp, prepend=0)
    wins2 *= np.diff(tp, prepend=0)
    return int(wins2.sum())


def _sort_dtype(dtype: np.dtype) -> np.dtype:
    """The dtype scores are ranked in: their own if float, else the float
    numpy promotes them to (float32 or float64)."""
    return np.promote_types(dtype, np.float32)


def _sorted_scores(
    scores: np.ndarray, labels: np.ndarray, region: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The region's scores sorted ascending in their _sort_dtype, and
    those of its 0/1-labelled positives, for ranking_counts."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    _check_shapes(scores, labels, region)
    s = _select(scores, region).astype(_sort_dtype(scores.dtype), copy=False)
    positives = s[_select(labels, region).astype(bool)]
    positives.sort()
    return np.sort(s), positives


def average_precision(
    scores: np.ndarray, labels: np.ndarray, region: np.ndarray | None = None
) -> float:
    """Step-wise average precision, no interpolation.

    AP = sum over descending unique thresholds of (R_n - R_{n-1}) * P_n,
    where P and R count (score >= threshold) predictions.  AUPRC of an
    uncertainty map is its AP against the error map.  Raises
    DegenerateClassError when the labels are single-class.
    """
    s, positives = _sorted_scores(scores, labels, region)
    return _ap_from_counts(*ranking_counts(s, positives), positives.size)


def average_precisions(
    score_maps: list[np.ndarray], labels: np.ndarray
) -> list[float] | None:
    """average_precision of each score map against the same labels, or
    None when the labels are single-class.

    The maps are stacked once, and the stack and its positive pixels
    are each sorted along the pixel axis in one call, so n maps cost two
    sort calls and a few large allocations instead of n of each.
    """
    labels = np.asarray(labels)
    for m in score_maps:
        _check_shapes(np.asarray(m), labels, None)
    keys = np.array(score_maps).reshape(len(score_maps), -1)
    keys = keys.astype(_sort_dtype(keys.dtype), copy=False)
    positives = keys[:, labels.ravel().astype(bool)]
    keys.sort(axis=1)
    positives.sort(axis=1)
    try:
        return [
            _ap_from_counts(*ranking_counts(s, p), p.size)
            for s, p in zip(keys, positives)
        ]
    except DegenerateClassError:
        return None


def average_surface_distance(
    mask_a: np.ndarray, mask_b: np.ndarray, meters_per_pixel: float = 375.0
) -> float:
    """Symmetric mean distance between the boundaries of two masks.

    Mean over all boundary pixels of A of the distance to B's nearest
    boundary pixel, pooled with the reverse direction, scaled to meters.
    Raises EmptyMaskError (via boundary extraction) when either mask is
    empty; callers record that fire as missing.

    Each boundary's squared EDT is read only at the other boundary's
    pixels (squared_edt_at, in np.argwhere's raster order), so no
    full-grid transform is built.  The values are the full-grid EDT's
    exact integers in the order a boolean mask selects them, so the sum
    of their square roots has the full-grid computation's bits.
    """
    if mask_a.shape != mask_b.shape:
        raise ShapeError(f"shape mismatch: {mask_a.shape} vs {mask_b.shape}")
    if meters_per_pixel <= 0:
        raise ValidationError("meters_per_pixel must be > 0")
    ba = extract_boundary(mask_a)
    bb = extract_boundary(mask_b)
    d_to_b = np.sqrt(squared_edt_at(bb, np.argwhere(ba)))
    d_to_a = np.sqrt(squared_edt_at(ba, np.argwhere(bb)))
    total = float(np.sum(d_to_b) + np.sum(d_to_a))
    return meters_per_pixel * total / (d_to_b.size + d_to_a.size)


def brier_terms(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-pixel Brier terms (p - y)^2 of float64 probabilities p and
    0/1 labels y; brier is their mean."""
    return (p - y) ** 2


def check_nll_epsilon(epsilon: float, name: str):
    """Refuse an NLL clip outside (0, 0.5), or below float64's resolution
    at 1, where 1 - epsilon == 1.0 would leave log(1 - p) = -inf."""
    if not (0.0 < epsilon < 0.5 and 1.0 - epsilon < 1.0):
        raise ValidationError(f"{name} must lie in (0, 0.5) with 1 - epsilon < 1, got {epsilon!r}")


def nll_terms(p: np.ndarray, y: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-pixel negative log-likelihoods of float64 probabilities p,
    clipped to [epsilon, 1 - epsilon], and 0/1 labels y; nll is their
    mean."""
    p = np.clip(p, epsilon, 1.0 - epsilon)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def brier(
    probs: np.ndarray, gt: np.ndarray, region: np.ndarray | None = None
) -> float:
    """Mean squared difference between probabilities and 0/1 labels."""
    _check_shapes(np.asarray(probs), np.asarray(gt), region)
    p = _select(np.asarray(probs, dtype=np.float64), region)
    y = _select(np.asarray(gt), region).astype(np.float64)
    if p.size == 0:
        raise ValidationError("brier: empty region")
    return float(np.mean(brier_terms(p, y)))


def nll(
    probs: np.ndarray,
    gt: np.ndarray,
    region: np.ndarray | None = None,
    epsilon: float = DEFAULT_NLL_EPSILON,
) -> float:
    """Mean negative log-likelihood with probabilities clipped to
    [epsilon, 1 - epsilon]."""
    check_nll_epsilon(epsilon, "nll: epsilon")
    _check_shapes(np.asarray(probs), np.asarray(gt), region)
    p = _select(np.asarray(probs, dtype=np.float64), region)
    y = _select(np.asarray(gt), region).astype(np.float64)
    if p.size == 0:
        raise ValidationError("nll: empty region")
    return float(np.mean(nll_terms(p, y, epsilon)))


def error_map(
    probs: np.ndarray, gt: np.ndarray, threshold: float = 0.5
) -> np.ndarray:
    """Per-pixel misclassification mask of the thresholded prediction.

    e_i = 1 iff (probs_i >= threshold) differs from gt_i.
    """
    if probs.shape != gt.shape:
        raise ShapeError(f"shape mismatch: {probs.shape} vs {gt.shape}")
    pred = np.asarray(probs) >= threshold
    return (pred != np.asarray(gt).astype(bool)).astype(np.uint8)


def uq_auroc(
    unc: np.ndarray, errors: np.ndarray, region: np.ndarray | None = None
) -> float:
    """AUROC of uncertainty scores ranking error pixels above correct ones.

    The fraction of (error, correct) pairs the uncertainty orders
    correctly, ties scoring half.  A constant map gives exactly 0.5.
    Raises DegenerateClassError when the region contains only errors or
    only correct pixels.
    """
    s, positives = _sorted_scores(unc, errors, region)
    return _auroc_from_counts(*ranking_counts(s, positives), positives.size)
