"""Per-fire scalar metrics, each restrictable to an evaluation region.

Segmentation: precision/recall, step-wise average precision, average
surface distance.  Calibration: Brier score, negative log-likelihood.
Uncertainty ranking: error map construction, AUROC of uncertainty
scores against the error map, and AUPRC as their average precision.
AP and AUROC share one kernel over scores sorted descending.

Every masked metric funnels through one region-selection path, so a
region of all ones reproduces the unmasked value bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClassError, ShapeError, ValidationError
from .morphology import edt, extract_boundary

DEFAULT_NLL_EPSILON = 1e-7


@dataclass
class MetricRecord:
    """All per-fire metrics at one evaluation radius.

    ``radius_px`` is None for unmasked (whole-crop) records.  A metric
    that is undefined on this fire (single-class region, missing
    boundary) is stored as None and later emitted as an empty CSV cell.
    """

    fire_id: str
    year: int
    radius_px: int | None
    ap: float | None = None
    asd_m: float | None = None
    brier: float | None = None
    nll: float | None = None
    auroc: float | None = None
    auprc: float | None = None
    error_prevalence: float | None = None
    n_eval_px: int | None = None

    def __post_init__(self):
        for name in ("ap", "auroc", "auprc", "brier", "error_prevalence"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValidationError(f"{self.fire_id}: {name}={v} outside [0, 1]")
        if self.nll is not None and self.nll < 0.0:
            raise ValidationError(f"{self.fire_id}: negative nll")
        if self.asd_m is not None and self.asd_m < 0.0:
            raise ValidationError(f"{self.fire_id}: negative asd_m")


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


def ranking_from_sorted(
    scores_desc: np.ndarray, labels: np.ndarray
) -> tuple[float, float, float]:
    """AP, AUROC and prevalence of 0/1 labels ranked by scores sorted
    descending, ties in any order.

    Every value comes from the cumulative true positives tp at the last
    element of each distinct score and fp = (last + 1) - tp.  AP sums
    (R_n - R_{n-1}) * P_n over those thresholds; AUROC counts correctly
    ordered (positive, negative) pairs in int64, ties scoring half.
    Raises DegenerateClassError when the labels are single-class.
    """
    y = labels.astype(np.int64)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClassError("ranking: labels are single-class")
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


def _ranking(
    scores: np.ndarray, labels: np.ndarray, region: np.ndarray | None
) -> tuple[float, float, float]:
    """ranking_from_sorted over the region, after one stable descending sort."""
    _check_shapes(np.asarray(scores), np.asarray(labels), region)
    s = _select(np.asarray(scores, dtype=np.float64), region)
    y = _select(np.asarray(labels), region)
    order = np.argsort(-s, kind="stable")
    return ranking_from_sorted(s[order], y[order])


def average_precision(
    scores: np.ndarray, labels: np.ndarray, region: np.ndarray | None = None
) -> float:
    """Step-wise average precision, no interpolation.

    AP = sum over descending unique thresholds of (R_n - R_{n-1}) * P_n,
    where P and R count (score >= threshold) predictions.  AUPRC of an
    uncertainty map is its AP against the error map.  Raises
    DegenerateClassError when the labels are single-class.
    """
    return _ranking(scores, labels, region)[0]


def average_surface_distance(
    mask_a: np.ndarray, mask_b: np.ndarray, meters_per_pixel: float = 375.0
) -> float:
    """Symmetric mean distance between the boundaries of two masks.

    Mean over all boundary pixels of A of the distance to B's nearest
    boundary pixel, pooled with the reverse direction, scaled to meters.
    Raises EmptyMaskError (via boundary extraction) when either mask is
    empty; callers record that fire as missing.
    """
    if mask_a.shape != mask_b.shape:
        raise ShapeError(f"shape mismatch: {mask_a.shape} vs {mask_b.shape}")
    if meters_per_pixel <= 0:
        raise ValidationError("meters_per_pixel must be > 0")
    ba = extract_boundary(mask_a)
    bb = extract_boundary(mask_b)
    d_to_b = edt(bb)[ba.astype(bool)]
    d_to_a = edt(ba)[bb.astype(bool)]
    total = float(np.sum(d_to_b) + np.sum(d_to_a))
    return meters_per_pixel * total / (d_to_b.size + d_to_a.size)


def brier(
    probs: np.ndarray, gt: np.ndarray, region: np.ndarray | None = None
) -> float:
    """Mean squared difference between probabilities and 0/1 labels."""
    _check_shapes(np.asarray(probs), np.asarray(gt), region)
    p = _select(np.asarray(probs, dtype=np.float64), region)
    y = _select(np.asarray(gt), region).astype(np.float64)
    if p.size == 0:
        raise ValidationError("brier: empty region")
    return float(np.mean((p - y) ** 2))


def nll(
    probs: np.ndarray,
    gt: np.ndarray,
    region: np.ndarray | None = None,
    epsilon: float = DEFAULT_NLL_EPSILON,
) -> float:
    """Mean negative log-likelihood with probabilities clipped to
    [epsilon, 1 - epsilon]."""
    if not 0.0 < epsilon < 0.5:
        raise ValidationError("nll: epsilon must lie in (0, 0.5)")
    _check_shapes(np.asarray(probs), np.asarray(gt), region)
    p = _select(np.asarray(probs, dtype=np.float64), region)
    y = _select(np.asarray(gt), region).astype(np.float64)
    if p.size == 0:
        raise ValidationError("nll: empty region")
    p = np.clip(p, epsilon, 1.0 - epsilon)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


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
    return _ranking(unc, errors, region)[1]
