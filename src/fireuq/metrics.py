"""Per-fire scalar metrics, each restrictable to an evaluation region.

Segmentation: precision/recall, step-wise average precision, average
surface distance.  Calibration: Brier score, negative log-likelihood.
Uncertainty ranking: error map construction, AUROC and AUPRC of
uncertainty scores against the error map.

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


def _groups_descending(scores: np.ndarray):
    """Sort scores descending; return (order, index of last element of
    each unique-threshold group in the sorted array)."""
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    if s_sorted.size == 1:
        return order, np.array([0])
    last = np.nonzero(np.append(s_sorted[:-1] != s_sorted[1:], True))[0]
    return order, last


def average_precision(
    scores: np.ndarray, labels: np.ndarray, region: np.ndarray | None = None
) -> float:
    """Step-wise average precision, no interpolation.

    AP = sum over descending unique thresholds of (R_n - R_{n-1}) * P_n,
    where P and R count (score >= threshold) predictions.  Raises
    DegenerateClassError when the labels are single-class.
    """
    _check_shapes(np.asarray(scores), np.asarray(labels), region)
    s = _select(np.asarray(scores, dtype=np.float64), region)
    y = _select(np.asarray(labels), region).astype(np.int64)
    n_pos = int((y == 1).sum())
    if n_pos == 0 or n_pos == y.size:
        raise DegenerateClassError("average_precision: labels are single-class")
    order, last = _groups_descending(s)
    y_sorted = y[order]
    tp = np.cumsum(y_sorted)[last].astype(np.float64)
    fp = np.cumsum(1 - y_sorted)[last].astype(np.float64)
    precision = tp / (tp + fp)
    recall = tp / n_pos
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * precision))


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


def _tie_averaged_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ascending, ties sharing their average rank."""
    n = values.size
    order = np.argsort(values, kind="stable")
    s_sorted = values[order]
    new_group = np.concatenate([[True], s_sorted[1:] != s_sorted[:-1]])
    first = np.nonzero(new_group)[0]
    counts = np.diff(np.append(first, n))
    avg_rank = first + (counts - 1) / 2.0 + 1.0
    ranks = np.empty(n)
    ranks[order] = np.repeat(avg_rank, counts)
    return ranks


def uq_auroc(
    unc: np.ndarray, errors: np.ndarray, region: np.ndarray | None = None
) -> float:
    """AUROC of uncertainty scores ranking error pixels above correct ones.

    Tie-averaged rank formulation: equals the fraction of (error,
    correct) pairs the uncertainty orders correctly, ties scoring half.
    A constant map gives exactly 0.5.  Raises DegenerateClassError when
    the region contains only errors or only correct pixels.
    """
    _check_shapes(np.asarray(unc), np.asarray(errors), region)
    s = _select(np.asarray(unc, dtype=np.float64), region)
    y = _select(np.asarray(errors), region).astype(np.int64)
    n_pos = int((y == 1).sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClassError("uq_auroc: error labels are single-class")
    ranks = _tie_averaged_ranks(s)
    rank_sum = float(ranks[y == 1].sum())
    wins = rank_sum - n_pos * (n_pos + 1) / 2.0
    return wins / (n_pos * n_neg)


def uq_auprc(
    unc: np.ndarray, errors: np.ndarray, region: np.ndarray | None = None
) -> tuple[float, float]:
    """AUPRC of uncertainty against the error map, plus error prevalence.

    The prevalence is the random baseline: a constant uncertainty map
    scores exactly the prevalence.
    """
    _check_shapes(np.asarray(unc), np.asarray(errors), region)
    y = _select(np.asarray(errors), region).astype(np.int64)
    n_pos = int((y == 1).sum())
    if n_pos == 0 or n_pos == y.size:
        raise DegenerateClassError("uq_auprc: error labels are single-class")
    prevalence = n_pos / y.size
    return average_precision(unc, errors, region), prevalence

