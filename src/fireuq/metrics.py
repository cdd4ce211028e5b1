"""Per-fire scalar metrics, each restrictable to an evaluation region.

Segmentation: precision/recall, step-wise average precision, average
surface distance.  Calibration: Brier score, negative log-likelihood.
Uncertainty ranking: error map construction, AUROC of uncertainty
scores against the error map, and AUPRC as their average precision.
AP, AUROC and prevalence come from one kernel, ranking_by_level, fed
by the scores sorted ascending, the positives' scores sorted ascending
and, for nested regions such as a sweep's FCERs, each pixel's level.
Its work past those sorts is on the positives: a few integer counts
per distinct positive score and level, from which AUROC is exact and
AP's per-score terms are written into a zero array whose one sum has
the bits of the sum over every distinct score.

Every masked metric funnels through one region-selection path, so a
region of all ones reproduces the unmasked value bitwise.  The record
that holds one fire's metrics at one radius, and its checks, live in
report.MetricRecord.
"""

from __future__ import annotations

import numpy as np

from .constants import DEFAULT_NLL_EPSILON
from .errors import DegenerateClassError, ShapeError, ValidationError
from .morphology import extract_boundary, squared_edt_at


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


def ranking_by_level(
    scores_asc: np.ndarray,
    positives_asc: np.ndarray,
    levels: np.ndarray | None = None,
    positive_levels: np.ndarray | None = None,
    n_levels: int = 1,
) -> list[tuple[float, float, float] | None]:
    """AP, AUROC and prevalence of every nested level of one ranking, or
    None where a level's labels are single-class.

    scores_asc holds every score sorted ascending and positives_asc the
    positives' scores sorted ascending, ties in any order.  levels[i] is
    the level of scores_asc[i] and positive_levels[k] that of
    positives_asc[k], both in [0, n_levels); level j ranks the pixels of
    level <= j.  Without levels, or with n_levels 1, there is one level,
    every pixel.

    Each distinct positive score is read through five int64 counts per
    level: the pixels below it and up to its end, the positives likewise,
    and the distinct scores below it.  With one level they are positions
    in the two sorted arrays, with no further sort.  With several, the
    pixels, the positives and the distinct scores (each at its lowest
    level) are each sorted once by (level, position) key; one
    searchsorted per family counts those at each level below each
    positive score, and a cumulative sum over the levels gives the
    counts at level <= j.  A level holding no pixel repeats the level
    below it.  The others are counted in blocks of about
    pixels / (distinct positive scores) levels, so working memory is
    O(pixels + positives) whatever n_levels is.

    AUROC is exact in int64: twice the correctly ordered (positive,
    negative) pairs is, per positive, 2 * (negatives below) + (negatives
    tied), which summed over a level is the sum over its positive scores
    of (positives there) * (below + end), less n_pos**2.  AP sums
    (R_n - R_{n-1}) * P_n over the level's distinct scores, highest
    first.  At a score with no positive that term is exactly +0.0, two
    equal recalls subtracted, so the level's term array is np.zeros with
    each positive score's term written at its descending position, and
    its one np.add.reduce sums the very array a sum over every distinct
    score would.  A level with no positive or no negative divides
    nothing.  Raises ValidationError on a NaN or infinite score at any
    level, before any class check: sorted ascending, -inf comes first
    and +inf and NaN last, so checking the two ends is exact.
    """
    n, n_pos = scores_asc.size, positives_asc.size
    if n and not (np.isfinite(scores_asc[0]) and np.isfinite(scores_asc[-1])):
        raise ValidationError("ranking: scores must be finite (found NaN or inf)")
    if n_pos == 0:
        return [None] * n_levels
    # where each run of equal scores starts, and n
    bounds = np.flatnonzero(np.concatenate(([True], scores_asc[1:] != scores_asc[:-1], [True])))
    n_distinct = bounds.size - 1
    rank = np.searchsorted(scores_asc[bounds[:-1]], positives_asc)
    # each distinct positive score: its first and end index in positives_asc
    # and in scores_asc, and its index among the distinct scores
    pos_below = np.flatnonzero(np.append(True, rank[1:] != rank[:-1]))
    pos_end = np.append(pos_below[1:], n_pos)
    distinct_below = rank[pos_below]
    below, end = bounds[distinct_below], bounds[distinct_below + 1]
    if levels is None or n_levels == 1:
        totals = np.array([n]), np.array([n_pos]), np.array([n_distinct])
        return _rank_rows(*totals, None, below, end, pos_below, pos_end, distinct_below)

    # per family, the items' levels and the positions each score is counted below
    families = (
        (levels, np.concatenate((below, end, [n]))),
        (positive_levels, np.concatenate((pos_below, pos_end, [n_pos]))),
        (np.minimum.reduceat(levels, bounds[:-1]), np.append(distinct_below, n_distinct)),
    )
    keys = [_level_keys(lv) for lv, _x in families]
    carry = [0] * len(families)
    present = np.flatnonzero(np.bincount(levels, minlength=n_levels))
    n_q = below.size
    block = max(1, n // n_q)
    ranked: list = []
    for b in range(0, present.size, block):
        ls = present[b : b + block, None]
        counts = []
        for f, ((lv, x), k) in enumerate(zip(families, keys)):
            base = ls * lv.size
            c = np.searchsorted(k, base + x) - np.searchsorted(k, base)
            np.cumsum(c, axis=0, out=c)
            c += carry[f]
            carry[f] = c[-1]
            counts.append(c)
        pix, pos, dist = counts
        # a score enters a level with its first positive there
        at = np.nonzero(pos[:, n_q:-1] > pos[:, :n_q])
        ranked += _rank_rows(
            pix[:, -1], pos[:, -1], dist[:, -1], at[0], pix[:, :n_q][at],
            pix[:, n_q:-1][at], pos[:, :n_q][at], pos[:, n_q:-1][at], dist[:, :-1][at],
        )
    # level j reads the highest present level <= j, None below the lowest
    last = np.searchsorted(present, np.arange(n_levels), "right") - 1
    return [ranked[i] if i >= 0 else None for i in last]


def _level_keys(levels: np.ndarray) -> np.ndarray:
    """level * size + position of each item, sorted: per level, the
    positions at that level in ascending order."""
    keys = levels.astype(np.int64) * levels.size
    keys += np.arange(levels.size)
    keys.sort()
    return keys


def _rank_rows(
    n, n_pos, n_distinct, rows, below, end, pos_below, pos_end, distinct_below
) -> list[tuple[float, float, float] | None]:
    """ranking_by_level's values per level from the counts of each
    (level, positive score) entry: the pixels below the score and up to
    its end, the positives likewise, and the distinct scores below it.
    Entries are grouped by level, levels ascending, and rows gives each
    entry's level, or is None for one level; n, n_pos and n_distinct
    hold each level's totals.  An entry's AP term goes to its score's
    descending position, and (positives there) * (below + end) to the
    level's pair count."""
    per = slice(None) if rows is None else rows
    tp = n_pos[per] - pos_below
    terms = tp / n_pos[per]
    terms -= (n_pos[per] - pos_end) / n_pos[per]
    terms *= tp / (n[per] - below)
    place = n_distinct[per] - 1 - distinct_below
    pairs = below + end
    pairs *= pos_end - pos_below
    bounds = [0, tp.size] if rows is None else np.searchsorted(rows, np.arange(n.size + 1))
    out: list = []
    for j in range(n.size):
        lo, hi = bounds[j], bounds[j + 1]
        n_j, p_j = int(n[j]), int(n_pos[j])
        if p_j == 0 or p_j == n_j:
            out.append(None)
            continue
        ap_terms = np.zeros(int(n_distinct[j]))
        ap_terms[place[lo:hi]] = terms[lo:hi]
        wins2 = int(pairs[lo:hi].sum()) - p_j * p_j
        auroc = (wins2 / 2.0) / (p_j * (n_j - p_j))
        out.append((float(np.add.reduce(ap_terms)), auroc, p_j / n_j))
    return out


def _ranked(
    scores: np.ndarray, labels: np.ndarray, region: np.ndarray | None
) -> tuple[float, float, float]:
    """ranking_by_level's one level over the region's scores and its
    0/1-labelled positives; raises DegenerateClassError when the labels
    are single-class.  Float scores are ranked in their own dtype, so a
    float32 map is not copied first, and others in the float numpy
    promotes them to (float32 or float64)."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    _check_shapes(scores, labels, region)
    s = _select(scores, region).astype(np.promote_types(scores.dtype, np.float32), copy=False)
    positives = s[_select(labels, region).astype(bool)]
    positives.sort()
    (ranked,) = ranking_by_level(np.sort(s), positives)
    if ranked is None:
        raise DegenerateClassError("ranking: labels are single-class")
    return ranked


def average_precision(
    scores: np.ndarray, labels: np.ndarray, region: np.ndarray | None = None
) -> float:
    """Step-wise average precision, no interpolation.

    AP = sum over descending unique thresholds of (R_n - R_{n-1}) * P_n,
    where P and R count (score >= threshold) predictions.  AUPRC of an
    uncertainty map is its AP against the error map.  Raises
    DegenerateClassError when the labels are single-class.
    """
    return _ranked(scores, labels, region)[0]


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
    return _ranked(unc, errors, region)[1]
