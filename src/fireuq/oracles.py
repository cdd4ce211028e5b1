"""Brute-force reference implementations for cross-checking.

Everything in this module trades speed for obviousness: plain loops,
explicit pair enumeration, no shared code with the fast paths.  These
exist so the optimized implementations can be verified on small inputs;
each function guards its input size because the costs are quadratic to
exponential.  Not for production evaluation.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .errors import DegenerateClassError, EmptyMaskError, ValidationError

_MAX_PIXELS = 8192
_MAX_WILCOXON_N = 16


def _flat(scores, labels):
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.int64).ravel()
    if s.size != y.size:
        raise ValidationError("oracle: scores and labels differ in size")
    if s.size > _MAX_PIXELS:
        raise ValidationError(f"oracle: input too large ({s.size} > {_MAX_PIXELS})")
    return s, y


def oracle_precision_recall(scores, labels, threshold: float):
    """Precision and recall of (score >= threshold) against labels."""
    s, y = _flat(scores, labels)
    tp = fp = fn = 0
    for si, yi in zip(s, y):
        pred = si >= threshold
        if pred and yi == 1:
            tp += 1
        elif pred and yi == 0:
            fp += 1
        elif not pred and yi == 1:
            fn += 1
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return precision, recall


def oracle_average_precision(scores, labels) -> float:
    """Step-wise AP: sum (R_n - R_{n-1}) * P_n over descending unique
    score thresholds, no interpolation."""
    s, y = _flat(scores, labels)
    n_pos = int((y == 1).sum())
    if n_pos == 0 or n_pos == y.size:
        raise DegenerateClassError("oracle AP: labels are single-class")
    thresholds = sorted(set(s.tolist()), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = fp = 0
        for si, yi in zip(s, y):
            if si >= t:
                if yi == 1:
                    tp += 1
                else:
                    fp += 1
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def oracle_auroc(scores, labels) -> float:
    """AUROC by exhaustive pair counting, ties worth half a point."""
    s, y = _flat(scores, labels)
    pos = s[y == 1]
    neg = s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise DegenerateClassError("oracle AUROC: labels are single-class")
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def oracle_auprc(scores, labels) -> float:
    """AUPRC as step-wise AP of the scores against the labels."""
    return oracle_average_precision(scores, labels)


def oracle_edt(mask) -> np.ndarray:
    """Exact Euclidean distances by scanning every foreground pixel."""
    mask = np.asarray(mask)
    h, w = mask.shape
    if h * w > _MAX_PIXELS:
        raise ValidationError("oracle EDT: grid too large")
    fg = [(y, x) for y in range(h) for x in range(w) if mask[y, x]]
    if not fg:
        raise EmptyMaskError("oracle EDT: mask has no foreground")
    out = np.empty((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            best = min((y - fy) ** 2 + (x - fx) ** 2 for fy, fx in fg)
            out[y, x] = math.sqrt(best)
    return out


def oracle_dilate(mask, radius: int) -> np.ndarray:
    """Dilation by stamping every disk offset on every foreground pixel."""
    mask = np.asarray(mask)
    h, w = mask.shape
    if h * w > _MAX_PIXELS:
        raise ValidationError("oracle dilate: grid too large")
    out = np.zeros((h, w), dtype=np.uint8)
    offsets = [
        (dy, dx)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
        if dy * dy + dx * dx <= radius * radius
    ]
    for y in range(h):
        for x in range(w):
            if mask[y, x]:
                for dy, dx in offsets:
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        out[yy, xx] = 1
    return out


def _boundary_pixels(mask) -> list[tuple[int, int]]:
    h, w = mask.shape
    pts = []
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                yy, xx = y + dy, x + dx
                if not (0 <= yy < h and 0 <= xx < w) or not mask[yy, xx]:
                    pts.append((y, x))
                    break
    return pts


def oracle_asd(mask_a, mask_b, meters_per_pixel: float = 1.0) -> float:
    """Symmetric average surface distance by all-pairs boundary scan."""
    a = np.asarray(mask_a)
    b = np.asarray(mask_b)
    if a.size > _MAX_PIXELS or b.size > _MAX_PIXELS:
        raise ValidationError("oracle ASD: grid too large")
    ba = _boundary_pixels(a)
    bb = _boundary_pixels(b)
    if not ba or not bb:
        raise EmptyMaskError("oracle ASD: a mask has no boundary")
    d_ab = [
        min(math.sqrt((y - v) ** 2 + (x - u) ** 2) for v, u in bb) for y, x in ba
    ]
    d_ba = [
        min(math.sqrt((y - v) ** 2 + (x - u) ** 2) for v, u in ba) for y, x in bb
    ]
    return meters_per_pixel * (sum(d_ab) + sum(d_ba)) / (len(d_ab) + len(d_ba))


def oracle_brier(probs, labels) -> float:
    s, y = _flat(probs, labels)
    return sum((si - yi) ** 2 for si, yi in zip(s, y)) / s.size


def oracle_nll(probs, labels, epsilon: float = 1e-7) -> float:
    s, y = _flat(probs, labels)
    total = 0.0
    for si, yi in zip(s, y):
        p = min(max(si, epsilon), 1.0 - epsilon)
        total += -math.log(p) if yi == 1 else -math.log(1.0 - p)
    return total / s.size


def oracle_wilcoxon_one_sided(diffs) -> tuple[float, float]:
    """Exact one-sided Wilcoxon signed-rank p by sign-flip enumeration.

    Returns (w_plus, p_value) with p = P(W+ >= observed) under the null
    that each nonzero diff is independently positive or negative with
    probability 1/2.  Zero differences are discarded first.  Tied
    absolute values share their average rank, exactly as in the real
    test, so the null distribution here is the conditional one given
    the observed tie pattern.
    """
    d = [float(x) for x in np.asarray(diffs, dtype=np.float64).ravel() if x != 0.0]
    n = len(d)
    if n == 0:
        raise ValidationError("oracle wilcoxon: all differences are zero")
    if n > _MAX_WILCOXON_N:
        raise ValidationError(f"oracle wilcoxon: n={n} exceeds {_MAX_WILCOXON_N}")
    absd = [abs(x) for x in d]
    order = sorted(range(n), key=lambda i: absd[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and absd[order[j + 1]] == absd[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    observed = sum(r for r, x in zip(ranks, d) if x > 0)
    count_ge = 0
    for signs in product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w >= observed - 1e-12:
            count_ge += 1
    return observed, count_ge / (1 << n)


def oracle_rmsle(student, teacher) -> float:
    s = np.asarray(student, dtype=np.float64).ravel()
    t = np.asarray(teacher, dtype=np.float64).ravel()
    total = sum((math.log1p(ti) - math.log1p(si)) ** 2 for si, ti in zip(s, t))
    return math.sqrt(total / s.size)

