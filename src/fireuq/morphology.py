"""Binary morphology on rasters: exact Euclidean distance transforms,
disk dilation and 4-connected boundary extraction.

The distance transforms are exact (not chamfer / not sampled): squared
distances are computed as integers held in float64, so thresholding at
r*r is free of rounding artefacts and dilation by a disk of radius r
agrees exactly with brute-force disk stamping.  All three (squared_edt
over the grid, squared_edt_within up to a radius, squared_edt_at at
given pixels) are one column pass plus a minimum over columns of
(x - u)^2 + G[y, u]^2.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyMaskError, ValidationError
from .raster import validate_mask

# (point, column) pairs per block of squared_edt_at, which bounds its memory
_EDT_AT_BLOCK = 8192


def _column_distances(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first pass of both exact transforms over a 0/1 mask.

    Returns the n occupied columns, and G^2 as an (h, n) int64 array:
    G[y, j] is the distance from (y, cols[j]) to the nearest foreground
    pixel in column cols[j].  It comes from a running max and min of
    foreground row indices down and up each occupied column; empty
    columns have no finite G and are left out.
    """
    fg = mask.astype(bool)
    h = fg.shape[0]
    cols = np.flatnonzero(fg.any(axis=0))
    sub = fg[:, cols]
    rows = np.arange(h, dtype=np.int64)[:, None]
    # nearest foreground row at or above, and at or below; the sentinels
    # lie more than h rows away, past any real one in an occupied column
    above = np.maximum.accumulate(np.where(sub, rows, -h), axis=0)
    below = np.minimum.accumulate(np.where(sub, rows, 2 * h)[::-1], axis=0)[::-1]
    return cols, np.minimum(rows - above, below - rows) ** 2


def squared_edt(mask: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance to the nearest foreground pixel.

    Separable scheme.  The column pass (_column_distances) gives G[y, u],
    the distance from (y, u) to the nearest foreground pixel in column u.
    Each pixel (y, x) then takes the minimum of (x - u)^2 + G[y, u]^2
    over the n occupied columns u, one outer sum and one in-place
    minimum per column; an empty column has no finite G and is left out.
    Cost: O(h*w) for the column pass and O(h*w*n) for the minimum.

    Exactness: every term is an int64 integer, so the result is the
    exact integer minimum, returned as float64.  An all-zero mask has no
    finite distances and raises.
    """
    mask = np.asarray(mask)
    validate_mask(mask, name="squared_edt input")
    if not mask.any():
        raise EmptyMaskError("squared_edt: mask has no foreground")
    xs = np.arange(mask.shape[1], dtype=np.int64)
    cols, g2 = _column_distances(mask)
    d2 = np.add.outer(g2[:, 0], (xs - cols[0]) ** 2)
    for j in range(1, cols.size):
        np.minimum(d2, np.add.outer(g2[:, j], (xs - cols[j]) ** 2), out=d2)
    return d2.astype(np.float64)


def squared_edt_within(mask: np.ndarray, radius: int) -> np.ndarray:
    """squared_edt(mask) as int64 wherever it is at most radius**2, and
    some value above radius**2 elsewhere.

    Each pixel (y, x) takes the minimum of dx*dx + G[y, x + dx]^2 over
    |dx| <= p = min(radius, w - 1), where G^2 comes from the column
    pass squared_edt uses (_column_distances), capped at radius**2 + 1,
    and is the cap in columns without foreground and beyond the grid.
    Where the squared EDT is at most radius**2, the nearest foreground
    pixel lies within radius columns and its G^2 is below the cap, so
    the minimum is the exact squared EDT; elsewhere every term exceeds
    radius**2.  Cost: O(h*w) per shift, 2p + 1 shifts, so a small
    radius costs a few passes over the grid whatever its foreground.
    No squared distance in the grid reaches (h + w)**2, so a radius
    past h + w is clamped to it before any square is formed.  Raises
    EmptyMaskError on an all-zero mask.
    """
    mask = np.asarray(mask)
    validate_mask(mask, name="squared_edt_within input")
    if not mask.any():
        raise EmptyMaskError("squared_edt_within: mask has no foreground")
    if radius < 0:
        raise ValidationError("squared_edt_within: radius must be >= 0")
    h, w = mask.shape
    radius = min(radius, h + w)
    p = min(radius, w - 1)
    cap = radius * radius + 1
    # capped G^2 of every column, with p columns of cap on either side
    cols, g2 = _column_distances(mask)
    capped = np.full((h, w + 2 * p), cap, dtype=np.int64)
    capped[:, cols + p] = np.minimum(g2, cap)
    d2 = capped[:, p : p + w].copy()
    shifted = np.empty_like(d2)
    for dx in range(1, p + 1):
        for start in (p - dx, p + dx):
            np.add(capped[:, start : start + w], dx * dx, out=shifted)
            np.minimum(d2, shifted, out=d2)
    return d2


def squared_edt_at(mask: np.ndarray, points: np.ndarray) -> np.ndarray:
    """squared_edt(mask) read at the pixels points, an (n, 2) integer
    array of (row, col) inside the grid, in the order of points.

    G[y, u], the distance from (y, u) to the nearest foreground pixel in
    column u, comes from the column pass squared_edt also uses
    (_column_distances).  Each point (y, x) then takes the minimum of
    (x - u)^2 + G[y, u]^2 over the n occupied columns u, the integers
    whose minimum squared_edt takes at every pixel, so the values are
    exact and bitwise equal.  The (point, column) pairs are formed in
    blocks of about _EDT_AT_BLOCK, which bounds memory.  Cost:
    O(h*n + len(points)*n), against O(h*w*n) for the whole grid's
    transform; it is the cheaper of the two when the points are few, as
    boundary pixels are.  Raises ValidationError unless points are
    (n, 2) integer pixels of the grid (a negative index would wrap), and
    EmptyMaskError on an all-zero mask.
    """
    mask = np.asarray(mask)
    validate_mask(mask, name="squared_edt_at input")
    if not mask.any():
        raise EmptyMaskError("squared_edt_at: mask has no foreground")
    points = np.asarray(points)
    h, w = mask.shape
    if points.ndim != 2 or points.shape[1] != 2 or not (
        points.size == 0
        or np.issubdtype(points.dtype, np.integer)
        and points.min() >= 0
        and points[:, 0].max() < h
        and points[:, 1].max() < w
    ):
        raise ValidationError("squared_edt_at: points must be (n, 2) integer pixels of the grid")
    cols, g2 = _column_distances(mask)
    out = np.empty(len(points), dtype=np.int64)
    step = max(1, _EDT_AT_BLOCK // cols.size)
    for i in range(0, len(points), step):
        p = points[i : i + step]
        dx = p[:, 1, None] - cols
        d2 = dx * dx
        d2 += g2[p[:, 0]]
        d2.min(axis=1, out=out[i : i + step])
    return out.astype(np.float64)


def edt(mask: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance (pixels) to the nearest foreground pixel."""
    return np.sqrt(squared_edt(mask))


def dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Dilate a binary mask by a Euclidean disk of integer radius.

    Implemented by thresholding the exact squared distance transform at
    radius^2, which matches stamping the disk
    {(dy, dx): dy*dy + dx*dx <= radius*radius} on every foreground
    pixel.  Radius 0 is the identity and skips the transform.  An empty
    mask dilates to an empty mask of the same shape.
    """
    mask = np.asarray(mask)
    validate_mask(mask, name="dilate input")
    if radius < 0:
        raise ValidationError("dilate: radius must be >= 0")
    if not mask.any():
        return np.zeros_like(mask, dtype=np.uint8)
    if radius == 0:
        return mask.astype(np.uint8, copy=True)
    return (squared_edt(mask) <= float(radius * radius)).astype(np.uint8)


def extract_boundary(mask: np.ndarray) -> np.ndarray:
    """Boundary pixels of a binary mask under 4-connectivity.

    A foreground pixel is boundary iff at least one of its 4-neighbors
    is background or lies outside the grid.  Raises on an empty mask
    (an empty mask has no boundary to speak of).
    """
    mask = np.asarray(mask)
    validate_mask(mask, name="extract_boundary input")
    if not mask.any():
        raise EmptyMaskError("extract_boundary: mask has no foreground")
    fg = mask.astype(bool)
    # pad with background so grid edges count as background neighbors
    p = np.pad(fg, 1, mode="constant", constant_values=False)
    interior = p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
    return (fg & ~interior).astype(np.uint8)
