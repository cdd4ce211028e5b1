"""Binary morphology on rasters: exact Euclidean distance transforms,
disk dilation and 4-connected boundary extraction.

The distance transform is exact (not chamfer / not sampled): squared
distances are computed as integers held in float64, so thresholding at
r*r is free of rounding artefacts and dilation by a disk of radius r
agrees exactly with brute-force disk stamping.
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
    Each row then takes the lower envelope of the parabolas
    (x - u)^2 + G[y, u]^2 (Felzenszwalb & Huttenlocher, "Distance
    Transforms of Sampled Functions", Theory of Computing 8, 2012; in the
    integer form of Meijster et al. 2000).  Only occupied columns carry parabolas, as an
    empty column has no finite G; their positions need not be adjacent.

    The envelope is built for all rows at once, in lock-step over the n
    occupied columns, with one stack per row; a parabola is pushed and
    popped at most once per row.  Each output pixel then finds its
    parabola with one searchsorted over all rows' breakpoints.  Cost:
    O(h*w) for the column pass, O(h*n) for the envelope and
    O(h*w*log(h*n)) for the search, against O(h*w*w) for a brute-force
    minimum over columns.

    Exactness: the breakpoint of a parabola is the first integer x at
    which it is strictly lower than the one below it on the stack, an
    integer floor division; whether a parabola is popped is an integer
    comparison at that x; and each output is the integer
    (x - u)^2 + G^2.  All of it is int64 arithmetic, so the result is the
    exact integer minimum, returned as float64.  An all-zero mask has no
    finite distances and raises.
    """
    mask = np.asarray(mask)
    validate_mask(mask, name="squared_edt input")
    h, w = mask.shape
    if not mask.any():
        raise EmptyMaskError("squared_edt: mask has no foreground")

    # row pass: in row y the parabola of occupied column u is
    # x*x - 2*x*u + u*u + G[y, u]^2; b holds the last two terms, one row per column
    cols, g2 = _column_distances(mask)
    n = cols.size
    b = np.ascontiguousarray((g2 + cols * cols).T)
    # per-row stacks, row y at y*m + k: apex column, its b, first x it wins;
    # slot n takes the writes of rows that do not push
    m = n + 1
    base = np.arange(h) * m
    apex = np.zeros(h * m, dtype=np.int64)
    apex_b = np.zeros(h * m, dtype=np.int64)
    start = np.zeros(h * m, dtype=np.int64)
    apex[base] = cols[0]
    apex_b[base] = b[0]
    k = np.zeros(h, dtype=np.int64)
    for j in range(1, n):
        u = int(cols[j])
        bu = b[j]
        top = base + k
        first = (bu - apex_b[top]) // (2 * (u - apex[top])) + 1
        pop = np.flatnonzero(first <= start[top])
        while pop.size:
            k[pop] -= 1
            if k[pop].min() < 0:  # stack emptied: u is lowest from x = 0 on
                first[pop[k[pop] < 0]] = 0
                pop = pop[k[pop] >= 0]
            top = base[pop] + k[pop]
            first[pop] = (bu[pop] - apex_b[top]) // (2 * (u - apex[top])) + 1
            pop = pop[first[pop] <= start[top]]
        push = first < w
        k += push
        top = base + np.where(push, k, n)
        apex[top] = u
        apex_b[top] = bu
        start[top] = first

    # breakpoints strictly increase within a row and lie in [0, w), so an
    # offset of y*w per row makes them one sorted array
    live = (np.arange(m) <= k[:, None]).ravel()
    offset = np.arange(h)[:, None] * w
    xs = np.arange(w)
    breaks = (start.reshape(h, m) + offset).ravel()[live]
    which = np.flatnonzero(live)[
        np.searchsorted(breaks, (xs + offset).ravel(), side="right") - 1
    ].reshape(h, w)
    return (xs * (xs - 2 * apex[which]) + apex_b[which]).astype(np.float64)


def squared_edt_at(mask: np.ndarray, points: np.ndarray) -> np.ndarray:
    """squared_edt(mask) read at the pixels points, an (n, 2) integer
    array of (row, col) inside the grid, in the order of points.

    G[y, u], the distance from (y, u) to the nearest foreground pixel in
    column u, comes from the column pass squared_edt also uses
    (_column_distances).  Each point (y, x) then takes the minimum of
    (x - u)^2 + G[y, u]^2 over the n occupied columns u, the integers
    whose minimum squared_edt finds by its parabola envelope, so the
    values are exact and bitwise equal.  The (point, column) pairs are
    formed in blocks of about _EDT_AT_BLOCK, which bounds memory.  Cost:
    O(h*n + len(points)*n), at most O(h*w*w) for any points, against
    O(h*w*log(h*n)) for the whole grid's transform; it is the cheaper of
    the two when the points are few, as boundary pixels are.  Raises ValidationError unless points are (n, 2) integer
    pixels of the grid (a negative index would wrap), and EmptyMaskError
    on an all-zero mask.
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
