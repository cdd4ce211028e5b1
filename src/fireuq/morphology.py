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


def squared_edt(mask: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance to the nearest foreground pixel.

    Separable scheme.  A vertical scan gives G[y, u], the distance from
    (y, u) to the nearest foreground pixel in column u.  Each row then
    takes the lower envelope of the parabolas (x - u)^2 + G[y, u]^2
    (Felzenszwalb & Huttenlocher, "Distance Transforms of Sampled
    Functions", Theory of Computing 8, 2012; in the integer form of
    Meijster et al. 2000).  Only occupied columns carry parabolas, as an
    empty column has no finite G; their positions need not be adjacent.

    The envelope is built for all rows at once, in lock-step over the n
    occupied columns, with one stack per row; a parabola is pushed and
    popped at most once per row.  Each output pixel then finds its
    parabola with one searchsorted over all rows' breakpoints.  Cost:
    O(h*w) for the scans, O(h*n) for the envelope and O(h*w*log(h*n))
    for the search, against O(h*w*w) for a brute-force minimum over
    columns.

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

    inf = float(h * h + w * w + 1)

    # vertical pass: per column, distance to nearest foreground row
    g = np.full((h, w), inf)
    g[mask.astype(bool)] = 0.0
    for y in range(1, h):
        np.minimum(g[y], g[y - 1] + 1.0, out=g[y])
    for y in range(h - 2, -1, -1):
        np.minimum(g[y], g[y + 1] + 1.0, out=g[y])

    # horizontal pass: in row y the parabola of occupied column u is
    # x*x - 2*x*u + u*u + G[y, u]^2; b holds the last two terms, one row per column
    cols = np.flatnonzero(mask.any(axis=0))
    n = cols.size
    b = g[:, cols].T.astype(np.int64) ** 2 + (cols * cols)[:, None]
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
    column u, comes from a running max and min of foreground row indices
    down and up each occupied column.  Each point (y, x) then takes the
    minimum of (x - u)^2 + G[y, u]^2 over the n occupied columns u, the
    same integers whose minimum squared_edt finds by its parabola
    envelope, so the values are exact and bitwise equal.  The (point,
    column) pairs are formed in blocks of about _EDT_AT_BLOCK, which
    bounds memory.  Cost: O(h*n + len(points)*n), at most O(h*w*w) for
    any points, against O(h*w*log(h*n)) for the whole grid's transform;
    it is the cheaper of the two when the points are few, as boundary
    pixels are.  Raises ValidationError unless points are (n, 2) integer
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
    fg = mask.astype(bool)
    cols = np.flatnonzero(fg.any(axis=0))
    sub = fg[:, cols]
    rows = np.arange(h)[:, None]
    # nearest foreground row at or above, and at or below; the sentinels
    # lie more than h rows away, past any real one in an occupied column
    above = np.maximum.accumulate(np.where(sub, rows, -h), axis=0)
    below = np.minimum.accumulate(np.where(sub, rows, 2 * h)[::-1], axis=0)[::-1]
    g2 = np.minimum(rows - above, below - rows) ** 2
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


def within_disk(d2: np.ndarray, radius: int) -> np.ndarray:
    """Pixels at squared distance d2 <= radius^2, as a uint8 mask.

    With d2 = squared_edt(mask) this is the mask dilated by a disk of
    the integer radius, and at radius 0 it is the mask itself, since d2
    is 0 exactly on the foreground.
    """
    return (d2 <= float(radius * radius)).astype(np.uint8)


def dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Dilate a binary mask by a Euclidean disk of integer radius.

    Implemented by thresholding the exact squared distance transform at
    radius^2 (within_disk), which matches stamping the disk
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
    return within_disk(squared_edt(mask), radius)


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
