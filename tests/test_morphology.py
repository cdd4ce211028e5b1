"""Exact EDT, disk dilation and boundary extraction vs brute-force oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from fireuq.errors import EmptyMaskError, ValidationError
from fireuq.morphology import (
    _EDT_AT_BLOCK,
    dilate,
    edt,
    extract_boundary,
    squared_edt,
    squared_edt_at,
    squared_edt_within,
)
from fireuq.oracles import oracle_dilate, oracle_edt
from fireuq.protocol import MAX_RADIUS_PX
from fireuq.synth import ScenarioSpec, generate_scenario


def _random_mask(rng, h, w, p=0.2):
    return (rng.random((h, w)) < p).astype(np.uint8)


def test_disk_element_offset_counts():
    # dilating a lone pixel stamps the disk {(dy,dx): dy^2+dx^2 <= r^2};
    # its size for small radii
    m = np.zeros((9, 9), dtype=np.uint8)
    m[4, 4] = 1
    assert int(dilate(m, 0).sum()) == 1
    assert int(dilate(m, 1).sum()) == 5
    assert int(dilate(m, 2).sum()) == 13
    assert int(dilate(m, 3).sum()) == 29
    with pytest.raises(ValidationError):
        dilate(m, -1)


def test_edt_corner_example():
    m = np.zeros((4, 4), dtype=np.uint8)
    m[0, 0] = 1
    d = edt(m)
    assert d[0, 0] == 0.0
    assert d[0, 1] == 1.0
    assert d[1, 1] == pytest.approx(math.sqrt(2.0), abs=0.0)
    assert d[2, 2] == pytest.approx(math.sqrt(8.0), abs=0.0)
    assert d[3, 3] == pytest.approx(math.sqrt(18.0), abs=0.0)


def test_squared_edt_values_are_integers():
    rng = np.random.default_rng(7)
    m = _random_mask(rng, 11, 13)
    m[5, 6] = 1
    d2 = squared_edt(m)
    assert d2.dtype == np.float64
    assert (d2 == np.round(d2)).all()
    assert (d2[m.astype(bool)] == 0).all()


def _thin_and_full_masks(rng):
    """Random 1-row and 1-column masks, and all-foreground masks of
    random shape."""
    masks = []
    for _ in range(6):
        n = int(rng.integers(1, 90))
        for shape in ((1, n), (n, 1)):
            m = _random_mask(rng, *shape, p=float(rng.uniform(0.02, 0.5)))
            m.flat[int(rng.integers(n))] = 1
            masks.append(m)
        masks.append(np.ones(tuple(int(v) for v in rng.integers(1, 60, size=2)), dtype=np.uint8))
    return masks


def test_edt_matches_oracle_random_masks():
    rng = np.random.default_rng(42)
    masks = _thin_and_full_masks(rng)
    for _ in range(40):
        h = int(rng.integers(1, 17))
        w = int(rng.integers(1, 17))
        m = _random_mask(rng, h, w, p=float(rng.uniform(0.05, 0.6)))
        if not m.any():
            m[int(rng.integers(h)), int(rng.integers(w))] = 1
        masks.append(m)
    for m in masks:
        # both take sqrt of the same exact integer, so equality is bitwise
        assert (edt(m) == oracle_edt(m)).all()


def _column_cases():
    """Masks that stress the minimum over occupied columns: one pixel,
    one occupied column, empty columns between and beside occupied
    ones, thin and full grids, and sparse grids with many empty
    columns."""
    rng = np.random.default_rng(101)
    cases = {"1x1": np.ones((1, 1), dtype=np.uint8)}
    row = np.zeros((1, 23), dtype=np.uint8)
    row[0, [0, 7, 8, 22]] = 1
    cases["1xw"] = row
    col = np.zeros((19, 1), dtype=np.uint8)
    col[[3, 4, 18], 0] = 1
    cases["hx1"] = col
    cases["full"] = np.ones((9, 14), dtype=np.uint8)
    for name, (y, x) in {"tl": (0, 0), "tr": (0, 16), "bl": (12, 0), "br": (12, 16)}.items():
        m = np.zeros((13, 17), dtype=np.uint8)
        m[y, x] = 1
        cases[f"corner_{name}"] = m
    # occupied columns far apart, empty ones between them and at both edges
    far = np.zeros((21, 60), dtype=np.uint8)
    far[rng.integers(0, 21, 6), [3, 4, 29, 30, 55, 56]] = 1
    cases["far_columns"] = far
    # foreground drifting down the columns: each row's nearest column moves
    stair = np.zeros((17, 40), dtype=np.uint8)
    stair[np.arange(40) * 16 // 39, np.arange(40)] = 1
    cases["staircase"] = stair
    for h, w in ((64, 128), (128, 64)):
        m = (rng.random((h, w)) < 0.003).astype(np.uint8)
        m[h // 2, w // 3] = 1
        cases[f"sparse_{h}x{w}"] = m
    return cases


_COLUMN_CASES = _column_cases()


@pytest.mark.parametrize("name", sorted(_COLUMN_CASES))
def test_edt_and_dilate_match_oracles_on_column_edge_cases(name):
    m = _COLUMN_CASES[name]
    d2 = squared_edt(m)
    assert d2.dtype == np.float64
    assert (d2 == np.round(d2)).all()
    assert (edt(m) == oracle_edt(m)).all()
    for r in (0, 1, 3, 7):
        assert (dilate(m, r) == oracle_dilate(m, r)).all()


def test_edt_and_dilate_match_oracles_on_few_occupied_columns():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        h = int(rng.integers(1, 40))
        w = int(rng.integers(1, 40))
        m = np.zeros((h, w), dtype=np.uint8)
        n_cols = int(rng.integers(1, min(w, 5) + 1))
        for c in rng.choice(w, size=n_cols, replace=False):
            m[rng.integers(0, h, int(rng.integers(1, 4))), c] = 1
        assert (edt(m) == oracle_edt(m)).all()
        r = int(rng.integers(0, 9))
        assert (dilate(m, r) == oracle_dilate(m, r)).all()


@pytest.mark.parametrize("name", sorted(_COLUMN_CASES))
def test_squared_edt_at_equals_squared_edt_on_column_edge_cases(name):
    m = _COLUMN_CASES[name]
    pts = np.argwhere(np.ones_like(m))
    assert (squared_edt_at(m, pts) == squared_edt(m).ravel()).all()


def test_squared_edt_at_equals_squared_edt_at_any_points():
    """Random masks read at points in any order, repeated, and in
    numbers that fill many blocks."""
    rng = np.random.default_rng(31)
    for k in range(30):
        h, w = (int(v) for v in rng.integers(1, 70, size=2))
        m = _random_mask(rng, h, w, p=float(rng.uniform(0.002, 0.7)))
        m[int(rng.integers(h)), int(rng.integers(w))] = 1
        n = int(rng.integers(0, 3 * h * w))
        pts = np.stack([rng.integers(0, h, n), rng.integers(0, w, n)], axis=1)
        got = squared_edt_at(m, pts)
        assert got.dtype == np.float64
        assert (got == squared_edt(m)[pts[:, 0], pts[:, 1]]).all()
    for m in _thin_and_full_masks(rng):
        pts = np.argwhere(np.ones_like(m))[rng.permutation(m.size)]
        want = oracle_edt(m)[pts[:, 0], pts[:, 1]]
        assert (np.sqrt(squared_edt_at(m, pts)) == want).all()
    # as ASD reads it: at another mask's boundary, in raster order
    m = _random_mask(rng, 100, 120, p=0.3)
    other = extract_boundary(_random_mask(rng, 100, 120, p=0.5)).astype(bool)
    pts = np.argwhere(other)
    assert len(pts) * int(m.any(axis=0).sum()) > 5 * _EDT_AT_BLOCK
    assert (squared_edt_at(m, pts) == squared_edt(m)[other]).all()


def test_full_grid_at_every_pixel_and_within_h_plus_w_agree_at_benchmark_sizes():
    """Synth ground truths and their boundaries at 128x128 and 256x256,
    past the oracle's size guard: squared_edt, squared_edt_at at every
    pixel and squared_edt_within at radius h + w give the same bits."""
    for grid in (128, 256):
        for ev in generate_scenario(ScenarioSpec(rng_seed=11, grid_size=grid, n_fires=2)):
            for m in (ev.gt, extract_boundary(ev.gt)):
                h, w = m.shape
                want = squared_edt(m).tobytes()
                assert squared_edt_at(m, np.argwhere(np.ones_like(m))).tobytes() == want
                assert squared_edt_within(m, h + w).astype(np.float64).tobytes() == want


@pytest.mark.parametrize(
    "points", [[[0, -1]], [[5, 0]], [[0, 7]], [[0.0, 1.0]], [0, 1], [[0, 1, 2]]]
)
def test_squared_edt_at_rejects_points_off_the_grid(points):
    m = np.ones((5, 7), dtype=np.uint8)
    with pytest.raises(ValidationError):
        squared_edt_at(m, np.array(points))


def test_squared_edt_at_memory_is_bounded_by_blocks():
    """4M (point, column) pairs would take 32 MB per int64 temporary in
    one block; in blocks the peak stays near the column table's size."""
    rng = np.random.default_rng(37)
    m = _random_mask(rng, 200, 200, p=0.3)
    pts = np.stack([rng.integers(0, 200, 20000), rng.integers(0, 200, 20000)], axis=1)
    tracemalloc.start()
    try:
        squared_edt_at(m, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_edt_empty_mask_raises():
    with pytest.raises(EmptyMaskError):
        squared_edt(np.zeros((5, 5), dtype=np.uint8))
    with pytest.raises(EmptyMaskError):
        squared_edt_at(np.zeros((5, 5), dtype=np.uint8), np.zeros((1, 2), dtype=np.int64))
    with pytest.raises(EmptyMaskError):
        edt(np.zeros((5, 5), dtype=np.uint8))


def test_dilate_single_pixel_radius_two():
    m = np.zeros((7, 7), dtype=np.uint8)
    m[3, 3] = 1
    d = dilate(m, 2)
    assert int(d.sum()) == 13
    assert d[3, 1] == 1 and d[1, 3] == 1
    assert d[1, 1] == 0  # sqrt(8) > 2


def test_dilate_radius_zero_is_identity():
    rng = np.random.default_rng(3)
    m = _random_mask(rng, 9, 9)
    d = dilate(m, 0)
    assert (d == m).all()
    assert d is not m


def test_dilate_empty_mask_stays_empty():
    d = dilate(np.zeros((6, 6), dtype=np.uint8), 4)
    assert d.shape == (6, 6)
    assert not d.any()


def test_dilate_matches_oracle_random_masks():
    rng = np.random.default_rng(17)
    for _ in range(30):
        h = int(rng.integers(2, 15))
        w = int(rng.integers(2, 15))
        m = _random_mask(rng, h, w, p=0.15)
        r = int(rng.integers(0, 6))
        assert (dilate(m, r) == oracle_dilate(m, r)).all()


def test_dilate_is_monotone_in_radius():
    rng = np.random.default_rng(23)
    m = _random_mask(rng, 20, 20, p=0.1)
    m[10, 10] = 1
    prev = dilate(m, 0)
    for r in range(1, 8):
        cur = dilate(m, r)
        assert (cur >= prev).all()
        prev = cur


def test_dilate_saturates_to_full_grid():
    m = np.zeros((8, 8), dtype=np.uint8)
    m[4, 2] = 1
    assert dilate(m, 20).all()


def test_boundary_single_pixel_is_itself():
    m = np.zeros((5, 5), dtype=np.uint8)
    m[2, 2] = 1
    assert (extract_boundary(m) == m).all()


def test_boundary_strips_interior_of_solid_block():
    m = np.zeros((5, 5), dtype=np.uint8)
    m[1:4, 1:4] = 1
    b = extract_boundary(m)
    assert b[2, 2] == 0
    assert int(b.sum()) == 8


def test_boundary_of_full_grid_is_frame():
    m = np.ones((6, 7), dtype=np.uint8)
    b = extract_boundary(m)
    inner = b[1:-1, 1:-1]
    assert not inner.any()
    assert int(b.sum()) == 2 * 6 + 2 * 7 - 4


def test_boundary_subset_of_mask():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = _random_mask(rng, 12, 12, p=0.35)
        if not m.any():
            continue
        b = extract_boundary(m)
        assert (m[b.astype(bool)] == 1).all()


def test_boundary_empty_mask_raises():
    with pytest.raises(EmptyMaskError):
        extract_boundary(np.zeros((3, 3), dtype=np.uint8))


def test_squared_edt_within_is_exact_up_to_the_radius():
    """At radius 0, 1, small radii, past the diagonal, MAX_RADIUS_PX,
    2**40 and 2**70: the exact squared EDT wherever it is at most r*r,
    and a value above r*r everywhere else, as int64."""
    rng = np.random.default_rng(71)
    for k in range(60):
        h, w = (int(v) for v in rng.integers(1, 30, size=2))
        mask = (rng.random((h, w)) < rng.uniform(0.005, 0.3)).astype(np.uint8)
        mask[int(rng.integers(h)), int(rng.integers(w))] = 1
        full = squared_edt(mask).astype(np.int64)
        if k < 10:
            assert (full == np.rint(oracle_edt(mask) ** 2)).all()
        for r in (0, 1, int(rng.integers(2, 10)), h + w, MAX_RADIUS_PX):
            got = squared_edt_within(mask, r)
            assert got.dtype == np.int64
            inside = full <= r * r
            assert (got[inside] == full[inside]).all()
            assert (got[~inside] > r * r).all()
        # radii whose square overflows int64 cover the grid like h + w
        for r in (2**40, 2**70):
            got = squared_edt_within(mask, r)
            assert got.dtype == np.int64
            assert (got == full).all()
    with pytest.raises(EmptyMaskError):
        squared_edt_within(np.zeros((4, 4), dtype=np.uint8), 2)
    with pytest.raises(ValidationError):
        squared_edt_within(mask, -1)
