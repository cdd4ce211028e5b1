"""Exact EDT, disk dilation and boundary extraction vs brute-force oracles."""

import math

import numpy as np
import pytest

from fireuq.errors import EmptyMaskError, ValidationError
from fireuq.morphology import DiskElement, dilate, edt, extract_boundary, squared_edt
from fireuq.oracles import oracle_dilate, oracle_edt


def _random_mask(rng, h, w, p=0.2):
    return (rng.random((h, w)) < p).astype(np.uint8)


def test_disk_element_offset_counts():
    # |{(dy,dx): dy^2+dx^2 <= r^2}| for small radii
    assert len(DiskElement(0).offsets()) == 1
    assert len(DiskElement(1).offsets()) == 5
    assert len(DiskElement(2).offsets()) == 13
    assert len(DiskElement(3).offsets()) == 29
    with pytest.raises(ValidationError):
        DiskElement(-1)


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


def test_edt_matches_oracle_random_masks():
    rng = np.random.default_rng(42)
    for _ in range(40):
        h = int(rng.integers(1, 17))
        w = int(rng.integers(1, 17))
        m = _random_mask(rng, h, w, p=float(rng.uniform(0.05, 0.6)))
        if not m.any():
            m[int(rng.integers(h)), int(rng.integers(w))] = 1
        # both take sqrt of the same exact integer, so equality is bitwise
        assert (edt(m) == oracle_edt(m)).all()


def _envelope_cases():
    """Masks that stress the per-row parabola envelope of squared_edt."""
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
    # foreground drifting down the columns: rows pop deep into their stacks
    stair = np.zeros((17, 40), dtype=np.uint8)
    stair[np.arange(40) * 16 // 39, np.arange(40)] = 1
    cases["staircase"] = stair
    for h, w in ((64, 128), (128, 64)):
        m = (rng.random((h, w)) < 0.003).astype(np.uint8)
        m[h // 2, w // 3] = 1
        cases[f"sparse_{h}x{w}"] = m
    return cases


_ENVELOPE_CASES = _envelope_cases()


@pytest.mark.parametrize("name", sorted(_ENVELOPE_CASES))
def test_edt_and_dilate_match_oracles_on_envelope_edge_cases(name):
    m = _ENVELOPE_CASES[name]
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


def test_edt_empty_mask_raises():
    with pytest.raises(EmptyMaskError):
        squared_edt(np.zeros((5, 5), dtype=np.uint8))
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
