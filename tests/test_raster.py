"""Raster validation, center cropping and NPY round trips."""

import re
import shutil

import numpy as np
import pytest

import fireuq.raster as raster
from fireuq.errors import ParseError, ShapeError, ValidationError
from fireuq.raster import (
    MASK_DTYPE,
    PROB_DTYPE,
    FireEvent,
    GeoConfig,
    center_crop,
    load_array,
    load_dataset,
    read_years,
    save_array,
    save_event,
    scan_dataset,
    validate_mask,
    validate_probability_map,
)


def _prob(arr):
    return np.asarray(arr, dtype=PROB_DTYPE)


def _mask(arr):
    return np.asarray(arr, dtype=MASK_DTYPE)


def test_validate_probability_map_rejects_out_of_range():
    with pytest.raises(ValidationError):
        validate_probability_map(_prob([[0.2, 1.5]]))
    with pytest.raises(ValidationError):
        validate_probability_map(_prob([[-0.1, 0.5]]))


def test_validate_probability_map_rejects_nonfinite():
    with pytest.raises(ValidationError):
        validate_probability_map(np.array([[0.5, np.nan]], dtype=np.float32))
    with pytest.raises(ValidationError):
        validate_probability_map(np.array([[np.inf, 0.5]], dtype=np.float32))


def test_validate_probability_map_rejects_wrong_ndim():
    with pytest.raises(ShapeError):
        validate_probability_map(_prob([0.1, 0.2]))
    with pytest.raises(ShapeError):
        validate_probability_map(_prob(np.zeros((2, 2, 2))))


def test_validate_mask_rejects_non_binary():
    with pytest.raises(ValidationError):
        validate_mask(_mask([[0, 2]]))
    # float masks are fine only if every value is exactly 0 or 1
    validate_mask(np.array([[0.0, 1.0]]))
    with pytest.raises(ValidationError):
        validate_mask(np.array([[0.0, 0.5]]))
    # the verdict is np.isin's for every real dtype
    cases = [
        (np.array([[True, False]]), True),
        (np.array([[False, False]]), True),
        (_mask([[0, 1], [1, 1]]), True),
        (np.array([[0, 1, -1]], dtype=np.int8), False),
        (np.array([[0, 1, 2]], dtype=np.int8), False),
        (np.array([[1, 0]], dtype=np.int8), True),
        (np.array([[0.0, np.nan]]), False),
        (np.array([[-0.0, 1.0]]), True),
        (np.array([[1.0, 0.5]], dtype=np.float32), False),
    ]
    for arr, binary in cases:
        assert bool(np.isin(arr, (0, 1)).all()) == binary
        if binary:
            validate_mask(arr)
        else:
            with pytest.raises(ValidationError, match="exactly 0 or 1"):
                validate_mask(arr)


def test_geo_config_validation():
    cfg = GeoConfig()
    assert cfg.meters_per_pixel == 375.0
    assert cfg.crop_size == 128
    with pytest.raises(ValidationError):
        GeoConfig(meters_per_pixel=0.0)
    for mpp in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            GeoConfig(meters_per_pixel=mpp)
    with pytest.raises(ValidationError):
        GeoConfig(crop_size=0)


def test_center_crop_even_grid():
    g = np.arange(16).reshape(4, 4)
    c = center_crop(g, 2)
    assert c.tolist() == [[5, 6], [9, 10]]


def test_center_crop_odd_remainder_drops_bottom_right():
    # 5 -> 2 leaves an odd margin; offset is floor(3/2) = 1
    g = np.arange(25).reshape(5, 5)
    c = center_crop(g, 2)
    assert c.tolist() == [[6, 7], [11, 12]]


def test_center_crop_identity_and_errors():
    g = np.arange(9).reshape(3, 3)
    assert (center_crop(g, 3) == g).all()
    with pytest.raises(ValidationError):
        center_crop(g, 4)
    with pytest.raises(ValidationError):
        center_crop(g, 0)


def test_center_crop_applies_to_trailing_axes_of_stack():
    f = np.arange(2 * 4 * 4).reshape(2, 4, 4)
    c = center_crop(f, 2)
    assert c.shape == (2, 2, 2)
    assert (c[0] == center_crop(f[0], 2)).all()
    assert (c[1] == center_crop(f[1], 2)).all()


def test_center_crop_composition_matches_direct_when_margins_even():
    # cropping twice equals cropping once provided each step removes an
    # even margin, so the center never shifts
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(6, 24))
        g = rng.normal(size=(n, n))
        mid = n - 2 * int(rng.integers(1, (n - 2) // 2 + 1))
        small = mid - 2 * int(rng.integers(0, (mid - 1) // 2 + 1))
        if small < 1:
            continue
        once = center_crop(g, small)
        twice = center_crop(center_crop(g, mid), small)
        assert (once == twice).all()


def test_npy_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.random((17, 23)).astype(PROB_DTYPE)
    p = tmp_path / "a.npy"
    save_array(arr, p)
    back = load_array(p)
    assert back.dtype == PROB_DTYPE
    assert arr.tobytes() == back.tobytes()
    # header is NPY v1.0
    raw = p.read_bytes()
    assert raw[:8] == b"\x93NUMPY\x01\x00"


def _fire_dir(root, gt, members, features=None):
    """The fire directory root/2020/fire, holding the arrays as given, in
    any dtype."""
    d = root / "2020" / "fire"
    d.mkdir(parents=True)
    np.save(d / "gt.npy", gt)
    for k, m in enumerate(members):
        np.save(d / f"member_{k}.npy", m)
    if features is not None:
        np.save(d / "features.npy", features)
    return d


def _load_fire(fire_dir):
    """The one fire of a one-fire dataset root, read by load_dataset."""
    [ev] = load_dataset(fire_dir.parents[1])
    return ev


def test_npy_round_trip_mask(tmp_path):
    m = (np.random.default_rng(1).random((9, 9)) < 0.4).astype(MASK_DTYPE)
    d = tmp_path / "2020" / "fire"
    save_array(m, d / "gt.npy")
    for k in range(3):
        save_array(_prob(np.zeros((9, 9))), d / f"member_{k}.npy")
    back = _load_fire(d).gt
    assert back.dtype == MASK_DTYPE
    assert (back == m).all()
    # a bool or 0.0/1.0 float mask loads as the same uint8 mask
    for dtype in ("?", "<f8"):
        d = _fire_dir(tmp_path / dtype, m.astype(dtype), [_prob(np.zeros((9, 9)))] * 3)
        back = _load_fire(d).gt
        assert back.dtype == MASK_DTYPE
        assert back.tobytes() == m.tobytes()


def test_save_array_rejects_nonfinite(tmp_path):
    bad = np.array([[0.1, np.nan]], dtype=np.float32)
    with pytest.raises(ValidationError):
        save_array(bad, tmp_path / "bad.npy")
    assert not (tmp_path / "bad.npy").exists()


def test_save_array_normalizes_byte_order(tmp_path):
    arr = np.arange(6, dtype=">f4").reshape(2, 3)
    p = tmp_path / "be.npy"
    save_array(arr, p)
    back = load_array(p)
    assert back.dtype == PROB_DTYPE
    assert (back == arr.astype("<f4")).all()


@pytest.mark.parametrize("dtype", ["<c8", "<U3", "<M8[s]"])
def test_load_array_rejects_non_numeric_dtypes(tmp_path, dtype):
    p = tmp_path / "odd.npy"
    np.save(p, np.zeros((2, 3), dtype=dtype))
    with pytest.raises(ValidationError, match="not bool, integer or float"):
        load_array(p)


@pytest.mark.parametrize("dtype", ["<f2", ">f4", ">f8", "?", ">i2", "<u4"])
def test_probability_map_loads_any_real_dtype(tmp_path, dtype):
    arr = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=dtype)
    d = _fire_dir(tmp_path, _mask(np.eye(2)), [arr] * 3)
    back = _load_fire(d).members[0]
    assert back.dtype == PROB_DTYPE
    assert back.tobytes() == arr.astype(PROB_DTYPE).tobytes()


def test_load_array_rejects_garbage(tmp_path):
    p = tmp_path / "junk.npy"
    p.write_bytes(b"not an npy file at all")
    with pytest.raises(ParseError):
        load_array(p)


def _npy_with_header(path, shape, n_data_bytes, version=(1, 0)):
    """An NPY file whose header claims shape of float32, followed by
    n_data_bytes of data, written without building the array."""
    header = {"descr": "<f4", "fortran_order": False, "shape": shape}
    with open(path, "wb") as f:
        np.lib.format.write_array_header_1_0(f, header) if version == (1, 0) else \
            np.lib.format.write_array_header_2_0(f, header)
        f.write(bytes(n_data_bytes))
    return path


@pytest.mark.parametrize("shape, n_data_bytes", [
    ((10**7, 10**7), 16),  # 364 TiB claimed: refused before any allocation
    ((4, 4), 60),          # truncated data
    ((4, 4), 65),          # a byte past the data
])
def test_load_array_refuses_a_header_that_disagrees_with_the_file_size(
    tmp_path, shape, n_data_bytes
):
    p = _npy_with_header(tmp_path / "gt.npy", shape, n_data_bytes)
    with pytest.raises(ParseError, match="^" + re.escape(f"{p}: header claims shape {shape}")):
        load_array(p)


@pytest.mark.parametrize("version", [(1, 0), (2, 0)])
def test_load_array_reads_both_header_versions(tmp_path, version):
    p = _npy_with_header(tmp_path / "zeros.npy", (2, 3), 24, version)
    back = load_array(p)
    assert back.dtype == PROB_DTYPE and back.shape == (2, 3) and not back.any()


def test_load_dataset_rejects_out_of_range_member_file(tmp_path):
    d = tmp_path / "2020" / "fire"
    save_array(_mask([[0, 1]]), d / "gt.npy")
    save_array(np.array([[0.5, 0.9]], dtype=np.float32) * 2.0, d / "member_0.npy")
    for k in (1, 2):
        save_array(_prob([[0.1, 0.2]]), d / f"member_{k}.npy")
    with pytest.raises(ValidationError, match=re.escape(f"{d / 'member_0.npy'}: values")):
        _load_fire(d)


_GOOD_MEMBERS = [_prob([[0.1, 0.2]])] * 3


def _bad_gt(tmp_path):
    return _fire_dir(tmp_path, np.array([[0.0, 0.5]]), _GOOD_MEMBERS), "gt.npy"


def _bad_member(tmp_path):
    members = [_prob([[0.1, 0.2]]), np.array([[0.1, np.nan]]), _prob([[0.1, 0.2]])]
    return _fire_dir(tmp_path, _mask([[0, 1]]), members), "member_1.npy"


def _member_shape(tmp_path):
    members = [_prob([[0.1], [0.2]]), *_GOOD_MEMBERS[1:]]
    return _fire_dir(tmp_path, _mask([[0, 1]]), members), "member_0.npy"


def _bad_features(tmp_path):
    # float64 beyond float32's range: non-finite once cast, with no warning
    features = np.array([[[0.0, 1e39]]])
    return _fire_dir(tmp_path, _mask([[0, 1]]), _GOOD_MEMBERS, features), "features.npy"


def _features_shape(tmp_path):
    features = np.zeros((2, 2, 2))
    return _fire_dir(tmp_path, _mask([[0, 1]]), _GOOD_MEMBERS, features), "features.npy"


@pytest.mark.parametrize("make", [_bad_gt, _bad_member, _member_shape, _bad_features,
                                  _features_shape], ids=lambda f: f.__name__.strip("_"))
def test_loaded_event_errors_name_the_file(tmp_path, make):
    d, name = make(tmp_path)
    with pytest.raises(ValidationError, match="^" + re.escape(f"{d / name}: ")):
        _load_fire(d)


def test_fire_event_casts_rasters_once_checked():
    rng = np.random.default_rng(4)
    gt = rng.random((6, 7)) < 0.4
    members = [rng.random((6, 7)) for _ in range(3)]
    features = rng.normal(size=(2, 6, 7))
    ev = FireEvent(id="f", year=2020, gt=gt, members=members, features=features)
    assert ev.gt.dtype == MASK_DTYPE
    assert ev.gt.tobytes() == gt.astype(MASK_DTYPE).tobytes()
    assert [m.dtype for m in ev.members] == [PROB_DTYPE] * 3
    for m, raw in zip(ev.members, members):
        assert m.tobytes() == raw.astype(PROB_DTYPE).tobytes()
    assert ev.features.dtype == PROB_DTYPE
    assert ev.features.tobytes() == features.astype(PROB_DTYPE).tobytes()
    # arrays already in their dtype are kept, not copied
    kept = FireEvent(id="g", year=2020, gt=ev.gt, members=ev.members, features=ev.features)
    assert kept.gt is ev.gt and kept.features is ev.features
    assert all(a is b for a, b in zip(kept.members, ev.members))


def test_fire_event_checks_before_casting():
    # a 0.5 in a float mask must not become 0, nor 1.5 a member value below 2
    with pytest.raises(ValidationError, match="^f/gt: "):
        FireEvent(id="f", year=2020, gt=np.array([[0.5, 1.0]]), members=[_prob([[0.1, 0.2]])])
    with pytest.raises(ValidationError, match="^f/member_0: "):
        FireEvent(id="f", year=2020, gt=_mask([[0, 1]]), members=[np.array([[0.1, 1.5]])])
    with pytest.raises(ValidationError, match="^f/features: contains NaN or Inf"):
        FireEvent(id="f", year=2020, gt=_mask([[0, 1]]), members=[_prob([[0.1, 0.2]])],
                  features=np.array([[[-1e39, 0.0]]]))


def test_fire_event_shape_validation():
    gt = _mask(np.zeros((4, 4)))
    gt[1, 1] = 1
    good = _prob(np.full((4, 4), 0.5))
    FireEvent(id="f", year=2020, gt=gt, members=[good])
    with pytest.raises(ShapeError):
        FireEvent(id="f", year=2020, gt=gt, members=[_prob(np.zeros((4, 5)))])
    with pytest.raises(ValidationError):
        FireEvent(id="f", year=2020, gt=gt, members=[])
    with pytest.raises(ShapeError):
        FireEvent(
            id="f", year=2020, gt=gt, members=[good],
            features=_prob(np.zeros((2, 5, 5))),
        )


def _demo_event(fire_id, year, seed, n_members=3, size=8, with_features=True):
    rng = np.random.default_rng(seed)
    gt = _mask(rng.random((size, size)) < 0.3)
    gt[size // 2, size // 2] = 1
    members = [_prob(rng.random((size, size))) for _ in range(n_members)]
    features = _prob(rng.normal(size=(n_members + 1, size, size))) if with_features else None
    return FireEvent(id=fire_id, year=year, gt=gt, members=members, features=features)


def test_save_event_load_dataset_round_trip(tmp_path):
    ev = _demo_event("fire_000", 2019, seed=3)
    save_event(tmp_path, ev)
    back = _load_fire(tmp_path / "2019" / "fire_000")
    assert back.id == "fire_000"
    assert back.year == 2019
    assert (back.gt == ev.gt).all()
    assert len(back.members) == len(ev.members)
    for a, b in zip(ev.members, back.members):
        assert a.tobytes() == b.tobytes()
    assert back.features.tobytes() == ev.features.tobytes()
    fire_dir = tmp_path / "2019" / "fire_000"
    assert back.files == (fire_dir / "gt.npy", fire_dir / "member_0.npy",
                          fire_dir / "member_1.npy", fire_dir / "member_2.npy",
                          fire_dir / "features.npy")


def test_member_ordering_is_numeric_not_lexicographic(tmp_path):
    size = 4
    gt = _mask(np.eye(size))
    # an odd count past 10, so member_10 sorts before member_2 as text
    members = [_prob(np.full((size, size), (k + 1) / 16.0)) for k in range(11)]
    ev = FireEvent(id="big", year=2020, gt=gt, members=members)
    save_event(tmp_path, ev)
    back = _load_fire(tmp_path / "2020" / "big")
    assert len(back.members) == 11
    for k, m in enumerate(back.members):
        assert float(m[0, 0]) == pytest.approx((k + 1) / 16.0)


def test_scan_dataset_requires_contiguous_member_indices(tmp_path):
    d = tmp_path / "2020" / "gap"
    save_array(_mask(np.eye(3)), d / "gt.npy")
    for k in (0, 1, 3):
        save_array(_prob(np.zeros((3, 3))), d / f"member_{k}.npy")
    with pytest.raises(ValidationError, match=re.escape(
            f"{d}: member indices not contiguous from 0: [0, 1, 3]")):
        scan_dataset(tmp_path)


def test_scan_dataset_refuses_a_fire_without_gt(tmp_path):
    d = tmp_path / "2020" / "nogt"
    for k in range(3):
        save_array(_prob(np.zeros((3, 3))), d / f"member_{k}.npy")
    with pytest.raises(ValidationError, match=re.escape(f"{d}: missing gt.npy")):
        scan_dataset(tmp_path)


def test_load_dataset_sorted_and_consistent(tmp_path):
    save_event(tmp_path, _demo_event("b_fire", 2019, seed=1))
    save_event(tmp_path, _demo_event("a_fire", 2019, seed=2))
    save_event(tmp_path, _demo_event("c_fire", 2018, seed=3))
    events = load_dataset(tmp_path)
    assert [(e.year, e.id) for e in events] == [
        (2018, "c_fire"), (2019, "a_fire"), (2019, "b_fire"),
    ]


@pytest.mark.parametrize("features", [True, False])
def test_load_dataset_is_the_flattened_per_year_reader(tmp_path, features):
    """load_dataset holds what read_years gives, year by year, under a
    crop that cuts nothing: the same fires and rasters, and each fire's
    stack.  A layout scanned with features=False reads the same fires
    and rasters, and lists no features.npy among their files."""
    for i, year in enumerate((2019, 2018, 2019, 2021)):
        save_event(tmp_path, _demo_event(f"fire_{i}", year, seed=i))
    (tmp_path / "2020").mkdir()  # a year without fires yields nothing
    layout = scan_dataset(tmp_path, features)
    assert list(layout) == [2018, 2019, 2021]
    loaded = load_dataset(tmp_path)
    events = iter(loaded)
    years = []
    for year_events, stacks in read_years(layout, 8):
        years.append([ev.year for ev in year_events])
        stacked = stacks() if features else [None] * len(year_events)
        for b, a, stack in zip(year_events, events, stacked):
            files = a.files if features else a.files[:-1]
            assert (a.year, a.id, files) == (b.year, b.id, b.files)
            assert a.gt.tobytes() == b.gt.tobytes()
            assert [m.tobytes() for m in a.members] == [m.tobytes() for m in b.members]
            assert a.features is not None and (stack is None) == (not features)
            if features:
                assert a.features.tobytes() == stack.tobytes()
    assert years == [[2018], [2019, 2019], [2021]]
    assert next(events, None) is None
    assert [f.paths for fires in layout.values() for f in fires] == [
        ev.files if features else ev.files[:-1] for ev in loaded]


def test_scan_dataset_checks_every_fire_before_reading_any(tmp_path):
    """A layout fault in the last year is reported although an earlier
    year's gt.npy does not parse: the scan reads no array."""
    for i, year in enumerate((2018, 2019)):
        save_event(tmp_path, _demo_event(f"fire_{i}", year, seed=i))
    (tmp_path / "2018" / "fire_0" / "gt.npy").write_bytes(b"not an NPY file")
    (tmp_path / "2019" / "fire_1" / "gt.npy").unlink()
    with pytest.raises(ValidationError, match="missing gt.npy"):
        scan_dataset(tmp_path)
    with pytest.raises(ValidationError, match="missing gt.npy"):
        load_dataset(tmp_path)


def test_read_years_without_features_leaves_them_unread(tmp_path):
    save_event(tmp_path, _demo_event("fire_0", 2019, seed=1))
    features = tmp_path / "2019" / "fire_0" / "features.npy"
    full = load_dataset(tmp_path)
    features.write_bytes(b"not an NPY file")  # never opened below
    years = read_years(scan_dataset(tmp_path, features=False), 8)
    [ev], _stacks = next(years)  # the year's members are held until the next one
    assert ev.features is None
    assert ev.files == full[0].files[:-1]
    assert [m.tobytes() for m in ev.members] == [m.tobytes() for m in full[0].members]


def test_load_dataset_rejects_inconsistent_member_counts(tmp_path):
    save_event(tmp_path, _demo_event("f0", 2019, seed=1, n_members=3))
    save_event(tmp_path, _demo_event("f1", 2019, seed=2, n_members=4))
    with pytest.raises(ValidationError):
        load_dataset(tmp_path)


def test_load_dataset_validates_each_file_once(tmp_path, monkeypatch):
    for i, year in enumerate((2018, 2019, 2019)):
        save_event(tmp_path, _demo_event(f"fire_{i}", year, seed=i))
    calls = {}
    for fn in ("validate_mask", "validate_probability_map", "validate_features"):
        def counted(arr, name, _fn=getattr(raster, fn), _key=fn):
            calls.setdefault(_key, []).append(name)
            return _fn(arr, name)
        monkeypatch.setattr(raster, fn, counted)
    events = load_dataset(tmp_path)
    files = [str(p) for ev in events for p in ev.files]
    assert sorted(calls["validate_mask"]) == sorted(f for f in files if f.endswith("gt.npy"))
    assert sorted(calls["validate_probability_map"]) == sorted(
        f for f in files if "member_" in f)
    assert len(calls["validate_probability_map"]) == 9
    assert sorted(calls["validate_features"]) == sorted(
        f for f in files if f.endswith("features.npy"))


def test_scan_dataset_refuses_two_files_for_one_member_index(tmp_path):
    save_event(tmp_path, _demo_event("fire", 2020, seed=5))
    d = tmp_path / "2020" / "fire"
    shutil.copyfile(d / "member_1.npy", d / "member_001.npy")
    pattern = f"{d / 'member_001.npy'}: member index 1 is also parsed from {d / 'member_1.npy'}"
    with pytest.raises(ValidationError, match="^" + re.escape(pattern) + "$"):
        scan_dataset(tmp_path)


def test_load_dataset_refuses_two_directories_for_one_year(tmp_path):
    save_event(tmp_path, _demo_event("a", 2019, seed=1))
    save_event(tmp_path, _demo_event("b", 2020, seed=2))
    shutil.copytree(tmp_path / "2020", tmp_path / "002020")
    pattern = f"{tmp_path / '002020'}: year 2020 is also parsed from {tmp_path / '2020'}"
    with pytest.raises(ValidationError, match="^" + re.escape(pattern) + "$"):
        load_dataset(tmp_path)


def test_load_dataset_rejects_empty_root(tmp_path):
    with pytest.raises(ValidationError):
        load_dataset(tmp_path)
    (tmp_path / "notayear").mkdir()
    # a digit that int() cannot parse names no year either
    (tmp_path / "²").mkdir()
    with pytest.raises(ValidationError, match="no <year> directories"):
        load_dataset(tmp_path)
