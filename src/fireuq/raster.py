"""Grid data types, center-cropping and bit-exact NPY array I/O.

All rasters are numpy arrays: probability maps are 2-D float32 in
[0, 1], masks are 2-D uint8 in {0, 1}, feature stacks are 3-D float32
laid out (C, H, W).  FireEvent owns that contract: its constructor
checks each raster's shape and values, then casts it to its dtype, and
names the file the raster came from in every error.  The loaders only
parse, except read_features, which runs FireEvent's feature checks on
a features.npy so that a stack can be read apart from its fire.  A
center crop that cuts an axis is a copy, so a kept crop does not hold
its uncropped raster.  Files use the NPY v1.0 format, little-endian, C-order, so a
save/load round trip reproduces values bit-exactly.  Only bool, integer
and float dtypes load; anything else is rejected with its path.

Dataset directory layout::

    <root>/<year>/<fire_id>/gt.npy
    <root>/<year>/<fire_id>/member_<k>.npy      k = 0..n-1
    <root>/<year>/<fire_id>/features.npy        optional, (C, H, W)

Each year and each member index comes from one path: ``2020/`` beside
``02020/``, or ``member_0.npy`` beside ``member_00.npy``, is refused.
``distill`` also writes ``student_unc.npy`` beside each fire; it is an
output, and nothing here reads it.

Reading has two steps.  scan_dataset checks the whole layout (year and
fire directories, gt.npy, contiguous member indices, one odd member
count of at least 3) before any array is read, so of two faults in one
root a layout fault is reported before a parse fault.  read_years, the
one pack reader of the commands, then parses and crops one year's gt
and member maps at a time, and hands out the year's feature stacks as
a stream that parses, checks and crops one features.npy at a time,
after all of that year's member maps.  So every command reports a bad
member map before a bad features.npy of the same year, and holds one
year of member maps and, unless it keeps them, one fire's stack.
load_dataset reads every fire at once, uncropped and with its
features.  Each loaded FireEvent lists the files it was parsed from,
which is what manifests digest.  load_array reads an NPY header before
its data and refuses a header whose shape and dtype do not match the
bytes the file holds, so a forged shape allocates nothing.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeError, ValidationError

PROB_DTYPE = np.dtype("<f4")
MASK_DTYPE = np.dtype("|u1")

_MEMBER_RE = re.compile(r"^member_(\d+)\.npy$")


@dataclass(frozen=True)
class GeoConfig:
    """Pixel geometry of the rasters under evaluation."""

    meters_per_pixel: float = 375.0
    crop_size: int = 128

    def __post_init__(self):
        if not (np.isfinite(self.meters_per_pixel) and self.meters_per_pixel > 0):
            raise ValidationError("meters_per_pixel must be finite and > 0")
        if self.crop_size < 1:
            raise ValidationError("crop_size must be >= 1")


@dataclass
class FireEvent:
    """One evaluation sample: ground truth plus per-member predictions.

    Rasters must all share the same height/width; ``members`` is ordered
    by member index and that order is stable across runs.  ``files`` are
    the paths the event was loaded from, empty for an event built in
    memory.
    """

    id: str
    year: int
    gt: np.ndarray
    members: list[np.ndarray]
    features: np.ndarray | None = None
    files: tuple[Path, ...] = ()

    def __post_init__(self):
        def name(i: int, role: str) -> str:
            return str(self.files[i]) if self.files else f"{self.id}/{role}"

        self.gt = validate_mask(self.gt, name(0, "gt")).astype(MASK_DTYPE, copy=False)
        if len(self.members) < 1:
            raise ValidationError(f"fire {self.id}: needs at least one member map")
        shape = self.gt.shape
        for k, m in enumerate(self.members):
            m_name = name(1 + k, f"member_{k}")
            validate_probability_map(m, m_name)
            if m.shape != shape:
                raise ShapeError(f"{m_name}: shape {m.shape} != gt shape {shape}")
        self.members = [m.astype(PROB_DTYPE, copy=False) for m in self.members]
        if self.features is not None:
            self.features = _checked_features(
                self.features, name(1 + len(self.members), "features"), shape
            )


def _require_finite(arr: np.ndarray, name: str):
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name}: contains NaN or Inf")


def validate_probability_map(arr: np.ndarray, name: str = "probability map") -> np.ndarray:
    if arr.ndim != 2:
        raise ShapeError(f"{name}: expected 2-D array, got {arr.ndim}-D")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name}: empty dimension in shape {arr.shape}")
    _require_finite(arr, name)
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValidationError(f"{name}: values outside [0, 1]")
    return arr


def validate_mask(arr: np.ndarray, name: str = "mask") -> np.ndarray:
    if arr.ndim != 2:
        raise ShapeError(f"{name}: expected 2-D array, got {arr.ndim}-D")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name}: empty dimension in shape {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValidationError(f"{name}: mask values must be exactly 0 or 1")
    return arr


def validate_features(arr: np.ndarray, name: str = "features") -> np.ndarray:
    if arr.ndim != 3:
        raise ShapeError(f"{name}: expected 3-D (C, H, W) array, got {arr.ndim}-D")
    _require_finite(arr, name)
    return arr


def _checked_features(arr: np.ndarray, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """arr cast to float32, refused unless it is a finite (C, H, W) stack
    whose (H, W) is shape; name is the file named in every error."""
    # cast first, so a value beyond float32's range fails as non-finite
    with np.errstate(over="ignore"):
        arr = arr.astype(PROB_DTYPE, copy=False)
    validate_features(arr, name)
    if arr.shape[1:] != shape:
        raise ShapeError(f"{name}: shape {arr.shape[1:]} != gt shape {shape}")
    return arr


def center_crop(grid: np.ndarray, crop_size: int) -> np.ndarray:
    """Return the centered crop_size x crop_size window of a 2-D or 3-D grid.

    When (dim - crop_size) is odd the extra pixel is dropped from the
    bottom/right: offsets are floor((dim - crop)/2) on each axis.  3-D
    inputs are cropped on their trailing two axes.
    """
    if crop_size < 1:
        raise ValidationError("crop_size must be >= 1")
    h, w = grid.shape[-2], grid.shape[-1]
    if crop_size > h:
        raise ValidationError(f"crop_size {crop_size} exceeds height {h}")
    if crop_size > w:
        raise ValidationError(f"crop_size {crop_size} exceeds width {w}")
    return center_crop_at_most(grid, crop_size)


def center_crop_at_most(grid: np.ndarray, crop_size: int) -> np.ndarray:
    """center_crop, except that an axis shorter than crop_size stays whole.

    A crop that cuts an axis is a copy, so it does not keep the whole
    grid alive; a crop that cuts nothing is the grid itself."""
    oy, ox = (max(d - crop_size, 0) // 2 for d in grid.shape[-2:])
    crop = grid[..., oy : oy + crop_size, ox : ox + crop_size]
    return grid if crop.shape == grid.shape else crop.copy()


def save_array(arr: np.ndarray, path: str | Path):
    """Write an array as NPY v1.0, little-endian, C-order.

    Probability/uncertainty rasters and feature stacks go out as float32,
    masks as uint8; the caller is responsible for having cast already.
    Non-finite values are rejected so they can never round-trip.
    """
    if arr.dtype.kind == "f":
        _require_finite(arr, str(path))
    out = np.ascontiguousarray(arr)
    if out.dtype.byteorder == ">":
        out = out.astype(out.dtype.newbyteorder("<"))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        np.lib.format.write_array(f, out, version=(1, 0), allow_pickle=False)


def load_array(path: str | Path) -> np.ndarray:
    """Read a bool, integer or float NPY file (format version 1.0 or 2.0).

    The header is read first, and a shape whose byte count differs from
    the bytes after the header is refused before anything is allocated,
    so a header claiming a huge shape costs nothing."""
    path = Path(path)
    try:
        with open(path, "rb") as f:
            version = np.lib.format.read_magic(f)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(f)
            else:
                raise ValueError(f"NPY format version {version} is not supported")
            count = math.prod(shape)
            held = os.fstat(f.fileno()).st_size - f.tell()
            if count * dtype.itemsize != held:
                raise ParseError(f"{path}: header claims shape {shape} of {dtype}, "
                                 f"{count * dtype.itemsize} bytes, but the file holds {held}")
            # as numpy's read_array reads a file's data (an object dtype
            # raises ValueError), without parsing the header again
            arr = np.fromfile(f, dtype=dtype, count=count)
            arr = arr.reshape(shape[::-1]).T if fortran else arr.reshape(shape)
    except FileNotFoundError:
        raise
    except (ValueError, OSError, EOFError) as exc:
        raise ParseError(f"{path}: not a readable NPY array ({exc})") from exc
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{path}: dtype {arr.dtype} is not bool, integer or float")
    return arr


def _by_number(numbered, what: str) -> dict[int, Path]:
    """{number: path} in number order from (number, path) pairs.  Two
    paths spelling one number (``7`` and ``07``) are refused, naming the
    longer spelling first."""
    out: dict[int, Path] = {}
    for n, p in sorted(numbered, key=lambda t: (t[0], len(t[1].name), t[1].name)):
        if n in out:
            raise ValidationError(f"{p}: {what} {n} is also parsed from {out[n]}")
        out[n] = p
    return out


@dataclass(frozen=True)
class FireFiles:
    """The files of one fire, as the layout scan found them: gt.npy, the
    member maps in index order, and features.npy, or None when it is
    absent or not to be read."""

    id: str
    year: int
    gt: Path
    members: tuple[Path, ...]
    features: Path | None

    @property
    def paths(self) -> tuple[Path, ...]:
        return (self.gt, *self.members, *([] if self.features is None else [self.features]))


def _scan_fire(fire_dir: Path, year: int, features: bool) -> FireFiles:
    """The files of one fire directory, its layout checked, none read."""
    gt_path = fire_dir / "gt.npy"
    if not gt_path.exists():
        raise ValidationError(f"{fire_dir}: missing gt.npy")
    member_paths = _by_number(
        ((int(m.group(1)), p) for p in fire_dir.iterdir() if (m := _MEMBER_RE.match(p.name))),
        "member index",
    )
    if not member_paths:
        raise ValidationError(f"{fire_dir}: no member_<k>.npy files")
    indices = list(member_paths)
    if indices != list(range(len(indices))):
        raise ValidationError(f"{fire_dir}: member indices not contiguous from 0: {indices}")
    fpath = fire_dir / "features.npy"
    return FireFiles(
        id=fire_dir.name, year=year, gt=gt_path, members=tuple(member_paths.values()),
        features=fpath if features and fpath.exists() else None,
    )


def read_features(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    """Parse a features.npy as a float32 (C, H, W) stack whose (H, W) is
    its fire's shape, naming path in every error."""
    return _checked_features(load_array(path), str(path), shape)


def _read_fire(files: FireFiles) -> FireEvent:
    """Parse the gt.npy and member maps of one scanned fire into a
    FireEvent; its features.npy, if any, is left to read_features."""
    return FireEvent(
        id=files.id, year=files.year, gt=load_array(files.gt),
        members=[load_array(p) for p in files.members], files=files.paths,
    )


def scan_dataset(root: str | Path, features: bool = True) -> dict[int, list[FireFiles]]:
    """Check the layout of every fire under <root>/<year>/<fire_id>/ and
    return its files, {year: fires sorted by id} in year order, without
    reading any array.  Years without fires are left out.  Every fire
    needs gt.npy and members numbered contiguously from 0, and all fires
    one member count, odd and at least 3.  features=False leaves every
    features.npy out."""
    root = Path(root)
    if not root.is_dir():
        raise ValidationError(f"dataset root {root} is not a directory")
    year_dirs = _by_number(
        ((int(d.name), d) for d in root.iterdir() if d.is_dir() and d.name.isdecimal()),
        "year",
    )
    if not year_dirs:
        raise ValidationError(f"dataset root {root}: no <year> directories")
    layout = {}
    for year, ydir in year_dirs.items():
        fires = [_scan_fire(d, year, features) for d in sorted(ydir.iterdir()) if d.is_dir()]
        if fires:
            layout[year] = fires
    if not layout:
        raise ValidationError(f"dataset root {root}: no fire directories")
    n_members = {len(f.members) for fires in layout.values() for f in fires}
    if len(n_members) > 1:
        raise ValidationError(f"dataset root {root}: inconsistent member counts {sorted(n_members)}")
    n = n_members.pop()
    if n < 3 or n % 2 == 0:
        raise ValidationError(f"dataset root {root}: member count {n}; the ensemble needs "
                              "at least 2 members and the middle-AP member an odd count")
    return layout


def _read_stacks(
    fires: list[FireFiles], shapes: list, crop_size: int,
    channels: int | None = None, source: str | Path | None = None,
):
    """The feature stack of each fire, parsed against its uncropped
    shape, refused unless it has the channel count of source (channels,
    or when that is None the first stack's), and then center-cropped to
    at most crop_size per axis."""
    for f, shape in zip(fires, shapes):
        stack = read_features(f.features, shape)
        if channels is None:
            channels, source = stack.shape[0], f.features
        elif stack.shape[0] != channels:
            raise ShapeError(
                f"{f.features}: {stack.shape[0]} feature channels, {source} has {channels}"
            )
        # yielded from a list, so this frame names no stack while the caller
        # holds it and the next one is read
        held = [center_crop_at_most(stack, crop_size)]
        del stack
        yield held.pop()


def read_years(layout: dict[int, list[FireFiles]], crop_size: int):
    """Yield (events, stacks) per year of a scanned layout.  events are
    the year's fires, their gt and member maps parsed and center-cropped
    in place to at most crop_size per axis (a crop of a valid raster is
    valid).  Each call of stacks returns a fresh iterator over the year's
    feature stacks, in fire order, each parsed by read_features against
    its fire's uncropped (H, W) and cropped like the rasters; every fire
    must have a features.npy when it is called.  stacks(channels,
    source) refuses a stack of another channel count than source's, and
    stacks() one of another count than the year's first stack, naming
    both files.  The year's events drop
    their member maps when the next year is requested or the reader is
    exhausted."""
    for fires in layout.values():
        events = [_read_fire(f) for f in fires]
        shapes = [ev.gt.shape for ev in events]
        for ev in events:
            ev.gt = center_crop_at_most(ev.gt, crop_size)
            ev.members = [center_crop_at_most(m, crop_size) for m in ev.members]
        yield events, partial(_read_stacks, fires, shapes, crop_size)
        for ev in events:
            ev.members.clear()


def load_dataset(root: str | Path) -> list[FireEvent]:
    """Load every fire under <root>/<year>/<fire_id>/, uncropped and
    sorted by (year, id), each with its feature stack if it has a
    features.npy."""
    events = []
    for fires in scan_dataset(root).values():
        for f in fires:
            ev = _read_fire(f)
            if f.features is not None:
                ev.features = read_features(f.features, ev.gt.shape)
            events.append(ev)
    return events


def save_event(root: str | Path, event: FireEvent):
    """Write one fire in the dataset layout under <root>/<year>/<fire_id>/."""
    fire_dir = Path(root) / str(event.year) / event.id
    save_array(event.gt, fire_dir / "gt.npy")
    for k, m in enumerate(event.members):
        save_array(m, fire_dir / f"member_{k}.npy")
    if event.features is not None:
        save_array(event.features, fire_dir / "features.npy")
