"""Grid data types, center-cropping and bit-exact NPY array I/O.

All rasters are numpy arrays: probability and uncertainty maps are 2-D
float32 in [0, 1] (uncertainty only bounded below in general), masks are
2-D uint8 in {0, 1}, feature stacks are 3-D float32 laid out (C, H, W).
Files use the NPY v1.0 format, little-endian, C-order, so a save/load
round trip reproduces values bit-exactly.

Dataset directory layout::

    <root>/<year>/<fire_id>/gt.npy
    <root>/<year>/<fire_id>/member_<k>.npy      k = 0..n-1
    <root>/<year>/<fire_id>/features.npy        optional, (C, H, W)
    <root>/<year>/<fire_id>/student_unc.npy     optional
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
    by member index and that order is stable across runs.
    """

    id: str
    year: int
    gt: np.ndarray
    members: list[np.ndarray]
    features: np.ndarray | None = None
    student_uncertainty: np.ndarray | None = None

    def __post_init__(self):
        validate_mask(self.gt, name=f"{self.id}/gt")
        if len(self.members) < 1:
            raise ValidationError(f"fire {self.id}: needs at least one member map")
        shape = self.gt.shape
        for k, m in enumerate(self.members):
            validate_probability_map(m, name=f"{self.id}/member_{k}")
            if m.shape != shape:
                raise ShapeError(
                    f"fire {self.id}: member_{k} shape {m.shape} != gt shape {shape}"
                )
        if self.features is not None:
            validate_features(self.features, name=f"{self.id}/features")
            if self.features.shape[1:] != shape:
                raise ShapeError(
                    f"fire {self.id}: features shape {self.features.shape[1:]} "
                    f"!= gt shape {shape}"
                )
        if self.student_uncertainty is not None:
            validate_uncertainty_map(self.student_uncertainty, name=f"{self.id}/student_unc")
            if self.student_uncertainty.shape != shape:
                raise ShapeError(f"fire {self.id}: student_unc shape mismatch")

    @property
    def n_members(self) -> int:
        return len(self.members)


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
    if not np.isin(arr, (0, 1)).all():
        raise ValidationError(f"{name}: mask values must be exactly 0 or 1")
    return arr


def validate_uncertainty_map(arr: np.ndarray, name: str = "uncertainty map") -> np.ndarray:
    if arr.ndim != 2:
        raise ShapeError(f"{name}: expected 2-D array, got {arr.ndim}-D")
    _require_finite(arr, name)
    if arr.min() < 0.0:
        raise ValidationError(f"{name}: negative uncertainty values")
    return arr


def validate_features(arr: np.ndarray, name: str = "features") -> np.ndarray:
    if arr.ndim != 3:
        raise ShapeError(f"{name}: expected 3-D (C, H, W) array, got {arr.ndim}-D")
    _require_finite(arr, name)
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
    """center_crop, except that an axis shorter than crop_size stays whole."""
    oy, ox = (max(d - crop_size, 0) // 2 for d in grid.shape[-2:])
    return grid[..., oy : oy + crop_size, ox : ox + crop_size]


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


def load_array(path: str | Path, expect_ndim: int | None = None) -> np.ndarray:
    """Read an NPY file; optionally require a specific dimensionality."""
    path = Path(path)
    try:
        arr = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except (ValueError, OSError, EOFError) as exc:
        raise ParseError(f"{path}: not a readable NPY array ({exc})") from exc
    if expect_ndim is not None and arr.ndim != expect_ndim:
        raise ShapeError(f"{path}: expected {expect_ndim}-D array, got {arr.ndim}-D")
    return arr


def load_probability_map(path: str | Path) -> np.ndarray:
    arr = load_array(path, expect_ndim=2)
    return validate_probability_map(arr, name=str(path)).astype(PROB_DTYPE, copy=False)


def load_mask(path: str | Path) -> np.ndarray:
    arr = load_array(path, expect_ndim=2)
    return validate_mask(arr, name=str(path)).astype(MASK_DTYPE, copy=False)


def load_uncertainty_map(path: str | Path) -> np.ndarray:
    arr = load_array(path, expect_ndim=2)
    return validate_uncertainty_map(arr, name=str(path)).astype(PROB_DTYPE, copy=False)


def load_features(path: str | Path) -> np.ndarray:
    arr = load_array(path, expect_ndim=3)
    return validate_features(arr, name=str(path)).astype(PROB_DTYPE, copy=False)


def load_event(fire_dir: str | Path, year: int) -> FireEvent:
    """Load one fire directory (gt + members + optional extras)."""
    fire_dir = Path(fire_dir)
    gt_path = fire_dir / "gt.npy"
    if not gt_path.exists():
        raise ValidationError(f"{fire_dir}: missing gt.npy")
    gt = load_mask(gt_path)

    member_paths = {}
    for p in fire_dir.iterdir():
        m = _MEMBER_RE.match(p.name)
        if m:
            member_paths[int(m.group(1))] = p
    if not member_paths:
        raise ValidationError(f"{fire_dir}: no member_<k>.npy files")
    indices = sorted(member_paths)
    if indices != list(range(len(indices))):
        raise ValidationError(f"{fire_dir}: member indices not contiguous from 0: {indices}")
    members = [load_probability_map(member_paths[k]) for k in indices]

    features = None
    fpath = fire_dir / "features.npy"
    if fpath.exists():
        features = load_features(fpath)
    student = None
    spath = fire_dir / "student_unc.npy"
    if spath.exists():
        student = load_uncertainty_map(spath)

    return FireEvent(
        id=fire_dir.name, year=year, gt=gt, members=members,
        features=features, student_uncertainty=student,
    )


def load_dataset(root: str | Path) -> list[FireEvent]:
    """Load every fire under <root>/<year>/<fire_id>/, sorted by (year, id)."""
    root = Path(root)
    if not root.is_dir():
        raise ValidationError(f"dataset root {root} is not a directory")
    events = []
    year_dirs = sorted(
        (d for d in root.iterdir() if d.is_dir() and d.name.isdigit()),
        key=lambda d: int(d.name),
    )
    if not year_dirs:
        raise ValidationError(f"dataset root {root}: no <year> directories")
    for ydir in year_dirs:
        for fdir in sorted(d for d in ydir.iterdir() if d.is_dir()):
            events.append(load_event(fdir, year=int(ydir.name)))
    if not events:
        raise ValidationError(f"dataset root {root}: no fire directories")
    n_members = {e.n_members for e in events}
    if len(n_members) > 1:
        raise ValidationError(f"dataset root {root}: inconsistent member counts {sorted(n_members)}")
    if events[0].n_members % 2 == 0:
        raise ValidationError(f"dataset root {root}: member count {events[0].n_members} "
                              "is even; the middle-AP member needs an odd count")
    return events


def save_event(root: str | Path, event: FireEvent):
    """Write one fire in the dataset layout under <root>/<year>/<fire_id>/."""
    fire_dir = Path(root) / str(event.year) / event.id
    save_array(event.gt.astype(MASK_DTYPE), fire_dir / "gt.npy")
    for k, m in enumerate(event.members):
        save_array(m.astype(PROB_DTYPE), fire_dir / f"member_{k}.npy")
    if event.features is not None:
        save_array(event.features.astype(PROB_DTYPE), fire_dir / "features.npy")
    if event.student_uncertainty is not None:
        save_array(event.student_uncertainty.astype(PROB_DTYPE), fire_dir / "student_unc.npy")
