"""Grid data types, center-cropping and bit-exact NPY array I/O.

All rasters are numpy arrays: probability maps are 2-D float32 in
[0, 1], masks are 2-D uint8 in {0, 1}, feature stacks are 3-D float32
laid out (C, H, W).  FireEvent owns that contract: its constructor
checks each raster's shape and values, then casts it to its dtype, and
names the file the raster came from in every error.  The loaders only
parse.  Files use the NPY v1.0 format, little-endian, C-order, so a
save/load round trip reproduces values bit-exactly.  Only bool, integer
and float dtypes load; anything else is rejected with its path.

Dataset directory layout::

    <root>/<year>/<fire_id>/gt.npy
    <root>/<year>/<fire_id>/member_<k>.npy      k = 0..n-1
    <root>/<year>/<fire_id>/features.npy        optional, (C, H, W)

Each year and each member index comes from one path: ``2020/`` beside
``02020/``, or ``member_0.npy`` beside ``member_00.npy``, is refused.
``distill`` also writes ``student_unc.npy`` beside each fire; it is an
output, and nothing here reads it.  Each loaded FireEvent lists the
files it was parsed from, which is what manifests digest.
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
            f_name = name(1 + len(self.members), "features")
            # cast first, so a value beyond float32's range fails as non-finite
            with np.errstate(over="ignore"):
                self.features = self.features.astype(PROB_DTYPE, copy=False)
            validate_features(self.features, f_name)
            if self.features.shape[1:] != shape:
                raise ShapeError(
                    f"{f_name}: shape {self.features.shape[1:]} != gt shape {shape}"
                )

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
    if not ((arr == 0) | (arr == 1)).all():
        raise ValidationError(f"{name}: mask values must be exactly 0 or 1")
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


def load_array(path: str | Path) -> np.ndarray:
    """Read a bool, integer or float NPY file."""
    path = Path(path)
    try:
        arr = np.load(path, allow_pickle=False)
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


def load_event(fire_dir: str | Path, year: int, features: bool = True) -> FireEvent:
    """Parse one fire directory (gt + members + optional features).
    features=False leaves features.npy unread, and out of files."""
    fire_dir = Path(fire_dir)
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
    files = [gt_path, *member_paths.values()]
    gt = load_array(gt_path)
    members = [load_array(p) for p in member_paths.values()]
    stack = None
    fpath = fire_dir / "features.npy"
    if features and fpath.exists():
        stack = load_array(fpath)
        files.append(fpath)
    return FireEvent(
        id=fire_dir.name, year=year, gt=gt, members=members,
        features=stack, files=tuple(files),
    )


def load_dataset(root: str | Path, features: bool = True) -> list[FireEvent]:
    """Load every fire under <root>/<year>/<fire_id>/, sorted by (year, id);
    features=False leaves every features.npy unread."""
    root = Path(root)
    if not root.is_dir():
        raise ValidationError(f"dataset root {root} is not a directory")
    events = []
    year_dirs = _by_number(
        ((int(d.name), d) for d in root.iterdir() if d.is_dir() and d.name.isdecimal()),
        "year",
    )
    if not year_dirs:
        raise ValidationError(f"dataset root {root}: no <year> directories")
    for year, ydir in year_dirs.items():
        for fdir in sorted(d for d in ydir.iterdir() if d.is_dir()):
            events.append(load_event(fdir, year=year, features=features))
    if not events:
        raise ValidationError(f"dataset root {root}: no fire directories")
    n_members = {e.n_members for e in events}
    if len(n_members) > 1:
        raise ValidationError(f"dataset root {root}: inconsistent member counts {sorted(n_members)}")
    n = events[0].n_members
    if n < 3 or n % 2 == 0:
        raise ValidationError(f"dataset root {root}: member count {n}; the ensemble needs "
                              "at least 2 members and the middle-AP member an odd count")
    return events


def save_event(root: str | Path, event: FireEvent):
    """Write one fire in the dataset layout under <root>/<year>/<fire_id>/."""
    fire_dir = Path(root) / str(event.year) / event.id
    save_array(event.gt, fire_dir / "gt.npy")
    for k, m in enumerate(event.members):
        save_array(m, fire_dir / f"member_{k}.npy")
    if event.features is not None:
        save_array(event.features, fire_dir / "features.npy")
