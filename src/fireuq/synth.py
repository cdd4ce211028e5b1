"""Seeded synthetic fire scenarios for desk-scale verification.

Ground truth is a union of random disks; member probability maps are a
box-blurred copy of the ground truth plus per-member bias and Gaussian
noise, clipped to [0, 1].  Feature stacks stack the member logits, a
boundary-proximity channel, and pure-noise channels, so the teacher's
disagreement signal is linearly recoverable from them.  Everything is
driven by per-fire RNGs spawned from one SeedSequence, so a scenario is
fully determined by its spec.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .morphology import edt, extract_boundary
from .raster import FireEvent

DEFAULT_YEARS = (2018, 2019, 2020, 2021)


@dataclass(frozen=True)
class ScenarioSpec:
    rng_seed: int = 0
    grid_size: int = 128
    n_fires: int = 8
    n_members: int = 3
    blob_count_range: tuple[int, int] = (1, 4)
    blob_radius_range_px: tuple[int, int] = (3, 12)
    member_noise_sigma: float = 0.15
    member_bias: float = 0.0
    feature_channels: int = 6
    feature_noise_sigma: float = 1.0
    years: tuple[int, ...] = DEFAULT_YEARS

    def __post_init__(self):
        if self.grid_size < 8:
            raise ValidationError("grid_size must be >= 8")
        if self.n_fires < 1:
            raise ValidationError("n_fires must be >= 1")
        if self.n_members < 3 or self.n_members % 2 == 0:
            # evaluation takes the median member as the error-map reference
            raise ValidationError(f"n_members must be odd and >= 3, got {self.n_members}")
        lo, hi = self.blob_count_range
        if lo < 1 or hi < lo:
            raise ValidationError("blob_count_range must be nonempty with min >= 1")
        rlo, rhi = self.blob_radius_range_px
        if rlo < 1 or rhi < rlo:
            raise ValidationError("blob_radius_range_px must be nonempty with min >= 1")
        if rhi >= self.grid_size:
            raise ValidationError("blob radius must be smaller than the grid")
        for name in ("member_noise_sigma", "feature_noise_sigma"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValidationError(f"{name} must be finite and >= 0")
        if not -1.0 < self.member_bias < 1.0:
            raise ValidationError("member_bias must lie in (-1, 1)")
        # member logits + boundary proximity must fit
        if self.feature_channels < self.n_members + 1:
            raise ValidationError(
                f"feature_channels must be >= n_members + 1 = {self.n_members + 1}"
            )
        if not self.years:
            raise ValidationError("years must be nonempty")


def _box_blur(img: np.ndarray, half_width: int = 2) -> np.ndarray:
    """Mean filter with a (2*half_width+1)^2 box, zero padding."""
    k = 2 * half_width + 1
    h, w = img.shape
    p = np.pad(np.asarray(img, dtype=np.float64), half_width, mode="constant")
    out = np.zeros((h, w), dtype=np.float64)
    for dy in range(k):
        for dx in range(k):
            out += p[dy : dy + h, dx : dx + w]
    return out / (k * k)


def _random_gt(rng: np.random.Generator, spec: ScenarioSpec) -> np.ndarray:
    g = spec.grid_size
    n_blobs = int(rng.integers(spec.blob_count_range[0], spec.blob_count_range[1] + 1))
    yy, xx = np.mgrid[0:g, 0:g]
    gt = np.zeros((g, g), dtype=np.uint8)
    for _ in range(n_blobs):
        cy = int(rng.integers(0, g))
        cx = int(rng.integers(0, g))
        r = int(rng.integers(spec.blob_radius_range_px[0], spec.blob_radius_range_px[1] + 1))
        gt |= ((yy - cy) ** 2 + (xx - cx) ** 2 <= r * r).astype(np.uint8)
    return gt


def _make_fire(rng: np.random.Generator, spec: ScenarioSpec, index: int) -> FireEvent:
    g = spec.grid_size
    gt = _random_gt(rng, spec)

    smooth = _box_blur(_box_blur(gt.astype(np.float64)))
    members = []
    for _k in range(spec.n_members):
        noise = rng.normal(0.0, spec.member_noise_sigma, (g, g)) if spec.member_noise_sigma > 0 else 0.0
        m = np.clip(smooth + spec.member_bias + noise, 0.0, 1.0)
        members.append(m.astype(np.float32))

    boundary = extract_boundary(gt)
    proximity = np.exp(-edt(boundary) / 4.0)

    channels = []
    for m in members:
        p = np.clip(m.astype(np.float64), 1e-3, 1.0 - 1e-3)
        channels.append(np.log(p / (1.0 - p)))
    channels.append(proximity)
    for _ in range(spec.feature_channels - spec.n_members - 1):
        channels.append(rng.normal(0.0, spec.feature_noise_sigma, (g, g)))
    features = np.stack(channels).astype(np.float32)

    year = spec.years[index % len(spec.years)]
    return FireEvent(
        id=f"fire_{index:03d}", year=year, gt=gt, members=members, features=features
    )


def generate_scenario(spec: ScenarioSpec) -> list[FireEvent]:
    """All fires of a scenario, deterministic in spec.rng_seed.

    Each fire draws from its own generator spawned off one SeedSequence,
    so fire i is reproducible independently of how many fires run or in
    what order.
    """
    children = np.random.SeedSequence(spec.rng_seed).spawn(spec.n_fires)
    return [
        _make_fire(np.random.default_rng(children[i]), spec, i)
        for i in range(spec.n_fires)
    ]


def scenario_manifest(spec: ScenarioSpec) -> dict:
    d = asdict(spec)
    d["blob_count_range"] = list(spec.blob_count_range)
    d["blob_radius_range_px"] = list(spec.blob_radius_range_px)
    d["years"] = list(spec.years)
    return d


def write_scenario(spec: ScenarioSpec, out_dir: str | Path) -> list[FireEvent]:
    """Generate and write a scenario pack in the dataset layout, plus a
    scenario.json recording the generating spec."""
    from .raster import save_event

    out_dir = Path(out_dir)
    events = generate_scenario(spec)
    for ev in events:
        save_event(out_dir, ev)
    (out_dir / "scenario.json").write_text(
        json.dumps(scenario_manifest(spec), indent=2, sort_keys=True) + "\n"
    )
    return events
