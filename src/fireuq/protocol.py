"""Boundary-aware evaluation protocol: FCER construction, radius sweep,
ASD-derived anchor radius, and per-year aggregation.

The evaluation region for a fire at radius r is the ground-truth mask
dilated by a Euclidean disk of r pixels.  Sweeping r shows how
uncertainty metrics evolve as the neighborhood around the true burn
perimeter expands; the anchor radius ties the sweep to the segmentation
quality itself (r = mean ASD in pixels).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateClassError,
    EmptyMaskError,
    ValidationError,
)
from .metrics import (
    DEFAULT_NLL_EPSILON,
    MetricRecord,
    average_precision,
    average_surface_distance,
    brier,
    error_map,
    nll,
    uq_auprc,
    uq_auroc,
)
from .morphology import dilate, squared_edt, within_disk
from .raster import FireEvent, GeoConfig

MEAN_ASD = "mean_asd"

METRIC_COLUMNS = ("ap", "asd_m", "brier", "nll", "auroc", "auprc", "error_prevalence")


@dataclass(frozen=True)
class SweepConfig:
    """Radius sweep parameters.

    anchor_policy is either the string MEAN_ASD (resolve the anchor from
    the mean ASD of the evaluated fires) or a fixed integer radius.
    """

    radii_px: tuple[int, ...] = tuple(range(17))
    anchor_policy: int | str = MEAN_ASD
    error_threshold: float = 0.5
    nll_epsilon: float = DEFAULT_NLL_EPSILON

    def __post_init__(self):
        if len(self.radii_px) == 0:
            raise ValidationError("radii_px must be nonempty")
        if any(int(r) != r or r < 0 for r in self.radii_px):
            raise ValidationError("radii_px must be nonnegative integers")
        if any(b <= a for a, b in zip(self.radii_px, self.radii_px[1:])):
            raise ValidationError("radii_px must be strictly increasing")
        if isinstance(self.anchor_policy, str):
            if self.anchor_policy != MEAN_ASD:
                raise ValidationError(f"unknown anchor policy {self.anchor_policy!r}")
        elif int(self.anchor_policy) != self.anchor_policy or self.anchor_policy < 0:
            raise ValidationError("fixed anchor radius must be a nonnegative integer")
        if not 0.0 <= self.error_threshold <= 1.0:
            raise ValidationError("error_threshold must lie in [0, 1]")


@dataclass
class SweepResult:
    """Everything one sweep produced.

    records holds one MetricRecord per (fire, radius); aggregates maps
    radius -> metric -> mean over fires with that metric defined, and
    counts carries the matching number of contributing fires.
    """

    records: list[MetricRecord]
    aggregates: dict[int, dict[str, float | None]]
    counts: dict[int, dict[str, int]]
    anchor_radius_px: int | None = None


def build_fcer(gt: np.ndarray, radius_px: int) -> np.ndarray:
    """Evaluation region: ground truth dilated by a disk of radius_px.

    Radius 0 returns the ground truth itself.  Raises EmptyMaskError on
    an empty ground truth (no fire, nothing to evaluate around).
    """
    gt = np.asarray(gt)
    if not gt.any():
        raise EmptyMaskError("build_fcer: empty ground truth")
    if radius_px < 0:
        raise ValidationError("build_fcer: radius must be >= 0")
    return dilate(gt, radius_px)


def resolve_anchor(
    asd_values_m, geo: GeoConfig, policy: int | str = MEAN_ASD
) -> int:
    """Anchor radius in pixels.

    mean_asd policy: round(mean(asd_m) / meters_per_pixel) to the
    nearest integer (halves up), clamped to at least 1 px.  A fixed
    integer policy passes through unchanged.
    """
    if isinstance(policy, (int, np.integer)) and not isinstance(policy, bool):
        if policy < 0:
            raise ValidationError("fixed anchor radius must be >= 0")
        return int(policy)
    if policy != MEAN_ASD:
        raise ValidationError(f"unknown anchor policy {policy!r}")
    values = [float(v) for v in asd_values_m]
    if not values:
        raise ValidationError("resolve_anchor: no ASD values to average")
    if any(not np.isfinite(v) or v < 0 for v in values):
        raise ValidationError("resolve_anchor: ASD values must be finite and >= 0")
    mean_px = (sum(values) / len(values)) / geo.meters_per_pixel
    rounded = int(np.floor(mean_px + 0.5))
    return max(1, rounded)


def _sweep_one_fire(
    event: FireEvent,
    prob: np.ndarray,
    unc: np.ndarray,
    reference: np.ndarray,
    config: SweepConfig,
    geo: GeoConfig,
) -> list[MetricRecord]:
    gt = event.gt
    h, w = gt.shape

    ap = asd = None
    if gt.any():
        try:
            ap = average_precision(prob, gt)
        except DegenerateClassError:
            ap = None
        pred_mask = (prob >= config.error_threshold).astype(np.uint8)
        try:
            asd = average_surface_distance(pred_mask, gt, geo.meters_per_pixel)
        except EmptyMaskError:
            asd = None

        errors = error_map(reference, gt, threshold=config.error_threshold)
        d2 = squared_edt(gt)
    else:
        errors = None
        d2 = None

    records = []
    for r in config.radii_px:
        if d2 is None:
            records.append(
                MetricRecord(event.id, event.year, radius_px=r, n_eval_px=0)
            )
            continue
        region = within_disk(d2, r)
        rec = MetricRecord(
            event.id,
            event.year,
            radius_px=r,
            ap=ap,
            asd_m=asd,
            brier=brier(prob, gt, region),
            nll=nll(prob, gt, region, epsilon=config.nll_epsilon),
            n_eval_px=int(region.sum()),
        )
        try:
            rec.auroc = uq_auroc(unc, errors, region)
            auprc, prevalence = uq_auprc(unc, errors, region)
            rec.auprc = auprc
            rec.error_prevalence = prevalence
        except DegenerateClassError:
            pass
        records.append(rec)
    return records


def run_sweep(
    events: list[FireEvent],
    outputs: list[tuple[np.ndarray, np.ndarray]],
    references: list[np.ndarray],
    config: SweepConfig,
    geo: GeoConfig,
    jobs: int = 1,
) -> SweepResult:
    """Evaluate every fire at every radius.

    outputs[i] is the (probability, uncertainty) pair of the model under
    evaluation for events[i]; references[i] is the probability map whose
    thresholding defines the shared error map.  Degenerate per-fire
    cases (single-class region, empty ground truth, missing boundary)
    leave the affected metrics as None and the run continues; only
    defined values enter the per-radius aggregates.  jobs > 1 spreads
    fires over threads without changing any value or any ordering.
    """
    if not events:
        raise ValidationError("run_sweep: no events")
    if len(outputs) != len(events) or len(references) != len(events):
        raise ValidationError("run_sweep: outputs/references must align with events")
    if jobs < 1:
        raise ValidationError("run_sweep: jobs must be >= 1")

    def work(i: int) -> list[MetricRecord]:
        prob, unc = outputs[i]
        return _sweep_one_fire(events[i], prob, unc, references[i], config, geo)

    if jobs == 1:
        per_fire = [work(i) for i in range(len(events))]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_fire = list(pool.map(work, range(len(events))))

    records = [rec for fire_records in per_fire for rec in fire_records]

    aggregates: dict[int, dict[str, float | None]] = {}
    counts: dict[int, dict[str, int]] = {}
    for r in config.radii_px:
        at_r = [rec for rec in records if rec.radius_px == r]
        aggregates[r] = {}
        counts[r] = {}
        for name in METRIC_COLUMNS:
            vals = [getattr(rec, name) for rec in at_r if getattr(rec, name) is not None]
            counts[r][name] = len(vals)
            aggregates[r][name] = float(np.mean(vals)) if vals else None

    anchor = None
    if config.anchor_policy == MEAN_ASD:
        # one ASD per fire; records repeat it per radius, so dedupe by fire
        by_fire = {}
        for rec in records:
            if rec.asd_m is not None:
                by_fire[(rec.fire_id, rec.year)] = rec.asd_m
        if by_fire:
            anchor = resolve_anchor(list(by_fire.values()), geo, MEAN_ASD)
    else:
        anchor = resolve_anchor([], geo, config.anchor_policy)

    return SweepResult(records=records, aggregates=aggregates, counts=counts,
                       anchor_radius_px=anchor)


def aggregate_mean_std(per_year_values) -> tuple[float, float]:
    """Mean and population standard deviation (divide by N)."""
    vals = np.asarray(list(per_year_values), dtype=np.float64)
    if vals.size == 0:
        raise ValidationError("aggregate_mean_std: empty list")
    if not np.isfinite(vals).all():
        raise ValidationError("aggregate_mean_std: non-finite value")
    return float(vals.mean()), float(vals.std(ddof=0))


def relative_to_baseline(value: float, baseline: float) -> int:
    """Percent change over a positive baseline, rounded to integer
    (halves away from zero toward +inf)."""
    if baseline <= 0:
        raise ValidationError("relative_to_baseline: baseline must be > 0")
    pct = 100.0 * (value - baseline) / baseline
    return int(np.floor(pct + 0.5))


def per_year_table(
    records: list[MetricRecord], radius_px: int | None
) -> dict[int, dict[str, float | None]]:
    """Per-year means of each metric at one radius (Table-1 layout).

    Returns {year: {metric: mean-over-fires-or-None}} for the records at
    radius_px, years sorted ascending.
    """
    at_r = [rec for rec in records if rec.radius_px == radius_px]
    years = sorted({rec.year for rec in at_r})
    table: dict[int, dict[str, float | None]] = {}
    for y in years:
        row: dict[str, float | None] = {}
        for name in METRIC_COLUMNS:
            vals = [
                getattr(rec, name)
                for rec in at_r
                if rec.year == y and getattr(rec, name) is not None
            ]
            row[name] = float(np.mean(vals)) if vals else None
        table[y] = row
    return table
