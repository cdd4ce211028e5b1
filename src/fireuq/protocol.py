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
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateClassError,
    DegenerateDataError,
    EmptyMaskError,
    ShapeError,
    ValidationError,
)
from .metrics import (
    DEFAULT_NLL_EPSILON,
    MetricRecord,
    average_precision,
    average_surface_distance,
    brier_terms,
    error_map,
    nll_terms,
    ranking_from_sorted,
)
from .morphology import dilate, squared_edt
from .raster import FireEvent, GeoConfig

METRIC_COLUMNS = ("ap", "asd_m", "brier", "nll", "auroc", "auprc", "error_prevalence")


@dataclass(frozen=True)
class SweepConfig:
    """Radius sweep parameters.

    anchor_px fixes the anchor radius; None resolves it from the mean
    ASD of the evaluated fires (resolve_anchor).  The anchor is always
    scored, so radii_px holds only the radii wanted besides it and may
    be empty.
    """

    radii_px: tuple[int, ...] = tuple(range(17))
    anchor_px: int | None = None
    error_threshold: float = 0.5
    nll_epsilon: float = DEFAULT_NLL_EPSILON

    def __post_init__(self):
        if any(int(r) != r or r < 0 for r in self.radii_px):
            raise ValidationError("radii_px must be nonnegative integers")
        if any(b <= a for a, b in zip(self.radii_px, self.radii_px[1:])):
            raise ValidationError("radii_px must be strictly increasing")
        if self.anchor_px is not None and (
            int(self.anchor_px) != self.anchor_px or self.anchor_px < 0
        ):
            raise ValidationError("fixed anchor radius must be a nonnegative integer")
        if not 0.0 <= self.error_threshold <= 1.0:
            raise ValidationError("error_threshold must lie in [0, 1]")
        if not 0.0 < self.nll_epsilon < 0.5:
            raise ValidationError("nll_epsilon must lie in (0, 0.5)")


@dataclass
class Fire:
    """One fire as the sweep scores it.

    reference is the probability map whose thresholding defines the
    error map every model's uncertainty is ranked against.
    """

    event: FireEvent
    reference: np.ndarray


@dataclass
class Model:
    """One model under evaluation: the fires it is scored on and its
    (probability, uncertainty) pair per fire, aligned with fires.

    Models that hold the same Fire objects, such as two models on one
    dataset, share that fire's ground-truth EDT and error map.
    """

    fires: list[Fire]
    outputs: list[tuple[np.ndarray, np.ndarray]]


@dataclass
class SweepResult:
    """Everything one sweep produced for one model.

    records holds one MetricRecord per (fire, radius); aggregates maps
    radius -> metric -> mean over fires with that metric defined, and
    counts carries the matching number of contributing fires.
    """

    records: list[MetricRecord]
    aggregates: dict[int, dict[str, float | None]]
    counts: dict[int, dict[str, int]]
    anchor_radius_px: int


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


def fcer_pixels(gt: np.ndarray, radius_px: int) -> tuple[np.ndarray, np.ndarray]:
    """The pixels of build_fcer(gt, radius_px) as flat indices into the
    grid, in raster order, and gt's squared EDT at each; the FCER at a
    smaller radius r is the subsequence with squared EDT <= r*r.

    Both come from gt's window: its bounding box padded by radius_px and
    clipped to the grid.  The window holds every foreground and every
    FCER pixel, so its squared EDT equals the full grid's there, and its
    raster order is the grid's restricted to it.  Raises like build_fcer.
    """
    gt = np.asarray(gt)
    if not gt.any():
        raise EmptyMaskError("fcer_pixels: empty ground truth")
    if radius_px < 0:
        raise ValidationError("fcer_pixels: radius must be >= 0")
    rows, cols = (np.flatnonzero(gt.any(axis=a)) for a in (1, 0))
    y0, x0 = max(rows[0] - radius_px, 0), max(cols[0] - radius_px, 0)
    d2 = squared_edt(gt[y0 : rows[-1] + radius_px + 1, x0 : cols[-1] + radius_px + 1])
    wy, wx = np.nonzero(d2 <= float(radius_px * radius_px))
    return (wy + y0) * gt.shape[1] + (wx + x0), d2[wy, wx]


def resolve_anchor(asd_values_m, geo: GeoConfig) -> int:
    """Anchor radius in pixels from per-fire ASDs in metres.

    round(mean(asd_m) / meters_per_pixel) to the nearest integer (halves
    up), clamped to at least 1 px.  The mean sums the values in the
    order given.
    """
    values = [float(v) for v in asd_values_m]
    if not values:
        raise ValidationError("resolve_anchor: no ASD values to average")
    if any(not np.isfinite(v) or v < 0 for v in values):
        raise ValidationError("resolve_anchor: ASD values must be finite and >= 0")
    mean_px = (sum(values) / len(values)) / geo.meters_per_pixel
    rounded = int(np.floor(mean_px + 0.5))
    return max(1, rounded)


def _mean_and_count(values) -> tuple[float | None, int]:
    """Mean of the values that are not None (None if there are none),
    and how many there are."""
    defined = [v for v in values if v is not None]
    return (float(np.mean(defined)) if defined else None), len(defined)


def run_sweep(
    models: list[Model],
    config: SweepConfig,
    geo: GeoConfig,
    jobs: int = 1,
) -> list[SweepResult]:
    """Evaluate every model on each of its fires at every radius.

    Phase 1 computes each model's AP and ASD once per fire.  The anchor
    is then config.anchor_px or, when that is None, resolve_anchor over
    the pooled defined ASDs: the first model's fires in the order given,
    then the second model's, and so on.  The float mean depends on that
    order, so it is part of the contract.  Phase 2 scores the radii
    config.radii_px plus the anchor, which is always scored.  It visits
    each distinct Fire once and takes the pixels of its largest FCER,
    with their squared distances, from fcer_pixels; every smaller FCER
    is the subsequence within its radius, so n_eval_px and each region's
    values, in their order, are those of the full grid.  The ground
    truth and the error labels are read only at those pixels.  The
    pixels, distances and labels are shared by every model that holds
    the Fire and dropped when its records are done.  Each model's per-pixel
    Brier and NLL terms are computed once over the largest FCER, and
    each radius averages the subsequence inside its own FCER, as the
    FCERs are nested; the mean sees the values brier and nll would see,
    in the same order.  Likewise each model's uncertainty is sorted once
    over the largest FCER, and every radius ranks its sorted
    subsequence.  That sort is numpy's default argsort: the ranking
    kernel reads only the counts at the end of each tie group, so the
    order within ties, which such a sort leaves unspecified, changes no
    value.

    Degenerate per-fire cases (single-class region, empty ground truth,
    missing boundary) leave the affected metrics as None and the run
    continues; only defined values enter the per-radius aggregates.
    Raises DegenerateDataError when the anchor is to be resolved and no
    fire has a defined ASD.  jobs > 1 spreads fires over threads without
    changing any value or any ordering.  Returns one SweepResult per
    model, in order.
    """
    if not models:
        raise ValidationError("run_sweep: no models")
    for model in models:
        if not model.fires:
            raise ValidationError("run_sweep: a model has no fires")
        if len(model.outputs) != len(model.fires):
            raise ValidationError("run_sweep: outputs must align with fires")
        for fire, maps in zip(model.fires, model.outputs):
            if any(np.shape(a) != fire.event.gt.shape for a in maps):
                raise ShapeError(f"run_sweep: fire {fire.event.id}: map shape != gt shape")
    if jobs < 1:
        raise ValidationError("run_sweep: jobs must be >= 1")

    def each(fn, items):
        if jobs == 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))

    # phase 1: unmasked metrics per (model, fire), then the anchor
    pairs = [(m, i) for m, model in enumerate(models) for i in range(len(model.fires))]

    def unmasked(pair: tuple[int, int]) -> tuple[float | None, float | None]:
        m, i = pair
        gt, prob = models[m].fires[i].event.gt, models[m].outputs[i][0]
        if not gt.any():
            return None, None
        try:
            ap = average_precision(prob, gt)
        except DegenerateClassError:
            ap = None
        pred_mask = (prob >= config.error_threshold).astype(np.uint8)
        try:
            asd = average_surface_distance(pred_mask, gt, geo.meters_per_pixel)
        except EmptyMaskError:
            asd = None
        return ap, asd

    ap_asd = dict(zip(pairs, each(unmasked, pairs)))
    anchor = config.anchor_px
    if anchor is None:
        pooled = [asd for _ap, asd in ap_asd.values() if asd is not None]
        if not pooled:
            raise DegenerateDataError(
                "anchor=auto needs at least one fire with a defined ASD"
            )
        anchor = resolve_anchor(pooled, geo)
    radii = tuple(sorted(set(config.radii_px) | {anchor}))

    # phase 2: per distinct fire, the (model, position) pairs that hold it
    holders: dict[int, list[tuple[int, int]]] = {}
    for m, i in pairs:
        holders.setdefault(id(models[m].fires[i]), []).append((m, i))

    def score(group: list[tuple[int, int]]) -> list[list[MetricRecord]]:
        fire = models[group[0][0]].fires[group[0][1]]
        ev, gt = fire.event, fire.event.gt
        if not gt.any():
            return [
                [MetricRecord(ev.id, ev.year, radius_px=r, n_eval_px=0) for r in radii]
                for _ in group
            ]
        idx, d2 = fcer_pixels(gt, radii[-1])
        labels = gt.ravel()[idx]
        y_outer = labels.astype(np.float64)
        errors = error_map(fire.reference.ravel()[idx], labels, config.error_threshold)
        inside = [d2 <= float(r * r) for r in radii]
        out = []
        for m, i in group:
            prob, unc = models[m].outputs[i]
            ap, asd = ap_asd[(m, i)]
            p = prob.ravel()[idx].astype(np.float64)
            b_terms = brier_terms(p, y_outer)
            n_terms = nll_terms(p, y_outer, config.nll_epsilon)
            # one sort over the largest FCER; each smaller one is a sorted subsequence
            u = unc.ravel()[idx]
            order = np.argsort(-u)
            s, y = u[order], errors[order]
            records = []
            for r, keep in zip(radii, inside):
                rec = MetricRecord(
                    ev.id,
                    ev.year,
                    radius_px=r,
                    ap=ap,
                    asd_m=asd,
                    brier=float(np.mean(b_terms[keep])),
                    nll=float(np.mean(n_terms[keep])),
                    n_eval_px=int(np.count_nonzero(keep)),
                )
                ranked = keep[order]
                try:
                    rec.auprc, rec.auroc, rec.error_prevalence = ranking_from_sorted(
                        s[ranked], y[ranked]
                    )
                except DegenerateClassError:
                    pass
                records.append(rec)
            out.append(records)
        return out

    per_pair: dict[tuple[int, int], list[MetricRecord]] = {}
    groups = list(holders.values())
    for group, fire_records in zip(groups, each(score, groups)):
        per_pair.update(zip(group, fire_records))

    results = []
    for m, model in enumerate(models):
        records = [rec for i in range(len(model.fires)) for rec in per_pair[(m, i)]]
        aggregates: dict[int, dict[str, float | None]] = {}
        counts: dict[int, dict[str, int]] = {}
        for r in radii:
            at_r = [rec for rec in records if rec.radius_px == r]
            aggregates[r], counts[r] = {}, {}
            for name in METRIC_COLUMNS:
                aggregates[r][name], counts[r][name] = _mean_and_count(
                    getattr(rec, name) for rec in at_r
                )
        results.append(SweepResult(records, aggregates, counts, anchor))
    return results


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
    return {
        y: {
            name: _mean_and_count(getattr(rec, name) for rec in at_r if rec.year == y)[0]
            for name in METRIC_COLUMNS
        }
        for y in sorted({rec.year for rec in at_r})
    }
