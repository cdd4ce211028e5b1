"""Boundary-aware evaluation protocol: FCER construction, radius sweep,
ASD-derived anchor radius, and every aggregate of a sweep's records:
summarize derives the per-radius means, the per-year means and their
mean +- population std in one place, once.

The evaluation region for a fire at radius r is the ground-truth mask
dilated by a Euclidean disk of r pixels.  Sweeping r shows how
uncertainty metrics evolve as the neighborhood around the true burn
perimeter expands; the anchor radius ties the sweep to the segmentation
quality itself (r = mean ASD in pixels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_NLL_EPSILON, MAX_RADIUS_PX
from .errors import (
    DegenerateClassError,
    DegenerateDataError,
    EmptyMaskError,
    ShapeError,
    ValidationError,
)
from .metrics import (
    average_precision,
    average_surface_distance,
    brier_terms,
    check_nll_epsilon,
    error_map,
    nll_terms,
    ranking_by_level,
)
from .morphology import dilate, squared_edt_within
from .raster import FireEvent, GeoConfig
from .report import METRIC_COLUMNS, MetricRecord


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
        if any(int(r) != r or not 0 <= r <= MAX_RADIUS_PX for r in self.radii_px):
            raise ValidationError(f"radii_px must be integers in [0, {MAX_RADIUS_PX}]")
        if any(b <= a for a, b in zip(self.radii_px, self.radii_px[1:])):
            raise ValidationError("radii_px must be strictly increasing")
        a = self.anchor_px
        if a is not None and (int(a) != a or not 0 <= a <= MAX_RADIUS_PX):
            raise ValidationError(
                f"fixed anchor radius must be an integer in [0, {MAX_RADIUS_PX}]"
            )
        if not 0.0 <= self.error_threshold <= 1.0:
            raise ValidationError("error_threshold must lie in [0, 1]")
        check_nll_epsilon(self.nll_epsilon, "--epsilon (nll_epsilon)")


@dataclass
class Fire:
    """One fire as the sweep scores it.

    reference is the probability map whose thresholding defines the
    error map every model's uncertainty is ranked against.
    reference_ap, when known, is average_precision(reference, event.gt),
    as middle-member selection computed it; run_sweep then reads it
    instead of ranking the reference again for a model whose
    probability map is the reference.  None means not known.
    """

    event: FireEvent
    reference: np.ndarray
    reference_ap: float | None = None


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
    """Everything one sweep produced for one model: one MetricRecord per
    (fire, radius), fire by fire in the model's order and radii ascending
    within a fire, and the anchor radius they were scored at.
    summarize derives every aggregate from them.
    """

    records: list[MetricRecord]
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

    Both come from gt's window: its bounding box padded by radius_px
    and clipped to the grid.  The window holds every foreground and
    every FCER pixel, and its raster order is the grid's restricted to
    it.  Only squared distances up to radius_px**2 are read, so the
    window's transform is squared_edt_within(window, radius_px): exact
    up to radius_px**2, and 2 * min(radius_px, window width - 1) + 1
    passes over the window.  A radius past h + w covers the grid and is
    clamped to it, so no square overflows.  Raises like build_fcer.
    """
    gt = np.asarray(gt)
    if not gt.any():
        raise EmptyMaskError("fcer_pixels: empty ground truth")
    if radius_px < 0:
        raise ValidationError("fcer_pixels: radius must be >= 0")
    radius_px = min(radius_px, gt.shape[0] + gt.shape[1])
    rows, cols = (np.flatnonzero(gt.any(axis=a)) for a in (1, 0))
    y0, x0 = max(rows[0] - radius_px, 0), max(cols[0] - radius_px, 0)
    d2 = squared_edt_within(
        gt[y0 : rows[-1] + radius_px + 1, x0 : cols[-1] + radius_px + 1], radius_px
    )
    wy, wx = np.nonzero(d2 <= radius_px * radius_px)
    return (wy + y0) * gt.shape[1] + (wx + x0), d2[wy, wx].astype(np.float64)


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


def run_sweep(
    models: list[Model], config: SweepConfig, geo: GeoConfig
) -> list[SweepResult]:
    """Evaluate every model on each of its fires at every radius.

    Phase 1 computes each model's AP and ASD once per fire; a model whose
    probability map is the fire's reference reads the fire's
    reference_ap when it is known.  The anchor
    is then config.anchor_px or, when that is None, resolve_anchor over
    the pooled defined ASDs: the first model's fires in the order given,
    then the second model's, and so on.  The float mean depends on that
    order, so it is part of the contract.  Phase 2 scores the radii
    config.radii_px plus the anchor, which is always scored.  It visits
    each distinct Fire once and takes the pixels of its largest FCER,
    with their squared distances, from fcer_pixels; every smaller FCER
    is the subsequence within its radius, so n_eval_px and each region's
    values, in their order, are those of the full grid.  The ground
    truth and the error labels are read only at those pixels.  A pixel's
    level is the smallest scored radius whose FCER holds it, one
    searchsorted of its squared distance into the squared radii, and the
    FCER at radius j is the pixels of level <= j.  The pixels, labels
    and levels are shared by every model that holds the Fire and dropped
    when its records are done.  Each model's per-pixel Brier and NLL
    terms are computed once over the largest FCER; each radius gathers
    its own FCER's terms in raster order, as the mean over that FCER
    sees them, and sums them with one np.add.reduce, which is what
    np.mean computes.  A radius whose ring adds no pixel repeats the
    radius below it.  Each model's uncertainty is sorted ascending once
    over the largest FCER, and one ranking_by_level call ranks every
    radius from those sorted values, the positives among them, and
    their levels.  That sort is numpy's default argsort: the kernel
    reads only the sorted values, so the order within ties, which such a
    sort leaves unspecified, changes no value.  Every fire, an
    empty-ground-truth fire too, gets one record per scored radius.

    Degenerate per-fire cases (single-class region, empty ground truth,
    missing boundary) leave the affected metrics as None and the run
    continues.  Raises DegenerateDataError when the anchor is to be
    resolved and no fire has a defined ASD.  Each record is built once,
    with every field set, so MetricRecord's check sees every value: a
    metric that is not finite or out of its range, such as the ASD of a
    meters_per_pixel near the float64 maximum, raises ValidationError
    before any record is returned.  Everything runs serially in the
    calling thread: the CLI's --jobs is accepted and validated but
    changes nothing, and stays so that one flag set drives every command.
    Returns one SweepResult per model, in order.
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

    def unmasked(fire: Fire, prob: np.ndarray) -> tuple[float | None, float | None]:
        gt = fire.event.gt
        if not gt.any():
            return None, None
        ap = fire.reference_ap if prob is fire.reference else None
        if ap is None:
            try:
                ap = average_precision(prob, gt)
            except DegenerateClassError:
                pass
        pred_mask = (prob >= config.error_threshold).astype(np.uint8)
        try:
            asd = average_surface_distance(pred_mask, gt, geo.meters_per_pixel)
        except EmptyMaskError:
            asd = None
        return ap, asd

    # phase 1: (AP, ASD) per model and fire, in model-then-fire order; then the anchor
    ap_asd = [
        [unmasked(fire, prob) for fire, (prob, _unc) in zip(m.fires, m.outputs)]
        for m in models
    ]
    anchor = config.anchor_px
    if anchor is None:
        pooled = [asd for per_model in ap_asd for _ap, asd in per_model if asd is not None]
        if not pooled:
            raise DegenerateDataError(
                "anchor=auto needs at least one fire with a defined ASD"
            )
        anchor = resolve_anchor(pooled, geo)
    radii = tuple(sorted(set(config.radii_px) | {anchor}))

    # phase 2: per distinct fire, the (model, position) pairs that hold it
    holders: dict[int, list[tuple[int, int]]] = {}
    for m, model in enumerate(models):
        for i, fire in enumerate(model.fires):
            holders.setdefault(id(fire), []).append((m, i))

    # per model, each fire's records, in the model's fire order
    per_fire: list[list] = [[None] * len(m.fires) for m in models]

    def score(group: list[tuple[int, int]]):
        """Put the records of each (model, position) in group into per_fire."""
        fire = models[group[0][0]].fires[group[0][1]]
        ev, gt = fire.event, fire.event.gt
        if not gt.any():
            for m, i in group:
                per_fire[m][i] = [
                    MetricRecord(ev.id, ev.year, radius_px=r, n_eval_px=0) for r in radii
                ]
            return
        idx, d2 = fcer_pixels(gt, radii[-1])
        labels = gt.ravel()[idx]
        y_outer = labels.astype(np.float64)
        errors = error_map(fire.reference.ravel()[idx], labels, config.error_threshold).view(bool)
        # each pixel's level: the smallest scored radius whose FCER holds it
        levels = np.searchsorted(np.array([r * r for r in radii], dtype=np.float64), d2)
        n_eval = np.cumsum(np.bincount(levels, minlength=len(radii)))
        scored = []
        for m, i in group:
            prob, unc = models[m].outputs[i]
            p = prob.ravel()[idx].astype(np.float64)
            terms = np.stack((brier_terms(p, y_outer), nll_terms(p, y_outer, config.nll_epsilon)))
            # one sort over the largest FCER ranks every nested one
            u = unc.ravel()[idx]
            order = np.argsort(u)
            s, y, lv = u[order], errors[order], levels[order]
            scored.append((terms, ranking_by_level(s, s[y], lv, lv[y], len(radii))))
            per_fire[m][i] = []
        for j, r in enumerate(radii):
            n = int(n_eval[j])
            if j == 0 or n > n_eval[j - 1]:
                inside = np.flatnonzero(levels <= j)
                means = [
                    [np.add.reduce(t) / n for t in terms.take(inside, axis=1)]
                    for terms, _ranked in scored
                ]
            for (m, i), (b, nl), (_terms, ranked) in zip(group, means, scored):
                ap, asd = ap_asd[m][i]
                auprc, auroc, prevalence = ranked[j] or (None, None, None)
                per_fire[m][i].append(MetricRecord(
                    ev.id, ev.year, radius_px=r, ap=ap, asd_m=asd,
                    brier=float(b), nll=float(nl),
                    auroc=auroc, auprc=auprc, error_prevalence=prevalence,
                    n_eval_px=n,
                ))

    for group in holders.values():
        score(group)

    return [
        SweepResult([rec for recs in fire_records for rec in recs], anchor)
        for fire_records in per_fire
    ]


def aggregate_mean_std(per_year_values) -> tuple[float, float]:
    """Mean and population standard deviation (divide by N)."""
    vals = np.asarray(list(per_year_values), dtype=np.float64)
    if vals.size == 0:
        raise ValidationError("aggregate_mean_std: empty list")
    if not np.isfinite(vals).all():
        raise ValidationError("aggregate_mean_std: non-finite value")
    return float(vals.mean()), float(vals.std(ddof=0))


def summarize(records: list[MetricRecord], anchor_radius_px: int) -> dict:
    """The summary JSON payload of one model's records.

    per_radius maps each radius to each metric's mean over the fires
    where it is defined (None where it is nowhere) and the number of
    those fires; per_year holds those means per year at the anchor
    radius (Table-1 layout), years ascending; mean_std holds each
    metric's [mean, population std] across the years where it is
    defined, or None.  Keys are strings, as in the JSON.  Records are
    bucketed in record order, so each mean sums in that order.
    """

    def means(recs: list[MetricRecord]) -> tuple[dict, dict]:
        values, counts = {}, {}
        for name in METRIC_COLUMNS:
            defined = [v for rec in recs if (v := getattr(rec, name)) is not None]
            values[name] = float(np.mean(defined)) if defined else None
            counts[name] = len(defined)
        return values, counts

    by_radius: dict[int, list[MetricRecord]] = {}
    by_year: dict[int, list[MetricRecord]] = {}
    for rec in records:
        by_radius.setdefault(rec.radius_px, []).append(rec)
        if rec.radius_px == anchor_radius_px:
            by_year.setdefault(rec.year, []).append(rec)
    per_radius = {}
    for r in sorted(by_radius):
        aggregates, counts = means(by_radius[r])
        per_radius[str(r)] = {"aggregates": aggregates, "counts": counts}
    per_year = {str(y): means(by_year[y])[0] for y in sorted(by_year)}
    mean_std = {}
    for name in METRIC_COLUMNS:
        vals = [row[name] for row in per_year.values() if row[name] is not None]
        mean_std[name] = list(aggregate_mean_std(vals)) if vals else None
    return {
        "anchor_radius_px": anchor_radius_px,
        "per_radius": per_radius,
        "per_year": per_year,
        "mean_std": mean_std,
    }


def relative_to_baseline(value: float, baseline: float) -> int:
    """Percent change over a positive baseline, rounded to integer
    (halves away from zero toward +inf)."""
    if baseline <= 0:
        raise ValidationError("relative_to_baseline: baseline must be > 0")
    pct = 100.0 * (value - baseline) / baseline
    return int(np.floor(pct + 0.5))

