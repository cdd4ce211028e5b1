"""FCER construction, anchor resolution, radius sweep, and the
per-radius aggregates summarize derives from a sweep's records."""

import numpy as np
import pytest

from fireuq.errors import DegenerateDataError, EmptyMaskError, ShapeError, ValidationError
from fireuq.metrics import average_precision, brier, error_map, nll, uq_auroc
from fireuq.morphology import dilate, squared_edt
from fireuq.oracles import oracle_auroc, oracle_average_precision, oracle_dilate
from fireuq import protocol
from fireuq.protocol import (
    MAX_RADIUS_PX,
    Fire,
    Model,
    SweepConfig,
    aggregate_mean_std,
    build_fcer,
    fcer_pixels,
    relative_to_baseline,
    resolve_anchor,
    run_sweep,
    summarize,
)
from fireuq.raster import FireEvent, GeoConfig
from fireuq.report import METRIC_COLUMNS
from fireuq.synth import ScenarioSpec, generate_scenario

GEO = GeoConfig(meters_per_pixel=375.0, crop_size=128)


def test_build_fcer_radius_zero_is_ground_truth():
    gt = np.zeros((6, 6), dtype=np.uint8)
    gt[2, 3] = 1
    region = build_fcer(gt, 0)
    assert (region == gt).all()
    region[0, 0] = 1
    assert gt[0, 0] == 0  # returned region is a copy


def test_build_fcer_single_pixel_radius_two():
    gt = np.zeros((9, 9), dtype=np.uint8)
    gt[4, 4] = 1
    region = build_fcer(gt, 2)
    assert int(region.sum()) == 13
    assert (region == dilate(gt, 2)).all()


def test_build_fcer_empty_gt_raises():
    with pytest.raises(EmptyMaskError):
        build_fcer(np.zeros((5, 5), dtype=np.uint8), 3)


def test_build_fcer_nested_in_radius():
    rng = np.random.default_rng(12)
    gt = (rng.random((20, 20)) < 0.08).astype(np.uint8)
    gt[10, 10] = 1
    prev = build_fcer(gt, 0)
    for r in range(1, 9):
        cur = build_fcer(gt, r)
        assert (cur >= prev).all()
        assert (prev[gt.astype(bool)] == 1).all()
        prev = cur


def test_fcer_pixels_equal_build_fcer_and_full_grid_edt():
    """Random ground truths, some touching the grid edges, at radius 0,
    small radii, radii past the grid and radii whose square overflows
    int64: the pixels are those of build_fcer in raster order, and each
    distance is the full grid's."""
    rng = np.random.default_rng(14)
    for k in range(40):
        h, w = (int(v) for v in rng.integers(1, 40, size=2))
        gt = np.zeros((h, w), dtype=np.uint8)
        y0, x0 = int(rng.integers(h)), int(rng.integers(w))
        y1, x1 = int(rng.integers(y0, h)) + 1, int(rng.integers(x0, w)) + 1
        gt[y0:y1, x0:x1] = rng.random((y1 - y0, x1 - x0)) < rng.uniform(0.05, 0.9)
        if k % 4 == 0:  # touch the grid's edges
            gt[0, int(rng.integers(w))] = gt[int(rng.integers(h)), -1] = 1
        gt[int(rng.integers(y0, y1)), int(rng.integers(x0, x1))] = 1
        d2_full = squared_edt(gt).ravel()
        for r in (0, 1, int(rng.integers(2, 9)), h + w, 2**40, 2**70):
            idx, d2 = fcer_pixels(gt, r)
            assert idx.tolist() == np.flatnonzero(build_fcer(gt, r)).tolist()
            assert d2.tobytes() == d2_full[idx].tobytes()
    # the largest accepted radius covers the grid without overflowing
    idx, d2 = fcer_pixels(gt, MAX_RADIUS_PX)
    assert idx.tolist() == list(range(gt.size))
    assert d2.tobytes() == d2_full.tobytes()
    with pytest.raises(EmptyMaskError):
        fcer_pixels(np.zeros((5, 5), dtype=np.uint8), 3)
    with pytest.raises(ValidationError):
        fcer_pixels(gt, -1)


def test_fcer_pixels_fuzz_against_disk_stamping():
    """Sparse and dense ground truths on small grids: at radius 0, 1,
    small radii, past the grid's diagonal and MAX_RADIUS_PX, the pixels
    are those of stamping the disk on every foreground pixel, in raster
    order, and each distance is the full grid's squared EDT."""
    rng = np.random.default_rng(23)
    for k in range(150):
        h, w = (int(v) for v in rng.integers(1, 20, size=2))
        gt = (rng.random((h, w)) < rng.uniform(0.01, 0.6)).astype(np.uint8)
        gt[int(rng.integers(h)), int(rng.integers(w))] = 1
        d2_full = squared_edt(gt).ravel()
        for r in (0, 1, int(rng.integers(2, 7)), int(np.hypot(h, w)) + 1, MAX_RADIUS_PX):
            idx, d2 = fcer_pixels(gt, r)
            want = build_fcer(gt, r) if r > 40 else oracle_dilate(gt, r)
            assert idx.tolist() == np.flatnonzero(want).tolist()
            assert d2.dtype == np.float64
            assert d2.tobytes() == d2_full[idx].tobytes()
    # the largest radius on a 96x96 grid runs one pass per column shift
    gt = np.zeros((96, 96), dtype=np.uint8)
    gt[40, 7] = 1
    idx, d2 = fcer_pixels(gt, MAX_RADIUS_PX)
    assert idx.size == gt.size
    assert d2.tobytes() == squared_edt(gt).tobytes()


def test_resolve_anchor_mean_asd_rounds_to_pixels():
    # 1.39 km mean ASD at 375 m/px -> 3.707 px -> 4 px
    assert resolve_anchor([1390.0], GEO) == 4
    assert resolve_anchor([1390.0, 1390.0], GEO) == 4


def test_resolve_anchor_clamps_to_one():
    assert resolve_anchor([100.0], GEO) == 1  # 0.27 px rounds to 0, clamped
    assert resolve_anchor([0.0], GEO) == 1


def test_resolve_anchor_half_pixel_rounds_up():
    geo = GeoConfig(meters_per_pixel=100.0)
    assert resolve_anchor([250.0], geo) == 3
    assert resolve_anchor([249.0], geo) == 2


def test_resolve_anchor_errors():
    with pytest.raises(ValidationError):
        resolve_anchor([], GEO)
    with pytest.raises(ValidationError):
        resolve_anchor([np.nan], GEO)


def test_sweep_config_validation():
    SweepConfig(radii_px=(0, 1, 2))
    SweepConfig(radii_px=(), anchor_px=0)  # the anchor is always scored
    with pytest.raises(ValidationError):
        SweepConfig(radii_px=(2, 1))
    with pytest.raises(ValidationError):
        SweepConfig(radii_px=(0, 0, 1))
    with pytest.raises(ValidationError):
        SweepConfig(radii_px=(-1, 0))
    with pytest.raises(ValidationError):
        SweepConfig(anchor_px=-2)
    with pytest.raises(ValidationError):
        SweepConfig(anchor_px=1.5)
    SweepConfig(radii_px=(MAX_RADIUS_PX,), anchor_px=MAX_RADIUS_PX)
    with pytest.raises(ValidationError, match="radii_px"):
        SweepConfig(radii_px=(0, MAX_RADIUS_PX + 1))
    with pytest.raises(ValidationError, match="anchor"):
        SweepConfig(anchor_px=MAX_RADIUS_PX + 1)
    with pytest.raises(ValidationError):
        SweepConfig(error_threshold=1.5)
    with pytest.raises(ValidationError):
        SweepConfig(error_threshold=np.nan)
    with pytest.raises(ValidationError):
        SweepConfig(nll_epsilon=0.5)
    with pytest.raises(ValidationError, match="--epsilon"):
        SweepConfig(nll_epsilon=1e-17)
    SweepConfig(nll_epsilon=2.0**-53)


def _scenario_events(seed=0, n_fires=6, grid=24):
    spec = ScenarioSpec(
        rng_seed=seed, grid_size=grid, n_fires=n_fires, n_members=3,
        blob_radius_range_px=(2, 5), feature_channels=4,
    )
    return generate_scenario(spec)


def _model(events, outputs, references):
    return Model([Fire(ev, ref) for ev, ref in zip(events, references)], outputs)


def _sweep(events, outputs, references, cfg):
    [result] = protocol.run_sweep([_model(events, outputs, references)], cfg, GEO)
    return result


def _per_radius(result):
    """summarize's per-radius aggregates and counts of one sweep result."""
    return summarize(result.records, result.anchor_radius_px)["per_radius"]


def _outputs_with_perfect_uncertainty(events, threshold=0.5):
    """Model outputs whose uncertainty is the error indicator itself."""
    outputs, references = [], []
    for ev in events:
        prob = ev.members[0]
        errors = error_map(prob, ev.gt, threshold=threshold).astype(np.float64)
        outputs.append((prob, errors))
        references.append(prob)
    return outputs, references


def test_run_sweep_perfect_uncertainty_gives_auroc_one():
    events = _scenario_events(seed=3)
    outputs, references = _outputs_with_perfect_uncertainty(events)
    cfg = SweepConfig(radii_px=(0, 1, 2, 4, 8), anchor_px=4)
    result = _sweep(events, outputs, references, cfg)
    per_radius = _per_radius(result)
    for r in cfg.radii_px:
        agg = per_radius[str(r)]["aggregates"]
        if per_radius[str(r)]["counts"]["auroc"] == 0:
            continue
        assert agg["auroc"] == 1.0
        assert agg["auprc"] == 1.0
    assert result.anchor_radius_px == 4


def test_run_sweep_records_shape_and_asd_constant_over_radius():
    events = _scenario_events(seed=5, n_fires=4)
    outputs = [(ev.members[0], np.abs(ev.members[1] - 0.5)) for ev in events]
    references = [ev.members[0] for ev in events]
    cfg = SweepConfig(radii_px=(0, 2, 5))
    result = _sweep(events, outputs, references, cfg)
    radii = sorted(set(cfg.radii_px) | {result.anchor_radius_px})
    assert [rec.radius_px for rec in result.records] == radii * len(events)
    by_fire = {}
    for rec in result.records:
        by_fire.setdefault((rec.fire_id, rec.year), []).append(rec)
    for recs in by_fire.values():
        asds = {rec.asd_m for rec in recs}
        aps = {rec.ap for rec in recs}
        assert len(asds) == 1  # unmasked metrics repeat across radii
        assert len(aps) == 1
        n_px = [rec.n_eval_px for rec in sorted(recs, key=lambda x: x.radius_px)]
        assert n_px == sorted(n_px)


def test_run_sweep_empty_gt_fire_recorded_as_missing():
    events = _scenario_events(seed=7, n_fires=3)
    empty = FireEvent(
        id="fire_burnless",
        year=events[0].year,
        gt=np.zeros_like(events[0].gt),
        members=[m.copy() for m in events[0].members],
    )
    events = events + [empty]
    outputs = [(ev.members[0], np.abs(ev.members[1] - 0.5)) for ev in events]
    references = [ev.members[0] for ev in events]
    cfg = SweepConfig(radii_px=(0, 3), anchor_px=3)
    result = _sweep(events, outputs, references, cfg)
    rows = [rec for rec in result.records if rec.fire_id == "fire_burnless"]
    assert len(rows) == 2
    for rec in rows:
        assert rec.n_eval_px == 0
        assert rec.ap is None and rec.brier is None and rec.auroc is None
    # counts exclude it
    assert _per_radius(result)["3"]["counts"]["brier"] == 3


def test_run_sweep_aggregates_are_order_invariant():
    events = _scenario_events(seed=13, n_fires=5)
    outputs = [(ev.members[0], np.abs(ev.members[1] - 0.5)) for ev in events]
    references = [ev.members[0] for ev in events]
    cfg = SweepConfig(radii_px=(0, 2))
    fwd = _sweep(events, outputs, references, cfg)
    perm = [3, 0, 4, 1, 2]
    rev = _sweep(
        [events[i] for i in perm],
        [outputs[i] for i in perm],
        [references[i] for i in perm],
        cfg,
    )
    fwd_radius, rev_radius = _per_radius(fwd), _per_radius(rev)
    for r in map(str, cfg.radii_px):
        for name, val in fwd_radius[r]["aggregates"].items():
            other = rev_radius[r]["aggregates"][name]
            if val is None:
                assert other is None
            else:
                assert other == pytest.approx(val, abs=1e-12)
    assert fwd.anchor_radius_px == rev.anchor_radius_px


def test_run_sweep_alignment_validation():
    events = _scenario_events(seed=1, n_fires=2)
    outputs = [(ev.members[0], ev.members[1]) for ev in events]
    references = [ev.members[0] for ev in events]
    with pytest.raises(ValidationError):
        run_sweep([_model(events, outputs[:1], references)], SweepConfig(), GEO)
    with pytest.raises(ValidationError):
        run_sweep([], SweepConfig(), GEO)
    with pytest.raises(ValidationError):
        run_sweep([Model([], [])], SweepConfig(), GEO)
    cut = [(prob, unc[:, :-1]) for prob, unc in outputs]
    with pytest.raises(ShapeError):
        run_sweep([_model(events, cut, references)], SweepConfig(), GEO)


def test_run_sweep_fixed_anchor_passes_through():
    events = _scenario_events(seed=5, n_fires=4)
    outputs = [(ev.members[0], np.abs(ev.members[1] - 0.5)) for ev in events]
    references = [ev.members[0] for ev in events]
    for anchor in (0, 7):
        result = _sweep(events, outputs, references,
                        SweepConfig(radii_px=(2, 3), anchor_px=anchor))
        assert result.anchor_radius_px == anchor
        radii = sorted({2, 3, anchor})
        assert [rec.radius_px for rec in result.records] == radii * len(events)


def test_run_sweep_anchor_alone_when_radii_empty():
    events = _scenario_events(seed=5, n_fires=4)
    outputs = [(ev.members[0], np.abs(ev.members[1] - 0.5)) for ev in events]
    references = [ev.members[0] for ev in events]
    result = _sweep(events, outputs, references, SweepConfig(radii_px=()))
    anchor = result.anchor_radius_px
    assert anchor >= 1
    assert [rec.radius_px for rec in result.records] == [anchor] * len(events)


def test_run_sweep_auto_anchor_without_any_asd_is_degenerate():
    events = [
        FireEvent(id=f"fire_{i}", year=2020, gt=np.zeros((8, 8), dtype=np.uint8),
                  members=[np.full((8, 8), 0.9, dtype=np.float32)] * 3)
        for i in range(2)
    ]
    outputs = [(ev.members[0], ev.members[0]) for ev in events]
    references = [ev.members[0] for ev in events]
    with pytest.raises(DegenerateDataError, match="anchor=auto"):
        _sweep(events, outputs, references, SweepConfig(radii_px=(0,)))
    # a fixed anchor needs no ASD
    result = _sweep(events, outputs, references, SweepConfig(radii_px=(0,), anchor_px=2))
    assert all(rec.n_eval_px == 0 for rec in result.records)


def test_run_sweep_ranking_equals_per_region_metrics_bitwise():
    """One sort per (model, fire) over the largest FCER ranks every
    radius exactly as sorting that radius's own FCER would."""
    rng = np.random.default_rng(23)
    events, outputs, references = [], [], []
    for i in range(6):
        gt = (rng.random((16, 16)) < 0.05).astype(np.uint8)
        gt[8, 8] = 1
        prob = rng.random((16, 16)).astype(np.float32)
        levels = 1 if i == 1 else int(rng.integers(2, 5))  # fire 1: constant map
        unc = (rng.integers(0, levels, size=(16, 16)) / 4.0).astype(np.float32)
        events.append(FireEvent(id=f"fire_{i}", year=2020, gt=gt, members=[prob] * 3))
        outputs.append((prob, unc))
        # fire 0 predicts no burn, so every ground-truth pixel is an error
        references.append(np.zeros_like(prob) if i == 0 else prob)
    # radius 30 covers the whole 16x16 grid
    cfg = SweepConfig(radii_px=(0, 1, 2, 4, 8), anchor_px=30)
    result = _sweep(events, outputs, references, cfg)
    radii = (0, 1, 2, 4, 8, 30)
    assert [rec.radius_px for rec in result.records] == list(radii) * len(events)
    defined = 0
    for k, rec in enumerate(result.records):
        i = k // len(radii)
        gt, unc = events[i].gt, outputs[i][1]
        region = build_fcer(gt, rec.radius_px)
        errors = error_map(references[i], gt)
        y = errors[region.astype(bool)]
        if rec.radius_px == 30:
            assert region.all()
        if y.all() or not y.any():
            assert rec.auroc is None and rec.auprc is None and rec.error_prevalence is None
            continue
        defined += 1
        assert rec.auroc == uq_auroc(unc, errors, region)
        assert rec.auprc == average_precision(unc, errors, region)
        assert rec.error_prevalence == y.mean()
        s = unc[region.astype(bool)]
        assert rec.auroc == oracle_auroc(s, y)
        assert abs(rec.auprc - oracle_average_precision(s, y)) <= 1e-12
        if i == 1:
            assert rec.auroc == 0.5 and rec.auprc == rec.error_prevalence
    assert result.records[0].auroc is None  # fire 0 at radius 0: all errors
    assert defined >= 4 * len(radii)


def test_run_sweep_ranking_is_tie_order_free_at_scale():
    """A 96x96 fire with at most 4 uncertainty levels: the one sort over
    the largest FCER is long enough to reorder ties, and every radius
    still equals uq_auroc/average_precision on its own FCER bitwise."""
    rng = np.random.default_rng(61)
    events, outputs, references = [], [], []
    for i, levels in enumerate((2, 3, 4)):
        gt = np.zeros((96, 96), dtype=np.uint8)
        gt[30:66, 28:70] = rng.random((36, 42)) < 0.8
        prob = rng.random((96, 96)).astype(np.float32)
        unc = (rng.integers(0, levels, size=(96, 96)) / 4.0).astype(np.float32)
        events.append(FireEvent(id=f"fire_{i}", year=2020, gt=gt, members=[prob] * 3))
        outputs.append((prob, unc))
        references.append(prob)
    cfg = SweepConfig(radii_px=tuple(range(17)), anchor_px=40)
    result = _sweep(events, outputs, references, cfg)
    radii = tuple(range(17)) + (40,)
    assert [rec.radius_px for rec in result.records] == list(radii) * len(events)
    for k, rec in enumerate(result.records):
        i = k // len(radii)
        gt, unc = events[i].gt, outputs[i][1]
        region = build_fcer(gt, rec.radius_px)
        errors = error_map(references[i], gt)
        assert rec.auroc == uq_auroc(unc, errors, region)
        assert rec.auprc == average_precision(unc, errors, region)
    assert result.records[-1].n_eval_px >= 64 * 64


def _assert_records_equal_per_region(events, outputs, references, result, radii, eps):
    """Every record bitwise equals the per-region metrics on build_fcer."""
    assert [rec.radius_px for rec in result.records] == list(radii) * len(events)
    for k, rec in enumerate(result.records):
        i = k // len(radii)
        gt, (prob, unc) = events[i].gt, outputs[i]
        region = build_fcer(gt, rec.radius_px)
        errors = error_map(references[i], gt)
        assert rec.n_eval_px == int(region.sum())
        assert rec.brier == brier(prob, gt, region)
        assert rec.nll == nll(prob, gt, region, epsilon=eps)
        y = errors[region.astype(bool)]
        if y.all() or not y.any():
            assert rec.auroc is None and rec.auprc is None
            continue
        assert rec.auroc == uq_auroc(unc, errors, region)
        assert rec.auprc == average_precision(unc, errors, region)
        assert rec.error_prevalence == y.mean()


@pytest.mark.parametrize("case", ["edges", "all-foreground", "radius-past-grid", "corners"])
def test_run_sweep_window_equals_per_region_metrics_bitwise(case):
    """The fire window changes no value where it is clipped by, or
    covers, the whole grid: each record equals brier, nll, uq_auroc and
    average_precision on build_fcer(gt, r) over the full grid."""
    rng = np.random.default_rng(83)
    h, w = 19, 26
    gts = []
    for _ in range(3):
        gt = np.zeros((h, w), dtype=np.uint8)
        if case == "edges":
            gt[6:12, 8:17] = rng.random((6, 9)) < 0.7
            gt[0, int(rng.integers(w))] = gt[-1, int(rng.integers(w))] = 1
            gt[int(rng.integers(h)), 0] = gt[int(rng.integers(h)), -1] = 1
        elif case == "all-foreground":
            gt[:] = 1
        elif case == "radius-past-grid":
            gt[8:11, 10:14] = 1
        else:
            gt[:2, :3] = 1
            gts.append(gt)
            gt = np.zeros((h, w), dtype=np.uint8)
            gt[-3:, -2:] = rng.random((3, 2)) < 0.8
            gt[-1, -1] = 1
        gts.append(gt)
    events, outputs, references = [], [], []
    for i, gt in enumerate(gts):
        prob = rng.random((h, w)).astype(np.float32)
        prob[0, 0], prob[-1, -1] = 0.0, 1.0  # clipped by nll's epsilon
        unc = (rng.integers(0, 3, size=(h, w)) / 4.0).astype(np.float32)
        events.append(FireEvent(id=f"fire_{i}", year=2020, gt=gt, members=[prob] * 3))
        outputs.append((prob, unc))
        references.append(np.roll(prob, 3, axis=1))
    largest = 40 if case == "radius-past-grid" else 7
    cfg = SweepConfig(radii_px=(0, 1, 2, 3, 5), anchor_px=largest, nll_epsilon=1e-3)
    result = _sweep(events, outputs, references, cfg)
    radii = (0, 1, 2, 3, 5, largest)
    _assert_records_equal_per_region(events, outputs, references, result, radii, 1e-3)
    if case in ("all-foreground", "radius-past-grid"):
        assert result.records[-1].n_eval_px == h * w


def test_run_sweep_window_equals_per_region_metrics_on_scenario_fires():
    events = _scenario_events(seed=29, n_fires=6, grid=48)
    # some windows lie strictly inside the grid, clipped by no edge
    assert any(
        not (r[0].any() or r[-1].any() or r[:, 0].any() or r[:, -1].any())
        for r in (build_fcer(ev.gt, 12) for ev in events if ev.gt.any())
    )
    outputs = [(ev.members[0], np.abs(ev.members[2] - 0.5)) for ev in events]
    references = [ev.members[1] for ev in events]
    cfg = SweepConfig(radii_px=tuple(range(9)), anchor_px=12)
    result = _sweep(events, outputs, references, cfg)
    radii = tuple(range(9)) + (12,)
    eps = cfg.nll_epsilon
    _assert_records_equal_per_region(events, outputs, references, result, radii, eps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(0, 0), (8, 7), (15, 15)])
def test_run_sweep_rejects_non_finite_uncertainty(bad, at):
    rng = np.random.default_rng(89)
    gt = np.zeros((16, 16), dtype=np.uint8)
    gt[6:10, 5:11] = 1
    prob = rng.random((16, 16)).astype(np.float32)
    unc = rng.random((16, 16)).astype(np.float32)
    unc[at] = bad
    events = [FireEvent(id="fire_0", year=2020, gt=gt, members=[prob] * 3)]
    # radius 30 puts every pixel in the outer FCER
    with pytest.raises(ValidationError, match="finite"):
        _sweep(events, [(prob, unc)], [prob], SweepConfig(radii_px=(0, 2), anchor_px=30))


def _two_models(seed=17, n_fires=5):
    """Two models on one shared fire list, as the CLI builds them."""
    events = _scenario_events(seed=seed, n_fires=n_fires)
    fires = [Fire(ev, ev.members[1]) for ev in events]
    model_a = Model(fires, [(ev.members[0], np.abs(ev.members[2] - 0.5)) for ev in events])
    model_b = Model(fires, [(ev.members[2], np.abs(ev.members[0] - 0.5)) for ev in events])
    return model_a, model_b


def test_run_sweep_shared_fires_match_each_model_alone():
    model_a, model_b = _two_models()
    # the shared Fire objects in another order: records follow each model's order
    model_c = Model(model_b.fires[::-1], model_b.outputs[::-1])
    cfg = SweepConfig(radii_px=(0, 2, 5), anchor_px=3)
    together = run_sweep([model_a, model_b, model_c], cfg, GEO)
    for model, result in zip((model_a, model_b, model_c), together):
        [alone] = run_sweep([model], cfg, GEO)
        assert result.records == alone.records
        assert result.anchor_radius_px == alone.anchor_radius_px == 3


def test_run_sweep_pools_asd_in_model_then_fire_order():
    model_a, model_b = _two_models(seed=19, n_fires=6)
    results = run_sweep([model_a, model_b], SweepConfig(radii_px=(1,)), GEO)
    pooled = []
    for result in results:
        pooled += [rec.asd_m for rec in result.records if rec.asd_m is not None]
    assert len(pooled) > len(model_a.fires)
    assert results[0].anchor_radius_px == resolve_anchor(pooled, GEO)
    assert results[1].anchor_radius_px == results[0].anchor_radius_px


def test_run_sweep_computes_each_fire_edt_once(monkeypatch):
    model_a, model_b = _two_models()
    calls = []
    real = protocol.squared_edt_within
    monkeypatch.setattr(
        protocol, "squared_edt_within", lambda m, r: calls.append(1) or real(m, r)
    )
    run_sweep([model_a, model_b], SweepConfig(radii_px=(0, 4), anchor_px=2), GEO)
    assert len(calls) == len(model_a.fires)


def test_run_sweep_aggregates_equal_per_radius_filter_over_many_radii():
    """With 150 radii summarize's one-pass buckets give each radius the
    records a per-radius filter selects, in record order."""
    model_a, _ = _two_models(seed=23, n_fires=4)
    radii = tuple(range(0, 300, 2))
    [result] = run_sweep([model_a], SweepConfig(radii_px=radii, anchor_px=3), GEO)
    per_radius = _per_radius(result)
    assert sorted(map(int, per_radius)) == sorted(radii + (3,))
    for r in sorted(radii + (3,)):
        at_r = [rec for rec in result.records if rec.radius_px == r]
        for name in METRIC_COLUMNS:
            values = [getattr(rec, name) for rec in at_r]
            defined = [v for v in values if v is not None]
            mean = float(np.mean(defined)) if defined else None
            assert per_radius[str(r)]["aggregates"][name] == mean
            assert per_radius[str(r)]["counts"][name] == len(defined)


def test_run_sweep_reads_a_known_reference_ap():
    """A model whose probability map is the fire's reference takes the
    fire's reference_ap instead of ranking the map again; an unknown
    reference_ap is computed."""
    events = _scenario_events(seed=31, n_fires=4)
    fires = [Fire(ev, ev.members[1], reference_ap=0.25) for ev in events]
    fires[0].reference_ap = None
    outputs = [(fire.reference, np.abs(fire.reference - 0.5)) for fire in fires]
    [result] = run_sweep([Model(fires, outputs)], SweepConfig(radii_px=(0,), anchor_px=1), GEO)
    aps = [rec.ap for rec in result.records if rec.radius_px == 0]
    assert aps[0] == average_precision(events[0].members[1], events[0].gt)
    assert aps[1:] == [0.25] * 3
    # a copy of the reference is not the reference: its AP is computed
    outputs = [(prob.copy(), unc) for prob, unc in outputs]
    [result] = run_sweep([Model(fires, outputs)], SweepConfig(radii_px=(0,), anchor_px=1), GEO)
    aps = [rec.ap for rec in result.records if rec.radius_px == 0]
    assert aps == [average_precision(ev.members[1], ev.gt) for ev in events]


def test_aggregate_mean_std_reference_values():
    # per-year AUROC means aggregating to 0.558 +/- 0.019
    mean, std = aggregate_mean_std([0.562, 0.527, 0.568, 0.577])
    assert round(mean, 3) == 0.558
    assert round(std, 3) == 0.019
    # and 0.629 +/- 0.035
    mean, std = aggregate_mean_std([0.603, 0.619, 0.605, 0.689])
    assert round(mean, 3) == 0.629
    assert round(std, 3) == 0.035


def test_aggregate_mean_std_population_convention():
    mean, std = aggregate_mean_std([1.0, 3.0])
    assert mean == 2.0
    assert std == 1.0  # population (divide by N), not sample
    mean, std = aggregate_mean_std([0.4, 0.4, 0.4, 0.4])
    assert std == 0.0
    with pytest.raises(ValidationError):
        aggregate_mean_std([])
    with pytest.raises(ValidationError):
        aggregate_mean_std([0.1, np.nan])


def test_relative_to_baseline_reference_values():
    assert relative_to_baseline(0.629, 0.5) == 26
    assert relative_to_baseline(0.307, 0.205) == 50
    assert relative_to_baseline(0.56, 0.5) == 12
    assert relative_to_baseline(0.5, 0.5) == 0
    assert relative_to_baseline(0.45, 0.5) == -10
    with pytest.raises(ValidationError):
        relative_to_baseline(0.5, 0.0)

