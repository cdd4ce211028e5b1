"""Acceptance gate: the nine binding criteria, one printed verdict each.

Every test announces `acceptance criterion N (...): PASS|FAIL` on the
terminal regardless of capture.  Two reference figures are not
reproducible from their own per-year values; those are asserted as
strict xfails right below the criterion they belong to, so the honest
failure stays visible without breaking the suite.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fireuq.cli import main
from fireuq.distill import (
    TrainConfig,
    UncertaintyHead,
    apply_head,
    fuse_ensemble,
    head_target,
    rmsle,
    rmsle_gradient,
    sigma_max,
    train_head,
)
from fireuq.errors import DegenerateClassError
from fireuq.metrics import (
    average_precision,
    average_surface_distance,
    brier,
    error_map,
    nll,
    precision_recall,
    uq_auroc,
)
from fireuq.morphology import dilate, edt
from fireuq.oracles import (
    oracle_asd,
    oracle_auprc,
    oracle_auroc,
    oracle_average_precision,
    oracle_dilate,
    oracle_edt,
    oracle_wilcoxon_one_sided,
)
from fireuq.protocol import (
    aggregate_mean_std,
    build_fcer,
    relative_to_baseline,
    resolve_anchor,
)
from fireuq.raster import GeoConfig
from fireuq.stats import _doubled_ranks, _normal_p, rank_biserial, wilcoxon_one_sided
from fireuq.synth import ScenarioSpec, generate_scenario


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _go(number, label):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                verdict = "PASS" if ok else "FAIL"
                print(f"acceptance criterion {number} ({label}): {verdict}")

    return _go


# Per-year values for the four evaluation years next to the reference
# mean +/- std they are summarized as, with the number of printed
# decimal places.  asd rows are in km.
REFERENCE_ROWS = {
    "ensemble": {
        "ap": ((0.53, 0.37, 0.51, 0.60), 0.50, 0.08, 2),
        "asd_km": ((1.21, 1.13, 1.52, 1.68), 1.39, 0.22, 2),
        "brier": ((0.159, 0.163, 0.173, 0.150), 0.161, 0.008, 3),
        "nll": ((0.505, 0.517, 0.549, 0.476), 0.512, 0.026, 3),
        "auroc": ((0.562, 0.527, 0.568, 0.577), 0.558, 0.019, 3),
        "auprc": ((0.251, 0.233, 0.270, 0.243), 0.249, 0.014, 3),
    },
    "dudes": {
        "ap": ((0.51, 0.35, 0.50, 0.58), 0.49, 0.09, 2),
        "asd_km": ((1.22, 1.22, 1.71, 1.51), 1.41, 0.21, 2),
        "brier": ((0.160, 0.169, 0.172, 0.151), 0.163, 0.008, 3),
        "nll": ((0.510, 0.541, 0.548, 0.481), 0.520, 0.027, 3),
        "auroc": ((0.603, 0.619, 0.605, 0.689), 0.629, 0.035, 3),
        "auprc": ((0.281, 0.318, 0.291, 0.339), 0.307, 0.023, 3),
    },
}


def test_criterion_1_reference_aggregation(announce):
    with announce(1, "mean/std aggregation of reference rows"):
        start = time.perf_counter()
        checked = 0
        for method, rows in REFERENCE_ROWS.items():
            for metric, (years, mean_ref, std_ref, decimals) in rows.items():
                mean, std = aggregate_mean_std(years)
                tol = 0.5 * 10.0**-decimals + 1e-9
                assert abs(mean - mean_ref) <= tol, (method, metric, mean)
                if (method, metric) == ("dudes", "ap"):
                    # population std of these four values is 0.084; the
                    # reference 0.09 is tracked in the xfail below
                    assert round(std, 2) == 0.08
                else:
                    assert abs(std - std_ref) <= tol, (method, metric, std)
                checked += 1
        assert checked == 12
        assert time.perf_counter() - start < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="population std of (0.51, 0.35, 0.50, 0.58) is 0.084, not 0.09",
)
def test_criterion_1_dudes_ap_std_as_referenced(announce):
    with announce("1 supplement", "dudes AP std reference figure"):
        _mean, std = aggregate_mean_std((0.51, 0.35, 0.50, 0.58))
        assert abs(std - 0.09) <= 0.5 * 10.0**-2 + 1e-9


def test_criterion_2_baseline_percentages(announce):
    with announce(2, "relative gains over chance baselines"):
        start = time.perf_counter()
        assert relative_to_baseline(0.629, 0.5) == 26
        assert relative_to_baseline(0.558, 0.5) == 12
        assert relative_to_baseline(0.307, 0.205) == 50
        # 0.249 over 0.205 is a 21 percent gain; the reference figure of
        # 23 is tracked in the xfail below
        assert relative_to_baseline(0.249, 0.205) == 21
        assert time.perf_counter() - start < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="(0.249 - 0.205) / 0.205 rounds to 21 percent, not 23",
)
def test_criterion_2_ensemble_auprc_gain_as_referenced(announce):
    with announce("2 supplement", "ensemble AUPRC gain reference figure"):
        assert relative_to_baseline(0.249, 0.205) == 23


def _nonempty_mask(rng, h, w, density):
    m = (rng.random((h, w)) < density).astype(np.uint8)
    if not m.any():
        m[rng.integers(h), rng.integers(w)] = 1
    return m


def _ranking_instance(rng):
    # mostly small continuous-score grids, some larger quantized ones
    if rng.random() < 0.85:
        h, w = int(rng.integers(2, 17)), int(rng.integers(2, 17))
        scores = rng.random((h, w))
    else:
        h, w = int(rng.integers(17, 33)), int(rng.integers(17, 33))
        scores = np.round(rng.random((h, w)), 2)
    labels = (rng.random((h, w)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
    if labels.min() == labels.max():
        labels.flat[0] = 1 - labels.flat[0]
    if rng.random() < 0.5:
        scores = np.round(scores, 1)
    return scores, labels


def test_criterion_3_oracle_equivalence(announce):
    with announce(3, "oracle equivalence, 200 instances per metric"):
        start = time.perf_counter()
        rng = np.random.default_rng(33)

        for _ in range(200):
            h, w = int(rng.integers(1, 17)), int(rng.integers(1, 17))
            m = _nonempty_mask(rng, h, w, rng.uniform(0.05, 0.6))
            assert np.array_equal(edt(m), oracle_edt(m))

        for _ in range(200):
            h, w = int(rng.integers(1, 17)), int(rng.integers(1, 17))
            m = _nonempty_mask(rng, h, w, rng.uniform(0.05, 0.5))
            r = int(rng.integers(0, 6))
            assert np.array_equal(dilate(m, r), oracle_dilate(m, r))

        for _ in range(200):
            h, w = int(rng.integers(2, 17)), int(rng.integers(2, 17))
            a = _nonempty_mask(rng, h, w, rng.uniform(0.1, 0.6))
            b = _nonempty_mask(rng, h, w, rng.uniform(0.1, 0.6))
            got = average_surface_distance(a, b, meters_per_pixel=1.0)
            assert abs(got - oracle_asd(a, b, 1.0)) <= 1e-12

        for _ in range(200):
            s, y = _ranking_instance(rng)
            assert abs(average_precision(s, y) - oracle_average_precision(s, y)) <= 1e-12

        for _ in range(200):
            s, y = _ranking_instance(rng)
            assert uq_auroc(s, y) == oracle_auroc(s, y)

        for _ in range(200):
            s, y = _ranking_instance(rng)
            assert abs(average_precision(s, y) - oracle_auprc(s, y)) <= 1e-12

        assert time.perf_counter() - start < 60.0


def test_criterion_4_wilcoxon_exactness(announce):
    with announce(4, "signed-rank exact p, effect size, normal tail"):
        rng = np.random.default_rng(44)
        for _ in range(120):
            n = int(rng.integers(1, 13))
            d = rng.normal(size=n)
            if rng.random() < 0.5:
                d = np.round(d, 1)  # force ties and zeros
            if not np.any(d != 0.0):
                d[0] = 1.0
            res = wilcoxon_one_sided(d)
            w_ref, p_ref = oracle_wilcoxon_one_sided(d)
            assert res.mode == "exact"
            assert res.w_plus == w_ref
            assert abs(res.p_value - p_ref) <= 1e-12

        for _ in range(100):
            n = int(rng.integers(1, 16))
            d = rng.normal(size=n)
            if not np.any(d != 0.0):
                d[0] = 1.0
            res = wilcoxon_one_sided(d)
            if res.w_plus + res.w_minus > 0:
                expected = (res.w_plus - res.w_minus) / (res.w_plus + res.w_minus)
                assert rank_biserial(res.w_plus, res.w_minus) == expected

        for _ in range(40):
            n = int(rng.integers(20, 26))
            d = rng.normal(size=n)
            if rng.random() < 0.5:
                d = np.round(d, 1)
            d = d[d != 0.0]
            if len(d) < 20:
                continue
            res = wilcoxon_one_sided(d)
            assert res.mode == "exact"
            doubled = _doubled_ranks([abs(x) for x in d])
            p_norm = _normal_p(doubled, res.w_plus, res.n_effective)
            assert abs(p_norm - res.p_value) <= 0.01


def test_criterion_5_anchor_resolution(announce):
    with announce(5, "mean ASD 1.39 km at 375 m/px resolves to 4 px"):
        assert resolve_anchor([1390.0], GeoConfig(meters_per_pixel=375.0)) == 4


def _region_metrics(prob, unc, gt, region):
    err = error_map(prob, gt)
    out = [
        precision_recall((prob >= 0.5).astype(np.uint8), gt, region),
        brier(prob, gt, region),
        nll(prob, gt, region),
    ]
    try:
        out.append(average_precision(prob, gt, region))
    except DegenerateClassError:
        out.append(None)
    try:
        out.append(uq_auroc(unc, err, region))
        out.append(average_precision(unc, err, region))
    except DegenerateClassError:
        out.append(None)
    return tuple(out)


def test_criterion_6_fcer_structure(announce):
    with announce(6, "region nesting, saturation, outside-edit fuzz"):
        spec = ScenarioSpec(
            rng_seed=6,
            grid_size=32,
            n_fires=12,
            member_noise_sigma=0.25,
            feature_channels=4,
            blob_radius_range_px=(3, 9),
        )
        events = generate_scenario(spec)
        fused = {ev.id: fuse_ensemble(ev.members) for ev in events}

        for ev in events:
            regions = [build_fcer(ev.gt, r) for r in (0, 1, 2, 3, 5, 8, 13)]
            for smaller, larger in zip(regions, regions[1:]):
                assert not np.any((smaller == 1) & (larger == 0))

            # radius 64 saturates a 32x32 grid: max squared distance to
            # the nearest fire pixel is 2 * 31^2 < 64^2
            saturated = build_fcer(ev.gt, 64)
            assert saturated.all()
            out = fused[ev.id]
            masked = _region_metrics(out.mean_prob, out.uncertainty, ev.gt, saturated)
            unmasked = _region_metrics(out.mean_prob, out.uncertainty, ev.gt, None)
            assert masked == unmasked

        rng = np.random.default_rng(66)
        trials = 0
        k = 0
        while trials < 50:
            ev = events[k % len(events)]
            k += 1
            region = build_fcer(ev.gt, int(rng.integers(1, 7)))
            outside = region == 0
            if not outside.any():
                continue
            out = fused[ev.id]
            before = _region_metrics(out.mean_prob, out.uncertainty, ev.gt, region)
            prob = out.mean_prob.copy()
            unc = out.uncertainty.copy()
            prob[outside] = rng.random(int(outside.sum()))
            unc[outside] = rng.random(int(outside.sum()))
            assert _region_metrics(prob, unc, ev.gt, region) == before
            trials += 1


def test_criterion_7_teacher_normalization(announce):
    with announce(7, "fused uncertainty bounds and attainable maximum"):
        rng = np.random.default_rng(77)
        members = [rng.random((250, 400)) for _ in range(3)]
        out = fuse_ensemble(members)
        assert out.uncertainty.size == 100_000
        assert np.all(out.uncertainty >= 0.0)
        assert np.all(out.uncertainty <= 1.0)

        extreme = fuse_ensemble(
            [np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1))]
        )
        assert extreme.uncertainty[0, 0] == 1.0

        grid = np.arange(101) / 100.0
        a, b, c = np.meshgrid(grid, grid, grid, indexing="ij")
        stds = np.stack([a, b, c]).reshape(3, -1).std(axis=0, ddof=1)
        assert abs(float(stds.max()) - math.sqrt(1.0 / 3.0)) <= 1e-12
        assert sigma_max(3) == math.sqrt(1.0 / 3.0)


def test_criterion_8_distillation_correctness(announce):
    with announce(8, "gradient check, head recovery, held-out ranking"):
        start = time.perf_counter()

        # (a) analytic gradient against central differences
        rng = np.random.default_rng(88)
        step = 1e-5
        for _ in range(20):
            c = int(rng.integers(1, 5))
            h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            features = rng.normal(size=(c, h, w))
            teacher = rng.random((h, w))
            head = UncertaintyHead(
                weights=rng.normal(size=c), bias=float(rng.normal())
            )
            loss, grad_w, grad_b = rmsle_gradient(head, features, teacher)
            assert loss == rmsle(apply_head(head, features), teacher)
            for j in range(c):
                up, down = head.weights.copy(), head.weights.copy()
                up[j] += step
                down[j] -= step
                fd = (
                    rmsle(apply_head(UncertaintyHead(up, head.bias), features), teacher)
                    - rmsle(apply_head(UncertaintyHead(down, head.bias), features), teacher)
                ) / (2 * step)
                assert abs(grad_w[j] - fd) <= 1e-4 * max(1.0, abs(fd))
            fd_b = (
                rmsle(apply_head(UncertaintyHead(head.weights, head.bias + step), features), teacher)
                - rmsle(apply_head(UncertaintyHead(head.weights, head.bias - step), features), teacher)
            ) / (2 * step)
            assert abs(grad_b - fd_b) <= 1e-4 * max(1.0, abs(fd_b))

        # (b) recovery of a known generating head
        spec = ScenarioSpec(
            rng_seed=5,
            grid_size=32,
            n_fires=24,
            member_noise_sigma=0.25,
            feature_channels=5,
            blob_radius_range_px=(3, 8),
        )
        generating = UncertaintyHead(
            weights=np.array([0.8, -0.5, 0.3, 1.2, -0.7]), bias=-0.4
        )
        train_set, val_set, val_selection = [], [], []
        for ev in generate_scenario(spec):
            pair = (ev.features, head_target(ev.features, apply_head(generating, ev.features)))
            if ev.year == 2021:
                val_set.append(pair)
                val_selection.append((ev.gt, fuse_ensemble(ev.members).mean_prob))
            else:
                train_set.append(pair)
        cfg = TrainConfig(
            lr0=1.0,
            max_epochs=400,
            patience=400,
            rng_seed=3,
            weight_decay=0.0,
            batch_size=18,
            selection_anchor_px=4,
        )
        result = train_head(train_set, val_set, cfg, val_selection)
        final = result.log[-1]
        assert final.val_rmsle < 1e-2
        reference_scores = []
        for (gt, reference), (features, _t) in zip(val_selection, val_set):
            reference_scores.append(
                uq_auroc(
                    apply_head(generating, features),
                    error_map(reference, gt),
                    build_fcer(gt, 4),
                )
            )
        generating_auroc = float(np.mean(reference_scores))
        assert abs(final.val_auroc_at_anchor - generating_auroc) <= 0.02

        # (c) student trained on the fused teacher ranks held-out errors
        spec = ScenarioSpec(
            rng_seed=5,
            grid_size=32,
            n_fires=24,
            member_noise_sigma=0.25,
            feature_channels=6,
            blob_radius_range_px=(3, 9),
        )
        train_set, val_set, val_selection = [], [], []
        for ev in generate_scenario(spec):
            fused = fuse_ensemble(ev.members)
            pair = (ev.features, head_target(ev.features, fused.uncertainty))
            if ev.year == 2021:
                val_set.append(pair)
                val_selection.append((ev.gt, fused.mean_prob))
            else:
                train_set.append(pair)
        cfg = TrainConfig(
            lr0=0.5,
            max_epochs=300,
            patience=300,
            rng_seed=7,
            batch_size=18,
            selection_anchor_px=4,
            weight_decay=5e-4,
        )
        result = train_head(train_set, val_set, cfg, val_selection)
        held_out = []
        for (gt, reference), (features, _t) in zip(val_selection, val_set):
            student = apply_head(result.head, features)
            held_out.append(
                uq_auroc(student, error_map(reference, gt), build_fcer(gt, 4))
            )
        assert float(np.mean(held_out)) >= 0.5 + 0.1

        assert time.perf_counter() - start < 300.0


CHAIN_SEED = "11"


def _run_chain(jobs):
    """synth -> distill -> sweep -> stats with relative paths only."""
    j = str(jobs)
    for argv in (
        ["synth", "--out-dir", "pack", "--seed", CHAIN_SEED, "--grid-size", "24",
         "--n-fires", "8", "--n-members", "3", "--blob-radius", "2", "6",
         "--noise-sigma", "0.25", "--feature-channels", "5", "--jobs", j],
        ["distill", "pack", "--out-dir", "distill", "--max-epochs", "6",
         "--patience", "6", "--lr0", "0.05", "--selection-anchor", "3",
         "--jobs", j],
        ["sweep", "--model-a", "ensemble:pack",
         "--model-b", "student:pack:distill/head.json",
         "--radii", "0,2,4", "--anchor", "4", "--out-dir", "sweep",
         "--jobs", j],
        ["stats", "sweep", "--out-dir", "stats", "--jobs", j],
    ):
        assert main(argv) == 0


def test_criterion_9_end_to_end_determinism(announce, tmp_path, monkeypatch):
    with announce(9, "byte-identical reruns, --jobs inert"):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        emitted = {}
        for name, jobs in (("first", 1), ("second", 4)):
            base = tmp_path / name
            base.mkdir()
            monkeypatch.chdir(base)
            _run_chain(jobs)
            emitted[name] = {
                str(p.relative_to(base)): p.read_bytes()
                for p in base.rglob("*")
                if p.suffix in (".csv", ".json")
            }
        assert sorted(emitted["first"]) == sorted(emitted["second"])
        assert len(emitted["first"]) >= 14
        for rel, blob in emitted["first"].items():
            assert emitted["second"][rel] == blob, f"{rel} differs between runs"
