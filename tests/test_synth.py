"""Synthetic scenario generation: determinism, structure, error geometry."""

import json
import math

import numpy as np
import pytest

from fireuq.distill import fuse_ensemble
from fireuq.errors import ValidationError
from fireuq.metrics import error_map
from fireuq.morphology import extract_boundary
from fireuq.oracles import oracle_edt
from fireuq.protocol import build_fcer
from fireuq.raster import load_dataset
from fireuq.synth import (
    DEFAULT_YEARS,
    MAX_FEATURE_NOISE_SIGMA,
    ScenarioSpec,
    generate_scenario,
    write_scenario,
)


def test_same_seed_reproduces_identical_arrays():
    spec = ScenarioSpec(rng_seed=4, grid_size=32, n_fires=5, feature_channels=5,
                        blob_radius_range_px=(2, 6))
    a = generate_scenario(spec)
    b = generate_scenario(spec)
    assert len(a) == len(b) == 5
    for ea, eb in zip(a, b):
        assert ea.id == eb.id and ea.year == eb.year
        assert ea.gt.tobytes() == eb.gt.tobytes()
        for ma, mb in zip(ea.members, eb.members):
            assert ma.tobytes() == mb.tobytes()
        assert ea.features.tobytes() == eb.features.tobytes()


def test_different_seed_changes_data():
    base = dict(grid_size=32, n_fires=2, feature_channels=5,
                blob_radius_range_px=(2, 6))
    a = generate_scenario(ScenarioSpec(rng_seed=0, **base))
    b = generate_scenario(ScenarioSpec(rng_seed=1, **base))
    assert a[0].gt.tobytes() != b[0].gt.tobytes() or a[0].members[0].tobytes() != b[0].members[0].tobytes()


def test_years_assigned_round_robin():
    spec = ScenarioSpec(rng_seed=2, grid_size=16, n_fires=6, feature_channels=4,
                        blob_radius_range_px=(2, 5), years=(2018, 2019))
    events = generate_scenario(spec)
    assert [e.year for e in events] == [2018, 2019, 2018, 2019, 2018, 2019]
    assert [e.id for e in events] == [f"fire_{i:03d}" for i in range(6)]


def test_zero_noise_members_equal_smoothed_gt():
    spec = ScenarioSpec(
        rng_seed=6, grid_size=24, n_fires=3, member_noise_sigma=0.0,
        member_bias=0.0, feature_channels=4, blob_radius_range_px=(3, 6),
    )
    for ev in generate_scenario(spec):
        for m in ev.members[1:]:
            assert m.tobytes() == ev.members[0].tobytes()
        teacher = fuse_ensemble([m.astype(np.float64) for m in ev.members])
        assert float(teacher.uncertainty.max()) == 0.0
        # blurred probability is brighter inside the burn than outside
        inside = ev.members[0][ev.gt.astype(bool)]
        outside = ev.members[0][~ev.gt.astype(bool)]
        assert float(inside.mean()) > float(outside.mean())


def test_member_values_are_valid_probabilities():
    spec = ScenarioSpec(rng_seed=8, grid_size=24, n_fires=4,
                        member_noise_sigma=0.4, member_bias=0.2,
                        feature_channels=4, blob_radius_range_px=(2, 6))
    for ev in generate_scenario(spec):
        for m in ev.members:
            assert m.dtype == np.float32
            assert float(m.min()) >= 0.0 and float(m.max()) <= 1.0


def test_feature_stack_composition():
    spec = ScenarioSpec(rng_seed=10, grid_size=24, n_fires=2, n_members=3,
                        feature_channels=6, blob_radius_range_px=(3, 6))
    ev = generate_scenario(spec)[0]
    assert ev.features.shape == (6, 24, 24)
    # channels 0..2 are member logits
    for k in range(3):
        p = np.clip(ev.members[k].astype(np.float64), 1e-3, 1.0 - 1e-3)
        want = np.log(p / (1.0 - p))
        assert ev.features[k] == pytest.approx(want.astype(np.float32), abs=1e-6)
    # channel 3 is boundary proximity in (0, 1], equal to 1 on the boundary
    prox = ev.features[3]
    assert float(prox.min()) > 0.0 and float(prox.max()) <= 1.0
    boundary = extract_boundary(ev.gt).astype(bool)
    assert prox[boundary] == pytest.approx(np.ones(int(boundary.sum())), abs=1e-6)
    # bitwise against the brute-force oracle (24x24 is inside its size guard)
    want_prox = np.exp(-oracle_edt(extract_boundary(ev.gt)) / 4.0).astype(np.float32)
    assert prox.tobytes() == want_prox.tobytes()


def test_spec_validation_errors():
    with pytest.raises(ValidationError):
        ScenarioSpec(grid_size=4)
    with pytest.raises(ValidationError, match="years"):
        ScenarioSpec(years=(-1, 2020))
    with pytest.raises(ValidationError):
        ScenarioSpec(n_fires=0)
    with pytest.raises(ValidationError):
        ScenarioSpec(n_members=1)
    with pytest.raises(ValidationError, match="odd"):
        ScenarioSpec(n_members=4, feature_channels=6)
    with pytest.raises(ValidationError):
        ScenarioSpec(blob_count_range=(0, 2))
    with pytest.raises(ValidationError):
        ScenarioSpec(blob_radius_range_px=(5, 3))
    with pytest.raises(ValidationError):
        ScenarioSpec(grid_size=16, blob_radius_range_px=(3, 16))
    with pytest.raises(ValidationError):
        ScenarioSpec(member_bias=1.0)
    with pytest.raises(ValidationError):
        ScenarioSpec(n_members=3, feature_channels=3)
    with pytest.raises(ValidationError):
        ScenarioSpec(years=())
    for name in ("member_noise_sigma", "feature_noise_sigma"):
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValidationError, match=f"{name} must be finite"):
                ScenarioSpec(**{name: bad})
    with pytest.raises(ValidationError, match="feature_noise_sigma must be <= 1e"):
        ScenarioSpec(feature_noise_sigma=MAX_FEATURE_NOISE_SIGMA * 1.01)


def test_feature_noise_at_its_bound_stays_finite_in_float32():
    """The largest feature noise sigma accepted draws noise channels that
    fit float32 (tier-1 turns the cast's overflow warning into an error)."""
    spec = ScenarioSpec(rng_seed=2, grid_size=16, n_fires=2, feature_channels=5,
                        feature_noise_sigma=MAX_FEATURE_NOISE_SIGMA)
    for ev in generate_scenario(spec):
        noise = ev.features[spec.n_members + 1:]
        assert np.isfinite(noise).all()
        assert np.abs(noise).max() > MAX_FEATURE_NOISE_SIGMA / 10


def test_write_scenario_round_trips_through_dataset_loader(tmp_path):
    spec = ScenarioSpec(rng_seed=12, grid_size=16, n_fires=4, feature_channels=4,
                        blob_radius_range_px=(2, 5), years=(2020, 2021))
    written = write_scenario(spec, tmp_path)
    loaded = load_dataset(tmp_path)
    assert len(loaded) == 4
    by_key = {(e.year, e.id): e for e in written}
    for ev in loaded:
        src = by_key[(ev.year, ev.id)]
        assert ev.gt.tobytes() == src.gt.tobytes()
        for a, b in zip(ev.members, src.members):
            assert a.tobytes() == b.tobytes()
        assert ev.features.tobytes() == src.features.tobytes()
    manifest = json.loads((tmp_path / "scenario.json").read_text())
    assert manifest["rng_seed"] == 12
    assert manifest["grid_size"] == 16
    # the spec's tuples are written as JSON arrays
    assert manifest["years"] == [2020, 2021]
    assert manifest["blob_count_range"] == list(spec.blob_count_range)
    assert manifest["blob_radius_range_px"] == [2, 5]


def test_errors_concentrate_near_the_boundary():
    # thresholding a noisy blurred copy of the gt misfires mostly along
    # the perimeter, which is what boundary-anchored evaluation assumes
    spec = ScenarioSpec(
        rng_seed=0, grid_size=32, n_fires=16, member_noise_sigma=0.3,
        feature_channels=4, blob_radius_range_px=(3, 9),
    )
    inside_rates, outside_rates = [], []
    for ev in generate_scenario(spec):
        errors = error_map(ev.members[0], ev.gt, threshold=0.5)
        region = build_fcer(ev.gt, 4).astype(bool)
        inside_rates.append(float(errors[region].mean()))
        if (~region).sum():
            outside_rates.append(float(errors[~region].mean()))
    assert np.mean(inside_rates) > 2.0 * np.mean(outside_rates)


def test_default_years_constant():
    assert DEFAULT_YEARS == (2018, 2019, 2020, 2021)
