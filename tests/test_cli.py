"""End-to-end command flows: synth, eval, sweep, stats, distill."""

import csv
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fireuq import distill, protocol, synth
from fireuq.cli import _parse_radii, main
from fireuq.distill import (
    TrainConfig,
    UncertaintyHead,
    apply_head,
    load_head,
    load_model_years,
    load_models,
    middle_member_by_year,
    parse_model_spec,
    save_head,
)
from fireuq.errors import DegenerateClassError, ShapeError, ValidationError
from fireuq.metrics import average_precision, error_map
from fireuq.protocol import (
    SweepConfig,
    resolve_anchor,
    run_sweep,
    score_fire,
    summarize,
    sweep_anchor,
    unmasked_scores,
)
from fireuq.raster import (
    FireEvent,
    GeoConfig,
    load_dataset,
    read_years,
    save_event,
    scan_dataset,
)
from fireuq.report import CSV_COLUMNS, read_sweep_csv, write_json
from fireuq.synth import ScenarioSpec, generate_scenario

@pytest.fixture(autouse=True)
def pinned_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


@pytest.fixture(scope="module")
def pack(tmp_path_factory):
    """One synthesized dataset shared by the command tests."""
    root = tmp_path_factory.mktemp("pack")
    rc = main([
        "synth", "--out-dir", str(root), "--seed", "3",
        "--grid-size", "24", "--n-fires", "8", "--n-members", "3",
        "--blob-radius", "2", "6", "--noise-sigma", "0.25",
        "--feature-channels", "5",
    ])
    assert rc == 0
    return root


def _run(args):
    return main([str(a) for a in args])


def test_parse_radii():
    assert _parse_radii("0..3") == (0, 1, 2, 3)
    assert _parse_radii("0,2,5") == (0, 2, 5)
    assert _parse_radii("4") == (4,)
    with pytest.raises(ValidationError):
        _parse_radii("a..b")
    with pytest.raises(ValidationError):
        _parse_radii("1,x")
    with pytest.raises(ValidationError):
        _parse_radii("5..2")


def test_parse_model_spec():
    kind, root, head = parse_model_spec("ensemble:/data/pack")
    assert kind == "ensemble" and str(root) == "/data/pack" and head is None
    kind, root, head = parse_model_spec("student:/d/p:/d/h.json")
    assert kind == "student" and str(head) == "/d/h.json"
    for bad in ("ensemble", "ensemble:", "student:/d/p", "teacher:/d/p", "student::h"):
        with pytest.raises(ValidationError):
            parse_model_spec(bad)


def test_unknown_command_exits_one(capsys):
    assert main(["explode"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_exits_one(capsys):
    assert main(["eval", "--model", "ensemble:/nowhere"]) == 1
    capsys.readouterr()


def test_invalid_synth_spec_exits_one(tmp_path, capsys):
    for bad in (["--grid-size", "16", "--blob-radius", "3", "20"], ["--n-members", "4"]):
        assert _run(["synth", "--out-dir", tmp_path / "o", *bad]) == 1
        assert not (tmp_path / "o").exists()
    capsys.readouterr()


def test_synth_pack_layout(pack):
    events = load_dataset(pack)
    assert len(events) == 8
    assert sorted({e.year for e in events}) == [2018, 2019, 2020, 2021]
    assert (pack / "scenario.json").is_file()
    assert (pack / "manifest.json").is_file()


def test_eval_ensemble_outputs(pack, tmp_path):
    out = tmp_path / "eval"
    rc = _run(["eval", "--model", f"ensemble:{pack}", "--out-dir", out,
               "--anchor", "4"])
    assert rc == 0
    for name in ("records.csv", "summary.json", "table.md", "manifest.json"):
        assert (out / name).is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["anchor_radius_px"] == 4
    assert set(summary["per_year"]) == {"2018", "2019", "2020", "2021"}
    with open(out / "records.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8
    assert all(r["radius_px"] == "4" for r in rows)


def test_eval_auto_anchor_recorded_in_manifest(pack, tmp_path):
    out = tmp_path / "eval_auto"
    rc = _run(["eval", "--model", f"ensemble:{pack}", "--out-dir", out])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    anchor = manifest["config"]["resolved_anchor_px"]
    assert isinstance(anchor, int) and anchor >= 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["anchor_radius_px"] == anchor


def test_eval_refuses_overwrite_without_force(pack, tmp_path, capsys):
    out = tmp_path / "once"
    assert _run(["eval", "--model", f"ensemble:{pack}", "--out-dir", out,
                 "--anchor", "3"]) == 0
    marker = json.loads((out / "manifest.json").read_text())
    assert _run(["eval", "--model", f"ensemble:{pack}", "--out-dir", out,
                 "--anchor", "3"]) == 1
    capsys.readouterr()
    assert _run(["eval", "--model", f"ensemble:{pack}", "--out-dir", out,
                 "--anchor", "3", "--force"]) == 0
    again = json.loads((out / "manifest.json").read_text())
    assert again == marker


def test_eval_same_model_twice_is_byte_identical(pack, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert _run(["eval", "--model", f"ensemble:{pack}", "--out-dir", out,
                     "--anchor", "4"]) == 0
    for name in ("records.csv", "table.md", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_eval_jobs_do_not_change_outputs(pack, tmp_path):
    out1, out2 = tmp_path / "j1", tmp_path / "j4"
    assert _run(["eval", "--model", f"ensemble:{pack}", "--out-dir", out1,
                 "--anchor", "4", "--jobs", "1"]) == 0
    assert _run(["eval", "--model", f"ensemble:{pack}", "--out-dir", out2,
                 "--anchor", "4", "--jobs", "4"]) == 0
    for name in ("records.csv", "summary.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_eval_bad_dataset_layout_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = _run(["eval", "--model", f"ensemble:{empty}", "--out-dir", tmp_path / "o"])
    assert rc == 1
    capsys.readouterr()


def test_eval_all_empty_gt_exits_degenerate(tmp_path, capsys):
    root = tmp_path / "void"
    rng = np.random.default_rng(0)
    for i, year in enumerate((2018, 2019)):
        ev = FireEvent(
            id=f"fire_{i:03d}", year=year,
            gt=np.zeros((12, 12), dtype=np.uint8),
            members=[rng.random((12, 12)).astype(np.float32) for _ in range(3)],
        )
        save_event(root, ev)
    rc = _run(["eval", "--model", f"ensemble:{root}", "--out-dir", tmp_path / "o"])
    assert rc == 2
    capsys.readouterr()


def test_middle_member_by_year_is_the_median_of_per_member_mean_ap():
    events = generate_scenario(ScenarioSpec(
        rng_seed=17, grid_size=24, n_fires=8, n_members=5,
        member_noise_sigma=0.3, blob_radius_range_px=(2, 6),
    ))
    events[0].gt[:] = 0  # a fire without AP is left out of its year's means
    want = {}
    for year in sorted({ev.year for ev in events}):
        evs = [ev for ev in events if ev.year == year and ev.gt.any()]
        means = [float(np.mean([average_precision(ev.members[k], ev.gt) for ev in evs]))
                 for k in range(5)]
        want[year] = means.index(sorted(means)[2])
    assert middle_member_by_year(events) == want


def test_student_ap_is_the_reference_members_ap_from_middle_member_selection(tmp_path):
    """The student's phase-1 AP is the AP middle-member selection computed
    for the reference member, bitwise, and None on a single-class ground
    truth; only the root a student reads has its features parsed, and
    both models on one root hold the same Fire objects."""
    root = tmp_path / "pack"
    _small_pack(root)
    gt_path = next(root.glob("2019/fire_*/gt.npy"))
    np.save(gt_path, np.ones_like(np.load(gt_path)))
    head_path = tmp_path / "head.json"
    head = UncertaintyHead(weights=np.array([0.5, -0.2, 0.1, 0.3]), bias=-0.4)
    save_head(head_path, head, TrainConfig(), selection_metric=None, epoch=0)
    geo = GeoConfig()
    groups, _ = load_models([f"ensemble:{root}"], geo)
    assert all(f.event.files[-1].name != "features.npy" for _i, fires, _o in groups for f in fires)
    groups, _ = load_models([f"ensemble:{root}", f"student:{root}:{head_path}"], geo)
    assert [indices for indices, _fires, _outputs in groups] == [[0, 1]] * 4
    fires = [f for _indices, year_fires, _outputs in groups for f in year_fires]
    assert len(fires) == 4
    assert all(f.event.files[-1].name == "features.npy" for f in fires)
    for fire in fires:
        try:
            want = average_precision(fire.reference, fire.event.gt)
        except DegenerateClassError:
            want = None
        assert repr(fire.reference_ap) == repr(want)
    assert sum(f.reference_ap is None for f in fires) == 1
    # and run_sweep reports it as the student's AP
    [_, student], _anchor = run_sweep(groups, SweepConfig(radii_px=(0,), anchor_px=1), geo)
    aps = [repr(rec.ap) for rec in student if rec.radius_px == 0]
    assert aps == [repr(f.reference_ap) for f in fires]


def _error_indicator_pack(tmp_path, seed=9):
    """Pack whose feature channel 0 is the reference error indicator."""
    spec = ScenarioSpec(
        rng_seed=seed, grid_size=24, n_fires=8, n_members=3,
        member_noise_sigma=0.25, feature_channels=5,
        blob_radius_range_px=(2, 6),
    )
    events = generate_scenario(spec)
    mids = middle_member_by_year(events)
    root = tmp_path / "indicator_pack"
    for ev in events:
        ref = ev.members[mids[ev.year]]
        errors = error_map(ref, ev.gt, threshold=0.5).astype(np.float32)
        features = ev.features.copy()
        features[0] = errors
        save_event(root, FireEvent(
            id=ev.id, year=ev.year, gt=ev.gt, members=ev.members,
            features=features,
        ))
    head = UncertaintyHead(weights=np.array([10.0, 0.0, 0.0, 0.0, 0.0]), bias=-5.0)
    head_path = tmp_path / "indicator_head.json"
    save_head(head_path, head, TrainConfig(), selection_metric=None, epoch=0)
    return root, head_path


def test_student_with_oracle_features_scores_perfect_auroc(tmp_path):
    root, head_path = _error_indicator_pack(tmp_path)
    out = tmp_path / "out"
    rc = _run(["eval", "--model", f"student:{root}:{head_path}",
               "--out-dir", out, "--anchor", "4"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    rows = [row["auroc"] for row in summary["per_year"].values()]
    defined = [v for v in rows if v is not None]
    assert defined and all(v == 1.0 for v in defined)
    assert summary["mean_std"]["auroc"] == [1.0, 0.0]


@pytest.fixture(scope="module")
def sweep_dir(pack, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    rc = main([
        "sweep", "--model-a", f"ensemble:{pack}", "--model-b", f"ensemble:{pack}",
        "--radii", "0,2,4", "--anchor", "4", "--out-dir", str(out),
    ])
    assert rc == 0
    return out


def test_sweep_outputs(sweep_dir):
    for name in ("sweep_a.csv", "sweep_b.csv", "summary_a.json", "summary_b.json",
                 "diff.csv", "summary.json", "manifest.json"):
        assert (sweep_dir / name).is_file()
    summary = json.loads((sweep_dir / "summary.json").read_text())
    assert summary["anchor_radius_px"] == 4
    assert summary["radii_px"] == [0, 2, 4]
    assert summary["n_unmatched"] == {"a": 0, "b": 0}
    with open(sweep_dir / "sweep_a.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8 * 3
    assert sorted({r["radius_px"] for r in rows}) == ["0", "2", "4"]


def test_sweep_identical_models_diff_is_zero(sweep_dir):
    assert (sweep_dir / "sweep_a.csv").read_bytes() == (sweep_dir / "sweep_b.csv").read_bytes()
    with open(sweep_dir / "diff.csv", newline="") as f:
        for row in csv.DictReader(f):
            for key in ("ap", "brier", "nll", "auroc", "auprc"):
                assert row[key] in ("", "0.0")


def test_sweep_includes_anchor_in_radii(pack, tmp_path):
    out = tmp_path / "s"
    rc = _run(["sweep", "--model-a", f"ensemble:{pack}",
               "--model-b", f"ensemble:{pack}",
               "--radii", "0,2", "--anchor", "5", "--out-dir", out])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["radii_px"] == [0, 2, 5]


def test_stats_identical_models_exits_degenerate(sweep_dir, tmp_path, capsys):
    rc = _run(["stats", sweep_dir, "--out-dir", tmp_path / "st"])
    assert rc == 2
    capsys.readouterr()


@pytest.fixture(scope="module")
def mixed_sweep(pack, tmp_path_factory):
    """Sweep of the ensemble against a student with random-ish head."""
    head = UncertaintyHead(
        weights=np.array([0.6, -0.2, 0.1, 0.8, -0.3]), bias=-0.5
    )
    head_path = tmp_path_factory.mktemp("head") / "head.json"
    save_head(head_path, head, TrainConfig(), selection_metric=None, epoch=0)
    out = tmp_path_factory.mktemp("mixed")
    rc = main([
        "sweep", "--model-a", f"ensemble:{pack}",
        "--model-b", f"student:{pack}:{head_path}",
        "--radii", "0,4", "--anchor", "4", "--out-dir", str(out),
    ])
    assert rc == 0
    return out


def test_stats_on_mixed_sweep(mixed_sweep, tmp_path):
    out = tmp_path / "st"
    rc = _run(["stats", mixed_sweep, "--out-dir", out])
    assert rc == 0
    payload = json.loads((out / "stats.json").read_text())
    tests = {b["metric"]: b for b in payload["tests"]}
    assert set(tests) == {"auroc", "auprc"}
    for block in tests.values():
        assert 0.0 < block["p_value"] <= 1.0
        assert -1.0 <= block["rank_biserial"] <= 1.0
        assert block["n_pairs"] >= 1
    assert payload["meta"]["anchor_radius_px"] == 4
    assert payload["meta"]["direction"] == "a_gt_b"


def test_stats_direction_flip(mixed_sweep, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert _run(["stats", mixed_sweep, "--out-dir", out_a]) == 0
    assert _run(["stats", mixed_sweep, "--direction", "b_gt_a",
                 "--out-dir", out_b]) == 0
    pa = json.loads((out_a / "stats.json").read_text())["tests"][0]
    pb = json.loads((out_b / "stats.json").read_text())["tests"][0]
    # swapping the alternative swaps the rank sums
    assert pa["w_plus"] == pb["w_minus"]
    assert pa["w_minus"] == pb["w_plus"]


def test_model_swap_swaps_sweep_outputs_and_negates_diffs(tmp_path):
    """Swapping --model-a and --model-b at a fixed anchor swaps the sweep
    CSVs byte for byte and negates every diff.csv cell exactly; stats
    --direction b_gt_a on the first run tests what the default does on
    the swapped run."""
    pack, head = tmp_path / "pack", tmp_path / "distill" / "head.json"
    assert _run(["synth", "--out-dir", pack, "--seed", "3", "--grid-size", "32",
                 "--n-fires", "8", "--feature-channels", "5"]) == 0
    assert _run(["distill", pack, "--out-dir", head.parent, "--max-epochs", "2"]) == 0
    models = [f"ensemble:{pack}", f"student:{pack}:{head}"]
    runs = []
    for name, (a, b) in (("ab", models), ("ba", models[::-1])):
        out = tmp_path / name
        assert _run(["sweep", "--model-a", a, "--model-b", b, "--anchor", "3",
                     "--out-dir", out]) == 0
        runs.append(out)
    ab, ba = runs
    assert (ab / "sweep_a.csv").read_bytes() == (ba / "sweep_b.csv").read_bytes()
    assert (ab / "sweep_b.csv").read_bytes() == (ba / "sweep_a.csv").read_bytes()
    diffs = []
    for out in runs:
        with open(out / "diff.csv", newline="") as f:
            diffs.append(list(csv.reader(f)))
    assert len(diffs[0]) == len(diffs[1]) > 1 and diffs[0][0] == diffs[1][0]
    n_metric = 0
    for row_ab, row_ba in zip(diffs[0][1:], diffs[1][1:]):
        assert row_ab[:3] == row_ba[:3]
        for x, y in zip(row_ab[3:], row_ba[3:]):
            assert (x == "") == (y == "")
            if x:
                assert float(y) == -float(x)
                n_metric += 1
    assert n_metric > len(diffs[0])
    blocks = []
    for out, flags in ((ab, ["--direction", "b_gt_a"]), (ba, [])):
        assert _run(["stats", out, "--out-dir", tmp_path / f"stats_{out.name}", *flags]) == 0
        blocks.append(json.loads((tmp_path / f"stats_{out.name}" / "stats.json").read_text()))
    assert blocks[0]["tests"] == blocks[1]["tests"]


# the 8 symmetries of the square, each acting on the last two axes
_SYMMETRIES = {
    "identity": lambda a: a,
    "rot90": lambda a: np.rot90(a, 1, axes=(-2, -1)),
    "rot180": lambda a: np.rot90(a, 2, axes=(-2, -1)),
    "rot270": lambda a: np.rot90(a, 3, axes=(-2, -1)),
    "flip-rows": lambda a: a[..., ::-1, :],
    "flip-cols": lambda a: a[..., ::-1],
    "transpose": lambda a: np.swapaxes(a, -2, -1),
    "anti-transpose": lambda a: np.rot90(np.swapaxes(a, -2, -1), 2, axes=(-2, -1)),
}
# metrics that sum in raster order; every other MetricRecord field is exact
_ORDER_SUMMED = ("brier", "nll", "asd_m")


@pytest.mark.parametrize("seed, size, crop", [(5, 48, 44), (6, 64, 128), (7, 56, 51)],
                         ids=["crop-even", "uncropped", "crop-odd"])
def test_symmetries_of_the_square_keep_every_sweep_record(tmp_path, seed, size, crop):
    """Each of the 8 symmetries of the square, applied to gt, members and
    features and scored with the original pack's head.json, keeps the
    anchor and every record's ranking metrics, prevalence and pixel count
    exactly, and its raster-order sums within 1e-12 relative.  A flip
    commutes with the center crop when (size - crop) is even.  When it is
    odd the crop drops the odd pixel at the bottom and right, so the
    transformed pack is built from the pack without its last row and
    column, which the crop keeps the same window of."""
    pack, head = tmp_path / "pack", tmp_path / "distill" / "head.json"
    assert _run(["synth", "--out-dir", pack, "--seed", seed, "--grid-size", size,
                 "--n-fires", "8", "--feature-channels", "5"]) == 0
    assert _run(["distill", pack, "--out-dir", head.parent, "--max-epochs", "2"]) == 0
    events = load_dataset(pack)
    keep = slice(0, size - max(size - crop, 0) % 2)

    def sweep(root, out):
        assert _run(["sweep", "--model-a", f"ensemble:{root}",
                     "--model-b", f"student:{root}:{head}", "--radii", "0..8",
                     "--crop", crop, "--out-dir", out]) == 0
        anchor = json.loads((out / "summary.json").read_text())["anchor_radius_px"]
        return anchor, [read_sweep_csv(out / f"sweep_{k}.csv") for k in "ab"]

    want_anchor, want = sweep(pack, tmp_path / "sweep")
    assert sum(len(r) for r in want) == 2 * 8 * 9
    for name, sym in _SYMMETRIES.items():
        root = tmp_path / name
        for ev in events:
            gt, *members, features = (sym(a[..., keep, keep])
                                      for a in (ev.gt, *ev.members, ev.features))
            save_event(root, FireEvent(ev.id, ev.year, gt, members, features))
        anchor, got = sweep(root, tmp_path / f"sweep_{name}")
        assert anchor == want_anchor, name
        for records_want, records_got in zip(want, got):
            assert len(records_got) == len(records_want)
            for a, b in zip(records_want, records_got):
                for field in CSV_COLUMNS:
                    x, y = getattr(a, field), getattr(b, field)
                    if field in _ORDER_SUMMED and x is not None and y is not None:
                        assert y == pytest.approx(x, rel=1e-12, abs=0), (name, a, field)
                    else:
                        assert x == y, (name, a, field)


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    """README's fenced python blocks run as written beside a pack and a
    distill/head.json."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    assert _run(["synth", "--out-dir", "pack", "--seed", "4", "--grid-size", "24",
                 "--n-fires", "8", "--feature-channels", "5"]) == 0
    assert _run(["distill", "pack", "--out-dir", "distill", "--max-epochs", "2"]) == 0
    capsys.readouterr()
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert "MetricRecord(" in capsys.readouterr().out


def test_stats_imports_no_numpy(mixed_sweep, tmp_path):
    """stats reads CSVs and JSON only: in a fresh interpreter it writes
    the stats.json of the in-process command and never imports numpy."""
    code = ("import sys\n"
            "from fireuq.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
            "sys.exit(rc)\n")
    out = tmp_path / "fresh"
    proc = subprocess.run(
        [sys.executable, "-c", code, "stats", str(mixed_sweep), "--out-dir", str(out)],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    assert _run(["stats", mixed_sweep, "--out-dir", tmp_path / "in_process"]) == 0
    assert ((out / "stats.json").read_bytes()
            == (tmp_path / "in_process" / "stats.json").read_bytes())


def test_unmatched_fires_are_counted_apart_from_undefined_values(pack, tmp_path):
    """A fire that only model A's pack holds gets no diff.csv row.
    summary.json and stats.json count it in n_unmatched, and stats.json's
    n_excluded counts only the matched fires with an undefined value."""
    short = tmp_path / "short"
    shutil.copytree(pack, short)
    shutil.rmtree(sorted(short.glob("*/fire_*"))[-1])
    head_path = tmp_path / "head.json"
    head = UncertaintyHead(weights=np.array([0.6, -0.2, 0.1, 0.8, -0.3]), bias=-0.5)
    save_head(head_path, head, TrainConfig(), selection_metric=None, epoch=0)
    sweep = tmp_path / "sweep"
    assert _run(["sweep", "--model-a", f"ensemble:{pack}",
                 "--model-b", f"student:{short}:{head_path}",
                 "--radii", "0..2", "--anchor", "2", "--out-dir", sweep]) == 0
    records_a = read_sweep_csv(sweep / "sweep_a.csv")
    records_b = read_sweep_csv(sweep / "sweep_b.csv")
    assert (len(records_a), len(records_b)) == (24, 21)
    with open(sweep / "diff.csv", newline="") as f:
        diff_rows = list(csv.DictReader(f))
    assert len(diff_rows) == 21
    summary = json.loads((sweep / "summary.json").read_text())
    assert summary["n_unmatched"] == {"a": 1, "b": 0}

    assert _run(["stats", sweep, "--out-dir", tmp_path / "st"]) == 0
    payload = json.loads((tmp_path / "st" / "stats.json").read_text())
    assert payload["meta"]["n_unmatched"] == {"a": 1, "b": 0}
    anchor_b = {(r.year, r.fire_id): r for r in records_b if r.radius_px == 2}
    for block in payload["tests"]:
        metric = block["metric"]
        undefined = sum(
            getattr(ra, metric) is None or getattr(anchor_b[ra.year, ra.fire_id], metric) is None
            for ra in records_a
            if ra.radius_px == 2 and (ra.year, ra.fire_id) in anchor_b
        )
        assert payload["meta"]["n_excluded"][metric] == undefined
        assert block["n_pairs"] == 7 - undefined


def test_stats_missing_sweep_dir_exits_one(tmp_path, capsys):
    rc = _run(["stats", tmp_path / "nothing", "--out-dir", tmp_path / "o"])
    assert rc == 1
    capsys.readouterr()


def test_distill_writes_head_and_student_maps(pack, tmp_path):
    out = tmp_path / "distill"
    rc = _run(["distill", pack, "--out-dir", out, "--max-epochs", "3",
               "--patience", "5", "--lr0", "0.05", "--selection-anchor", "3"])
    assert rc == 0
    assert (out / "head.json").is_file()
    assert (out / "train_log.csv").is_file()
    head = load_head(out / "head.json")[0]
    for ev in load_dataset(pack):
        student = np.load(pack / str(ev.year) / ev.id / "student_unc.npy")
        expect = apply_head(head, ev.features).astype(np.float32)
        assert student.dtype == expect.dtype and student.tobytes() == expect.tobytes()
    with open(out / "train_log.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    # second run with the same flags reproduces the same manifest bytes
    manifest = (out / "manifest.json").read_bytes()
    assert _run(["distill", pack, "--out-dir", out, "--max-epochs", "3",
                 "--patience", "5", "--lr0", "0.05", "--selection-anchor", "3",
                 "--force"]) == 0
    assert (out / "manifest.json").read_bytes() == manifest
    # distill reads no metric flags, so it neither takes nor records them
    config = json.loads(manifest)["config"]
    assert {"crop", "threshold"} <= set(config)
    assert not {"mpp", "epsilon"} & set(config)
    for flag in ("--mpp", "--epsilon"):
        assert _run(["distill", pack, "--out-dir", tmp_path / "o", flag, "0.1"]) == 1
    assert not (tmp_path / "o").exists()


def test_distill_needs_two_years(tmp_path, capsys):
    root = tmp_path / "oneyear"
    spec = ScenarioSpec(rng_seed=1, grid_size=16, n_fires=2, feature_channels=4,
                        blob_radius_range_px=(2, 5), years=(2020,))
    for ev in generate_scenario(spec):
        save_event(root, ev)
    rc = _run(["distill", root, "--out-dir", tmp_path / "o", "--max-epochs", "1"])
    assert rc == 1
    capsys.readouterr()


def test_distill_missing_features_exits_one(tmp_path, capsys):
    root = tmp_path / "nofeat"
    rng = np.random.default_rng(2)
    for i, year in enumerate((2018, 2019)):
        gt = np.zeros((10, 10), dtype=np.uint8)
        gt[4:6, 4:6] = 1
        save_event(root, FireEvent(
            id=f"fire_{i:03d}", year=year, gt=gt,
            members=[rng.random((10, 10)).astype(np.float32) for _ in range(3)],
        ))
    rc = _run(["distill", root, "--out-dir", tmp_path / "o", "--max-epochs", "1"])
    assert rc == 1
    capsys.readouterr()


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "fireuq.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "sweep" in proc.stdout


def test_stats_sweep_csv_missing_columns_exits_one(tmp_path):
    sweep = tmp_path / "sweep"
    sweep.mkdir()
    for name in ("sweep_a.csv", "sweep_b.csv"):
        (sweep / name).write_text("fire_id,year,radius_px\nfire_000,2020,2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "fireuq.cli", "stats", str(sweep), "--anchor", "2",
         "--out-dir", str(tmp_path / "st")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "sweep_a.csv" in proc.stderr
    assert "ap, asd_m, brier, nll, auroc, auprc, error_prevalence" in proc.stderr


def _assert_one_line_error(capsys, path):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: ")
    return lines[0]


@pytest.mark.parametrize("text", [
    None,  # no file at all
    "[]",
    '{"channels": 5, "weights": "abc", "bias": 0.0}',
    '{"channels": 5, "weights": [0.1, 0.2, 0.3, 0.4, 0.5], "bias": "x"}',
], ids=["missing", "not-an-object", "bad-weights", "bad-bias"])
def test_eval_malformed_head_exits_one(pack, tmp_path, capsys, text):
    head_path = tmp_path / "head.json"
    if text is not None:
        head_path.write_text(text)
    rc = _run(["eval", "--model", f"student:{pack}:{head_path}",
               "--out-dir", tmp_path / "o", "--anchor", "2"])
    assert rc == 1
    _assert_one_line_error(capsys, head_path)


def _set_cell(column, cell):
    """An edit of a sweep CSV's rows: line 5's cell of column set to cell."""
    def edit(rows):
        rows[4][rows[0].index(column)] = cell
    return edit


def _repeat_auroc(rows):
    """An edit of a sweep CSV's rows: a second auroc column of 0.0 cells."""
    i = rows[0].index("auroc") + 1
    for k, row in enumerate(rows):
        row.insert(i, "0.0" if k else "auroc")


@pytest.mark.parametrize("edit, message", [
    (_set_cell("auroc", "abc"), "line 5: could not convert"),
    (_set_cell("radius_px", "abc"), "line 5: invalid literal"),
    (_set_cell("radius_px", "-1"), "line 5: .*radius_px=-1 is negative"),
    (_set_cell("n_eval_px", "-3"), "line 5: .*n_eval_px=-3 is negative"),
    (lambda rows: rows[4].append("0.5"), "line 5: 12 cells, the header has 11"),
    (lambda rows: rows[4].pop(), "line 5: 10 cells, the header has 11"),
    (_repeat_auroc, "column auroc repeats in the header$"),
], ids=["auroc", "radius_px", "negative-radius", "negative-n-eval", "extra-cell", "short-row",
        "repeated-column"])
def test_stats_non_numeric_sweep_cell_exits_one(mixed_sweep, tmp_path, capsys, edit, message):
    """On a sweep that stats scores with exit 0, one bad row or a header
    that repeats a column in sweep_a.csv exits 1 in one line naming the
    file, and the line of a bad row."""
    sweep = tmp_path / "sweep"
    sweep.mkdir()
    for name in ("sweep_a.csv", "sweep_b.csv", "summary.json"):
        (sweep / name).write_bytes((mixed_sweep / name).read_bytes())
    assert _run(["stats", sweep, "--out-dir", tmp_path / "ok"]) == 0
    with open(mixed_sweep / "sweep_a.csv", newline="") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(sweep / "sweep_a.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    rc = _run(["stats", sweep, "--out-dir", tmp_path / "st"])
    assert rc == 1
    line = _assert_one_line_error(capsys, sweep / "sweep_a.csv")
    assert re.match(re.escape(f"error: {sweep / 'sweep_a.csv'}: ") + message, line)


@pytest.mark.parametrize("text", ["{not json", "[4]", '{"anchor_radius_px": "4"}'],
                         ids=["malformed", "not-an-object", "bad-anchor"])
def test_stats_malformed_summary_exits_one(sweep_dir, tmp_path, capsys, text):
    sweep = tmp_path / "sweep"
    sweep.mkdir()
    for name in ("sweep_a.csv", "sweep_b.csv"):
        (sweep / name).write_bytes((sweep_dir / name).read_bytes())
    (sweep / "summary.json").write_text(text)
    rc = _run(["stats", sweep, "--out-dir", tmp_path / "st"])
    assert rc == 1
    _assert_one_line_error(capsys, sweep / "summary.json")


def test_eval_non_finite_mpp_exits_one(pack, tmp_path, capsys):
    out = tmp_path / "o"
    rc = _run(["eval", "--model", f"ensemble:{pack}", "--out-dir", out,
               "--mpp", "nan", "--anchor", "2"])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err and "meters_per_pixel" in err


def test_eval_bad_threshold_exits_one_before_loading(tmp_path, capsys):
    # the dataset root does not exist: the config is rejected first
    rc = _run(["eval", "--model", f"ensemble:{tmp_path / 'nowhere'}",
               "--out-dir", tmp_path / "o", "--threshold", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error_threshold" in err


def test_synth_even_member_count_exits_one(tmp_path, capsys):
    out = tmp_path / "even"
    rc = _run(["synth", "--out-dir", out, "--n-members", "4",
               "--feature-channels", "6"])
    assert rc == 1
    assert not list(out.glob("*/*/member_*.npy"))
    err = capsys.readouterr().err
    assert "Traceback" not in err and "odd" in err


def test_eval_records_equal_sweep_records(pack, mixed_sweep, tmp_path):
    """eval and sweep score a model through the same path: at the same
    fixed anchor every eval record equals the sweep's for that fire."""
    student = json.loads((mixed_sweep / "summary.json").read_text())["model_b"]
    for spec, side in ((f"ensemble:{pack}", "a"), (student, "b")):
        out = tmp_path / side
        assert _run(["eval", "--model", spec, "--out-dir", out, "--anchor", "4"]) == 0
        with open(out / "records.csv", newline="") as f:
            eval_rows = list(csv.DictReader(f))
        with open(mixed_sweep / f"sweep_{side}.csv", newline="") as f:
            sweep_rows = [r for r in csv.DictReader(f) if r["radius_px"] == "4"]
        assert len(eval_rows) == 8
        assert eval_rows == sweep_rows


def test_summary_json_is_summarize_of_the_sweep_csv(mixed_sweep, tmp_path):
    """Each summary_<side>.json is summarize of the records read back
    from sweep_<side>.csv, byte for byte: the CSV prints floats as repr,
    so every value round-trips."""
    anchor = json.loads((mixed_sweep / "summary.json").read_text())["anchor_radius_px"]
    for side in ("a", "b"):
        written = mixed_sweep / f"summary_{side}.json"
        records = read_sweep_csv(mixed_sweep / f"sweep_{side}.csv")
        meta = json.loads(written.read_text())["meta"]
        write_json(tmp_path / written.name, {**summarize(records, anchor), "meta": meta})
        assert (tmp_path / written.name).read_bytes() == written.read_bytes()


def _hand_pack(root, shapes, n_members=3, seed=4):
    """One fire per shape, in consecutive years, with a centred burn and
    features, as a hand-made dataset would be laid out."""
    rng = np.random.default_rng(seed)
    for i, (h, w) in enumerate(shapes):
        gt = np.zeros((h, w), dtype=np.uint8)
        gt[h // 2 - 2 : h // 2 + 2, w // 2 - 2 : w // 2 + 2] = 1
        save_event(root, FireEvent(
            id=f"fire_{i:03d}", year=2018 + i, gt=gt,
            members=[rng.random((h, w)).astype(np.float32) for _ in range(n_members)],
            features=rng.random((4, h, w)).astype(np.float32),
        ))


def test_even_member_pack_exits_one_where_read(tmp_path, capsys):
    root = tmp_path / "four"
    _hand_pack(root, [(12, 12), (12, 12)], n_members=4)
    for args in (["eval", "--model", f"ensemble:{root}", "--anchor", "2"],
                 ["distill", root, "--max-epochs", "1"]):
        assert _run(args + ["--out-dir", tmp_path / args[0]]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert str(root) in err and "member count 4" in err
        assert not (tmp_path / args[0]).exists()


def test_one_member_pack_exits_one_where_read(tmp_path, capsys):
    root = tmp_path / "one"
    _hand_pack(root, [(12, 12), (12, 12)], n_members=1)
    for args in (["eval", "--model", f"ensemble:{root}", "--anchor", "2"],
                 ["distill", root, "--max-epochs", "1"]):
        assert _run(args + ["--out-dir", tmp_path / args[0]]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert str(root) in err and "member count 1" in err
        assert not (tmp_path / args[0]).exists()


def test_load_models_keeps_no_member_maps_or_feature_stacks(tmp_path):
    """A year's member maps and feature stacks go once its outputs are
    computed: after an ensemble and a student are loaded from one root,
    less memory stays held than the root's member maps alone take."""
    root = tmp_path / "pack"
    spec = ScenarioSpec(rng_seed=2, grid_size=64, n_fires=8, n_members=15,
                        feature_channels=16, years=tuple(range(2010, 2018)))
    for ev in generate_scenario(spec):
        save_event(root, ev)
    member_bytes = 8 * 15 * 64 * 64 * 4
    head_path = tmp_path / "head.json"
    save_head(head_path, UncertaintyHead(weights=np.full(16, 0.1), bias=-1.0),
              TrainConfig(), selection_metric=None, epoch=0)
    specs = [f"ensemble:{root}", f"student:{root}:{head_path}"]
    tracemalloc.start()
    try:
        groups, _ = load_models(specs, GeoConfig())
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(indices == [0, 1] for indices, _fires, _outputs in groups)
    assert sum(len(fires) for _indices, fires, _outputs in groups) == 8
    assert held < member_bytes


@pytest.mark.parametrize("radii, anchor", [((0, 2, 5), None), ((0, 2, 5), 3), ((), None)],
                         ids=["auto-anchor", "fixed-anchor", "no-radii"])
def test_phases_over_year_streams_equal_run_sweep(tmp_path, radii, anchor):
    """Phase 1 over one load_model_years stream, the anchor from its
    pooled results, then phase 2 year by year over a second stream give
    run_sweep's records over load_models, in its order and bit for bit."""
    root = tmp_path / "pack"
    # noisy members, so the auto anchor is derived, not the 1 px floor
    spec = ScenarioSpec(rng_seed=6, grid_size=32, n_fires=9, feature_channels=4,
                        member_noise_sigma=0.4, years=(2018, 2019, 2020))
    for ev in generate_scenario(spec):
        save_event(root, ev)
    head_path = tmp_path / "head.json"
    save_head(head_path, UncertaintyHead(weights=np.array([0.5, -0.3, 0.2, 0.1]), bias=-0.4),
              TrainConfig(), selection_metric=None, epoch=0)
    specs = [f"ensemble:{root}", f"student:{root}:{head_path}"]
    geo = GeoConfig()
    config = SweepConfig(radii_px=radii, anchor_px=anchor)

    unmasked: list[list] = [[], []]
    years = 0
    for indices, fires, outputs in load_model_years(specs, geo):
        assert indices == [0, 1]
        years += 1
        for k, own in zip(indices, outputs):
            unmasked[k] += [unmasked_scores(f, prob, config, geo)
                            for f, (prob, _unc) in zip(fires, own)]
    assert years == 3
    anchor_px = sweep_anchor(unmasked[0] + unmasked[1], config, geo)
    assert anchor_px == anchor or anchor is None and anchor_px > 1
    scored = tuple(sorted({*radii, anchor_px}))
    records: list[list] = [[], []]
    done = 0
    for indices, fires, outputs in load_model_years(specs, geo):
        for j, fire in enumerate(fires):
            per_model = score_fire(fire, [own[j] for own in outputs],
                                   [unmasked[k][done + j] for k in indices], scored, config)
            for k, recs in zip(indices, per_model):
                records[k] += recs
        done += len(fires)

    groups, _inputs = load_models(specs, geo)
    results, swept_anchor = run_sweep(groups, config, geo)
    assert swept_anchor == anchor_px
    for result, recs in zip(results, records):
        assert len(recs) == 9 * len(scored)
        assert repr(recs) == repr(result)


def test_run_sweep_pools_asd_model_by_model_across_year_groups(tmp_path, monkeypatch):
    """With an ensemble on one root and a student and an ensemble on
    another, sweep_anchor receives model 0's phase-1 results in group
    order, then model 1's, then model 2's, not group by group; and each
    model's records equal those of its own groups swept alone."""
    roots = [tmp_path / "a", tmp_path / "b"]
    for seed, root in zip((6, 7), roots):
        spec = ScenarioSpec(rng_seed=seed, grid_size=24, n_fires=6, feature_channels=4,
                            member_noise_sigma=0.4, years=(2018, 2019, 2020))
        for ev in generate_scenario(spec):
            save_event(root, ev)
    head_path = tmp_path / "head.json"
    save_head(head_path, UncertaintyHead(weights=np.array([0.5, -0.3, 0.2, 0.1]), bias=-0.4),
              TrainConfig(), selection_metric=None, epoch=0)
    specs = [f"ensemble:{roots[0]}", f"student:{roots[1]}:{head_path}", f"ensemble:{roots[1]}"]
    geo = GeoConfig()
    config = SweepConfig(radii_px=(0, 2))
    groups, _inputs = load_models(specs, geo)
    assert [indices for indices, _fires, _outputs in groups] == [[0]] * 3 + [[1, 2]] * 3

    def own_groups(k):
        return [(fires, outputs[indices.index(k)])
                for indices, fires, outputs in groups if k in indices]

    want = [unmasked_scores(fire, prob, config, geo)
            for k in range(3) for fires, own in own_groups(k)
            for fire, (prob, _unc) in zip(fires, own)]
    seen = []
    real = protocol.sweep_anchor

    def capture(unmasked, cfg, g):
        seen.append(list(unmasked))
        return real(seen[-1], cfg, g)

    monkeypatch.setattr(protocol, "sweep_anchor", capture)
    results, anchor = run_sweep(groups, config, geo)
    assert repr(seen) == repr([want])
    assert anchor == resolve_anchor([asd for _ap, asd in want if asd is not None], geo) > 1
    fixed = SweepConfig(radii_px=(0, 2), anchor_px=anchor)
    for k, records in enumerate(results):
        [alone], _anchor = run_sweep([([0], fires, [own]) for fires, own in own_groups(k)],
                                     fixed, geo)
        assert len(records) == 6 * len({0, 2, anchor})
        assert repr(alone) == repr(records)


def test_load_models_peak_holds_one_year_and_one_head_workspace(tmp_path):
    """While a student is loaded, the memory beyond what stays held is one
    year's rasters plus one float64 head workspace, with a second year's
    rasters as slack: a head workspace or feature stacks still held while
    the next year is read would exceed it."""
    root = tmp_path / "pack"
    spec = ScenarioSpec(rng_seed=2, grid_size=64, n_fires=8, n_members=15,
                        feature_channels=16, years=tuple(range(2010, 2018)))
    for ev in generate_scenario(spec):
        save_event(root, ev)
    year_bytes = 15 * 64 * 64 * 4 + 16 * 64 * 64 * 4  # members and features of one fire
    workspace_bytes = 16 * 64 * 64 * 8
    head_path = tmp_path / "head.json"
    save_head(head_path, UncertaintyHead(weights=np.full(16, 0.1), bias=-1.0),
              TrainConfig(), selection_metric=None, epoch=0)
    tracemalloc.start()
    try:
        groups, _ = load_models([f"student:{root}:{head_path}"], GeoConfig())
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(fires) for _indices, fires, _outputs in groups) == 8
    assert peak - held < 2 * year_bytes + workspace_bytes


def test_student_load_holds_one_fire_feature_stack_at_a_time(tmp_path):
    """With several fires per year, the memory beyond what stays held
    while a student is loaded is below one year's member maps, one
    fire's feature stack and one head workspace, plus one more stack as
    slack for the ranking and check transients: the year's six stacks
    held together would exceed it."""
    root = tmp_path / "pack"
    spec = ScenarioSpec(rng_seed=2, grid_size=64, n_fires=12, n_members=15,
                        feature_channels=16, years=(2010, 2011))
    for ev in generate_scenario(spec):
        save_event(root, ev)
    year_members = 6 * 15 * 64 * 64 * 4
    stack_bytes = 16 * 64 * 64 * 4
    workspace_bytes = 16 * 64 * 64 * 8
    head_path = tmp_path / "head.json"
    save_head(head_path, UncertaintyHead(weights=np.full(16, 0.1), bias=-1.0),
              TrainConfig(), selection_metric=None, epoch=0)
    tracemalloc.start()
    try:
        groups, _ = load_models([f"student:{root}:{head_path}"], GeoConfig())
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(fires) for _indices, fires, _outputs in groups) == 12
    assert peak - held < year_members + 2 * stack_bytes + workspace_bytes


def test_distill_holds_no_teacher_map_while_training(tmp_path, monkeypatch):
    """When train_head starts, what fuse_ensemble allocated and is still
    alive is less than one teacher map, as each map became its log1p
    target (numpy's own small caches remain); while it runs, memory
    grows by one head workspace plus slack, half the teacher maps'
    bytes, so a float64 copy of every map made in training exceeds it."""
    root = tmp_path / "pack"
    spec = ScenarioSpec(rng_seed=4, grid_size=64, n_fires=32, n_members=3,
                        feature_channels=4, years=(2019, 2020))
    for ev in generate_scenario(spec):
        save_event(root, ev)
    lines, first = inspect.getsourcelines(distill.fuse_ensemble)
    train_head = distill.train_head
    seen = {}

    def traced(*args, **kwargs):
        fused = [
            t for t in tracemalloc.take_snapshot().traces
            if any(f.filename == distill.__file__ and first <= f.lineno < first + len(lines)
                   for f in t.traceback)
        ]
        seen["fused_bytes"] = sum(t.size for t in fused)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = train_head(*args, **kwargs)
        seen["growth"] = tracemalloc.get_traced_memory()[1] - start
        return result

    monkeypatch.setattr(distill, "train_head", traced)
    tracemalloc.start()
    try:
        assert _run(["distill", root, "--out-dir", tmp_path / "out",
                     "--max-epochs", "2"]) == 0
    finally:
        tracemalloc.stop()
    px = 64 * 64
    teacher_maps = 32 * px * 8
    workspace = (4 + 3) * px * 8
    assert seen["fused_bytes"] < px * 8
    assert seen["growth"] < workspace + teacher_maps // 2


def test_cropped_rasters_keep_no_uncropped_parent(tmp_path):
    """A crop that cuts the grid is a copy: each kept gt, member map and
    feature stack keeps alive only its own cropped bytes, its base
    included."""
    root = tmp_path / "pack"
    spec = ScenarioSpec(rng_seed=3, grid_size=40, n_fires=4, n_members=3,
                        feature_channels=4, years=(2019, 2020))
    for ev in generate_scenario(spec):
        save_event(root, ev)
    n = 0
    for events, stacks in read_years(scan_dataset(root), 25):
        for ev, features in zip(events, stacks()):
            for arr in (ev.gt, *ev.members, features):
                assert arr.shape[-2:] == (25, 25)
                kept = arr
                while kept.base is not None:
                    kept = kept.base
                assert kept.nbytes == arr.nbytes
                n += 1
    assert n == 4 * 5


def test_read_years_checks_stacks_at_uncropped_shapes_and_drops_each_year_members(tmp_path):
    """Each year's rasters are cropped per axis, and each call of its
    stacks parses the year's feature stacks afresh, cropped like the
    rasters; its member lists are emptied when the next year is
    requested, the last year's when the reader is exhausted, while a
    member taken out of a list stays whole.  A stack is checked against
    its fire's uncropped shape, which the crop would hide."""
    root = tmp_path / "pack"
    _hand_pack(root, [(30, 21), (9, 40), (12, 12)])
    years, kept = [], []
    for events, stacks in read_years(scan_dataset(root), 20):
        assert all(not ev.members for prev in years for ev in prev)
        [ev] = events
        first, again = list(stacks()), list(stacks())
        assert len(first) == len(again) == 1 and first[0] is not again[0]
        assert first[0].tobytes() == again[0].tobytes()
        assert len(ev.members) == 3
        assert ev.gt.shape == first[0].shape[1:]
        years.append(events)
        kept.append(ev.members[1])
    assert all(not ev.members for prev in years for ev in prev)
    assert [m.shape for m in kept] == [(20, 20), (9, 20), (12, 12)]
    # a (30, 21) fire whose (29, 21) stack crops, like its rasters, to (20, 20)
    features = root / "2018" / "fire_000" / "features.npy"
    np.save(features, np.load(features)[:, 1:])
    events, stacks = next(read_years(scan_dataset(root), 20))
    assert events[0].gt.shape == (20, 20)
    with pytest.raises(ShapeError) as exc:
        next(stacks())
    assert str(exc.value) == f"{features}: shape (29, 21) != gt shape (30, 21)"


@pytest.mark.parametrize("fault", ["four-members", "missing-gt"])
def test_layout_fault_is_reported_before_an_earlier_parse_fault(tmp_path, capsys, fault):
    root = tmp_path / "pack"
    _small_pack(root)
    (root / "2018" / "fire_000" / "gt.npy").write_bytes(b"not an NPY file")
    last = root / "2021" / "fire_003"
    if fault == "four-members":
        shutil.copyfile(last / "member_0.npy", last / "member_3.npy")
        want = f"error: dataset root {root}: inconsistent member counts [3, 4]"
    else:
        (last / "gt.npy").unlink()
        want = f"error: {last}: missing gt.npy"
    for args in (["eval", "--model", f"ensemble:{root}", "--anchor", "2"],
                 ["distill", root, "--max-epochs", "1"]):
        assert _run(args + ["--out-dir", tmp_path / args[0]]) == 1
        assert capsys.readouterr().err.strip() == want


def test_distill_absent_val_year_exits_before_any_array_is_read(tmp_path, capsys):
    root = tmp_path / "pack"
    _small_pack(root)
    for npy in root.glob("*/*/*.npy"):
        npy.write_bytes(b"not an NPY file")
    assert _run(["distill", root, "--val-year", "1999", "--out-dir", tmp_path / "o"]) == 1
    err = capsys.readouterr().err.strip()
    assert err == ("error: --val-year 1999 not present in dataset "
                   "(has [2018, 2019, 2020, 2021])")
    assert not (tmp_path / "o").exists()


def test_sweep_without_common_fires_exits_degenerate(tmp_path, capsys):
    root_a, root_b = tmp_path / "a", tmp_path / "b"
    _hand_pack(root_a, [(12, 12), (12, 12)])
    _hand_pack(root_b, [(12, 12), (12, 12)])
    for fire_dir in root_b.glob("*/fire_*"):
        fire_dir.rename(fire_dir.with_name(fire_dir.name.replace("fire_", "other_")))
    out = tmp_path / "sweep"
    assert _run(["sweep", "--model-a", f"ensemble:{root_a}",
                 "--model-b", f"ensemble:{root_b}", "--anchor", "2",
                 "--radii", "0..2", "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert str(root_a) in err and str(root_b) in err
    assert not out.exists()


def test_crop_keeps_short_axes_whole(tmp_path):
    root = tmp_path / "mixed"
    _hand_pack(root, [(200, 100), (12, 12)])
    out = tmp_path / "o"
    assert _run(["eval", "--model", f"ensemble:{root}", "--out-dir", out,
                 "--crop", "128", "--anchor", "200"]) == 0
    with open(out / "records.csv", newline="") as f:
        n_px = [int(row["n_eval_px"]) for row in csv.DictReader(f)]
    assert n_px == [128 * 100, 12 * 12]


@pytest.mark.parametrize("command", ["synth", "distill", "eval", "sweep", "stats"])
def test_jobs_below_one_exits_before_any_work(tmp_path, capsys, command):
    missing = tmp_path / "nowhere"
    operands = {
        "synth": [],
        "distill": [missing],
        "eval": ["--model", f"ensemble:{missing}"],
        "sweep": ["--model-a", f"ensemble:{missing}", "--model-b", f"ensemble:{missing}"],
        "stats": [missing],
    }[command]
    out = tmp_path / "o"
    assert _run([command, *operands, "--out-dir", out, "--jobs", "0"]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err and "--jobs must be an integer >= 1" in err


def _small_pack(root):
    """Four 16x16 fires, one per year, with four feature channels."""
    spec = ScenarioSpec(rng_seed=5, grid_size=16, n_fires=4, feature_channels=4,
                        blob_radius_range_px=(2, 5))
    for ev in generate_scenario(spec):
        save_event(root, ev)


# case -> (arguments before --out-dir, expected exit code, a substring of
# the one stderr line or None)
_CORRUPTED_CASES = {
    "complex-member": (["eval", "--model", "ensemble:{root}", "--anchor", "2"], 1, None),
    # distill reads features.npy; an ensemble eval leaves it unread
    "features-beyond-float32": (["distill", "{root}", "--max-epochs", "2"], 1,
                                "contains NaN or Inf"),
    "duplicate-member-index": (["eval", "--model", "ensemble:{root}", "--anchor", "2"], 1,
                               "member index 0 is also parsed from"),
    "duplicate-year-dir": (["eval", "--model", "ensemble:{root}", "--anchor", "2"], 1,
                           "year 2019 is also parsed from"),
    "out-dir-is-a-file": (["eval", "--model", "ensemble:{root}", "--anchor", "2"], 1,
                          "is not a directory"),
    # a write that fails ends in one line naming the path; the out-dir
    # holds only the directory in records.csv's place
    "records-csv-is-a-directory": (["eval", "--model", "ensemble:{root}", "--anchor", "2"],
                                   1, "Is a directory"),
    "reversed-radii": (["sweep", "--model-a", "ensemble:{root}",
                        "--model-b", "ensemble:{root}", "--radii", "5..2"], 1, None),
    "diverging-distill": (["distill", "{root}", "--lr0", "1e308", "--max-epochs", "3"], 2,
                          "training diverged at epoch"),
    "distill-threshold": (["distill", "{root}", "--threshold", "2"], 1, "error_threshold"),
    # flags are checked before the pack is read, so a missing root is not reported
    "distill-threshold-missing-root": (["distill", "{root}/missing", "--threshold", "2"], 1,
                                       "error_threshold"),
    "distill-nan-lr0-missing-root": (["distill", "{root}/missing", "--lr0", "nan"], 1,
                                     "lr0 must be finite"),
    "distill-nan-poly-power": (["distill", "{root}", "--poly-power", "nan"], 1,
                               "poly_power must be finite"),
    "synth-inf-noise-sigma": (["synth", "--noise-sigma", "inf"], 1,
                              "member_noise_sigma must be finite"),
    # a feature noise draw beyond float32's range would be cast to inf
    "synth-feature-noise-beyond-float32": (["synth", "--feature-noise-sigma", "1e39"], 1,
                                           "feature_noise_sigma must be <= 1e+36"),
    # seeds and counts numpy cannot take, and a grid too large for numpy to
    # size, are refused before anything is drawn or allocated
    "synth-negative-seed": (["synth", "--seed", "-1"], 1, "rng_seed must be >= 0"),
    "synth-n-fires-beyond-int64": (["synth", "--n-fires", "100000000000000000000"], 1,
                                   "n_fires must lie in"),
    "synth-blob-count-beyond-int64": (["synth", "--blob-count", "1",
                                       "100000000000000000000"], 1,
                                      "blob_count_range must be nonempty within"),
    "synth-grid-size-beyond-bound": (["synth", "--grid-size", "1073741824"], 1,
                                     "grid_size must lie in [8, 1048576]"),
    # refused before the pack is read, so a missing root is not reported
    "distill-negative-seed-missing-root": (["distill", "{root}/missing", "--seed", "-1"], 1,
                                           "rng_seed must be >= 0"),
    # an epsilon below float64's resolution at 1 leaves the NLL clip at p = 1
    "sweep-epsilon-below-float64-resolution": (["sweep", "--model-a", "ensemble:{root}",
                                                "--model-b", "ensemble:{root}",
                                                "--epsilon", "1e-17"], 1, "--epsilon"),
    # an ASD beyond float64 is refused where its record is built, before any write
    "sweep-asd-beyond-float64": (["sweep", "--model-a", "ensemble:{root}",
                                  "--model-b", "ensemble:{root}", "--anchor", "2",
                                  "--mpp", "1e308"], 1, "fire_000: asd_m=inf is not finite"),
    # every ASD is finite, but the std of the per-year ASD means overflows;
    # it is refused before any write, as JSON has no token for infinity
    "eval-mpp-std-beyond-float64": (["eval", "--model", "ensemble:{root}", "--mpp", "1e200"],
                                    1, "asd_m: mean or std is not finite"),
    "sweep-mpp-std-beyond-float64": (["sweep", "--model-a", "ensemble:{root}",
                                      "--model-b", "ensemble:{root}", "--mpp", "1e200"],
                                     1, "asd_m: mean or std is not finite"),
    # the dataset layout has no directory name for a negative year
    "synth-negative-year": (["synth", "--years", "-1", "2020", "--n-fires", "4"], 1,
                            "years must be >= 0"),
    # radii beyond MAX_RADIUS_PX are refused before any index arithmetic
    "eval-anchor-beyond-int64": (["eval", "--model", "ensemble:{root}",
                                  "--anchor", "99999999999999999999"], 1, "anchor radius"),
    "eval-anchor-near-int64-max": (["eval", "--model", "ensemble:{root}",
                                    "--anchor", "9223372036854775805"], 1, "anchor radius"),
    "distill-selection-anchor-beyond-int64": (["distill", "{root}", "--selection-anchor",
                                               "99999999999999999999"], 1,
                                              "selection_anchor_px"),
    "sweep-radii-range-beyond-int64": (["sweep", "--model-a", "ensemble:{root}",
                                        "--model-b", "ensemble:{root}",
                                        "--radii", "0..99999999999999999999"], 1,
                                       "radii must lie in"),
    "sweep-radii-list-beyond-bound": (["sweep", "--model-a", "ensemble:{root}",
                                       "--model-b", "ensemble:{root}",
                                       "--radii", "0,2147483648"], 1, "radii_px"),
    # stats cases read a sweep of the pack, written first, with sweep_a.csv corrupted
    "stats-non-utf8-sweep-csv": (["stats", "{sweep}"], 1, "not a readable CSV"),
    # an anchor row without a radius would silently drop out of the pairs
    "stats-empty-radius-cell": (["stats", "{sweep}"], 1, "line 3: "),
    # a second anchor row for one fire would silently replace the first
    "stats-duplicate-anchor-row": (["stats", "{sweep}"], 1, "repeats line 3"),
    # a metric cell outside its range, or non-finite, is refused where it is read
    "stats-out-of-range-metric-cell": (["stats", "{sweep}"], 1,
                                       "line 3: fire_000: auroc=1.5 outside [0, 1]"),
    "stats-nan-metric-cell": (["stats", "{sweep}"], 1,
                              "line 3: fire_000: nll=nan is not finite"),
    # ... or with the sweep's summary.json nested past the parser's recursion
    "stats-nested-summary-json": (["stats", "{sweep}"], 1, "malformed JSON"),
    # ... or at an anchor the sweep did not score, refused naming the radii it did
    "stats-anchor-not-scored": (["stats", "{sweep}", "--anchor", "99"], 1,
                                "no records at anchor radius 99 px; "
                                "the sweep scored radii [0, 2]"),
    # one fire lacks features.npy, and every other array is unparsable: the
    # readers of features refuse the pack, naming that fire, before any array
    # is read
    "eval-student-missing-features": (["eval", "--model", "student:{root}:{head}",
                                       "--anchor", "2"], 1,
                                      "student model needs features.npy"),
    "distill-missing-features": (["distill", "{root}", "--max-epochs", "1"], 1,
                                 "distillation needs features.npy"),
    # a header claiming 10**7 x 10**7 float32 is refused before any allocation
    "huge-npy-header": (["eval", "--model", "ensemble:{root}", "--anchor", "2"], 1,
                        "header claims shape"),
    # head.json cases: a student eval reads a checkpoint of the pack's four channels
    "head-json-bias-beyond-float": (["eval", "--model", "student:{root}:{head}",
                                     "--anchor", "2"], 1, "malformed checkpoint field"),
    "head-json-nested": (["sweep", "--model-a", "ensemble:{root}",
                          "--model-b", "student:{root}:{head}", "--anchor", "2"], 1,
                         "malformed head checkpoint"),
    "head-json-string-weights": (["eval", "--model", "student:{root}:{head}",
                                  "--anchor", "2"], 1,
                                 "weights must be a list of JSON numbers"),
    "head-json-zero-channels": (["eval", "--model", "student:{root}:{head}",
                                 "--anchor", "2"], 1, "channels must be >= 1, got 0"),
    # a channel count that disagrees names the stack and the file it disagrees
    # with: for a student the head, for distill the first fire's stack
    "eval-student-head-of-other-channels": (["eval", "--model", "student:{root}:{head}",
                                             "--anchor", "2"], 1,
                                            "4 feature channels, "),
    "distill-stack-of-other-channels": (["distill", "{root}", "--max-epochs", "1"], 1,
                                        "3 feature channels, "),
}

# the commands that read feature stacks, each run on a pack with one bad
# features.npy: "<command>-features-<fault>" -> the fault's message
_STACK_READERS = {
    "distill": ["distill", "{root}", "--max-epochs", "1"],
    "eval-student": ["eval", "--model", "student:{root}:{head}", "--anchor", "2"],
    "sweep-student": ["sweep", "--model-a", "ensemble:{root}",
                      "--model-b", "student:{root}:{head}", "--anchor", "2", "--radii", "0..2"],
}
_STACK_FAULTS = {
    "truncated": "header claims shape",
    # a header claiming 10**4 x 10**7 x 10**7 float32, refused before any allocation
    "huge-header": "header claims shape",
    "2d": "expected 3-D (C, H, W) array, got 2-D",
    "complex": "dtype complex64 is not bool, integer or float",
    "nan": "contains NaN or Inf",
    # a 28x28 stack beside a 30x30 gt.npy: --crop 20 makes both 20x20, so
    # only the check against the uncropped shape refuses it
    "shape-hidden-by-crop": "shape (28, 28) != gt shape (30, 30)",
}
_CORRUPTED_CASES.update({
    f"{command}-features-{fault}": (
        args + (["--crop", "20"] if fault == "shape-hidden-by-crop" else []), 1, message)
    for command, args in _STACK_READERS.items() for fault, message in _STACK_FAULTS.items()
})
# the commands that read every gt.npy and member map, each run on a pack with
# one bad file: "<command>-<role>-<fault>" -> the fault's message
_RASTER_READERS = {
    "distill": ["distill", "{root}", "--max-epochs", "1"],
    "eval": ["eval", "--model", "ensemble:{root}", "--anchor", "2"],
    "sweep": ["sweep", "--model-a", "ensemble:{root}", "--model-b", "ensemble:{root}",
              "--anchor", "2", "--radii", "0..2"],
}
_RASTER_FAULTS = {
    "gt": {
        "truncated": "header claims shape",
        "huge-header": "header claims shape",
        "3d": "expected 2-D array, got 3-D",
        "complex": "dtype complex64 is not bool, integer or float",
        "value-two": "mask values must be exactly 0 or 1",
    },
    "member_1": {
        "truncated": "header claims shape",
        "huge-header": "header claims shape",
        "3d": "expected 2-D array, got 3-D",
        "complex": "dtype complex64 is not bool, integer or float",
        "nan": "contains NaN or Inf",
        "inf": "contains NaN or Inf",
    },
}
# case -> (the name of the bad file in fire_001, its fault)
_FILE_FAULTS = {
    f"{command}-features-{fault}": ("features.npy", fault)
    for command in _STACK_READERS for fault in _STACK_FAULTS
}
for _role, _faults in _RASTER_FAULTS.items():
    for _command, _args in _RASTER_READERS.items():
        for _fault, _message in _faults.items():
            _CORRUPTED_CASES[f"{_command}-{_role}-{_fault}"] = (_args, 1, _message)
            _FILE_FAULTS[f"{_command}-{_role}-{_fault}"] = (f"{_role}.npy", _fault)
# one year's earlier fire has a bad features.npy and its later fire a bad
# member_1.npy: each command parses a year's stacks after all of its member
# maps, so each names the member map
_CORRUPTED_CASES.update({
    f"{command}-stack-fault-then-member-fault": (args, 1, None)
    for command, args in _STACK_READERS.items()
})


@pytest.mark.parametrize("case", sorted(_CORRUPTED_CASES))
def test_corrupted_inputs_exit_with_one_line(tmp_path, case):
    """Each malformed input or argument, or unwritable output, ends in
    exit 1 or 2 with one stderr line, no traceback and no out-dir (or
    none beyond what the case made), in a fresh interpreter that treats
    any RuntimeWarning as an error."""
    args, code, message = _CORRUPTED_CASES[case]
    root, out = tmp_path / "pack", tmp_path / "out"
    _small_pack(root)
    fire = root / "2019" / "fire_001"
    # the file or directory the one stderr line must start with, and the
    # path it duplicates, which the line must name too
    offending, original = None, None
    if case == "complex-member":
        offending = fire / "member_0.npy"
        np.save(offending, np.load(offending).astype(np.complex64) + 0.5j)
    if case == "features-beyond-float32":
        offending = fire / "features.npy"
        features = np.load(offending).astype(np.float64)
        features[1, 3, 4] = 1e39
        np.save(offending, features)
    if case == "duplicate-member-index":
        offending, original = fire / "member_00.npy", fire / "member_0.npy"
        shutil.copyfile(original, offending)
    if case == "duplicate-year-dir":
        offending, original = root / "02019", root / "2019"
        shutil.copytree(original, offending)
    if case == "out-dir-is-a-file":
        out.write_text("not a directory")
    if case == "records-csv-is-a-directory":
        offending = out / "records.csv"
        offending.mkdir(parents=True)
    if case == "huge-npy-header":
        offending = fire / "gt.npy"
        with open(offending, "wb") as f:
            np.lib.format.write_array_header_1_0(
                f, {"descr": "<f4", "fortran_order": False, "shape": (10**7, 10**7)})
            f.write(bytes(64))
    if case.endswith("missing-features"):
        offending = fire
        (fire / "features.npy").unlink()
        for npy in root.glob("*/*/*.npy"):
            npy.write_bytes(b"not an NPY file")
    name, fault = _FILE_FAULTS.get(case, (None, None))
    if name is not None:
        offending = fire / name
        features = np.load(offending)
    if fault == "truncated":
        offending.write_bytes(offending.read_bytes()[:-8])
    if fault == "huge-header":
        # 10**4 x 10**7 x 10**7 float32 for a stack, 10**7 x 10**7 for a map
        shape = (10**4,) * (features.ndim - 2) + (10**7, 10**7)
        with open(offending, "wb") as f:
            np.lib.format.write_array_header_1_0(
                f, {"descr": "<f4", "fortran_order": False, "shape": shape})
            f.write(bytes(64))
    if fault == "2d":
        np.save(offending, features[0])
    if fault == "3d":
        np.save(offending, features[None])
    if fault == "complex":
        np.save(offending, features.astype(np.complex64))
    if fault in ("nan", "inf"):
        features = features.astype(np.float32)
        features[(1,) * (features.ndim - 2) + (3, 4)] = np.nan if fault == "nan" else np.inf
        np.save(offending, features)
    if fault == "value-two":
        features[3, 4] = 2
        np.save(offending, features)
    if fault == "shape-hidden-by-crop":
        for name in ("gt.npy", "member_0.npy", "member_1.npy", "member_2.npy"):
            np.save(fire / name, np.pad(np.load(fire / name), 7))
        np.save(offending, np.pad(features, ((0, 0), (6, 6), (6, 6))))
    if case.endswith("stack-fault-then-member-fault"):
        shutil.copytree(root / "2018" / "fire_000", root / "2019" / "fire_000")
        (root / "2019" / "fire_000" / "features.npy").write_bytes(b"not an NPY file")
        offending = fire / "member_1.npy"
        offending.write_bytes(b"not an NPY file")
    head = tmp_path / "head.json"
    if any("{head}" in a for a in args):
        save_head(head, UncertaintyHead(weights=np.zeros(4), bias=0.0), TrainConfig(),
                  selection_metric=None, epoch=0)
        payload = head.read_text()
    if case.startswith("head-json"):
        offending = head
    if case == "head-json-bias-beyond-float":
        head.write_text(payload.replace('"bias": 0.0', '"bias": 1' + "0" * 400))
    if case == "head-json-nested":
        head.write_text("[" * 100_000 + "]" * 100_000)
    if case == "head-json-string-weights":
        head.write_text(json.dumps({**json.loads(payload), "weights": ["0"] * 4}))
    if case == "head-json-zero-channels":
        head.write_text(json.dumps({**json.loads(payload), "channels": 0, "weights": []}))
    if case == "eval-student-head-of-other-channels":
        head.write_text(json.dumps({**json.loads(payload), "channels": 3, "weights": [0.0] * 3}))
        offending, original = root / "2018" / "fire_000" / "features.npy", head
    if case == "distill-stack-of-other-channels":
        offending, original = fire / "features.npy", root / "2018" / "fire_000" / "features.npy"
        np.save(offending, np.load(offending)[:3])
    sweep = tmp_path / "sweep"
    if args[0] == "stats":
        assert _run(["sweep", "--model-a", f"ensemble:{root}", "--model-b",
                     f"ensemble:{root}", "--radii", "0,2", "--anchor", "2",
                     "--out-dir", sweep]) == 0
        offending = sweep / "sweep_a.csv"
        text = offending.read_bytes()
    if case == "stats-non-utf8-sweep-csv":
        offending.write_bytes(b"\xff\xfe" + text)
    # the column and new value of one cell of fire_000's anchor row
    cell_edits = {"stats-empty-radius-cell": (2, b""), "stats-nan-metric-cell": (6, b"nan"),
                  "stats-out-of-range-metric-cell": (7, b"1.5")}
    if case in cell_edits or case == "stats-duplicate-anchor-row":
        lines = text.split(b"\n")
        assert lines[2].startswith(b"fire_000,2018,2,")  # fire_000's anchor row
        if case in cell_edits:
            column, value = cell_edits[case]
            cells = lines[2].split(b",")
            cells[column] = value
            lines[2] = b",".join(cells)
        else:
            lines.insert(-1, lines[2])  # before the final empty string
        offending.write_bytes(b"\n".join(lines))
    if case == "stats-nested-summary-json":
        offending = sweep / "summary.json"
        offending.write_text("[" * 100_000 + "]" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-m", "fireuq.cli"]
        + [a.format(root=root, sweep=sweep, head=head) for a in args]
        + ["--out-dir", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"},
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    if case == "records-csv-is-a-directory":
        assert list(out.iterdir()) == [offending]
    else:
        assert not out.is_dir()
    if message is not None:
        assert message in lines[0]
    if offending is not None:
        assert lines[0].startswith(f"error: {offending}: ")
    if original is not None:
        assert str(original) in lines[0]
    if case == "out-dir-is-a-file":
        assert out.read_text() == "not a directory"
    if args[0] == "distill":
        assert not list(root.glob("*/*/student_unc.npy"))


def test_memory_error_exits_one_with_one_line(tmp_path, capsys, monkeypatch):
    """An allocation numpy refuses, as for synth --grid-size 100000,
    ends in exit 1 and one stderr line; the refusal is simulated, so no
    large array is requested."""
    def refuse(spec, out_dir):
        raise MemoryError("Unable to allocate 149. GiB for an array with shape "
                          "(100000, 100000) and data type float64")

    monkeypatch.setattr(synth, "write_scenario", refuse)
    assert main(["synth", "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: out of memory (Unable to allocate 149. GiB for an array with "
                   "shape (100000, 100000) and data type float64)\n")
    assert not (tmp_path / "o").exists()


def test_manifests_digest_exactly_the_parsed_files(tmp_path):
    """eval's manifest lists each fire's gt and members, plus its
    features and the head for a student, whether or not distill has
    written student maps into the pack; distill's lists the pack files
    with the features; a sweep of an ensemble against a student on one
    root lists the features once; and stats lists the sweep's two CSVs,
    plus its summary.json when the anchor is read from it."""
    root = tmp_path / "pack"
    _small_pack(root)
    head_path = tmp_path / "head.json"
    head = UncertaintyHead(weights=np.array([0.5, -0.2, 0.1, 0.3]), bias=-0.4)
    save_head(head_path, head, TrainConfig(), selection_metric=None, epoch=0)
    specs = {"ensemble": f"ensemble:{root}", "student": f"student:{root}:{head_path}"}

    def eval_inputs(tag):
        inputs = {}
        for kind, spec in specs.items():
            out = tmp_path / f"{tag}_{kind}"
            assert _run(["eval", "--model", spec, "--anchor", "2", "--out-dir", out]) == 0
            inputs[kind] = json.loads((out / "manifest.json").read_text())["inputs"]
        return inputs

    before = eval_inputs("before")
    assert _run(["distill", root, "--out-dir", tmp_path / "distill",
                 "--max-epochs", "2"]) == 0
    assert len(list(root.glob("*/*/student_unc.npy"))) == 4
    assert eval_inputs("after") == before

    parsed = {
        str(fire / name)
        for fire in root.glob("*/fire_*")
        for name in ("gt.npy", "member_0.npy", "member_1.npy", "member_2.npy",
                     "features.npy")
    }
    assert len(parsed) == 4 * 5
    features = {p for p in parsed if p.endswith("features.npy")}
    assert set(before["ensemble"]) == parsed - features
    assert set(before["student"]) == parsed | {str(head_path)}
    distill = json.loads((tmp_path / "distill" / "manifest.json").read_text())
    assert set(distill["inputs"]) == parsed
    out = tmp_path / "sweep"
    assert _run(["sweep", "--model-a", specs["ensemble"], "--model-b", specs["student"],
                 "--radii", "0,2", "--out-dir", out]) == 0
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert len(inputs) == len(set(inputs)) == len(parsed) + 1
    assert set(inputs) == parsed | {str(head_path)}
    # stats lists the sweep's summary.json exactly when it reads the anchor there
    csvs = {str(out / "sweep_a.csv"), str(out / "sweep_b.csv")}
    for anchor, want in (("auto", csvs | {str(out / "summary.json")}), ("2", csvs)):
        stats_out = tmp_path / f"stats_{anchor}"
        assert _run(["stats", out, "--anchor", anchor, "--out-dir", stats_out]) == 0
        assert set(json.loads((stats_out / "manifest.json").read_text())["inputs"]) == want
