"""End-to-end command flows: synth, eval, sweep, stats, distill."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from fireuq.cli import main, middle_member_by_year, parse_model_spec, _parse_radii
from fireuq.distill import TrainConfig, UncertaintyHead, save_head
from fireuq.errors import ValidationError
from fireuq.metrics import error_map
from fireuq.raster import FireEvent, load_dataset, save_event
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
    rc = _run(["synth", "--out-dir", tmp_path / "o", "--grid-size", "16",
               "--blob-radius", "3", "20"])
    assert rc == 1
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
    events = load_dataset(pack)
    for ev in events:
        assert ev.student_uncertainty is not None
    with open(out / "train_log.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    # second run with the same flags reproduces the same manifest bytes
    manifest = (out / "manifest.json").read_bytes()
    assert _run(["distill", pack, "--out-dir", out, "--max-epochs", "3",
                 "--patience", "5", "--lr0", "0.05", "--selection-anchor", "3",
                 "--force"]) == 0
    assert (out / "manifest.json").read_bytes() == manifest


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
