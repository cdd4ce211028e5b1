"""End-to-end command flows: synth, eval, sweep, stats, distill."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fireuq.cli import main, middle_member_by_year, parse_model_spec, _parse_radii
from fireuq.distill import TrainConfig, UncertaintyHead, apply_head, load_head, save_head
from fireuq.errors import ValidationError
from fireuq.metrics import average_precision, error_map
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


@pytest.mark.parametrize("column", ["auroc", "radius_px"])
def test_stats_non_numeric_sweep_cell_exits_one(sweep_dir, tmp_path, capsys, column):
    sweep = tmp_path / "sweep"
    sweep.mkdir()
    for name in ("sweep_a.csv", "sweep_b.csv", "summary.json"):
        (sweep / name).write_bytes((sweep_dir / name).read_bytes())
    with open(sweep_dir / "sweep_a.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    rows[3][column] = "abc"
    with open(sweep / "sweep_a.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    rc = _run(["stats", sweep, "--out-dir", tmp_path / "st"])
    assert rc == 1
    _assert_one_line_error(capsys, sweep / "sweep_a.csv")


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
    "out-dir-is-a-file": (["eval", "--model", "ensemble:{root}", "--anchor", "2"], 1,
                          "is not a directory"),
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
}


@pytest.mark.parametrize("case", sorted(_CORRUPTED_CASES))
def test_corrupted_inputs_exit_with_one_line(tmp_path, case):
    """Each malformed input or argument ends in exit 1 or 2 with one
    stderr line, no traceback and no out-dir, in a fresh interpreter
    that treats any RuntimeWarning as an error."""
    root, out = tmp_path / "pack", tmp_path / "out"
    _small_pack(root)
    bad_member = root / "2019" / "fire_001" / "member_0.npy"
    if case == "complex-member":
        np.save(bad_member, np.load(bad_member).astype(np.complex64) + 0.5j)
    if case == "out-dir-is-a-file":
        out.write_text("not a directory")
    args, code, message = _CORRUPTED_CASES[case]
    proc = subprocess.run(
        [sys.executable, "-m", "fireuq.cli"]
        + [a.format(root=root) for a in args] + ["--out-dir", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"},
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    assert not out.is_dir()
    if message is not None:
        assert message in lines[0]
    if case == "complex-member":
        assert lines[0].startswith(f"error: {bad_member}: ")
    if case == "out-dir-is-a-file":
        assert out.read_text() == "not a directory"
    if args[0] == "distill":
        assert not list(root.glob("*/*/student_unc.npy"))


def test_manifests_digest_exactly_the_parsed_files(tmp_path):
    """eval's manifest lists each fire's gt, members and features (plus
    the head of a student), whether or not distill has written student
    maps into the pack; distill's lists the same pack files."""
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
    assert set(before["ensemble"]) == parsed
    assert set(before["student"]) == parsed | {str(head_path)}
    distill = json.loads((tmp_path / "distill" / "manifest.json").read_text())
    assert set(distill["inputs"]) == parsed
