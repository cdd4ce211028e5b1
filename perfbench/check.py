"""Check the outputs of one pipeline pass of the fireuq benchmark.

    python3 perfbench/check.py --work DIR --n-fires N --n-members M \
        --channels C --crop PX --radii TEXT --oracle-seed S

DIR holds ``pack/`` (the synth output) and ``out/`` with one directory
per command: ``distill``, ``eval_ensemble``, ``eval_student``, ``sweep``
and ``stats``.  Prints one JSON object with the failed checks per
command.  It also recomputes a sample of sweep records, drawn with
``--oracle-seed``, with the brute-force ``fireuq.oracles``, on windows small
enough for the oracles' size guards.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

import numpy as np

from fireuq import oracles
from fireuq.cli import middle_member_by_year
from fireuq.distill import apply_head, fuse_ensemble, load_head
from fireuq.errors import DegenerateClassError
from fireuq.metrics import DEFAULT_NLL_EPSILON, error_map
from fireuq.protocol import resolve_anchor
from fireuq.raster import GeoConfig, center_crop, load_dataset

MPP = 375.0
THRESHOLD = 0.5
UNIT_COLUMNS = ("ap", "auroc", "auprc", "error_prevalence", "brier")
# oracle costs grow as n^2 in the region size; keep each check well under a second
ORACLE_MAX_REGION_PX = 800
ORACLE_SAMPLES = 4
# the size guard of fireuq.oracles on grids and pixel lists
ORACLE_MAX_WINDOW_PX = 8192


def parse_radii(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def read_records(path: Path) -> list[dict]:
    rows = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            rec = {"fire": (int(row["year"]), row["fire_id"]),
                   "radius": int(row["radius_px"]),
                   "n_eval_px": int(row["n_eval_px"])}
            for key in ("ap", "asd_m", "brier", "nll", "auroc", "auprc", "error_prevalence"):
                rec[key] = float(row[key]) if row[key] != "" else None
            rows.append(rec)
    return rows


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_ranges(records: list[dict], crop_px: int) -> list[str]:
    bad = []
    for r in records:
        where = f"{r['fire']} r={r['radius']}"
        for key in UNIT_COLUMNS:
            if r[key] is not None and not 0.0 <= r[key] <= 1.0:
                bad.append(f"{key}={r[key]} outside [0, 1] at {where}")
        if r["nll"] is not None and not 0.0 <= r["nll"] <= -math.log(DEFAULT_NLL_EPSILON):
            bad.append(f"nll={r['nll']} out of range at {where}")
        if r["asd_m"] is not None and not (math.isfinite(r["asd_m"]) and r["asd_m"] >= 0):
            bad.append(f"asd_m={r['asd_m']} out of range at {where}")
        if not 0 <= r["n_eval_px"] <= crop_px:
            bad.append(f"n_eval_px={r['n_eval_px']} out of range at {where}")
    return bad


def check_nesting(records: list[dict]) -> list[str]:
    """FCERs are nested, so n_eval_px never decreases with the radius."""
    bad = []
    last: dict = {}
    for r in sorted(records, key=lambda r: (r["fire"], r["radius"])):
        prev = last.get(r["fire"])
        if prev is not None and r["n_eval_px"] < prev:
            bad.append(f"n_eval_px decreases with radius at {r['fire']} r={r['radius']}")
        last[r["fire"]] = r["n_eval_px"]
    return bad


def per_fire_asd(records: list[dict]) -> list[float]:
    seen: dict = {}
    for r in records:
        if r["asd_m"] is not None:
            seen.setdefault(r["fire"], r["asd_m"])
    return list(seen.values())


def check_eval(out: Path, args, sweep_by_key: dict) -> list[str]:
    records = read_records(out / "records.csv")
    summary = json.loads((out / "summary.json").read_text())
    bad = check_ranges(records, args.crop_px)
    if len(records) != args.n_fires:
        bad.append(f"{len(records)} records, want {args.n_fires} (fires x 1 radius)")
    anchor = resolve_anchor(per_fire_asd(records), GeoConfig(meters_per_pixel=MPP))
    if summary["anchor_radius_px"] != anchor:
        bad.append(f"anchor {summary['anchor_radius_px']} != resolve_anchor(ASDs) {anchor}")
    for r in records:
        if r["radius"] != anchor:
            bad.append(f"record at r={r['radius']}, anchor is {anchor}")
        twin = sweep_by_key.get((r["fire"], r["radius"]))
        if twin is not None and twin != r:
            bad.append(f"record {r['fire']} r={r['radius']} differs from the sweep's")
    return bad


def check_sweep(out: Path, args, side_a: list[dict], side_b: list[dict]) -> list[str]:
    summary = json.loads((out / "summary.json").read_text())
    anchor = resolve_anchor(per_fire_asd(side_a) + per_fire_asd(side_b),
                            GeoConfig(meters_per_pixel=MPP))
    bad = []
    if summary["anchor_radius_px"] != anchor:
        bad.append(f"anchor {summary['anchor_radius_px']} != resolve_anchor(ASDs) {anchor}")
    radii = sorted(set(parse_radii(args.radii)) | {anchor})
    if summary["radii_px"] != radii:
        bad.append(f"radii {summary['radii_px']} != {radii}")
    want = args.n_fires * len(radii)
    for label, records in (("a", side_a), ("b", side_b)):
        if len(records) != want:
            bad.append(f"sweep_{label}: {len(records)} records, want {want}")
        if sorted({r["radius"] for r in records}) != radii:
            bad.append(f"sweep_{label}: radii differ from {radii}")
        bad += [f"sweep_{label}: {m}" for m in check_ranges(records, args.crop_px)]
        bad += [f"sweep_{label}: {m}" for m in check_nesting(records)]
    with open(out / "diff.csv", newline="") as f:
        n_diff = sum(1 for _ in csv.DictReader(f))
    if n_diff != want:
        bad.append(f"diff.csv: {n_diff} rows, want {want}")
    return bad


def check_stats(out: Path, sweep_out: Path, n_fires: int) -> list[str]:
    payload = json.loads((out / "stats.json").read_text())
    sweep_anchor = json.loads((sweep_out / "summary.json").read_text())["anchor_radius_px"]
    bad = []
    if payload["meta"]["anchor_radius_px"] != sweep_anchor:
        bad.append("stats anchor differs from the sweep anchor")
    if sorted(t["metric"] for t in payload["tests"]) != ["auprc", "auroc"]:
        bad.append("stats.json does not hold one test per ranking metric")
    for t in payload["tests"]:
        n_eff = t["n_pairs"] - t["n_discarded"]
        if not 0 < t["n_pairs"] <= n_fires:
            bad.append(f"{t['metric']}: n_pairs {t['n_pairs']} outside 1..{n_fires}")
        if not 0.0 <= t["p_value"] <= 1.0 or not -1.0 <= t["rank_biserial"] <= 1.0:
            bad.append(f"{t['metric']}: p or effect size out of range")
        if t["mode"] != ("exact" if n_eff <= 25 else "normal"):
            bad.append(f"{t['metric']}: mode {t['mode']} with {n_eff} nonzero pairs")
    return bad


def check_distill(out: Path, pack: Path, args) -> list[str]:
    head = json.loads((out / "head.json").read_text())
    bad = []
    if head["channels"] != args.channels or len(head["weights"]) != args.channels:
        bad.append(f"head has {head['channels']} channels, want {args.channels}")
    if not all(math.isfinite(w) for w in head["weights"] + [head["bias"]]):
        bad.append("head parameters are not finite")
    with open(out / "train_log.csv", newline="") as f:
        epochs = sum(1 for _ in csv.DictReader(f))
    if not 1 <= epochs <= 60:
        bad.append(f"train_log has {epochs} epochs, want 1..60")
    maps = sorted(pack.glob("*/*/student_unc.npy"))
    if len(maps) != args.n_fires:
        bad.append(f"{len(maps)} student maps, want {args.n_fires}")
    for p in maps:
        a = np.load(p)
        if not (np.isfinite(a).all() and a.min() >= 0.0 and a.max() <= 1.0):
            bad.append(f"{p}: student map outside [0, 1]")
    return bad


def check_pack(pack: Path, args) -> list[str]:
    fires = sorted(pack.glob("*/*/gt.npy"))
    bad = []
    if len(fires) != args.n_fires:
        bad.append(f"{len(fires)} fires, want {args.n_fires}")
    for gt in fires:
        if len(list(gt.parent.glob("member_*.npy"))) != args.n_members:
            bad.append(f"{gt.parent}: member count differs from {args.n_members}")
        if np.load(gt.parent / "features.npy", mmap_mode="r").shape[0] != args.channels:
            bad.append(f"{gt.parent}: feature channels differ from {args.channels}")
    return bad


def _window(mask: np.ndarray, margin: int):
    ys, xs = np.nonzero(mask)
    h, w = mask.shape
    return (slice(max(0, ys.min() - margin), min(h, ys.max() + margin + 1)),
            slice(max(0, xs.min() - margin), min(w, xs.max() + margin + 1)))


def _size(window) -> int:
    return (window[0].stop - window[0].start) * (window[1].stop - window[1].start)


def oracle_check(pack: Path, out: Path, args, sides: dict, seed: int) -> tuple[list[str], int]:
    """Recompute a seeded sample of sweep records with fireuq.oracles.

    The model outputs are rebuilt with the library (fusion, head, middle
    member); every metric, the FCER and the ASD come from the oracles.
    Windows are cut around the masks so the oracles' size guards hold:
    a disk dilation by r only reaches r pixels past the mask, and the
    boundary of a mask is unchanged by a crop that keeps a background
    margin or the grid edge.
    """
    events = [
        ev if min(ev.gt.shape) < args.crop else type(ev)(
            id=ev.id, year=ev.year, gt=center_crop(ev.gt, args.crop),
            members=[center_crop(m, args.crop) for m in ev.members],
            features=center_crop(ev.features, args.crop))
        for ev in load_dataset(pack)
    ]
    by_fire = {(ev.year, ev.id): ev for ev in events}
    mids = middle_member_by_year(events)
    head = load_head(out / "distill" / "head.json")[0]

    candidates = [(label, r) for label, records in sorted(sides.items())
                  for r in records if 0 < r["n_eval_px"] <= ORACLE_MAX_REGION_PX]
    order = np.random.default_rng(seed).permutation(len(candidates))
    bad = []
    n_checked = 0
    for i in order:
        label, rec = candidates[int(i)]
        ev = by_fire[rec["fire"]]
        gt = ev.gt
        win = _window(gt, rec["radius"] + 1)
        if _size(win) > ORACLE_MAX_WINDOW_PX:
            continue
        if n_checked == ORACLE_SAMPLES:
            break
        reference = ev.members[mids[ev.year]]
        if label == "a":
            teacher = fuse_ensemble(ev.members)
            prob, unc = teacher.mean_prob, teacher.uncertainty
        else:
            prob, unc = reference, apply_head(head, ev.features)
        where = f"sweep_{label} {rec['fire']} r={rec['radius']}"

        region = np.zeros(gt.shape, dtype=bool)
        region[win] = oracles.oracle_dilate(gt[win], rec["radius"]).astype(bool)
        n_checked += 1
        if int(region.sum()) != rec["n_eval_px"]:
            bad.append(f"{where}: FCER has {int(region.sum())} px, CSV {rec['n_eval_px']}")
            continue
        y = gt[region]
        errors = error_map(reference, gt, threshold=THRESHOLD)[region]
        checks = [("brier", oracles.oracle_brier(prob[region], y)),
                  ("nll", oracles.oracle_nll(prob[region], y, DEFAULT_NLL_EPSILON))]
        try:
            checks += [("auroc", oracles.oracle_auroc(unc[region], errors)),
                       ("auprc", oracles.oracle_auprc(unc[region], errors)),
                       ("error_prevalence", float(errors.mean()))]
        except DegenerateClassError:
            checks += [("auroc", None), ("auprc", None), ("error_prevalence", None)]

        pred = (prob >= THRESHOLD).astype(np.uint8)
        if not pred.any():
            checks.append(("asd_m", None))
        elif _size(win := _window(pred | gt, 1)) <= ORACLE_MAX_WINDOW_PX:
            checks.append(("asd_m", oracles.oracle_asd(pred[win], gt[win], MPP)))

        for key, want in checks:
            got = rec[key]
            if (got is None) != (want is None) or (want is not None and not close(got, want)):
                bad.append(f"{where}: {key} {got} != oracle {want}")
    return bad, n_checked


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--work", required=True)
    p.add_argument("--n-fires", type=int, required=True)
    p.add_argument("--n-members", type=int, required=True)
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--crop", type=int, required=True)
    p.add_argument("--radii", required=True)
    p.add_argument("--oracle-seed", type=int, required=True)
    args = p.parse_args(argv)

    work = Path(args.work)
    pack, out = work / "pack", work / "out"
    grid = np.load(next(pack.glob("*/*/gt.npy")), mmap_mode="r").shape
    args.crop_px = min(grid[0], args.crop) * min(grid[1], args.crop)

    failures: dict[str, list[str]] = {}

    def run(command, fn, *fn_args):
        # a check that cannot read or parse an output counts that output as wrong
        try:
            failures[command] = fn(*fn_args)
        except Exception as exc:
            failures[command] = [f"{type(exc).__name__}: {exc}"]

    sides: dict[str, list[dict]] = {}
    try:
        sides = {"a": read_records(out / "sweep" / "sweep_a.csv"),
                 "b": read_records(out / "sweep" / "sweep_b.csv")}
    except Exception as exc:
        failures["sweep"] = [f"{type(exc).__name__}: {exc}"]
    sweep_a_by_key = {(r["fire"], r["radius"]): r for r in sides.get("a", [])}
    sweep_b_by_key = {(r["fire"], r["radius"]): r for r in sides.get("b", [])}

    run("synth", check_pack, pack, args)
    run("distill", check_distill, out / "distill", pack, args)
    run("eval_ensemble", check_eval, out / "eval_ensemble", args, sweep_a_by_key)
    run("eval_student", check_eval, out / "eval_student", args, sweep_b_by_key)
    if "sweep" not in failures:
        run("sweep", check_sweep, out / "sweep", args, sides["a"], sides["b"])
    run("stats", check_stats, out / "stats", out / "sweep", args.n_fires)

    n_oracle = 0
    if sides:
        try:
            bad, n_oracle = oracle_check(pack, out, args, sides, args.oracle_seed)
        except Exception as exc:
            bad = [f"oracle check: {type(exc).__name__}: {exc}"]
        failures["sweep"] = failures.get("sweep", []) + bad

    print(json.dumps({"failures": failures, "oracle_records": n_oracle,
                      "numpy": np.__version__}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
