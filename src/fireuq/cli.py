"""Command-line entry point.

Subcommands: synth (generate a scenario pack), eval (anchor-radius
tables for one model), sweep (full radius sweep for two models plus
paired differences), stats (Wilcoxon comparison at the anchor), and
distill (train the uncertainty head and write student maps).

Model spec grammar: ``ensemble:<dir>`` evaluates the fused ensemble
(mean probability, normalized-std uncertainty); ``student:<dir>:<head.json>``
evaluates the middle-AP backbone member's probability with the head's
uncertainty applied to cached features.

Exit codes: 0 success, 1 validation failure (bad arguments, bad layout,
bad shapes), 2 degenerate data (well-formed inputs on which a requested
quantity is undefined).  Commands refuse to reuse an out_dir that
already holds a manifest unless --force is given.  --jobs changes wall
time only; every emitted byte is independent of it.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import sys
from pathlib import Path

import numpy as np

from .distill import (
    TrainConfig,
    apply_head,
    fuse_ensemble,
    load_head,
    save_head,
    select_middle_member,
    train_head,
)
from .errors import (
    DegenerateClassError,
    DegenerateDataError,
    EmptyMaskError,
    FireUQError,
    ParseError,
    ValidationError,
)
from .metrics import DEFAULT_NLL_EPSILON, average_precision, average_surface_distance
from .protocol import (
    METRIC_COLUMNS,
    SweepConfig,
    per_year_table,
    resolve_anchor,
    run_sweep,
)
from .raster import FireEvent, GeoConfig, center_crop, load_dataset, save_array
from .report import (
    MANIFEST_NAME,
    has_manifest,
    write_diff_csv,
    write_json,
    write_manifest,
    write_markdown_table,
    write_stats_json,
    write_summary_json,
    write_sweep_csv,
    write_train_log_csv,
)
from .stats import build_pairs, stats_block
from .synth import ScenarioSpec, write_scenario


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage errors as validation failures
    (exit 1) instead of its default exit code 2."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _parse_radii(text: str) -> tuple[int, ...]:
    """Radii list: 'lo..hi' inclusive range or comma-separated ints."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            radii = tuple(range(int(lo), int(hi) + 1))
        else:
            radii = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad --radii value {text!r}") from exc
    return radii


def _parse_anchor(text: str) -> int | None:
    """None means auto (resolve from mean ASD)."""
    if text == "auto":
        return None
    try:
        px = int(text)
    except ValueError as exc:
        raise ValidationError(f"bad --anchor value {text!r} (want 'auto' or int)") from exc
    if px < 0:
        raise ValidationError("--anchor must be >= 0")
    return px


def parse_model_spec(text: str) -> tuple[str, Path, Path | None]:
    parts = text.split(":")
    if parts[0] == "ensemble" and len(parts) == 2 and parts[1]:
        return "ensemble", Path(parts[1]), None
    if parts[0] == "student" and len(parts) == 3 and parts[1] and parts[2]:
        return "student", Path(parts[1]), Path(parts[2])
    raise ValidationError(
        f"bad model spec {text!r}; want ensemble:<dir> or student:<dir>:<head.json>"
    )


def _crop_event(ev: FireEvent, crop_size: int) -> FireEvent:
    h, w = ev.gt.shape
    if h < crop_size or w < crop_size:
        return ev
    return FireEvent(
        id=ev.id,
        year=ev.year,
        gt=center_crop(ev.gt, crop_size),
        members=[center_crop(m, crop_size) for m in ev.members],
        features=None if ev.features is None else center_crop(ev.features, crop_size),
        student_uncertainty=None
        if ev.student_uncertainty is None
        else center_crop(ev.student_uncertainty, crop_size),
    )


def _load_events(root: Path, geo: GeoConfig) -> list[FireEvent]:
    events = load_dataset(root)
    return [_crop_event(ev, geo.crop_size) for ev in events]


def middle_member_by_year(events: list[FireEvent]) -> dict[int, int]:
    """Per year, the member whose mean per-fire AP is the median."""
    out: dict[int, int] = {}
    for year in sorted({ev.year for ev in events}):
        evs = [ev for ev in events if ev.year == year]
        n = evs[0].n_members
        means = []
        for k in range(n):
            vals = []
            for ev in evs:
                try:
                    vals.append(average_precision(ev.members[k], ev.gt))
                except DegenerateClassError:
                    continue
            means.append(float(np.mean(vals)) if vals else None)
        if all(v is None for v in means):
            out[year] = 0
            continue
        out[year] = select_middle_member(
            [v if v is not None else -np.inf for v in means]
        )
    return out


def _model_outputs(
    kind: str, events: list[FireEvent], head
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[np.ndarray]]:
    """(prob, unc) per event for the spec'd model, plus the shared
    error-map reference (the middle-AP member's probability map)."""
    mids = middle_member_by_year(events)
    references = [ev.members[mids[ev.year]] for ev in events]
    outputs = []
    for ev, ref in zip(events, references):
        if kind == "ensemble":
            teacher = fuse_ensemble(ev.members)
            outputs.append((teacher.mean_prob, teacher.uncertainty))
        else:
            if ev.features is None:
                raise ValidationError(
                    f"fire {ev.id}: student model needs features.npy"
                )
            outputs.append((ref, apply_head(head, ev.features)))
    return outputs, references


def _per_fire_asd(
    outputs: list[tuple[np.ndarray, np.ndarray]],
    events: list[FireEvent],
    threshold: float,
    geo: GeoConfig,
) -> list[float]:
    values = []
    for (prob, _unc), ev in zip(outputs, events):
        pred = (prob >= threshold).astype(np.uint8)
        try:
            values.append(average_surface_distance(pred, ev.gt, geo.meters_per_pixel))
        except EmptyMaskError:
            continue
    return values


def _check_out_dir(out_dir: Path, force: bool):
    if has_manifest(out_dir) and not force:
        raise ValidationError(
            f"{out_dir} already contains {MANIFEST_NAME}; pass --force to overwrite"
        )
    out_dir.mkdir(parents=True, exist_ok=True)


def _resolve_run_anchor(
    anchor_px: int | None, asd_values: list[float], geo: GeoConfig
) -> int:
    if anchor_px is not None:
        return anchor_px
    if not asd_values:
        raise DegenerateDataError(
            "anchor=auto needs at least one fire with a defined ASD"
        )
    return resolve_anchor(asd_values, geo)


def cmd_eval(args) -> int:
    geo = GeoConfig(meters_per_pixel=args.mpp, crop_size=args.crop)
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir, args.force)

    kind, root, head_path = parse_model_spec(args.model)
    head = load_head(head_path)[0] if head_path is not None else None
    events = _load_events(root, geo)
    outputs, references = _model_outputs(kind, events, head)

    anchor = _resolve_run_anchor(
        args.anchor, _per_fire_asd(outputs, events, args.threshold, geo), geo
    )
    config = SweepConfig(
        radii_px=(anchor,),
        anchor_policy=anchor,
        error_threshold=args.threshold,
        nll_epsilon=args.epsilon,
    )
    sweep = run_sweep(events, outputs, references, config, geo, jobs=args.jobs)
    per_year = per_year_table(sweep.records, anchor)

    write_sweep_csv(out_dir / "records.csv", sweep.records)
    write_summary_json(
        out_dir / "summary.json", sweep, per_year, meta={"model": args.model}
    )
    write_markdown_table(
        out_dir / "table.md", per_year, anchor, title=f"Evaluation: {args.model}"
    )
    inputs = [root] + ([head_path] if head_path else [])
    write_manifest(out_dir, "eval", _config_snapshot(args, anchor), inputs)
    return 0


def cmd_sweep(args) -> int:
    geo = GeoConfig(meters_per_pixel=args.mpp, crop_size=args.crop)
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir, args.force)

    sides = []
    for spec_text in (args.model_a, args.model_b):
        kind, root, head_path = parse_model_spec(spec_text)
        head = load_head(head_path)[0] if head_path is not None else None
        events = _load_events(root, geo)
        outputs, references = _model_outputs(kind, events, head)
        sides.append((spec_text, head_path, root, events, outputs, references))

    pooled_asd = []
    for _spec, _hp, _root, events, outputs, _refs in sides:
        pooled_asd.extend(_per_fire_asd(outputs, events, args.threshold, geo))
    anchor = _resolve_run_anchor(args.anchor, pooled_asd, geo)

    radii = tuple(sorted(set(_parse_radii(args.radii)) | {anchor}))
    results = []
    for _spec, _hp, _root, events, outputs, references in sides:
        config = SweepConfig(
            radii_px=radii,
            anchor_policy=anchor,
            error_threshold=args.threshold,
            nll_epsilon=args.epsilon,
        )
        results.append(run_sweep(events, outputs, references, config, geo, jobs=args.jobs))

    for label, result in zip(("a", "b"), results):
        write_sweep_csv(out_dir / f"sweep_{label}.csv", result.records)
        write_summary_json(
            out_dir / f"summary_{label}.json",
            result,
            per_year_table(result.records, anchor),
            meta={"model": sides[0][0] if label == "a" else sides[1][0]},
        )
    write_diff_csv(out_dir / "diff.csv", results[0].records, results[1].records)
    write_json(
        out_dir / "summary.json",
        {
            "anchor_radius_px": anchor,
            "radii_px": list(radii),
            "model_a": args.model_a,
            "model_b": args.model_b,
        },
    )
    inputs = []
    for _spec, head_path, root, *_ in sides:
        inputs.append(root)
        if head_path:
            inputs.append(head_path)
    write_manifest(out_dir, "sweep", _config_snapshot(args, anchor), inputs)
    return 0


def _read_sweep_csv(path: Path) -> list[dict]:
    if not path.is_file():
        raise ValidationError(f"missing sweep output {path}")
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header = set(reader.fieldnames or ())
        needed = ("fire_id", "year", "radius_px") + METRIC_COLUMNS
        missing = [c for c in needed if c not in header]
        if missing:
            raise ParseError(f"{path}: missing columns {', '.join(missing)}")
        for row in reader:
            parsed = dict(row)
            for key in METRIC_COLUMNS:
                parsed[key] = float(row[key]) if row[key] != "" else None
            parsed["radius_px"] = int(row["radius_px"]) if row["radius_px"] != "" else None
            rows.append(parsed)
    return rows


def cmd_stats(args) -> int:
    sweep_dir = Path(args.sweep_dir)
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir, args.force)

    anchor = args.anchor
    if anchor is None:
        summary_path = sweep_dir / "summary.json"
        if not summary_path.is_file():
            raise ValidationError(f"anchor=auto needs {summary_path}")
        anchor = json.loads(summary_path.read_text()).get("anchor_radius_px")
        if anchor is None:
            raise ValidationError(f"{summary_path} has no anchor_radius_px")

    rows_a = _read_sweep_csv(sweep_dir / "sweep_a.csv")
    rows_b = _read_sweep_csv(sweep_dir / "sweep_b.csv")
    blocks = []
    excluded = {}
    for metric in ("auroc", "auprc"):
        def values(rows):
            return {
                f"{r['year']}/{r['fire_id']}": r[metric]
                for r in rows
                if r["radius_px"] == anchor
            }

        va, vb = values(rows_a), values(rows_b)
        if args.direction == "b_gt_a":
            va, vb = vb, va
        pairs, n_excluded = build_pairs(va, vb)
        excluded[metric] = n_excluded
        if not pairs:
            raise DegenerateDataError(f"stats: no complete pairs for {metric}")
        blocks.append(stats_block(metric, pairs))

    write_stats_json(
        out_dir / "stats.json",
        blocks,
        meta={
            "anchor_radius_px": anchor,
            "direction": args.direction,
            "n_excluded": excluded,
        },
    )
    write_manifest(
        out_dir,
        "stats",
        _config_snapshot(args, anchor),
        [sweep_dir / "sweep_a.csv", sweep_dir / "sweep_b.csv"],
    )
    return 0


def cmd_distill(args) -> int:
    geo = GeoConfig(meters_per_pixel=args.mpp, crop_size=args.crop)
    root = Path(args.dataset)
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir, args.force)

    events = _load_events(root, geo)
    for ev in events:
        if ev.features is None:
            raise ValidationError(f"fire {ev.id}: distillation needs features.npy")

    years = sorted({ev.year for ev in events})
    val_year = args.val_year if args.val_year is not None else years[-1]
    if val_year not in years:
        raise ValidationError(f"--val-year {val_year} not present in dataset (has {years})")
    if len(years) < 2:
        raise ValidationError("distillation needs at least two years (train + val)")

    mids = middle_member_by_year(events)
    teacher_unc = {id(ev): fuse_ensemble(ev.members).uncertainty for ev in events}
    train_events = [ev for ev in events if ev.year != val_year]
    val_events = [ev for ev in events if ev.year == val_year]
    train_set = [(ev.features, teacher_unc[id(ev)]) for ev in train_events]
    val_set = [(ev.features, teacher_unc[id(ev)]) for ev in val_events]
    val_selection = [(ev.gt, ev.members[mids[ev.year]]) for ev in val_events]

    cfg = TrainConfig(
        lr0=args.lr0,
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        poly_power=args.poly_power,
        max_epochs=args.max_epochs,
        patience=args.patience,
        selection_anchor_px=args.selection_anchor,
        rng_seed=args.seed,
    )
    result = train_head(
        train_set, val_set, cfg, val_selection, error_threshold=args.threshold
    )

    save_head(
        out_dir / "head.json",
        result.head,
        cfg,
        result.selection_metric,
        result.selected_epoch,
    )
    write_train_log_csv(out_dir / "train_log.csv", result.log)

    # student maps go into the dataset layout beside their fires
    for ev in events:
        unc = apply_head(result.head, ev.features).astype(np.float32)
        save_array(unc, root / str(ev.year) / ev.id / "student_unc.npy")

    # digest only the files the training consumed, not the student maps
    # just written, so reruns produce identical manifests
    consumed = []
    for ev_dir in sorted(
        p for y in root.iterdir() if y.is_dir() for p in y.iterdir() if p.is_dir()
    ):
        for name in sorted(f.name for f in ev_dir.iterdir()):
            if name == "gt.npy" or name == "features.npy" or name.startswith("member_"):
                consumed.append(ev_dir / name)
    write_manifest(out_dir, "distill", _config_snapshot(args, None), consumed)
    return 0


def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir, args.force)
    spec = ScenarioSpec(
        rng_seed=args.seed,
        grid_size=args.grid_size,
        n_fires=args.n_fires,
        n_members=args.n_members,
        blob_count_range=tuple(args.blob_count),
        blob_radius_range_px=tuple(args.blob_radius),
        member_noise_sigma=args.noise_sigma,
        member_bias=args.bias,
        feature_channels=args.feature_channels,
        feature_noise_sigma=args.feature_noise_sigma,
        years=tuple(args.years),
    )
    write_scenario(spec, out_dir)
    write_manifest(out_dir, "synth", _config_snapshot(args, None), [])
    return 0


def _config_snapshot(args, anchor) -> dict:
    """Manifest config: every flag that can influence emitted values.

    --jobs and --force are deliberately excluded (wall-time/overwrite
    controls only), so reruns with different parallelism produce
    byte-identical manifests.
    """
    skip = {"func", "jobs", "force", "out_dir"}
    snapshot = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in sorted(vars(args).items())
        if k not in skip
    }
    if anchor is not None:
        snapshot["resolved_anchor_px"] = anchor
    return snapshot


def _add_common(p: argparse.ArgumentParser, *, geo=True):
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite an out-dir that already has a manifest")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads; affects wall time only")
    if geo:
        p.add_argument("--crop", type=int, default=128,
                       help="center-crop size; grids smaller than this stay uncropped")
        p.add_argument("--mpp", type=float, default=375.0, help="meters per pixel")
        p.add_argument("--threshold", type=float, default=0.5,
                       help="probability threshold for masks and error maps")
        p.add_argument("--epsilon", type=float, default=DEFAULT_NLL_EPSILON,
                       help="NLL probability clip")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fireuq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eval", help="anchor-radius tables for one model")
    p.add_argument("--model", required=True, help="ensemble:<dir> or student:<dir>:<head.json>")
    p.add_argument("--anchor", type=_parse_anchor, default=None,
                   help="'auto' (mean ASD) or a fixed pixel radius", metavar="auto|PX")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="radius sweep for two models + paired differences")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--radii", default="0..16", help="'lo..hi' or comma list")
    p.add_argument("--anchor", type=_parse_anchor, default=None, metavar="auto|PX")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="Wilcoxon comparison at the anchor radius")
    p.add_argument("sweep_dir", help="directory produced by `fireuq sweep`")
    p.add_argument("--anchor", type=_parse_anchor, default=None, metavar="auto|PX")
    p.add_argument("--direction", choices=("a_gt_b", "b_gt_a"), default="a_gt_b",
                   help="one-sided alternative: which model is hypothesized better")
    _add_common(p, geo=False)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("distill", help="train the uncertainty head on cached features")
    p.add_argument("dataset", help="dataset root with features.npy per fire")
    p.add_argument("--val-year", type=int, default=None,
                   help="held-out year for selection (default: latest)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr0", type=float, default=1e-3)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=5e-4)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--poly-power", type=float, default=0.9)
    p.add_argument("--max-epochs", type=int, default=100)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--selection-anchor", type=int, default=4,
                   help="FCER radius (px) for checkpoint selection")
    _add_common(p)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("synth", help="generate a synthetic scenario pack")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-size", type=int, default=128)
    p.add_argument("--n-fires", type=int, default=8)
    p.add_argument("--n-members", type=int, default=3)
    p.add_argument("--blob-count", type=int, nargs=2, default=(1, 4),
                   metavar=("LO", "HI"))
    p.add_argument("--blob-radius", type=int, nargs=2, default=(3, 12),
                   metavar=("LO", "HI"))
    p.add_argument("--noise-sigma", type=float, default=0.15)
    p.add_argument("--bias", type=float, default=0.0)
    p.add_argument("--feature-channels", type=int, default=6)
    p.add_argument("--feature-noise-sigma", type=float, default=1.0)
    p.add_argument("--years", type=int, nargs="+", default=[2018, 2019, 2020, 2021])
    _add_common(p, geo=False)
    p.set_defaults(func=cmd_synth)

    return parser


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let glibc reuse freed numpy temporaries instead of remapping them.

    By default glibc serves each block of 128 KiB or more (one 128x128
    float64 map) with a fresh mmap and returns the heap top to the
    kernel once 128 KiB of it is free; it raises both limits only after
    freeing a block larger than the current one.  Loops over such maps,
    as in distill's training epochs, then page-fault on nearly every
    temporary until some large block happens to be freed.  Fixed limits
    of 32 MiB (mmap) and 64 MiB (trim) make every command run as it does
    after such a free.  C libraries without mallopt are left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except DegenerateDataError as exc:
        print(f"error (degenerate data): {exc}", file=sys.stderr)
        return 2
    except FireUQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
