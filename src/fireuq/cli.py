"""Command-line entry point: flag parsing, each command's own checks and
its writers.  eval and sweep score distill.load_models' year groups with run_sweep.

Subcommands: synth (generate a scenario pack), eval (anchor-radius
tables for one model), sweep (full radius sweep for two models plus
paired differences), stats (Wilcoxon comparison at the anchor), and
distill (train the uncertainty head and write student maps).

Model spec grammar: ``ensemble:<dir>`` evaluates the fused ensemble
(mean probability, normalized-std uncertainty); ``student:<dir>:<head.json>``
evaluates the middle-AP backbone member's probability with the head's
uncertainty applied to cached features.

Exit codes: 0 success, 1 validation failure (bad arguments, bad layout,
bad shapes) or a failed write or allocation, 2 degenerate data
(well-formed inputs on which a requested quantity is undefined).
Commands refuse to reuse an out_dir that already holds a manifest
unless --force is given.  Every command accepts --jobs and checks that
it is an integer >= 1, but it changes nothing: every command runs
serially, and the flag stays so that one flag set drives every command.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# numpy-free modules only: each command imports the array modules it runs
# on itself, so stats, which reads CSVs and JSON, imports no numpy
from .constants import DEFAULT_NLL_EPSILON, MAX_RADIUS_PX
from .errors import (
    DegenerateDataError,
    FireUQError,
    ParseError,
    ValidationError,
)
from .report import (
    MANIFEST_NAME,
    has_manifest,
    pair_records,
    read_json,
    read_sweep_csv,
    write_diff_csv,
    write_json,
    write_manifest,
    write_markdown_table,
    write_sweep_csv,
    write_train_log_csv,
)
from .stats import stats_block


def __getattr__(name):
    """distill's middle_member_by_year, importable from here as before
    the commands imported distill themselves."""
    if name == "middle_member_by_year":
        from . import distill

        return getattr(distill, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage errors as validation failures
    (exit 1) instead of its default exit code 2."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _parse_radii(text: str) -> tuple[int, ...]:
    """Radii list: 'lo..hi' inclusive range or comma-separated ints,
    returned sorted without duplicates.  A range's ends are checked
    against MAX_RADIUS_PX before the range is built."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(t) for t in text.split(".."))
            if lo < 0 or hi > MAX_RADIUS_PX:
                raise ValidationError(
                    f"bad --radii value {text!r}: radii must lie in [0, {MAX_RADIUS_PX}]"
                )
            radii = tuple(range(lo, hi + 1))
        else:
            radii = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad --radii value {text!r}") from exc
    if not radii:
        raise ValidationError(f"bad --radii value {text!r}: the range is empty")
    return tuple(sorted(set(radii)))


def _parse_jobs(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise ValidationError(f"--jobs must be an integer >= 1, got {text!r}")
    return int(text)


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


def _check_out_dir(out_dir: Path, force: bool):
    """Refuse an out_dir that is not a directory or already holds a
    manifest.  It is not made here: each writer makes its own parent, so
    a command that fails before writing leaves nothing behind."""
    for p in (out_dir, *out_dir.parents):
        if p.exists():
            if not p.is_dir():
                raise ValidationError(f"--out-dir {out_dir}: {p} is not a directory")
            break
    if has_manifest(out_dir) and not force:
        raise ValidationError(
            f"{out_dir} already contains {MANIFEST_NAME}; pass --force to overwrite"
        )


def _sweep_config(args, radii_px: tuple[int, ...]):
    from .protocol import SweepConfig

    return SweepConfig(
        radii_px=radii_px,
        anchor_px=args.anchor,
        error_threshold=args.threshold,
        nll_epsilon=args.epsilon,
    )


def cmd_eval(args) -> int:
    from .distill import load_models
    from .protocol import run_sweep, summarize
    from .raster import GeoConfig

    geo = GeoConfig(meters_per_pixel=args.mpp, crop_size=args.crop)
    config = _sweep_config(args, radii_px=())
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir, args.force)

    groups, inputs = load_models([args.model], geo)
    [records], anchor = run_sweep(groups, config, geo)
    summary = summarize(records, anchor)

    write_sweep_csv(out_dir / "records.csv", records)
    write_json(out_dir / "summary.json", {**summary, "meta": {"model": args.model}})
    write_markdown_table(out_dir / "table.md", summary, title=f"Evaluation: {args.model}")
    write_manifest(out_dir, "eval", _config_snapshot(args, anchor), inputs)
    return 0


def cmd_sweep(args) -> int:
    from .distill import load_models, parse_model_spec
    from .protocol import run_sweep, summarize
    from .raster import GeoConfig

    geo = GeoConfig(meters_per_pixel=args.mpp, crop_size=args.crop)
    config = _sweep_config(args, _parse_radii(args.radii))
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir, args.force)

    specs = [args.model_a, args.model_b]
    groups, inputs = load_models(specs, geo)
    keys = [{(f.event.year, f.event.id) for indices, fires, _o in groups if k in indices
             for f in fires} for k in (0, 1)]
    if not keys[0] & keys[1]:
        root_a, root_b = (parse_model_spec(s)[1] for s in specs)
        raise DegenerateDataError(f"sweep: {root_a} and {root_b} share no (year, fire)")
    results, anchor = run_sweep(groups, config, geo)
    # both summaries before any file, so one that fails writes nothing
    summaries = [summarize(records, anchor) for records in results]

    for label, spec, records, summary in zip(("a", "b"), specs, results, summaries):
        write_sweep_csv(out_dir / f"sweep_{label}.csv", records)
        write_json(out_dir / f"summary_{label}.json", {**summary, "meta": {"model": spec}})
    pairs, unmatched = pair_records(*results)
    write_diff_csv(out_dir / "diff.csv", pairs)
    # every fire is scored at every radius, so records divide into fires
    radii = sorted({rec.radius_px for rec in results[0]})
    write_json(
        out_dir / "summary.json",
        {
            "anchor_radius_px": anchor,
            "radii_px": radii,
            "model_a": args.model_a,
            "model_b": args.model_b,
            "n_unmatched": {side: n // len(radii) for side, n in unmatched.items()},
        },
    )
    write_manifest(out_dir, "sweep", _config_snapshot(args, anchor), inputs)
    return 0


def _read_anchor(summary_path: Path) -> int:
    """The anchor radius a sweep recorded in its summary.json."""
    if not summary_path.is_file():
        raise ValidationError(f"anchor=auto needs {summary_path}")
    summary = read_json(summary_path, ParseError, "malformed JSON")
    if not isinstance(summary, dict):
        raise ParseError(f"{summary_path}: expected a JSON object")
    anchor = summary.get("anchor_radius_px")
    if type(anchor) is not int or anchor < 0:
        raise ParseError(
            f"{summary_path}: anchor_radius_px must be a nonnegative integer, got {anchor!r}"
        )
    return anchor


def cmd_stats(args) -> int:
    sweep_dir = Path(args.sweep_dir)
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir, args.force)

    inputs = [sweep_dir / "sweep_a.csv", sweep_dir / "sweep_b.csv"]
    anchor = args.anchor
    if anchor is None:
        inputs.append(sweep_dir / "summary.json")
        anchor = _read_anchor(inputs[-1])

    at_anchor = []
    for path in inputs[:2]:
        records = read_sweep_csv(path)
        radii = sorted({rec.radius_px for rec in records})
        if anchor not in radii:
            raise ValidationError(
                f"{path}: no records at anchor radius {anchor} px; the sweep scored radii {radii}"
            )
        at_anchor.append([rec for rec in records if rec.radius_px == anchor])
    pairs, unmatched = pair_records(*at_anchor)
    blocks = []
    excluded = {}
    for metric in ("auroc", "auprc"):
        diffs = [
            va - vb for ra, rb in pairs
            if (va := getattr(ra, metric)) is not None
            and (vb := getattr(rb, metric)) is not None
        ]
        excluded[metric] = len(pairs) - len(diffs)
        if not diffs:
            raise DegenerateDataError(f"stats: no complete pairs for {metric}")
        if args.direction == "b_gt_a":
            diffs = [-d for d in diffs]  # bitwise vb - va
        blocks.append(stats_block(metric, diffs))

    meta = {"anchor_radius_px": anchor, "direction": args.direction,
            "n_excluded": excluded, "n_unmatched": unmatched}
    write_json(out_dir / "stats.json", {"tests": blocks, "meta": meta})
    write_manifest(out_dir, "stats", _config_snapshot(args, anchor), inputs)
    return 0


def cmd_distill(args) -> int:
    import numpy as np

    from .distill import (
        TrainConfig,
        fuse_ensemble,
        head_maps,
        head_target,
        middle_member_by_year,
        require_features,
        save_head,
        train_head,
    )
    from .raster import GeoConfig, read_years, save_array, scan_dataset

    geo = GeoConfig(crop_size=args.crop)
    root = Path(args.dataset)
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir, args.force)
    # the flags that need no data are checked before the pack is read
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
    if not 0.0 <= args.threshold <= 1.0:
        raise ValidationError("--threshold: error_threshold must lie in [0, 1]")

    layout = scan_dataset(root)
    require_features(layout, "distillation")
    years = list(layout)
    val_year = args.val_year if args.val_year is not None else years[-1]
    if val_year not in years:
        raise ValidationError(f"--val-year {val_year} not present in dataset (has {years})")
    if len(years) < 2:
        raise ValidationError("distillation needs at least two years (train + val)")

    # per year: the stacks are kept, each teacher map becomes its head
    # target right after fusion, and on the val year the references that
    # checkpoint selection needs are kept; read_years then drops the
    # members, as training reads only these
    events, features, targets, val_selection = [], [], [], []
    # every stack has the channel count of the first year's first stack
    first = next(iter(layout.values()))[0].features
    for year_events, stacks in read_years(layout, geo.crop_size):
        year_features = list(stacks(features[0].shape[0] if features else None, first))
        targets += [
            head_target(f, fuse_ensemble(ev.members).uncertainty)
            for ev, f in zip(year_events, year_features)
        ]
        if year_events[0].year == val_year:
            mid = middle_member_by_year(year_events)[val_year]
            val_selection = [(ev.gt, ev.members[mid]) for ev in year_events]
        events += year_events
        features += year_features
    train_set = [(f, t) for ev, f, t in zip(events, features, targets) if ev.year != val_year]
    val_set = [(f, t) for ev, f, t in zip(events, features, targets) if ev.year == val_year]

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
    maps = head_maps(result.head, features, max(ev.gt.size for ev in events))
    for ev, unc in zip(events, maps):
        save_array(unc.astype(np.float32), root / str(ev.year) / ev.id / "student_unc.npy")

    # the files training parsed, not the student maps just written, so
    # reruns produce identical manifests
    consumed = [p for ev in events for p in ev.files]
    write_manifest(out_dir, "distill", _config_snapshot(args, None), consumed)
    return 0


def cmd_synth(args) -> int:
    from .synth import ScenarioSpec, write_scenario

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

    --jobs and --force are deliberately excluded (an inert flag and an
    overwrite control), so reruns that differ only in them produce
    byte-identical manifests.
    """
    skip = {"func", "jobs", "force", "out_dir"}
    snapshot = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    if anchor is not None:
        snapshot["resolved_anchor_px"] = anchor
    return snapshot


def _add_common(p: argparse.ArgumentParser, *, fires=True, scores=True):
    """Flags shared by the subcommands.  fires adds --crop and
    --threshold, for commands that load and threshold fires; scores adds
    --mpp and --epsilon, which only the metrics read."""
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite an out-dir that already has a manifest")
    p.add_argument("--jobs", type=_parse_jobs, default=1,
                   help="accepted and checked (>= 1) but changes nothing; "
                        "kept so one flag set drives every command")
    if fires:
        p.add_argument("--crop", type=int, default=128,
                       help="center-crop size; axes shorter than this stay uncropped")
        p.add_argument("--threshold", type=float, default=0.5,
                       help="probability threshold for masks and error maps")
    if scores:
        p.add_argument("--mpp", type=float, default=375.0, help="meters per pixel")
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
    _add_common(p, fires=False, scores=False)
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
    _add_common(p, scores=False)
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
    _add_common(p, fires=False, scores=False)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except DegenerateDataError as exc:
        print(f"error (degenerate data): {exc}", file=sys.stderr)
        return 2
    except FireUQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a write that fails, as into a directory's place
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'allocation refused'})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
