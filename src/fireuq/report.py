"""Report emission: sweep CSV, summary JSON, Markdown tables, training
logs, and the per-run manifest.

Everything here is byte-deterministic: CSV cells print floats via repr
(shortest round-trip form), JSON is emitted with sorted keys, and the
manifest timestamp honors SOURCE_DATE_EPOCH so archival reruns can be
compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import ValidationError
from .metrics import MetricRecord
from .protocol import METRIC_COLUMNS, SweepResult, aggregate_mean_std

MANIFEST_NAME = "manifest.json"

CSV_COLUMNS = (
    "fire_id", "year", "radius_px",
    "ap", "asd_m", "brier", "nll", "auroc", "auprc", "error_prevalence",
    "n_eval_px",
)

_MARKDOWN_METRICS = (
    ("ap", "AP", 2, 1.0),
    ("asd_m", "ASD (km)", 2, 1e-3),
    ("brier", "Brier", 3, 1.0),
    ("nll", "NLL", 3, 1.0),
    ("auroc", "AUROC", 3, 1.0),
    ("auprc", "AUPRC", 3, 1.0),
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_sweep_csv(path: str | Path, records: list[MetricRecord]):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([
                rec.fire_id, rec.year, _cell(rec.radius_px),
                _cell(rec.ap), _cell(rec.asd_m), _cell(rec.brier), _cell(rec.nll),
                _cell(rec.auroc), _cell(rec.auprc), _cell(rec.error_prevalence),
                _cell(rec.n_eval_px),
            ])


def write_diff_csv(
    path: str | Path, records_a: list[MetricRecord], records_b: list[MetricRecord]
):
    """Paired differences (a - b) matched on (fire, year, radius).

    A metric cell is empty whenever either side is missing; identity
    columns are copied through.
    """
    by_key = {(r.fire_id, r.year, r.radius_px): r for r in records_b}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for ra in records_a:
            rb = by_key.get((ra.fire_id, ra.year, ra.radius_px))
            if rb is None:
                continue
            row = [ra.fire_id, ra.year, _cell(ra.radius_px)]
            for name in METRIC_COLUMNS:
                va, vb = getattr(ra, name), getattr(rb, name)
                row.append("" if va is None or vb is None else repr(va - vb))
            na, nb = ra.n_eval_px, rb.n_eval_px
            row.append("" if na is None or nb is None else str(na - nb))
            writer.writerow(row)


def per_year_mean_std(
    per_year: dict[int, dict[str, float | None]]
) -> dict[str, tuple[float, float] | None]:
    """Mean +- population std across the per-year means, per metric."""
    out: dict[str, tuple[float, float] | None] = {}
    for name in METRIC_COLUMNS:
        vals = [row[name] for row in per_year.values() if row.get(name) is not None]
        out[name] = aggregate_mean_std(vals) if vals else None
    return out


def write_summary_json(
    path: str | Path,
    sweep: SweepResult,
    per_year: dict[int, dict[str, float | None]],
    meta: dict | None = None,
):
    payload = {
        "anchor_radius_px": sweep.anchor_radius_px,
        "per_radius": {
            str(r): {
                "aggregates": sweep.aggregates[r],
                "counts": sweep.counts[r],
            }
            for r in sweep.aggregates
        },
        "per_year": {str(y): per_year[y] for y in per_year},
        "mean_std": {
            name: (list(ms) if ms is not None else None)
            for name, ms in per_year_mean_std(per_year).items()
        },
    }
    if meta:
        payload["meta"] = meta
    write_json(path, payload)


def format_mean_std(mean: float, std: float, decimals: int) -> str:
    return f"{mean:.{decimals}f}±{std:.{decimals}f}"


def write_markdown_table(
    path: str | Path,
    per_year: dict[int, dict[str, float | None]],
    anchor_radius_px: int | None,
    title: str,
):
    """Human-readable per-year table with a Mean+-std bottom row."""
    lines = [f"# {title}", ""]
    if anchor_radius_px is not None:
        lines += [f"Anchor radius: {anchor_radius_px} px", ""]
    header = ["Year"] + [label for _n, label, _d, _s in _MARKDOWN_METRICS]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for y in sorted(per_year):
        cells = [str(y)]
        for name, _label, dec, scale in _MARKDOWN_METRICS:
            v = per_year[y].get(name)
            cells.append("" if v is None else f"{v * scale:.{dec}f}")
        lines.append("| " + " | ".join(cells) + " |")
    ms = per_year_mean_std(per_year)
    cells = ["Mean"]
    for name, _label, dec, scale in _MARKDOWN_METRICS:
        entry = ms.get(name)
        if entry is None:
            cells.append("")
        else:
            mean, std = entry
            cells.append(format_mean_std(mean * scale, std * scale, dec))
    lines.append("| " + " | ".join(cells) + " |")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_stats_json(path: str | Path, blocks: list[dict], meta: dict | None = None):
    payload: dict = {"tests": blocks}
    if meta:
        payload["meta"] = meta
    write_json(path, payload)


def write_train_log_csv(path: str | Path, log):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["epoch", "lr", "train_rmsle", "val_rmsle", "val_auroc_at_anchor"])
        for row in log:
            writer.writerow([
                row.epoch, repr(row.lr), repr(row.train_rmsle), repr(row.val_rmsle),
                "" if row.val_auroc_at_anchor is None else repr(row.val_auroc_at_anchor),
            ])


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_inputs(paths: list[str | Path]) -> dict[str, str]:
    """sha256 per input file; directories are walked in sorted order."""
    out: dict[str, str] = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.is_file():
                    out[str(f)] = _sha256(f)
        elif p.is_file():
            out[str(p)] = _sha256(p)
        else:
            raise ValidationError(f"manifest input {p} does not exist")
    return out


def manifest_timestamp() -> str:
    """ISO-8601 UTC; SOURCE_DATE_EPOCH pins it for reproducible runs."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch is not None else int(time.time())
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def has_manifest(out_dir: str | Path) -> bool:
    return (Path(out_dir) / MANIFEST_NAME).is_file()


def write_manifest(
    out_dir: str | Path, command: str, config: dict, input_paths: list[str | Path]
):
    payload = {
        "command": command,
        "config": config,
        "inputs": digest_inputs(input_paths),
        "tool_version": __version__,
        "timestamp": manifest_timestamp(),
    }
    write_json(Path(out_dir) / MANIFEST_NAME, payload)


def write_json(path: str | Path, payload: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
