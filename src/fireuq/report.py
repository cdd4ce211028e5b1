"""Report emission: sweep CSV, summary JSON, Markdown tables, training
logs, and the per-run manifest; and the sweep CSV read back.

pair_records is the one pairing of two models' records: diff.csv and
the stats command both take its pairs.  summarize derives every
aggregate of one model's records, so each per-radius mean, per-year mean
and mean +- std is computed in one place, once; the summary JSON and the
Markdown table both render its result.
Everything here is byte-deterministic: CSV cells print floats via repr
(shortest round-trip form), JSON is emitted with sorted keys, and the
manifest timestamp honors SOURCE_DATE_EPOCH so archival reruns can be
compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ParseError, ValidationError
from .metrics import MetricRecord
from .protocol import METRIC_COLUMNS, aggregate_mean_std

MANIFEST_NAME = "manifest.json"

CSV_COLUMNS = ("fire_id", "year", "radius_px", *METRIC_COLUMNS, "n_eval_px")

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


def _write_csv(path: str | Path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_sweep_csv(path: str | Path, records: list[MetricRecord]):
    rows = ([_cell(getattr(rec, c)) for c in CSV_COLUMNS] for rec in records)
    _write_csv(path, CSV_COLUMNS, rows)


def read_sweep_csv(path: str | Path) -> list[MetricRecord]:
    """The records of a CSV that write_sweep_csv wrote, an empty metric
    cell read as None.  A cell that does not parse, a non-finite metric,
    a metric outside its range and a second row for one (year, fire_id,
    radius_px) are each refused as "<path>: line N: ..."."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"missing sweep output {path}")
    records = []
    lines: dict[tuple, int] = {}
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise ParseError(f"{path}: missing columns {', '.join(missing)}")
            for row in reader:
                try:
                    metrics = {c: None if row[c] == "" else float(row[c]) for c in METRIC_COLUMNS}
                    for c, v in metrics.items():
                        if v is not None and not math.isfinite(v):
                            raise ValueError(f"{c}={v} is not finite")
                    n_eval_px = None if row["n_eval_px"] == "" else int(row["n_eval_px"])
                    rec = MetricRecord(row["fire_id"], int(row["year"]), int(row["radius_px"]),
                                       **metrics, n_eval_px=n_eval_px)
                except (TypeError, ValueError, ValidationError) as exc:
                    raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
                key = (rec.year, rec.fire_id, rec.radius_px)
                if key in lines:
                    raise ParseError(
                        f"{path}: line {reader.line_num}: (year, fire_id, radius_px) "
                        f"{key} repeats line {lines[key]}"
                    )
                lines[key] = reader.line_num
                records.append(rec)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a readable CSV ({exc})") from exc
    return records


def pair_records(
    records_a: list[MetricRecord], records_b: list[MetricRecord]
) -> tuple[list[tuple[MetricRecord, MetricRecord]], dict[str, int]]:
    """The (a, b) records of each (year, fire_id, radius_px) that both
    sides hold, in records_a's order, and the number of records on each
    side that have no partner, as {"a": k, "b": m}.  Neither side may
    repeat a key: read_sweep_csv refuses that, and run_sweep scores each
    fire once per radius."""
    by_key = {(r.year, r.fire_id, r.radius_px): r for r in records_b}
    pairs = [
        (ra, rb) for ra in records_a
        if (rb := by_key.get((ra.year, ra.fire_id, ra.radius_px))) is not None
    ]
    return pairs, {"a": len(records_a) - len(pairs), "b": len(records_b) - len(pairs)}


def write_diff_csv(path: str | Path, pairs: list[tuple[MetricRecord, MetricRecord]]):
    """Paired differences (a - b), one row per pair of pair_records.

    A metric cell is empty whenever either side is undefined; identity
    columns are copied from a.
    """
    rows = []
    for ra, rb in pairs:
        row = [ra.fire_id, ra.year, _cell(ra.radius_px)]
        for name in METRIC_COLUMNS:
            va, vb = getattr(ra, name), getattr(rb, name)
            row.append("" if va is None or vb is None else repr(va - vb))
        na, nb = ra.n_eval_px, rb.n_eval_px
        row.append("" if na is None or nb is None else str(na - nb))
        rows.append(row)
    _write_csv(path, CSV_COLUMNS, rows)


def summarize(records: list[MetricRecord], anchor_radius_px: int) -> dict:
    """The summary JSON payload of one model's records.

    per_radius maps each radius to each metric's mean over the fires
    where it is defined (None where it is nowhere) and the number of
    those fires; per_year holds those means per year at the anchor
    radius (Table-1 layout), years ascending; mean_std holds each
    metric's [mean, population std] across the years where it is
    defined, or None.  Keys are strings, as in the JSON.  Records are
    bucketed in record order, so each mean sums in that order.
    """

    def means(recs: list[MetricRecord]) -> tuple[dict, dict]:
        values, counts = {}, {}
        for name in METRIC_COLUMNS:
            defined = [v for rec in recs if (v := getattr(rec, name)) is not None]
            values[name] = float(np.mean(defined)) if defined else None
            counts[name] = len(defined)
        return values, counts

    by_radius: dict[int, list[MetricRecord]] = {}
    by_year: dict[int, list[MetricRecord]] = {}
    for rec in records:
        by_radius.setdefault(rec.radius_px, []).append(rec)
        if rec.radius_px == anchor_radius_px:
            by_year.setdefault(rec.year, []).append(rec)
    per_radius = {}
    for r in sorted(by_radius):
        aggregates, counts = means(by_radius[r])
        per_radius[str(r)] = {"aggregates": aggregates, "counts": counts}
    per_year = {str(y): means(by_year[y])[0] for y in sorted(by_year)}
    mean_std = {}
    for name in METRIC_COLUMNS:
        vals = [row[name] for row in per_year.values() if row[name] is not None]
        mean_std[name] = list(aggregate_mean_std(vals)) if vals else None
    return {
        "anchor_radius_px": anchor_radius_px,
        "per_radius": per_radius,
        "per_year": per_year,
        "mean_std": mean_std,
    }


def write_summary_json(path: str | Path, summary: dict, meta: dict | None = None):
    """summarize's payload, plus meta under "meta" when given."""
    write_json(path, {**summary, "meta": meta} if meta else summary)


def format_mean_std(mean: float, std: float, decimals: int) -> str:
    return f"{mean:.{decimals}f}±{std:.{decimals}f}"


def write_markdown_table(path: str | Path, summary: dict, title: str):
    """Human-readable per-year table of summarize's payload, with a
    Mean+-std bottom row."""
    lines = [f"# {title}", "", f"Anchor radius: {summary['anchor_radius_px']} px", ""]
    header = ["Year"] + [label for _n, label, _d, _s in _MARKDOWN_METRICS]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for y, row in summary["per_year"].items():
        cells = [y]
        for name, _label, dec, scale in _MARKDOWN_METRICS:
            v = row[name]
            cells.append("" if v is None else f"{v * scale:.{dec}f}")
        lines.append("| " + " | ".join(cells) + " |")
    cells = ["Mean"]
    for name, _label, dec, scale in _MARKDOWN_METRICS:
        entry = summary["mean_std"][name]
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
    rows = (
        [row.epoch, repr(row.lr), repr(row.train_rmsle), repr(row.val_rmsle),
         "" if row.val_auroc_at_anchor is None else repr(row.val_auroc_at_anchor)]
        for row in log
    )
    header = ["epoch", "lr", "train_rmsle", "val_rmsle", "val_auroc_at_anchor"]
    _write_csv(path, header, rows)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_inputs(paths: list[str | Path]) -> dict[str, str]:
    """sha256 per input file, keyed by its path as given."""
    out: dict[str, str] = {}
    for p in map(Path, paths):
        if not p.is_file():
            raise ValidationError(f"manifest input {p} is not a file")
        out[str(p)] = _sha256(p)
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


def read_json(path: str | Path, error: type[ValidationError], malformed: str):
    """The JSON value in path.  Text that does not decode, is not JSON,
    or nests deeper than the parser can recurse raises error, in one
    line naming path: "<path>: <malformed> (<reason>)"."""
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: {malformed} ({exc})") from exc


def write_json(path: str | Path, payload: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
