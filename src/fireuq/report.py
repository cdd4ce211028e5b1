"""The sweep record and the files a run writes.

MetricRecord is the one definition of a per-fire record: CSV_COLUMNS
and METRIC_COLUMNS are its fields, and its __post_init__ is the one
check of its values, so run_sweep builds no record that read_sweep_csv
would refuse.  pair_records is the one pairing of two models' records,
for diff.csv and the stats command.  This module imports no numpy.
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
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import ParseError, ValidationError

MANIFEST_NAME = "manifest.json"

# the metrics >= 0 with no upper bound; every other metric lies in [0, 1]
_UNBOUNDED_METRICS = ("asd_m", "nll")


@dataclass(frozen=True)
class MetricRecord:
    """All per-fire metrics at one evaluation radius.

    A metric that is undefined on this fire (single-class region, missing
    boundary) is stored as None and later emitted as an empty CSV cell.
    Every other metric is finite, asd_m and nll are >= 0, and the rest
    lie in [0, 1].  A record is checked once, where it is built, and is
    frozen, so no later assignment skips the check.
    """

    fire_id: str
    year: int
    radius_px: int
    ap: float | None = None
    asd_m: float | None = None
    brier: float | None = None
    nll: float | None = None
    auroc: float | None = None
    auprc: float | None = None
    error_prevalence: float | None = None
    n_eval_px: int | None = None

    def __post_init__(self):
        for name in METRIC_COLUMNS:
            v = getattr(self, name)
            if v is None:
                continue
            if not math.isfinite(v):
                raise ValidationError(f"{self.fire_id}: {name}={v} is not finite")
            if name in _UNBOUNDED_METRICS:
                if v < 0.0:
                    raise ValidationError(f"{self.fire_id}: {name}={v} is negative")
            elif not 0.0 <= v <= 1.0:
                raise ValidationError(f"{self.fire_id}: {name}={v} outside [0, 1]")


CSV_COLUMNS = tuple(f.name for f in fields(MetricRecord))
# the columns between the identity (fire_id, year, radius_px) and n_eval_px
METRIC_COLUMNS = CSV_COLUMNS[3:-1]

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


def _write_dataclass_csv(path: str | Path, columns, records):
    """One row per dataclass record: the header is its field names,
    columns, and each cell is _cell of that field."""
    _write_csv(path, columns, ([_cell(getattr(rec, c)) for c in columns] for rec in records))


def write_sweep_csv(path: str | Path, records: list[MetricRecord]):
    _write_dataclass_csv(path, CSV_COLUMNS, records)


def read_sweep_csv(path: str | Path) -> list[MetricRecord]:
    """The records of a CSV that write_sweep_csv wrote, an empty metric
    cell read as None.  A cell that does not parse, a record that
    MetricRecord refuses and a second row for one (year, fire_id,
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


def format_mean_std(mean: float, std: float, decimals: int) -> str:
    return f"{mean:.{decimals}f}±{std:.{decimals}f}"


def write_markdown_table(path: str | Path, summary: dict, title: str):
    """Human-readable per-year table of protocol.summarize's payload, with a
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


def write_train_log_csv(path: str | Path, log):
    """One row per epoch of a training log, which holds at least one,
    as train_head's does."""
    _write_dataclass_csv(path, [f.name for f in fields(log[0])], log)


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
