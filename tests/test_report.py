"""CSV/JSON/Markdown emission and manifest determinism helpers."""

import dataclasses
import hashlib
import json
import math

import pytest

from fireuq.errors import ValidationError
from fireuq.protocol import summarize
from fireuq.report import (
    CSV_COLUMNS,
    METRIC_COLUMNS,
    MetricRecord,
    digest_inputs,
    format_mean_std,
    manifest_timestamp,
    pair_records,
    write_diff_csv,
    write_markdown_table,
    write_sweep_csv,
    write_train_log_csv,
)


def _records():
    return [
        MetricRecord("f0", 2018, 4, ap=0.5, asd_m=1130.0, brier=0.1, nll=0.3,
                     auroc=0.75, auprc=0.4, error_prevalence=0.2, n_eval_px=100),
        MetricRecord("f1", 2018, 4, n_eval_px=0),
    ]


def test_sweep_csv_layout(tmp_path):
    p = tmp_path / "records.csv"
    write_sweep_csv(p, _records())
    lines = p.read_text().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].split(",")[:4] == ["f0", "2018", "4", "0.5"]
    # undefined metrics become empty cells, not "None"
    assert lines[2] == "f1,2018,4,,,,,,,,0"
    assert lines[-1] == ""  # trailing newline


def test_csv_columns_are_the_record_fields():
    assert CSV_COLUMNS == ("fire_id", "year", "radius_px", *METRIC_COLUMNS, "n_eval_px")
    assert METRIC_COLUMNS == (
        "ap", "asd_m", "brier", "nll", "auroc", "auprc", "error_prevalence")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", METRIC_COLUMNS)
def test_metric_record_refuses_non_finite_metrics(name, bad):
    """A record is checked where it is built, so run_sweep makes no
    record that read_sweep_csv would refuse."""
    with pytest.raises(ValidationError, match=f"^f0: {name}={bad} is not finite$"):
        MetricRecord("f0", 2018, 4, **{name: bad})


def test_metric_record_is_frozen():
    rec = MetricRecord("f0", 2018, 4, auroc=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.auroc = 1.5


def test_diff_csv_zero_for_identical_inputs(tmp_path):
    p = tmp_path / "diff.csv"
    write_diff_csv(p, pair_records(_records(), _records())[0])
    rows = p.read_text().strip().split("\n")[1:]
    first = rows[0].split(",")
    assert first[0] == "f0"
    assert all(v in ("0.0", "0", "") for v in first[3:])


def test_diff_csv_skips_unmatched_rows(tmp_path):
    a = _records()
    b = [MetricRecord("f0", 2018, 4, ap=0.75, n_eval_px=90)]
    p = tmp_path / "diff.csv"
    write_diff_csv(p, pair_records(a, b)[0])
    rows = p.read_text().strip().split("\n")[1:]
    # one row per pair, each cell a minus b
    assert rows == ["f0,2018,4,-0.25,,,,,,,10"]


def test_pair_records_keeps_a_order_and_counts_unmatched_records():
    a = [
        MetricRecord("f1", 2019, 2),
        MetricRecord("f0", 2018, 4),
        MetricRecord("f0", 2018, 2),
        MetricRecord("f2", 2019, 2),  # no partner in b
    ]
    b = [
        MetricRecord("f0", 2018, 2),
        MetricRecord("f0", 2019, 2),  # another year's f0: no partner in a
        MetricRecord("f1", 2019, 2),
        MetricRecord("f0", 2018, 4),
        MetricRecord("f0", 2018, 6),  # a radius a lacks
    ]
    pairs, unmatched = pair_records(a, b)
    assert [ra for ra, _rb in pairs] == a[:3]
    assert [(rb.year, rb.fire_id, rb.radius_px) for _ra, rb in pairs] == [
        (2019, "f1", 2), (2018, "f0", 4), (2018, "f0", 2)]
    assert unmatched == {"a": 1, "b": 2}
    assert pair_records([], b) == ([], {"a": 0, "b": 5})
    assert pair_records(a, []) == ([], {"a": 4, "b": 0})
    assert pair_records([], []) == ([], {"a": 0, "b": 0})


def test_format_mean_std():
    assert format_mean_std(0.6288, 0.0352, 3) == "0.629±0.035"
    assert format_mean_std(0.5, 0.0, 2) == "0.50±0.00"


def test_summarize_groups_per_year_at_the_anchor():
    records = [
        MetricRecord("f0", 2018, 4, auroc=0.6, brier=0.1),
        MetricRecord("f1", 2018, 4, auroc=0.8, brier=0.3),
        MetricRecord("f2", 2019, 4, auroc=0.7),
        MetricRecord("f0", 2018, 2, auroc=0.9),  # other radius, excluded
    ]
    table = summarize(records, 4)["per_year"]
    assert list(table) == ["2018", "2019"]
    assert table["2018"]["auroc"] == pytest.approx(0.7)
    assert table["2018"]["brier"] == pytest.approx(0.2)
    assert table["2019"]["auroc"] == pytest.approx(0.7)
    assert table["2019"]["brier"] is None


def test_per_year_mean_std():
    """summarize's mean_std is the mean +- population std of the per-year
    means, over the years where the metric is defined."""
    records = [
        MetricRecord("f0", 2018, 4, ap=0.4, auroc=0.6),
        MetricRecord("f1", 2019, 4, ap=0.6),
        MetricRecord("f1", 2019, 2, ap=0.9, auroc=0.9, brier=0.2),  # not the anchor
    ]
    ms = summarize(records, 4)["mean_std"]
    assert ms["ap"] == pytest.approx([0.5, 0.1])
    assert ms["auroc"] == pytest.approx([0.6, 0.0])
    assert ms["brier"] is None


def test_markdown_table_scales_asd_to_km(tmp_path):
    records = [
        MetricRecord("f0", 2018, 4, ap=0.5, asd_m=1130.0, brier=0.1, nll=0.3,
                     auroc=0.75, auprc=0.4),
        MetricRecord("f1", 2019, 4, ap=0.7, asd_m=1370.0, brier=0.2, nll=0.5,
                     auroc=0.85, auprc=0.6),
    ]
    p = tmp_path / "table.md"
    write_markdown_table(p, summarize(records, 4), title="demo")
    text = p.read_text()
    assert "# demo" in text
    assert "Anchor radius: 4 px" in text
    assert "| 2018 | 0.50 | 1.13 | 0.100 | 0.300 | 0.750 | 0.400 |" in text
    assert "| Mean | 0.60±0.10 | 1.25±0.12 |" in text


def test_train_log_csv_empty_auroc_cell(tmp_path):
    from fireuq.distill import EpochLog

    p = tmp_path / "log.csv"
    write_train_log_csv(p, [
        EpochLog(0, 0.1, 0.5, 0.6, 0.75),
        EpochLog(1, 0.09, 0.4, 0.5, None),
    ])
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "epoch,lr,train_rmsle,val_rmsle,val_auroc_at_anchor"
    assert lines[1].endswith("0.75")
    assert lines[2].endswith(",")


def test_manifest_timestamp_honors_source_date_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    assert manifest_timestamp() == "2023-11-14T22:13:20Z"


def test_digest_inputs_hashes_listed_files_only(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.txt").write_text("bb")
    (tmp_path / "a.txt").write_text("aa")
    (tmp_path / "unlisted.txt").write_text("cc")
    digest = digest_inputs([tmp_path / "sub" / "b.txt", str(tmp_path / "a.txt")])
    assert digest == {
        str(tmp_path / "a.txt"): hashlib.sha256(b"aa").hexdigest(),
        str(tmp_path / "sub" / "b.txt"): hashlib.sha256(b"bb").hexdigest(),
    }
    for bad in (tmp_path / "missing.txt", tmp_path / "sub"):
        with pytest.raises(ValidationError):
            digest_inputs([bad])
