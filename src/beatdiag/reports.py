"""Run reports: per-track rows, grouped aggregation, CSV and text emission.

A run directory contains:
    rows.csv        one row per (track, system, config), fixed schema
    aggregates.csv  grouped means for every applicable grouping
    report.txt      human-readable summary
    manifest.txt    resolved configuration + toolkit version, key=value
Identical inputs produce byte-identical files regardless of parallelism.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ._version import __version__
from .diagnostics import ActivationDiagnostics, FailureCategory, TempoStats, _band_name
from .errors import ParseError
from .metrics import EvalResult

GROUPINGS = ("category", "axis", "axis_count", "confidence", "tag_count", "bpm_band", "system")


@dataclass
class ReportRow:
    track_id: str
    system: str = ""
    config: str = ""
    eval: EvalResult | None = None
    category: FailureCategory | None = None
    diagnostics: ActivationDiagnostics | None = None
    tempo: TempoStats | None = None
    axes: frozenset = frozenset()
    confidence: int | None = None
    tag_count: int | None = None
    baseline_f: float | None = None
    delta_f: float | None = None
    best_lambda: float | None = None
    best_threshold: float | None = None

    def value(self, column: str):
        """The cell of ``column``; None where the row has no value."""
        if column in _NESTED_COLUMN:
            result = getattr(self, _NESTED_COLUMN[column])
            return getattr(result, column) if result is not None else None
        if column == "axes":
            return ";".join(sorted(self.axes))
        return getattr(self, column)

    def group_keys(self, group_by: str) -> list[str]:
        """Group labels this row contributes to; a row may match several axes."""
        if group_by == "axis":
            return sorted(self.axes) if self.axes else ["none"]
        if group_by == "axis_count":
            return [str(len(self.axes))]
        if group_by == "confidence":
            return [str(self.confidence) if self.confidence is not None else "na"]
        if group_by == "tag_count":
            return [str(self.tag_count) if self.tag_count is not None else "na"]
        if group_by == "bpm_band":
            return [_band_name(self.tempo.gt_bpm) if self.tempo is not None else "na"]
        if group_by == "category":
            return [str(self.category) if self.category is not None else "na"]
        if group_by == "system":
            return [self.system or "na"]
        raise ValueError(f"unknown grouping {group_by!r}; use one of {GROUPINGS}")


def _field_names(cls) -> tuple:
    """The field names of dataclass ``cls``, in declaration order."""
    return tuple(f.name for f in fields(cls))


# ReportRow fields that hold a result, written as the result's own columns.
_NESTED = {"eval": EvalResult, "diagnostics": ActivationDiagnostics, "tempo": TempoStats}
_NESTED_COLUMN = {column: name for name, cls in _NESTED.items() for column in _field_names(cls)}

# The columns of rows.csv: ReportRow's fields with each result spread out.
ROW_FIELDS = tuple(column for name in _field_names(ReportRow)
                   for column in (_field_names(_NESTED[name]) if name in _NESTED else (name,)))

# Numeric columns that grouped aggregation averages when present: the
# float scores of a result and of its diagnostics, and the F comparisons.
METRIC_FIELDS = tuple(f.name for cls in (EvalResult, ActivationDiagnostics) for f in fields(cls)
                      if f.type == "float") + ("baseline_f", "delta_f")


@dataclass
class GroupStat:
    group_by: str
    group: str
    n: int
    means: dict


@dataclass
class RunReport:
    experiment: str
    rows: list[ReportRow] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)  # name -> (header tuple, row tuples)
    notes: list[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)  # resolved settings, for manifest.txt

    def sorted_rows(self) -> list[ReportRow]:
        return sorted(self.rows, key=lambda r: (r.track_id, r.system, r.config))


def aggregate(rows, group_by: str) -> list[GroupStat]:
    """Per-group count and mean of every metric column with data."""
    if not rows:
        raise ValueError("aggregate needs at least one row")
    buckets: dict[str, list[ReportRow]] = {}
    for row in rows:
        for key in row.group_keys(group_by):
            buckets.setdefault(key, []).append(row)

    def group_order(key: str):
        try:
            return (0, float(key), key)
        except ValueError:
            return (1, 0.0, key)

    stats = []
    for key in sorted(buckets, key=group_order):
        members = buckets[key]
        means = {}
        for column in METRIC_FIELDS:
            values = [row.value(column) for row in members]
            values = [v for v in values if v is not None]
            if values:
                means[column] = float(np.mean(values))
        stats.append(GroupStat(group_by=group_by, group=key, n=len(members), means=means))
    return stats


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def rows_from_csv(text: str, source: str = "rows.csv") -> list[ReportRow]:
    """Parse a rows.csv back into ReportRow objects (inverse of rows_to_csv).

    A ParseError names ``source`` and the line of a bad row, or the missing
    track_id column.
    """
    reader = csv.DictReader(io.StringIO(text))
    try:
        if reader.fieldnames is not None and "track_id" not in reader.fieldnames:
            raise ParseError(f"{source}:1: no track_id column")
        return [_row_from_record(rec) for rec in reader]
    except (ValueError, csv.Error) as exc:
        raise ParseError(f"{source}:{reader.line_num}: {exc}") from None


# The number type of a field by its annotation; the modules that declare
# these dataclasses postpone annotations, so the annotations are strings.
_NUMBER = {"float": float, "float | None": float, "int": int, "int | None": int}


def _cell(rec: dict, column: str, kind, empty=None):
    """``column`` of ``rec`` as ``kind``; ``empty`` when it is empty."""
    text = rec.get(column)
    if not text:
        return empty
    try:
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"{column}: {exc}") from None


def _result(cls, rec: dict):
    """A ``cls`` result from its columns of ``rec``, None when its first
    column is empty; its other empty columns read as 0."""
    columns = fields(cls)
    if not rec.get(columns[0].name):
        return None
    return cls(**{f.name: _cell(rec, f.name, _NUMBER[f.type], _NUMBER[f.type](0)) for f in columns})


def _row_from_record(rec: dict) -> ReportRow:
    return ReportRow(
        track_id=rec["track_id"],
        system=rec.get("system", ""),
        config=rec.get("config", ""),
        category=FailureCategory(rec["category"]) if rec.get("category") else None,
        axes=frozenset(a for a in rec.get("axes", "").split(";") if a),
        **{name: _result(cls, rec) for name, cls in _NESTED.items()},
        **{f.name: _cell(rec, f.name, _NUMBER[f.type]) for f in fields(ReportRow) if f.type in _NUMBER},
    )


def csv_text(header, rows) -> str:
    """A header line and one line per row, as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def results_csv(cls, results: dict) -> str:
    """CSV of {track_id: result}: a track_id column, then one column per
    field of the dataclass ``cls``."""
    columns = _field_names(cls)
    return csv_text(("track_id",) + columns,
                    ([track_id] + [_format(getattr(r, c)) for c in columns] for track_id, r in results.items()))


def rows_to_csv(rows) -> str:
    return csv_text(ROW_FIELDS, ([_format(row.value(c)) for c in ROW_FIELDS] for row in rows))


def aggregates_to_csv(stats) -> str:
    return csv_text(
        ("group_by", "group", "n") + METRIC_FIELDS,
        ([s.group_by, s.group, s.n] + [_format(s.means.get(c)) for c in METRIC_FIELDS] for s in stats),
    )


def render_text_table(header, rows, title: str = "") -> str:
    """Fixed-width table; all cells pre-stringified."""
    cells = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def render_report_text(report: RunReport) -> str:
    parts = [f"experiment: {report.experiment}", f"tracks: {len(report.rows)}", ""]
    if report.summary:
        width = max(len(k) for k in report.summary)
        for key in report.summary:
            parts.append(f"{key.ljust(width)}  {_format(report.summary[key])}")
        parts.append("")
    for name, (header, rows) in report.tables.items():
        parts.append(render_text_table(header, rows, title=name))
    for note in report.notes:
        parts.append(f"note: {note}")
    return "\n".join(parts).rstrip() + "\n"


def write_manifest(path, config: dict):
    lines = [f"toolkit_version={__version__}"]
    for key in sorted(config):
        lines.append(f"{key}={config[key]}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_run_report(report: RunReport, out_dir, config: dict | None = None) -> Path:
    """Write rows.csv, aggregates.csv, report.txt, manifest.txt under out_dir."""
    out_dir = Path(out_dir) / report.experiment
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = report.sorted_rows()
    (out_dir / "rows.csv").write_text(rows_to_csv(rows))
    stats = [stat for group_by in GROUPINGS for stat in aggregate(rows, group_by)] if rows else []
    (out_dir / "aggregates.csv").write_text(aggregates_to_csv(stats))
    (out_dir / "report.txt").write_text(render_report_text(report))
    write_manifest(out_dir / "manifest.txt", config or {})
    return out_dir
