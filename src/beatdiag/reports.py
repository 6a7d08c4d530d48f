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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .diagnostics import ActivationDiagnostics, FailureCategory, TempoStats, _band_name
from .errors import ParseError
from .metrics import EvalResult

ROW_FIELDS = (
    "track_id",
    "system",
    "config",
    "f_measure",
    "cmlc",
    "cmlt",
    "amlc",
    "amlt",
    "n_ref",
    "n_est",
    "category",
    "act_at_gt",
    "max_activation",
    "peak_sharpness",
    "periodicity_strength",
    "entropy",
    "false_positive_activation",
    "gt_bpm",
    "ibi_cv",
    "axes",
    "confidence",
    "tag_count",
    "baseline_f",
    "delta_f",
    "best_lambda",
    "best_threshold",
)

# Numeric columns that grouped aggregation averages when present.
METRIC_FIELDS = (
    "f_measure",
    "cmlc",
    "cmlt",
    "amlc",
    "amlt",
    "act_at_gt",
    "max_activation",
    "peak_sharpness",
    "periodicity_strength",
    "entropy",
    "false_positive_activation",
    "baseline_f",
    "delta_f",
)

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
        if column in ("track_id", "system", "config"):
            return getattr(self, column)
        if column == "category":
            return str(self.category) if self.category is not None else None
        if column == "axes":
            return ";".join(sorted(self.axes))
        if column in ("n_ref", "n_est", "f_measure", "cmlc", "cmlt", "amlc", "amlt"):
            return getattr(self.eval, column) if self.eval is not None else None
        if column in ("gt_bpm", "ibi_cv"):
            return getattr(self.tempo, column) if self.tempo is not None else None
        if column in ActivationDiagnostics.__dataclass_fields__:
            return getattr(self.diagnostics, column) if self.diagnostics is not None else None
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


def _row_from_record(rec: dict) -> ReportRow:
    def fget(key):
        return float(rec[key]) if rec.get(key) else None

    eval_result = None
    if rec.get("f_measure"):
        eval_result = EvalResult(
            f_measure=fget("f_measure"),
            cmlc=fget("cmlc") or 0.0,
            cmlt=fget("cmlt") or 0.0,
            amlc=fget("amlc") or 0.0,
            amlt=fget("amlt") or 0.0,
            n_ref=int(float(rec["n_ref"])) if rec.get("n_ref") else 0,
            n_est=int(float(rec["n_est"])) if rec.get("n_est") else 0,
        )
    diag = None
    if rec.get("act_at_gt"):
        diag = ActivationDiagnostics(
            act_at_gt=fget("act_at_gt"),
            max_activation=fget("max_activation") or 0.0,
            peak_sharpness=fget("peak_sharpness") or 0.0,
            periodicity_strength=fget("periodicity_strength") or 0.0,
            entropy=fget("entropy") or 0.0,
            false_positive_activation=fget("false_positive_activation") or 0.0,
        )
    tempo = None
    if rec.get("gt_bpm"):
        tempo = TempoStats(gt_bpm=fget("gt_bpm"), ibi_cv=fget("ibi_cv") or 0.0)
    return ReportRow(
        track_id=rec["track_id"],
        system=rec.get("system", ""),
        config=rec.get("config", ""),
        eval=eval_result,
        category=FailureCategory(rec["category"]) if rec.get("category") else None,
        diagnostics=diag,
        tempo=tempo,
        axes=frozenset(a for a in rec.get("axes", "").split(";") if a),
        confidence=int(rec["confidence"]) if rec.get("confidence") else None,
        tag_count=int(rec["tag_count"]) if rec.get("tag_count") else None,
        baseline_f=fget("baseline_f"),
        delta_f=fget("delta_f"),
        best_lambda=fget("best_lambda"),
        best_threshold=fget("best_threshold"),
    )


def csv_text(header, rows) -> str:
    """A header line and one line per row, as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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
    stats = []
    if rows:
        for group_by in GROUPINGS:
            try:
                stats.extend(aggregate(rows, group_by))
            except ValueError:
                continue
    (out_dir / "aggregates.csv").write_text(aggregates_to_csv(stats))
    (out_dir / "report.txt").write_text(render_report_text(report))
    write_manifest(out_dir / "manifest.txt", config or {})
    return out_dir
