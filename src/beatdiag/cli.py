"""Command-line front end.

Subcommands: decode, eval, diagnose, synth-gt, experiment, report.
Flags mirror config fields in kebab-case; a flat key=value config file can
supply any of them, with explicit flags taking precedence. Exit codes:
0 ok, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import types
from pathlib import Path

import numpy as np

from ._version import __version__
from . import dbn, diagnostics, experiments, ingest, metrics, peaks, reports
from .errors import ToolkitError

def load_config_file(path) -> dict:
    """{key: (line number, value)} of flat key=value lines; '#' starts a
    comment; keys use snake_case."""
    values = {}
    for lineno, line in enumerate(ingest.read_text(Path(path)).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ToolkitError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        values[key.strip()] = (lineno, value.strip())
    return values


class Settings:
    """Layered lookup: explicit CLI flag, then config file, then default."""

    def __init__(self, args):
        self.args = vars(args)
        self.file = load_config_file(args.config) if getattr(args, "config", None) else {}
        self.resolved = {}
        self.read_from_file = []  # keys whose value came from the file, in reading order

    def get(self, key, default, cast=float):
        value = self.args.get(key)
        if value is None and key in self.file:
            lineno, raw = self.file[key]
            try:
                value = cast(raw) if cast is not bool else raw.lower() in ("1", "true", "yes")
            except ValueError as exc:
                raise ToolkitError(self._where(key, exc)) from None
            self.read_from_file.append(key)
        if value is None:
            value = default
        self.resolved[key] = value
        return value

    def _where(self, key, exc) -> str:
        return f"{self.args['config']}:{self.file[key][0]}: {key}: {exc}"

    def _checked(self, build):
        """build(); a config check that fails on a value read from the file
        is reported at the first such key its message names."""
        start = len(self.read_from_file)
        try:
            return build()
        except ValueError as exc:
            named = [key for key in self.read_from_file[start:] if key in str(exc)]
            if not named:
                raise
            raise ToolkitError(self._where(min(named, key=str(exc).index), exc)) from None

    def dbn_config(self, min_bpm_default=55.0) -> dbn.DbnConfig:
        return self._checked(lambda: dbn.DbnConfig(
            min_bpm=self.get("min_bpm", min_bpm_default),
            max_bpm=self.get("max_bpm", 215.0),
            transition_lambda=self.get("transition_lambda", 100.0),
            observation_lambda=self.get("observation_lambda", 16, cast=int),
            correct_beats=not self.get("no_correct", False, cast=bool),
        ))

    def peak_config(self) -> peaks.PeakConfig:
        return self._checked(lambda: peaks.PeakConfig(
            threshold=self.get("threshold", 0.5),
            min_separation=self.get("min_separation", 0.1),
        ))

    def eval_config(self) -> metrics.EvalConfig:
        return self._checked(lambda: metrics.EvalConfig(trim_seconds=self.get("trim", 0.0)))

    def synth_config(self) -> experiments.SynthConfig:
        return self._checked(lambda: experiments.SynthConfig(
            sigma_frames=self.get("sigma_frames", 2.0),
            fps=self.get("fps", 43.07),
        ))

    def tempo_window(self) -> float:
        """The tempo_window setting, checked as a TempoConstraint checks it."""
        return self._checked(lambda: dbn.TempoConstraint(
            dbn.CONSTRAINT_MIN_BPM, self.get("tempo_window", 0.20)).window_fraction)

    def sweep_spec(self) -> experiments.SweepSpec:
        def build():
            grids = {key: self.get(key, None, cast=float_list) for key in ("lambdas", "thresholds")}
            return experiments.SweepSpec(**{key: _floats(text) for key, text in grids.items() if text})

        return self._checked(build)


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def float_list(text: str) -> str:
    """A comma-separated list of floats, checked and kept as written (the
    manifest records it so); empty means the default grid."""
    if text:
        _floats(text)
    return text


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--jobs", type=int, default=None, help="track-level parallelism")


def _add_dbn_flags(parser):
    parser.add_argument("--min-bpm", dest="min_bpm", type=float, default=None)
    parser.add_argument("--max-bpm", dest="max_bpm", type=float, default=None)
    parser.add_argument("--lambda", dest="transition_lambda", type=float, default=None)
    parser.add_argument("--observation-lambda", dest="observation_lambda", type=int, default=None)
    parser.add_argument(
        "--no-correct", dest="no_correct", action="store_const", const=True, default=None,
        help="disable beat-position correction to the activation peak",
    )


def _add_peak_flags(parser):
    parser.add_argument("--threshold", type=float, default=None)
    parser.add_argument("--min-separation", dest="min_separation", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beatdiag", description=__doc__)
    parser.add_argument("--version", action="version", version=f"beatdiag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="decode activation files into .beats files")
    _add_common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dbn", action="store_true", help="DBN Viterbi decoding")
    mode.add_argument("--peaks", action="store_true", help="threshold peak picking")
    mode.add_argument("--dbn-constrained", action="store_true", help="DBN with per-track tempo window")
    p.add_argument("inputs", nargs="+", help="activation files or directories")
    p.add_argument("-o", "--output", required=True, help="output directory for .beats files")
    _add_dbn_flags(p)
    _add_peak_flags(p)
    p.add_argument("--tempo-file", help="track_id,bpm,source_label CSV for --dbn-constrained")
    p.add_argument("--tempo-window", dest="tempo_window", type=float, default=None)

    p = sub.add_parser("eval", help="evaluate estimated beats against references")
    _add_common(p)
    p.add_argument("--est", required=True, help="directory of estimated .beats files")
    p.add_argument("--ref", required=True, help="directory of reference .beats files")
    p.add_argument("--trim", type=float, default=None, help="drop beats before this many seconds")
    p.add_argument("-o", "--output", help="write per-track CSV here")

    p = sub.add_parser("diagnose", help="activation diagnostics per track")
    _add_common(p)
    p.add_argument("--activations", required=True, help="directory of activation files")
    p.add_argument("--beats", required=True, help="directory of reference .beats files")
    p.add_argument("-o", "--output", help="write CSV here instead of stdout")

    p = sub.add_parser("synth-gt", help="synthesize GT activations from annotations")
    _add_common(p)
    p.add_argument("--beats", required=True, help="directory of reference .beats files")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--fps", type=float, default=None)
    p.add_argument("--sigma-frames", dest="sigma_frames", type=float, default=None)
    p.add_argument("--binary", action="store_true", help="write binary ACT1 files")

    p = sub.add_parser("experiment", help="run a named experiment and write its report")
    _add_common(p)
    p.add_argument("name", choices=EXPERIMENTS)
    p.add_argument("--beats-dir", dest="beats_dir", help="annotation directory")
    p.add_argument("--tags-dir", dest="tags_dir", help="difficulty-tag directory")
    p.add_argument(
        "--activations", action="append", default=[], metavar="LABEL=DIR",
        help="named activation source (repeatable)",
    )
    p.add_argument(
        "--dataset", action="append", default=[], metavar="NAME=ROOT",
        help="dataset root with beats/, tags/, activations/ subdirs (repeatable; bottleneck reads them all)",
    )
    p.add_argument("--axis-map", dest="axis_map", help="tag vocabulary / axis file")
    p.add_argument("--source", help="activation source label (default gt-synth)")
    p.add_argument("--intersect-source", dest="intersect_source", help="second system for taxonomy")
    p.add_argument("--decoder", choices=("dbn", "peaks"), default=None, help="taxonomy decoder")
    p.add_argument(
        "--tempo-file", action="append", default=[], metavar="LABEL=CSV",
        help="ordered tempo-estimate sources for tempo-curve (repeatable)",
    )
    p.add_argument("--gt-tempo", action="store_true", help="append the ground-truth tempo source")
    p.add_argument("--tempo-window", dest="tempo_window", type=float, default=None)
    p.add_argument("--trim", type=float, default=None)
    p.add_argument("--fps", type=float, default=None)
    p.add_argument("--sigma-frames", dest="sigma_frames", type=float, default=None)
    p.add_argument("--lambdas", type=float_list, default=None, help="comma-separated lambda grid")
    p.add_argument("--thresholds", type=float_list, default=None, help="comma-separated threshold grid")
    _add_dbn_flags(p)
    _add_peak_flags(p)
    p.add_argument("-o", "--output", required=True, help="run directory")

    p = sub.add_parser("report", help="re-aggregate a rows.csv and print a table")
    p.add_argument("rows_csv")
    p.add_argument("--group-by", dest="group_by", default="category", choices=reports.GROUPINGS)
    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _activation_paths(inputs) -> dict:
    """{track_id: path} of the files in ``inputs``, and of those in its
    directories that match ingest.ACTIVATION_GLOB; one file per id."""
    found = []
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            found += ingest.glob_sorted(p, ingest.ACTIVATION_GLOB)
        elif p.is_file():
            found.append(p)
        else:
            raise ToolkitError(f"no such file or directory: {p}")
    by_track = ingest.files_by_track(found)
    if not by_track:
        raise ToolkitError("no activation files found")
    return by_track


def _write_or_print(text: str, output, config: dict):
    """Write ``text`` to ``output`` with a manifest of ``config`` beside it,
    or print it when there is no ``output``."""
    if output:
        out = Path(output)
        out.write_text(text)
        reports.write_manifest(out.with_suffix(out.suffix + ".manifest.txt"), config)
    else:
        print(text, end="")


def _parse_labeled(pairs, what) -> list[tuple[str, str]]:
    out = []
    for pair in pairs:
        if "=" not in pair:
            raise ToolkitError(f"{what} must look like LABEL=PATH, got {pair!r}")
        label, _, path = pair.partition("=")
        out.append((label.strip(), path.strip()))
    return out


def _tempo_map(path) -> dict:
    return {e.track_id: e.bpm for e in ingest.load_tempo_estimates(path)}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_decode(args) -> int:
    settings = Settings(args)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    dbn_cfg = settings.dbn_config()
    peak_cfg = settings.peak_config()
    window = settings.tempo_window()
    tempo = {}
    if args.dbn_constrained:
        if not args.tempo_file:
            raise ToolkitError("--dbn-constrained requires --tempo-file")
        tempo = _tempo_map(args.tempo_file)
    written = 0
    for track_id, path in _activation_paths(args.inputs).items():
        act = ingest.load_activation(path)
        constraint = None
        if args.dbn_constrained:
            if track_id not in tempo:
                print(f"warning: no tempo estimate for {track_id}, skipped", file=sys.stderr)
                continue
            constraint = dbn.TempoConstraint(center_bpm=tempo[track_id], window_fraction=window)
        spec = experiments.DecoderSpec(peak_cfg if args.peaks else dbn_cfg, constraint)
        ingest.write_beats(spec.decode(act), out_dir / f"{track_id}.beats")
        written += 1
    mode = "peaks" if args.peaks else ("dbn-constrained" if args.dbn_constrained else "dbn")
    reports.write_manifest(out_dir / "manifest.txt", {"command": f"decode:{mode}", **settings.resolved})
    print(f"wrote {written} beats file(s) to {out_dir}")
    return 0


def cmd_eval(args) -> int:
    settings = Settings(args)
    eval_cfg = settings.eval_config()
    est = ingest.load_annotations(args.est)
    ref = ingest.load_annotations(args.ref)
    missing_ref = sorted(set(est) - set(ref))
    missing_est = sorted(set(ref) - set(est))
    if missing_ref or missing_est:
        for track in missing_ref:
            print(f"no reference for estimate {track}", file=sys.stderr)
        for track in missing_est:
            print(f"no estimate for reference {track}", file=sys.stderr)
        return 1
    results = {track_id: metrics.evaluate(est[track_id].beats, ref[track_id].beats, eval_cfg)
               for track_id in sorted(ref)}
    _write_or_print(reports.results_csv(metrics.EvalResult, results), args.output,
                    {"command": "eval", **settings.resolved})
    if results:
        means = " ".join(f"{label}={np.mean([getattr(r, name) for r in results.values()]):.3f}"
                         for label, name in (("F", "f_measure"), ("CMLt", "cmlt"), ("AMLt", "amlt")))
        print(f"mean over {len(results)} track(s): {means}")
    return 0


def cmd_diagnose(args) -> int:
    refs = ingest.load_annotations(args.beats)
    results = {}
    for track_id, path in _activation_paths([args.activations]).items():
        if track_id not in refs:
            print(f"warning: no reference beats for {track_id}, skipped", file=sys.stderr)
            continue
        results[track_id] = diagnostics.compute_diagnostics(ingest.load_activation(path), refs[track_id])
    _write_or_print(reports.results_csv(diagnostics.ActivationDiagnostics, results), args.output,
                    {"command": "diagnose"})
    return 0


def cmd_synth_gt(args) -> int:
    settings = Settings(args)
    synth_cfg = settings.synth_config()
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    refs = ingest.load_annotations(args.beats)
    suffix = ".bin" if args.binary else ".act"
    for track_id in sorted(refs):
        act = experiments.synthesize_gt_activation(refs[track_id], synth_cfg)
        ingest.write_activation(act, out_dir / f"{track_id}{suffix}", binary=args.binary)
    reports.write_manifest(out_dir / "manifest.txt", {"command": "synth-gt", **settings.resolved})
    print(f"wrote {len(refs)} activation file(s) to {out_dir}")
    return 0


def _datasets_from_args(args) -> list:
    """[(name, Dataset)]: one per --dataset NAME=ROOT, else one from --beats-dir."""
    axis_map = ingest.load_axis_map(args.axis_map) if args.axis_map else None
    if args.dataset:
        return [(name, ingest.load_dataset(root, ingest.root_layout(root), axis_map))
                for name, root in _parse_labeled(args.dataset, "--dataset")]
    if not args.beats_dir:
        raise ToolkitError("provide --beats-dir (or --dataset NAME=ROOT)")
    layout = ingest.DatasetLayout(
        beats_dir=args.beats_dir,
        tags_dir=args.tags_dir,
        activation_dirs=dict(_parse_labeled(args.activations, "--activations")),
    )
    dataset = ingest.load_dataset(Path.cwd(), layout, axis_map)
    if len(dataset) == 0:
        raise ToolkitError(f"no tracks found under beats dir {args.beats_dir!r}")
    return [("dataset", dataset)]


def _tempo_sources(args) -> list:
    """The --tempo-file sources in order, then gt-tempo if asked for or if none is given."""
    sources = [(label, _tempo_map(path)) for label, path in _parse_labeled(args.tempo_file, "--tempo-file")]
    if args.gt_tempo or not sources:
        sources.append((experiments.GT_TEMPO_SOURCE, {}))
    return sources


# Each experiment's call on the run's Settings ``s`` and run values ``r`` (see run_experiment).
EXPERIMENT_CALLS = {
    "bottleneck": lambda s, r: experiments.run_bottleneck_table(
        r.datasets, r.source, r.synth_cfg, s.dbn_config(min_bpm_default=30.0), s.peak_config(),
        r.eval_cfg, r.jobs),
    "gt-bottleneck": lambda s, r: experiments.run_gt_bottleneck(
        r.dataset, r.synth_cfg, s.dbn_config(min_bpm_default=30.0), r.eval_cfg, r.jobs),
    "lambda-sweep": lambda s, r: experiments.run_lambda_sweep(
        r.dataset, r.source, r.sweep, s.dbn_config(min_bpm_default=30.0), r.eval_cfg, r.synth_cfg, r.jobs),
    "threshold-sweep": lambda s, r: experiments.run_threshold_sweep(
        r.dataset, r.source, r.sweep, r.eval_cfg, s.peak_config(), r.jobs, r.synth_cfg),
    "tempo-curve": lambda s, r: experiments.run_tempo_curve(
        r.dataset, r.source, _tempo_sources(r.args), s.tempo_window(),
        s.dbn_config(min_bpm_default=30.0), r.eval_cfg, r.synth_cfg, r.jobs),
    "peak-vs-dbn": lambda s, r: experiments.run_peak_vs_dbn(
        r.dataset, r.source, s.dbn_config(), s.peak_config(), r.eval_cfg, r.jobs, r.synth_cfg),
    "taxonomy": lambda s, r: experiments.run_taxonomy(
        r.dataset, r.source, decoder=r.args.decoder or "peaks", intersect_source=r.args.intersect_source,
        dbn_cfg=s.dbn_config(), peak_cfg=s.peak_config(), eval_cfg=r.eval_cfg, synth_cfg=r.synth_cfg,
        jobs=r.jobs),
    "dataset-stats": lambda s, r: experiments.dataset_stats(r.dataset),
    "systems": lambda s, r: experiments.run_systems_table(
        r.dataset, r.source, r.sweep, s.dbn_config(min_bpm_default=30.0), s.peak_config(),
        r.eval_cfg, r.synth_cfg, s.tempo_window(), r.jobs),
    "axis-table": lambda s, r: experiments.run_axis_table(
        r.dataset, r.source, s.dbn_config(), s.peak_config(),
        r.eval_cfg, r.synth_cfg, s.tempo_window(), r.jobs),
}
EXPERIMENTS = tuple(EXPERIMENT_CALLS)


def run_experiment(args, datasets) -> reports.RunReport:
    """Run ``args.name`` (parsed ``experiment`` args) on [(name, Dataset)].

    Only bottleneck reads more than the first dataset. ``report.config``
    holds the resolved settings for the run's manifest.
    """
    settings = Settings(args)
    carried = sorted({label for _, ds in datasets for record in ds.annotated() for label in record.activations})
    for source in (args.source, args.intersect_source):
        if source not in (None, experiments.GT_SOURCE, *carried):
            raise ToolkitError(f"no annotated track has activation source {source!r}; "
                               f"sources present: {', '.join(carried) or 'none'}")
    run = types.SimpleNamespace(
        args=args, datasets=datasets, dataset=datasets[0][1], source=args.source or experiments.GT_SOURCE,
        jobs=settings.get("jobs", 1, cast=int), eval_cfg=settings.eval_config(),
        synth_cfg=settings.synth_config(), sweep=settings.sweep_spec())
    report = EXPERIMENT_CALLS[args.name](settings, run)
    report.config = {"experiment": args.name, "source": run.source, **settings.resolved}
    return report


def write_experiment(report: reports.RunReport, datasets, out_dir) -> Path:
    """Write the run directory under ``out_dir``; taxonomy, dataset-stats and
    tempo-curve add their figure bundle, drawn from the first dataset."""
    run_dir = reports.write_run_report(report, out_dir, report.config)
    if report.experiment in ("taxonomy", "dataset-stats", "tempo-curve"):
        curve = report.tables.get("tempo-curve", (None, []))[1]
        bundles = experiments.emit_figure_data(datasets[0][1], rows=report.rows, tempo_curve=curve)
        for name, text in bundles.items():
            (run_dir / name).write_text(text)
    return run_dir


def cmd_experiment(args) -> int:
    datasets = _datasets_from_args(args)
    report = run_experiment(args, datasets)
    run_dir = write_experiment(report, datasets, args.output)
    print(reports.render_report_text(report))
    print(f"report written to {run_dir}")
    return 0


def cmd_report(args) -> int:
    rows = reports.rows_from_csv(ingest.read_text(Path(args.rows_csv)), args.rows_csv)
    if not rows:
        raise ToolkitError(f"{args.rows_csv}: no rows")
    stats = reports.aggregate(rows, args.group_by)
    table = [
        (s.group, s.n) + tuple(f"{s.means[c]:.3f}" if c in s.means else "" for c in reports.METRIC_FIELDS)
        for s in stats
    ]
    print(reports.render_text_table(("group", "n") + reports.METRIC_FIELDS, table, title=args.group_by))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "decode": cmd_decode,
        "eval": cmd_eval,
        "diagnose": cmd_diagnose,
        "synth-gt": cmd_synth_gt,
        "experiment": cmd_experiment,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ToolkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
