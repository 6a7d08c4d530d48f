"""Command-line front end.

Subcommands: decode, eval, diagnose, synth-gt, experiment, suite, report.
Exit codes: 0 ok, 1 data error, 2 usage error. --jobs belongs to experiment
and suite.

A command reads only the settings it uses, and manifest.txt records them:
decode those of its mode, an experiment those of its function's parameters
(run_experiment). A settings flag, --decoder, --intersect-source,
--tempo-file or --gt-tempo that it does not read exits 2 before anything is
written, as does a second --dataset to an experiment that reads one (all
but bottleneck); every experiment takes --jobs and --source. A key=value
file given with --config (not to diagnose or report) may set any SETTINGS
or OTHER_KEYS key once; flags win over it, and keys the command does not
read are ignored. A boolean is 1/true/yes/0/false/no. An unset setting
keeps its field's default. A dataset root or beats dir with no track, and
an output path that cannot be written, exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
import time
from pathlib import Path

import numpy as np

from ._version import __version__
from . import dbn, diagnostics, experiments, ingest, metrics, peaks, reports
from .errors import ToolkitError

# Config key: (flag, config class, field). The flag's type is the field's.
SETTINGS = {
    "min_bpm": ("--min-bpm", dbn.DbnConfig, "min_bpm"),
    "max_bpm": ("--max-bpm", dbn.DbnConfig, "max_bpm"),
    "transition_lambda": ("--lambda", dbn.DbnConfig, "transition_lambda"),
    "observation_lambda": ("--observation-lambda", dbn.DbnConfig, "observation_lambda"),
    "threshold": ("--threshold", peaks.PeakConfig, "threshold"),
    "min_separation": ("--min-separation", peaks.PeakConfig, "min_separation"),
    "trim": ("--trim", metrics.EvalConfig, "trim_seconds"),
    "fps": ("--fps", experiments.SynthConfig, "fps"),
    "sigma_frames": ("--sigma-frames", experiments.SynthConfig, "sigma_frames"),
}
# The other config keys, each read by name where it is used.
OTHER_KEYS = ("no_correct", "tempo_window", "lambdas", "thresholds", "jobs")


def load_config_file(path) -> dict:
    """{key: (line number, value)} of flat key=value lines; '#' starts a
    comment. Each key is a SETTINGS or OTHER_KEYS key, set once."""
    values = {}
    for lineno, line in enumerate(ingest.read_text(Path(path)).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ToolkitError(f"{path}:{lineno}: expected key=value")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key not in SETTINGS and key not in OTHER_KEYS:
            raise ToolkitError(f"{path}:{lineno}: {key}: unknown key; known: {', '.join([*SETTINGS, *OTHER_KEYS])}")
        if key in values:
            raise ToolkitError(f"{path}:{lineno}: {key}: repeated key, first set on line {values[key][0]}")
        values[key] = (lineno, value)
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
                value = cast(raw)
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

    def config(self, base):
        """``base`` with the flag or file value of each SETTINGS row of its
        class, and of no_correct for a DbnConfig, laid over its own values."""
        def build():
            fields = {field: self.get(key, getattr(base, field), cast=type(getattr(cls(), field)))
                      for key, (_, cls, field) in SETTINGS.items() if isinstance(base, cls)}
            if isinstance(base, dbn.DbnConfig):
                fields["correct_beats"] = not self.get("no_correct", not base.correct_beats, cast=ingest.parse_bool)
            return dataclasses.replace(base, **fields)

        return self._checked(build)

    def tempo_window(self, default: float) -> float:
        """The tempo_window setting, checked as a TempoConstraint checks it."""
        return self._checked(lambda: dbn.TempoConstraint(
            dbn.CONSTRAINT_MIN_BPM, self.get("tempo_window", default)).window_fraction)

    def jobs(self, default: int) -> int:
        """The jobs setting: one process or more."""
        def build():
            jobs = self.get("jobs", default, cast=int)
            if jobs < 1:
                raise ValueError(f"jobs must be >= 1, got {jobs}")
            return jobs

        return self._checked(build)

    def grid(self, key: str, default: tuple) -> tuple:
        """The ``key`` grid (lambdas or thresholds): non-empty, positive, ascending."""
        def build():
            text = self.get(key, None, cast=float_list)
            grid = _floats(text) if text else default
            arr = np.asarray(grid, dtype=float)
            if arr.size == 0 or arr.min() <= 0 or np.any(np.diff(arr) <= 0):
                raise ValueError(f"{key} must be non-empty, positive, ascending")
            return grid

        return self._checked(build)

    def reject_unread(self, command: str):
        """Exit 2 at a settings or experiment flag given that ``command``
        did not read; every experiment accepts --jobs."""
        for key in (*SETTINGS, *OTHER_KEYS, "decoder", "intersect_source", "tempo_file", "gt_tempo"):
            if key != "jobs" and self.args.get(key) is not None and key not in self.resolved:
                flag = SETTINGS[key][0] if key in SETTINGS else "--" + key.replace("_", "-")
                print(f"error: {command} does not read {flag}", file=sys.stderr)
                raise SystemExit(2)


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def float_list(text: str) -> str:
    """A comma-separated list of floats, checked and kept as written (the
    manifest records it so); empty means the default grid."""
    if text:
        _floats(text)
    return text


def _add_settings(parser, *classes):
    """--config, and the flag of each SETTINGS row of these config classes."""
    parser.add_argument("--config", help="flat key=value config file")
    for key, (flag, cls, field) in SETTINGS.items():
        if cls in classes:
            parser.add_argument(flag, dest=key, type=type(getattr(cls(), field)), default=None,
                                help=f"sets {cls.__name__}.{field}")
    if dbn.DbnConfig in classes:
        parser.add_argument(
            "--no-correct", dest="no_correct", action="store_const", const=True, default=None,
            help="disable beat-position correction to the activation peak",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beatdiag", description=__doc__)
    parser.add_argument("--version", action="version", version=f"beatdiag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="decode activation files into .beats files")
    _add_settings(p, dbn.DbnConfig, peaks.PeakConfig)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dbn", action="store_true", help="DBN Viterbi decoding")
    mode.add_argument("--peaks", action="store_true", help="threshold peak picking")
    mode.add_argument("--dbn-constrained", action="store_true", help="DBN with per-track tempo window")
    p.add_argument("inputs", nargs="+", help="activation files or directories")
    p.add_argument("-o", "--output", required=True, help="output directory for .beats files")
    p.add_argument("--tempo-file", help="track_id,bpm,source_label CSV for --dbn-constrained")
    p.add_argument("--tempo-window", dest="tempo_window", type=float, default=None)

    p = sub.add_parser("eval", help="evaluate estimated beats against references")
    _add_settings(p, metrics.EvalConfig)
    p.add_argument("--est", required=True, help="directory of estimated .beats files")
    p.add_argument("--ref", required=True, help="directory of reference .beats files")
    p.add_argument("-o", "--output", help="write per-track CSV here")

    p = sub.add_parser("diagnose", help="activation diagnostics per track")
    p.add_argument("--activations", required=True, help="directory of activation files")
    p.add_argument("--beats", required=True, help="directory of reference .beats files")
    p.add_argument("-o", "--output", help="write CSV here instead of stdout")

    p = sub.add_parser("synth-gt", help="synthesize GT activations from annotations")
    _add_settings(p, experiments.SynthConfig)
    p.add_argument("--beats", required=True, help="directory of reference .beats files")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--binary", action="store_true", help="write binary ACT1 files")

    p = sub.add_parser("experiment", help="run a named experiment and write its report")
    _add_settings(p, dbn.DbnConfig, peaks.PeakConfig, metrics.EvalConfig, experiments.SynthConfig)
    p.add_argument("--jobs", type=int, default=None, help="DBN decoding processes")
    p.add_argument("name", choices=EXPERIMENTS)
    p.add_argument("--beats-dir", dest="beats_dir", help="annotation directory")
    p.add_argument("--tags-dir", dest="tags_dir", help="difficulty-tag directory")
    p.add_argument("--activations", action="append", default=[], metavar="LABEL=DIR",
                   help="named activation source (repeatable)")
    p.add_argument("--dataset", action="append", default=[], metavar="NAME=ROOT",
                   help="dataset root with beats/, tags/, activations/ (repeatable; bottleneck reads all)")
    p.add_argument("--axis-map", dest="axis_map", help="tag vocabulary / axis file")
    p.add_argument("--source", help="activation source label (default gt-synth)")
    p.add_argument("--intersect-source", dest="intersect_source", help="second system for taxonomy")
    p.add_argument("--decoder", choices=("dbn", "peaks"), default=None, help="taxonomy decoder")
    p.add_argument("--tempo-file", action="append", metavar="LABEL=CSV",
                   help="ordered tempo-estimate sources for tempo-curve (repeatable)")
    p.add_argument("--gt-tempo", action="store_const", const=True, help="append the ground-truth tempo source")
    p.add_argument("--tempo-window", dest="tempo_window", type=float, default=None)
    p.add_argument("--lambdas", type=float_list, default=None, help="comma-separated lambda grid")
    p.add_argument("--thresholds", type=float_list, default=None, help="comma-separated threshold grid")
    p.add_argument("-o", "--output", required=True, help="run directory")

    p = sub.add_parser("suite", help="run the SUITE battery of experiments on a dataset root")
    p.add_argument("root", help="dataset root with beats/, tags/, activations/LABEL/ and tempo/")
    p.add_argument("-o", "--output", required=True, help="run output directory")
    p.add_argument("--source", help="activation source label (default the first under ROOT, else gt-synth)")
    p.add_argument("--jobs", type=int, default=1, help="DBN decoding processes")

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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_decode(args) -> int:
    settings = Settings(args)
    mode = "peaks" if args.peaks else ("dbn-constrained" if args.dbn_constrained else "dbn")
    config = settings.config(peaks.PeakConfig() if args.peaks else dbn.DbnConfig())
    if args.dbn_constrained:
        window = settings.tempo_window(dbn.TEMPO_WINDOW)
        tempo_file = settings.get("tempo_file", None, cast=str)
        if not tempo_file:
            raise ToolkitError("--dbn-constrained requires --tempo-file")
        tempo = ingest.load_tempo_estimates(tempo_file)
    settings.reject_unread(f"decode --{mode}")
    requests = {}  # track_id: (activation, [its config]); every file is checked before any is decoded
    for track_id, path in _activation_paths(args.inputs).items():
        act = ingest.load_activation(path)
        if args.dbn_constrained and track_id not in tempo:
            print(f"warning: no tempo estimate for {track_id}, skipped", file=sys.stderr)
            continue
        try:  # a BPM range that is empty or that this activation's frame rate cannot hold
            cfg = dbn.TempoConstraint(tempo[track_id], window).hold(config) if args.dbn_constrained else config
            args.peaks or dbn.space_key(cfg, act.fps)
        except ToolkitError as exc:
            raise ToolkitError(f"{path}: {exc}") from None
        requests[track_id] = (act, [cfg])
    beats = ([peaks.pick_peaks(act, cfg) for act, (cfg,) in requests.values()] if args.peaks
             else [b for decoded in dbn.decode_batch(list(requests.values())) for b in decoded.values()])
    (out_dir := Path(args.output)).mkdir(parents=True, exist_ok=True)
    for track_id, track_beats in zip(requests, beats):
        ingest.write_beats(track_beats, out_dir / f"{track_id}.beats")
    reports.write_manifest(out_dir / "manifest.txt", {"command": f"decode:{mode}", **settings.resolved})
    print(f"wrote {len(requests)} beats file(s) to {out_dir}")
    return 0


def cmd_eval(args) -> int:
    settings = Settings(args)
    eval_cfg = settings.config(metrics.DEFAULT_EVAL)
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
    synth_cfg = settings.config(experiments.SynthConfig())
    refs = ingest.load_annotations(args.beats)
    # every track is synthesized before any is written, so a bad one leaves no output
    acts = {track_id: experiments.synthesize_gt_activation(refs[track_id], synth_cfg) for track_id in sorted(refs)}
    (out_dir := Path(args.output)).mkdir(parents=True, exist_ok=True)
    suffix = ".bin" if args.binary else ".act"
    for track_id, act in acts.items():
        ingest.write_activation(act, out_dir / f"{track_id}{suffix}", binary=args.binary)
    reports.write_manifest(out_dir / "manifest.txt", {"command": "synth-gt", **settings.resolved})
    print(f"wrote {len(refs)} activation file(s) to {out_dir}")
    return 0


def _load_dataset(root, layout, where: str, axis_map=None) -> ingest.Dataset:
    """The dataset under ``root``; one with no track is a data error naming ``where``."""
    dataset = ingest.load_dataset(root, layout, axis_map)
    if len(dataset) == 0:
        raise ToolkitError(f"no tracks found under {where}")
    return dataset


def _datasets_from_args(args) -> list:
    """[(name, Dataset)]: one per --dataset NAME=ROOT, else one from --beats-dir."""
    axis_map = ingest.load_axis_map(args.axis_map) if args.axis_map else None
    if args.dataset:
        return [(name, _load_dataset(root, ingest.root_layout(root), f"dataset root {root!r}", axis_map))
                for name, root in _parse_labeled(args.dataset, "--dataset")]
    if not args.beats_dir:
        raise ToolkitError("provide --beats-dir (or --dataset NAME=ROOT)")
    layout = ingest.DatasetLayout(
        beats_dir=args.beats_dir,
        tags_dir=args.tags_dir,
        activation_dirs=dict(_parse_labeled(args.activations, "--activations")),
    )
    return [("dataset", _load_dataset(Path.cwd(), layout, f"beats dir {args.beats_dir!r}", axis_map))]


def _tempo_sources(settings) -> list:
    """The --tempo-file sources in order, then gt-tempo if asked for or if none is given."""
    files = settings.get("tempo_file", [], cast=str)
    sources = [(label, ingest.load_tempo_estimates(path)) for label, path in _parse_labeled(files, "--tempo-file")]
    if settings.get("gt_tempo", False, cast=ingest.parse_bool) or not sources:
        sources.append((experiments.GT_TEMPO_SOURCE, {}))
    return sources


# Each experiment's function in ``experiments``. run_experiment looks it up
# when it runs and fills its parameters by name.
EXPERIMENTS = {
    "bottleneck": "run_bottleneck_table",
    "gt-bottleneck": "run_gt_bottleneck",
    "lambda-sweep": "run_lambda_sweep",
    "threshold-sweep": "run_threshold_sweep",
    "tempo-curve": "run_tempo_curve",
    "peak-vs-dbn": "run_peak_vs_dbn",
    "taxonomy": "run_taxonomy",
    "dataset-stats": "dataset_stats",
    "systems": "run_systems_table",
    "axis-table": "run_axis_table",
}

# The per-track diagnostic battery that ``suite`` runs, in run order; the
# last three need a real activation source. systems and axis-table stay out
# so that the battery's report files stay byte-identical; whether they join
# is open (ROADMAP.md, suite-smc).
SUITE = ("dataset-stats", "gt-bottleneck", "bottleneck", "lambda-sweep", "tempo-curve",
         "threshold-sweep", "peak-vs-dbn", "taxonomy")


def run_experiment(args, datasets) -> reports.RunReport:
    """Run ``args.name`` (parsed ``experiment`` args) on [(name, Dataset)].

    Each parameter of the experiment's function that has a resolver below is
    resolved from the settings laid over the parameter's default; the rest
    keep their defaults. Only bottleneck reads more than the first dataset.
    ``report.config`` holds the source and what was read, for the manifest.
    """
    settings = Settings(args)
    source = args.source or experiments.GT_SOURCE
    resolvers = {
        "dataset": lambda _: datasets[0][1], "datasets": lambda _: datasets, "source": lambda _: source,
        "dbn_cfg": settings.config, "peak_cfg": settings.config, "eval_cfg": settings.config,
        "synth_cfg": settings.config, "window": settings.tempo_window,
        "lambdas": lambda default: settings.grid("lambdas", default),
        "thresholds": lambda default: settings.grid("thresholds", default),
        "tempo_sources": lambda _: _tempo_sources(settings),
        "jobs": settings.jobs,
        "decoder": lambda default: settings.get("decoder", default, cast=str),
        "intersect_source": lambda default: settings.get("intersect_source", default, cast=str),
    }
    run = getattr(experiments, EXPERIMENTS[args.name])
    kwargs = {name: resolvers[name](param.default)
              for name, param in inspect.signature(run).parameters.items() if name in resolvers}
    settings.reject_unread(args.name)
    carried = sorted({label for _, ds in datasets for record in ds.annotated() for label in record.activations})
    for label in (source, kwargs.get("intersect_source")):
        if label not in (None, experiments.GT_SOURCE, *carried):
            raise ToolkitError(f"no annotated track has activation source {label!r}; "
                               f"sources present: {', '.join(carried) or 'none'}")
    report = run(**kwargs)
    report.config = {"experiment": args.name, "source": source, **settings.resolved}
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
    run = getattr(experiments, EXPERIMENTS[args.name])
    if len(args.dataset) > 1 and "datasets" not in inspect.signature(run).parameters:
        print(f"error: {args.name} reads one --dataset, got {len(args.dataset)}", file=sys.stderr)
        raise SystemExit(2)
    datasets = _datasets_from_args(args)
    report = run_experiment(args, datasets)
    run_dir = write_experiment(report, datasets, args.output)
    print(reports.render_report_text(report))
    print(f"report written to {run_dir}")
    return 0


def cmd_suite(args) -> int:
    """Load ROOT once, named after its directory, and run each SUITE stage
    on it as ``experiment NAME --source LABEL --jobs N -o OUT``."""
    root = Path(args.root)
    layout = ingest.root_layout(root)
    sources = sorted(layout.activation_dirs)
    dataset = _load_dataset(root, layout, f"dataset root {args.root!r}")
    datasets = [(root.name, dataset)]
    print(f"{len(dataset)} tracks, activation sources: {sources or 'none'}")
    if dataset.residue_tags:
        n = sum(len(v) for v in dataset.residue_tags.values())
        print(f"warning: {n} unrecognized tag(s) across {len(dataset.residue_tags)} track(s)")
    source = args.source or (sources[0] if sources else experiments.GT_SOURCE)
    t0 = time.monotonic()
    for name in SUITE[:-3] if source == experiments.GT_SOURCE else SUITE:
        start = time.monotonic()
        stage = build_parser().parse_args(
            ["experiment", name, "--source", source, "--jobs", str(args.jobs), "-o", args.output])
        report = run_experiment(stage, datasets)
        write_experiment(report, datasets, args.output)
        print(f"[{time.monotonic() - start:6.1f}s] {name}: "
              + " ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in list(report.summary.items())[:5]))
    print(f"total {time.monotonic() - t0:.1f}s; reports under {args.output}")
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
        "suite": cmd_suite,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ToolkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
