"""Experiment drivers: GT-activation synthesis, sweeps, tempo-constrained
decoding, bottleneck quantification, taxonomy runs, and figure-data export.

Every experiment runs the same three steps:

1. Spec. It declares, per track, the decoders to run as their configs: a
   PeakConfig picks peaks, a DbnConfig decodes with the DBN. A tempo window
   becomes a DbnConfig's BPM range (``TempoConstraint.hold``) when the spec
   is built. A lambda or threshold sweep is just one spec per grid value.
2. Decode and score. ``_score_source`` sends each track's DbnConfigs, as
   one (activation, configs) request, to one ``dbn.decode_batch(requests,
   jobs)`` call. Its Viterbi passes hold copies from many tracks and state
   spaces (a pass is bounded only to bound memory, and a track's lambda
   grid never spreads over shared passes), and it decodes ``jobs``
   contiguous batches, near-equal in frames x copies, in a process pool
   when there are two or more. The parent then picks each track's peaks,
   a threshold grid in one pass, and scores the track's distinct beat
   sequences together in one metrics pass (``_score_track``). Every source
   reaches it as a curve from ``_activation_of``, which synthesizes a
   gt-synth curve afresh from the annotation each time it is asked. DBN
   decodes are cached per loaded Dataset, by track, source, synth config
   and DbnConfig, so every stage of a run on one dataset decodes each of
   them once, under any eval config; a stage whose configs are all cached,
   or that has none, starts no pool. The parent process owns the cache,
   and each copy decodes to its own decode's bits in any pass, so results
   are the same at any ``jobs``. ``_score_source`` also writes the notes
   on the tracks it skips into the experiment's RunReport, each note once.
3. Fold. The experiment turns the per-track {spec: EvalResult} maps into
   a RunReport of per-track rows plus corpus-level summaries and tables,
   and adds its own notes after the skip notes.

File emission is left to :mod:`beatdiag.reports`. Tracks missing a required
input are skipped, counted, and listed in the report notes, never imputed.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import weakref
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import dbn, diagnostics, metrics, peaks
from .errors import ConstraintError, DegenerateInput, NoOverlap, StateSpaceError
from .ingest import AXES, ActivationCurve, BeatAnnotation, Dataset
from .reports import ReportRow, RunReport, csv_text


@dataclass(frozen=True)
class SynthConfig:
    """Gaussian ground-truth activation synthesis parameters."""

    sigma_frames: float = 2.0
    fps: float = 43.07

    def __post_init__(self):
        for name in ("sigma_frames", "fps"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not sys.float_info.min <= self.sigma_frames * self.sigma_frames < math.inf:  # a bump divides by it
            raise ValueError(f"sigma_frames squared must be a normal float, got {self.sigma_frames}")


LAMBDA_GRID = (1, 2, 5, 10, 20, 30, 50, 80, 100, 150, 200, 300, 500)  # transition lambdas a sweep tries
GT_SOURCE = "gt-synth"
GT_TAIL_SECONDS = 1.0  # a synthesized curve runs this far past the last beat
# Frames a synthesized curve may hold, at 8 bytes a frame (128 MiB): a
# 10-minute track at 100 fps has 60,000, so a larger count is a bad fps.
MAX_SYNTH_FRAMES = 1 << 24

# The DBN floor lowered from 55 to 30 BPM, where slow tracks decode at their own tempo.
SLOW_DBN = dbn.DbnConfig(min_bpm=30.0)


def synthesize_gt_activation(ref: BeatAnnotation, cfg: SynthConfig = SynthConfig()) -> ActivationCurve:
    """Gaussian peaks centered on the annotated beats, combined by max.

    The curve runs GT_TAIL_SECONDS past the last beat so trailing beats get
    full support.
    """
    if len(ref.beats) == 0:
        raise ValueError(f"{ref.track_id}: cannot synthesize from an empty annotation")
    seconds = float(ref.beats[-1]) + GT_TAIL_SECONDS
    if not seconds * cfg.fps <= MAX_SYNTH_FRAMES:  # the product may overflow to inf
        raise ValueError(f"{ref.track_id}: fps {cfg.fps} gives over {MAX_SYNTH_FRAMES} frames")
    n_frames = int(math.ceil(seconds * cfg.fps))
    values = np.zeros(n_frames)
    support = int(math.ceil(6 * cfg.sigma_frames))
    centers = ref.beats * cfg.fps
    for center in centers:
        lo = max(int(math.floor(center)) - support, 0)
        hi = min(int(math.ceil(center)) + support + 1, n_frames)
        frames = np.arange(lo, hi)
        bump = np.exp(-((frames - center) ** 2) / (2 * cfg.sigma_frames**2))
        np.maximum(values[lo:hi], bump, out=values[lo:hi])
    return ActivationCurve(values=values, fps=cfg.fps, source_label=GT_SOURCE)


# ---------------------------------------------------------------------------
# Decoding and scoring tracks
# ---------------------------------------------------------------------------


def _score_track(ref: BeatAnnotation, act: ActivationCurve, specs, decoded: dict, eval_cfg) -> dict:
    """{spec: EvalResult} of one track, given ``decoded``, the beats of its
    DbnConfigs.

    A spec is a PeakConfig or a DbnConfig. The peak specs are picked here,
    one suppression pass per threshold grid (``peaks.pick_peaks_grid``),
    and the distinct beat arrays are scored in one ``metrics.evaluate_many``
    pass: specs that decode to equal beats share one EvalResult.
    """
    beats = {**decoded, **peaks.pick_peaks_grid(act, [spec for spec in specs if isinstance(spec, peaks.PeakConfig)])}
    distinct = {b.tobytes(): b for b in beats.values()}
    results = dict(zip(distinct, metrics.evaluate_many(list(distinct.values()), ref.beats, eval_cfg)))
    return {spec: results[beats[spec].tobytes()] for spec in specs}


# Loaded Dataset -> {(track_id, source, synth_cfg or None, DbnConfig): decoded beats}.
# It outlives a stage because the stages of one run share decodes: with it
# cleared before each of the eight suite stages, those stages took a median
# 1.66 s against 1.34 s on 8 noisy tracks of 40 s at jobs=2 (2 cores, 10
# alternating runs). Peak picks are cheap to repeat, and a threshold
# sweep's would fill it.
_DECODES = weakref.WeakKeyDictionary()


def _activation_of(record, source: str, synth_cfg: SynthConfig) -> ActivationCurve | None:
    """The track's ``source`` curve, a gt-synth curve synthesized from its
    annotation, or None when the track has no ``source`` curve."""
    if source == GT_SOURCE:
        return synthesize_gt_activation(record.annotation, synth_cfg)
    return record.activations.get(source)


def _score_source(report: RunReport, dataset: Dataset, source: str, specs_of, eval_cfg, synth_cfg, jobs: int,
                  min_beats: int = 2) -> list:
    """Score the tracks that carry ``source``, in one track mapping.

    ``specs_of(record)`` lists the track's specs (PeakConfigs and
    DbnConfigs). Each track's DbnConfigs not yet in the dataset's decode
    cache go with its curve from ``_activation_of`` into one
    ``dbn.decode_batch(requests, jobs)`` call, and their beats join the
    cache under the track ids kept beside the requests; then
    ``_score_track`` picks the track's peaks and scores all of its specs
    here. Returns [(record, {spec: EvalResult})] in track order. The tracks
    skipped go into ``report.notes``, each note once: the count of tracks
    that ``_activation_of`` finds no ``source`` curve for, those with fewer
    than ``min_beats`` annotated beats left after ``eval_cfg``'s trim, then
    each whose tempo window (a ``ConstraintError`` from ``specs_of``) holds
    no BPM range, and each with a DbnConfig that has no state space at the
    curve's fps (``dbn.space_key``). That last check runs before any
    decode, so one such track never ends the run.
    """
    cache = _DECODES.setdefault(dataset, {})
    synth_key = synth_cfg if source == GT_SOURCE else None
    found, ids, requests, missing, short, notes = [], [], [], [], [], []
    for record in dataset:
        if len(metrics.trim_beats(record.annotation.beats, eval_cfg.trim_seconds)) < min_beats:
            short.append(record.track_id)
            continue
        act = _activation_of(record, source, synth_cfg)
        if act is None:
            missing.append(record.track_id)
            continue
        try:
            specs = specs_of(record)
            cfgs = [spec for spec in specs if isinstance(spec, dbn.DbnConfig)]
            for cfg in cfgs:
                dbn.space_key(cfg, act.fps)
        except ConstraintError as exc:
            notes.append(f"{record.track_id}: {exc}; skipped")
            continue
        except StateSpaceError as exc:
            notes.append(f"{record.track_id} ({source}): {exc}; skipped")
            continue
        found.append((record, act, specs, cfgs))
        uncached = [cfg for cfg in cfgs if (record.track_id, source, synth_key, cfg) not in cache]
        if uncached:
            ids.append(record.track_id)
            requests.append((act, uncached))
    for tid, beats in zip(ids, dbn.decode_batch(requests, jobs)):
        cache.update({(tid, source, synth_key, cfg): b for cfg, b in beats.items()})
    if short:
        notes.insert(0, f"{len(short)} track(s) with <{min_beats} beats skipped: {short}")
    if missing:
        notes.insert(0, f"{len(missing)} track(s) missing '{source}' skipped")
    report.notes.extend(note for note in notes if note not in report.notes)
    return [(record, _score_track(record.annotation, act, specs,
                                  {cfg: cache[record.track_id, source, synth_key, cfg] for cfg in cfgs}, eval_cfg))
            for record, act, specs, cfgs in found]


def _lambda_grid(lambdas, dbn_cfg: dbn.DbnConfig) -> list:
    return [dataclasses.replace(dbn_cfg, transition_lambda=float(lam)) for lam in lambdas]


def _held_to_gt_tempo(record, window: float, dbn_cfg: dbn.DbnConfig) -> dbn.DbnConfig:
    bpm = diagnostics.tempo_stats(record.annotation).gt_bpm
    return dbn.TempoConstraint(center_bpm=bpm, window_fraction=window).hold(dbn_cfg)


def _sweep(grid, scores):
    """Results in grid order and the index of the F-optimal one.

    The first maximum wins, so ties go to the smaller grid value.
    """
    results = [scores[s] for s in grid]
    return results, max(range(len(results)), key=lambda i: results[i].f_measure)


def _row(record, system: str, config: str, result: metrics.EvalResult | None = None, **fields) -> ReportRow:
    """A track's report row; with ``result``, its scores and failure category.

    ``fields`` sets further ReportRow fields, such as ``best_lambda``.
    """
    meta = record.metadata
    tempo = None
    if len(record.annotation.beats) >= diagnostics.MIN_TEMPO_BEATS:
        tempo = diagnostics.tempo_stats(record.annotation)
    row = ReportRow(track_id=record.track_id, system=system, config=config, tempo=tempo, axes=meta.axes,
                    confidence=meta.annotator_confidence,
                    tag_count=len(meta.canonical_tags) if meta.canonical_tags else 0, **fields)
    if result is not None:
        row.eval = result
        row.category = diagnostics.classify_failure(result)
    return row


def _with_tempo(dataset: Dataset) -> list:
    """Records with the three beats that tempo statistics need."""
    return [record for record in dataset if len(record.annotation.beats) >= diagnostics.MIN_TEMPO_BEATS]


def _mean_cells(results, fields=("f_measure", "cmlt", "amlt")) -> tuple:
    """Mean of each field as a table cell; empty cells when there is no result."""
    return tuple(_fmt3(np.mean([getattr(r, name) for r in results]) if results else None) for name in fields)


# ---------------------------------------------------------------------------
# Dataset statistics
# ---------------------------------------------------------------------------


def dataset_stats(dataset: Dataset) -> RunReport:
    """Tempo distribution and IBI-variability statistics from annotations."""
    rows = [_row(record, "annotation", "stats") for record in _with_tempo(dataset)]
    skipped = [record.track_id for record in dataset if len(record.annotation.beats) < diagnostics.MIN_TEMPO_BEATS]
    report = RunReport(experiment="dataset-stats", rows=rows)
    if rows:
        bpms = np.asarray([row.tempo.gt_bpm for row in rows])
        report.summary = {
            "n_tracks": len(rows),
            "median_gt_bpm": diagnostics.median(bpms),
            "n_below_55_bpm": int((bpms < dbn.DbnConfig.min_bpm).sum()),
            "n_below_60_bpm": int((bpms < 60).sum()),
            "median_ibi_cv": diagnostics.median([row.tempo.ibi_cv for row in rows]),
        }
    if skipped:
        report.notes.append(
            f"{len(skipped)} track(s) with <{diagnostics.MIN_TEMPO_BEATS} beats skipped: {sorted(skipped)}"
        )
    if dataset.residue_tags:
        n_residue = sum(len(v) for v in dataset.residue_tags.values())
        report.notes.append(
            f"{n_residue} unrecognized tag(s) on {len(dataset.residue_tags)} track(s): "
            + "; ".join(f"{tid}={tags}" for tid, tags in sorted(dataset.residue_tags.items()))
        )
    return report


# ---------------------------------------------------------------------------
# GT-activation bottleneck
# ---------------------------------------------------------------------------


def run_gt_bottleneck(
    dataset: Dataset,
    synth_cfg: SynthConfig = SynthConfig(),
    dbn_cfg: dbn.DbnConfig = SLOW_DBN,
    eval_cfg: metrics.EvalConfig = metrics.DEFAULT_EVAL,
    jobs: int = 1,
) -> RunReport:
    """Decode synthetic GT activations for every track."""
    report = RunReport(experiment="gt-bottleneck")
    scored = _score_source(report, dataset, GT_SOURCE, lambda rec: (dbn_cfg,), eval_cfg, synth_cfg, jobs)
    rows = report.rows = [_row(rec, GT_SOURCE, _dbn_label(dbn_cfg), scores[dbn_cfg]) for rec, scores in scored]
    fs = [r.eval.f_measure for r in rows]
    report.summary = {"n_tracks": len(rows)}
    if rows:
        report.summary.update(mean_f=float(np.mean(fs)), mean_cmlt=float(np.mean([r.eval.cmlt for r in rows])),
                              mean_amlt=float(np.mean([r.eval.amlt for r in rows])))
    report.summary["n_below_f_0.5"] = int(sum(f < 0.5 for f in fs))
    return report


def _dbn_label(cfg: dbn.DbnConfig) -> str:
    return (
        f"dbn[{cfg.min_bpm:g}-{cfg.max_bpm:g}bpm,lam={cfg.transition_lambda:g},"
        f"obs={cfg.observation_lambda},correct={int(cfg.correct_beats)}]"
    )


def run_bottleneck_table(
    datasets,
    source: str = GT_SOURCE,
    synth_cfg: SynthConfig = SynthConfig(),
    dbn_cfg: dbn.DbnConfig = SLOW_DBN,
    peak_cfg: peaks.PeakConfig = peaks.PeakConfig(),
    eval_cfg: metrics.EvalConfig = metrics.DEFAULT_EVAL,
    jobs: int = 1,
) -> RunReport:
    """Cross-dataset activation-bottleneck table.

    ``datasets`` is an iterable of (name, Dataset). Real-activation columns
    are filled only where ``source`` activations exist; the GT+DBN column is
    always computed. The gap column is GT+DBN minus Real+DBN.
    """
    header = ("dataset", "n", "median_ibi_cv", "real_peak_f", "real_dbn_f", "gt_dbn_f", "gap")
    table_rows = []
    report = RunReport(experiment="bottleneck")
    for name, dataset in datasets:
        stats = dataset_stats(dataset)
        gt = run_gt_bottleneck(dataset, synth_cfg, dbn_cfg, eval_cfg, jobs)
        report.rows.extend(gt.rows)
        real_peak_f = real_dbn_f = None
        if source != GT_SOURCE:  # the GT column is always computed; nothing "real" to add
            scored = _score_source(gt, dataset, source, lambda rec: (peak_cfg, dbn_cfg), eval_cfg, synth_cfg, jobs)
            if scored:
                real_peak_f = float(np.mean([scores[peak_cfg].f_measure for _, scores in scored]))
                real_dbn_f = float(np.mean([scores[dbn_cfg].f_measure for _, scores in scored]))
        report.notes.extend(f"{name}: {note}" for note in gt.notes)
        gt_f = gt.summary.get("mean_f")
        gap = None if real_dbn_f is None or gt_f is None else gt_f - real_dbn_f
        table_rows.append((name, stats.summary.get("n_tracks", 0), _fmt3(stats.summary.get("median_ibi_cv")),
                           _fmt3(real_peak_f), _fmt3(real_dbn_f), _fmt3(gt_f), _fmt3(gap)))
    report.tables["bottleneck"] = (header, table_rows)
    return report


def _fmt3(value):
    return "" if value is None else f"{value:.3f}"


# ---------------------------------------------------------------------------
# Lambda sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaSweep:
    lambdas: tuple
    results: tuple
    best_lambda: float
    best_result: metrics.EvalResult


def sweep_lambda(
    act: ActivationCurve,
    ref: BeatAnnotation,
    lambdas=LAMBDA_GRID,
    dbn_cfg: dbn.DbnConfig = SLOW_DBN,
    eval_cfg: metrics.EvalConfig = metrics.DEFAULT_EVAL,
) -> LambdaSweep:
    """Decode at every lambda; the F-optimal one wins, ties to the smaller."""
    grid = _lambda_grid(lambdas, dbn_cfg)
    results, best = _sweep(grid, _score_track(ref, act, grid, dbn.decode_batch([(act, grid)])[0], eval_cfg))
    return LambdaSweep(
        lambdas=tuple(float(x) for x in lambdas),
        results=tuple(results),
        best_lambda=float(lambdas[best]),
        best_result=results[best],
    )


def run_lambda_sweep(
    dataset: Dataset,
    source: str,
    lambdas=LAMBDA_GRID,
    dbn_cfg: dbn.DbnConfig = SLOW_DBN,
    eval_cfg: metrics.EvalConfig = metrics.DEFAULT_EVAL,
    synth_cfg: SynthConfig = SynthConfig(),
    jobs: int = 1,
) -> RunReport:
    """Per-track lambda sweep over a corpus, plus the best fixed lambda."""
    grid = _lambda_grid(lambdas, dbn_cfg)
    report = RunReport(experiment="lambda-sweep")
    scored = _score_source(report, dataset, source, lambda rec: grid, eval_cfg, synth_cfg, jobs)
    sweeps = [_sweep(grid, scores) for _, scores in scored]
    for (rec, _), (results, best) in zip(scored, sweeps):
        report.rows.append(_row(rec, source, "per-track-optimal-lambda", results[best],
                                best_lambda=float(lambdas[best])))
    if sweeps:
        per_lambda = [
            (f"{lam:g}", *_mean_cells([results[i] for results, _ in sweeps], ("f_measure", "cmlt")))
            for i, lam in enumerate(lambdas)
        ]
        fixed_means = [float(r[1]) for r in per_lambda]
        best_fixed_i = int(np.argmax(fixed_means))
        optimal = [row.eval for row in report.rows]
        best_lams = [row.best_lambda for row in report.rows]
        report.summary = {
            "n_tracks": len(sweeps),
            "optimal_mean_f": float(np.mean([r.f_measure for r in optimal])),
            "optimal_mean_cmlt": float(np.mean([r.cmlt for r in optimal])),
            "best_fixed_lambda": float(lambdas[best_fixed_i]),
            "best_fixed_mean_f": fixed_means[best_fixed_i],
            "median_optimal_lambda": diagnostics.median(best_lams),
            "frac_preferring_min_lambda": float(np.mean([b == lambdas[0] for b in best_lams])),
        }
        report.tables["per-lambda"] = (("lambda", "mean_f", "mean_cmlt"), per_lambda)
    return report


# ---------------------------------------------------------------------------
# Threshold sweep
# ---------------------------------------------------------------------------


def run_threshold_sweep(
    dataset: Dataset,
    source: str,
    thresholds=peaks.DEFAULT_THRESHOLD_GRID,
    eval_cfg: metrics.EvalConfig = metrics.DEFAULT_EVAL,
    peak_cfg: peaks.PeakConfig = peaks.PeakConfig(),
    jobs: int = 1,
    synth_cfg: SynthConfig = SynthConfig(),
) -> RunReport:
    """Per-track peak-picking threshold sweep; the ceiling for any decoder.

    Every grid threshold picks with ``peak_cfg``'s minimum separation, and
    ``peak_cfg`` itself is the default the optimum is compared against.
    """
    grid = [dataclasses.replace(peak_cfg, threshold=thr) for thr in thresholds]
    report = RunReport(experiment="threshold-sweep")
    for rec, scores in _score_source(report, dataset, source, lambda rec: [*grid, peak_cfg], eval_cfg, synth_cfg, jobs):
        results, best = _sweep(grid, scores)
        report.rows.append(_row(rec, source, "per-track-optimal-threshold", results[best],
                                best_threshold=float(thresholds[best]),
                                baseline_f=scores[peak_cfg].f_measure))
    if report.rows:
        report.summary = {
            "n_tracks": len(report.rows),
            "optimal_mean_f": float(np.mean([r.eval.f_measure for r in report.rows])),
            "default_threshold": peak_cfg.threshold,
            "default_mean_f": float(np.mean([r.baseline_f for r in report.rows])),
        }
    return report


# ---------------------------------------------------------------------------
# Peak picking vs DBN
# ---------------------------------------------------------------------------


HURT_MARGIN = 0.01  # |delta F| below this counts as unchanged


def run_peak_vs_dbn(
    dataset: Dataset,
    source: str,
    dbn_cfg: dbn.DbnConfig = dbn.DbnConfig(),
    peak_cfg: peaks.PeakConfig = peaks.PeakConfig(),
    eval_cfg: metrics.EvalConfig = metrics.DEFAULT_EVAL,
    jobs: int = 1,
    synth_cfg: SynthConfig = SynthConfig(),
) -> RunReport:
    """Effect of routing activations through the DBN instead of peak picking."""
    report = RunReport(experiment="peak-vs-dbn")
    for rec, scores in _score_source(report, dataset, source, lambda rec: (dbn_cfg, peak_cfg),
                                     eval_cfg, synth_cfg, jobs):
        dbn_f, peak_f = scores[dbn_cfg].f_measure, scores[peak_cfg].f_measure
        report.rows.append(_row(rec, source, _dbn_label(dbn_cfg), scores[dbn_cfg],
                                baseline_f=peak_f, delta_f=dbn_f - peak_f))
    if report.rows:
        deltas = np.asarray([r.delta_f for r in report.rows])
        report.summary = {
            "n_tracks": len(report.rows),
            "peak_mean_f": float(np.mean([r.baseline_f for r in report.rows])),
            "dbn_mean_f": float(np.mean([r.eval.f_measure for r in report.rows])),
            "mean_delta_f": float(deltas.mean()),
            "n_worsened": int((deltas < -HURT_MARGIN).sum()),
            "n_improved": int((deltas > HURT_MARGIN).sum()),
            "n_unchanged": int((np.abs(deltas) <= HURT_MARGIN).sum()),
        }
        report.tables["per-axis"] = _axis_delta_table(report.rows)
    return report


def _axis_delta_table(rows):
    header = ("axis", "n_on", "delta_f_on", "pct_hurt_on", "n_off", "delta_f_off", "pct_hurt_off")
    out = []
    for axis in AXES:
        cells = [axis]
        for on in (True, False):
            deltas = [r.delta_f for r in rows if (axis in r.axes) == on]
            cells += [str(len(deltas)), *_delta_cells(deltas)] if deltas else ["0", "", ""]
        out.append(tuple(cells))
    return header, out


def _delta_cells(deltas) -> tuple:
    """Mean F change and the share of tracks it hurt, as table cells."""
    hurt = np.mean([d < -HURT_MARGIN for d in deltas])
    return f"{np.mean(deltas):+.3f}", f"{100 * hurt:.0f}%"


# ---------------------------------------------------------------------------
# Tempo-constrained decoding
# ---------------------------------------------------------------------------


GT_TEMPO_SOURCE = "gt-tempo"
TEMPO_CURVE_HEADER = ("tempo_source", "n", "mean_f", "mean_cmlt", "mean_amlt", "n_skipped")


def run_tempo_curve(
    dataset: Dataset,
    source: str,
    tempo_sources,
    window: float = dbn.TEMPO_WINDOW,
    dbn_cfg: dbn.DbnConfig = SLOW_DBN,
    eval_cfg: metrics.EvalConfig = metrics.DEFAULT_EVAL,
    synth_cfg: SynthConfig = SynthConfig(),
    jobs: int = 1,
) -> RunReport:
    """Constrained decoding for tempo sources of increasing accuracy.

    ``tempo_sources`` is an ordered list of (label, {track_id: bpm}); the
    special label ``gt-tempo`` derives per-track BPM from the annotation.
    The unconstrained decode is always included as the baseline series.
    """
    held = {}  # track id -> {series index: spec}; series 0 is unconstrained
    unheld = {}  # (series index, track id) -> why the track's window holds no BPM range

    def specs_of(rec):
        specs = held[rec.track_id] = {0: dbn_cfg}
        for i, (label, bpm_by_track) in enumerate(tempo_sources, start=1):
            try:
                if label == GT_TEMPO_SOURCE:
                    if len(rec.annotation) >= diagnostics.MIN_TEMPO_BEATS:
                        specs[i] = _held_to_gt_tempo(rec, window, dbn_cfg)
                elif bpm_by_track.get(rec.track_id) is not None:
                    specs[i] = dbn.TempoConstraint(bpm_by_track[rec.track_id], window).hold(dbn_cfg)
            except ConstraintError as exc:
                unheld[i, rec.track_id] = f"{rec.track_id}: {exc}"
        return list(specs.values())

    report = RunReport(experiment="tempo-curve")
    scored = _score_source(report, dataset, source, specs_of, eval_cfg, synth_cfg, jobs)
    series = []
    labels = [("unconstrained", "unconstrained")]
    labels += [(label, f"constrained[{label}]") for label, _ in tempo_sources]
    for i, (label, config) in enumerate(labels):
        results = []
        for rec, scores in scored:
            if i in held[rec.track_id]:
                results.append(scores[held[rec.track_id][i]])
                report.rows.append(_row(rec, source, config, results[-1]))
        skipped = len(scored) - len(results)
        if results:
            series.append((label, len(results), *_mean_cells(results), skipped))
        reasons = [unheld[i, rec.track_id] for rec, _ in scored if (i, rec.track_id) in unheld]
        if skipped > len(reasons):
            report.notes.append(f"tempo source '{label}': {skipped - len(reasons)} track(s) without estimate")
        report.notes.extend(f"tempo source '{label}': {reason}; skipped" for reason in reasons)
    report.tables["tempo-curve"] = (TEMPO_CURVE_HEADER, series)
    if scored:
        baseline = [scores[dbn_cfg] for _, scores in scored]
        report.summary = {
            "n_tracks": len(baseline),
            "unconstrained_mean_f": float(np.mean([r.f_measure for r in baseline])),
            "unconstrained_mean_cmlt": float(np.mean([r.cmlt for r in baseline])),
        }
    return report


# ---------------------------------------------------------------------------
# Systems table (decoder configurations side by side)
# ---------------------------------------------------------------------------


def run_systems_table(
    dataset: Dataset,
    source: str,
    lambdas=LAMBDA_GRID,
    dbn_cfg: dbn.DbnConfig = SLOW_DBN,
    peak_cfg: peaks.PeakConfig = peaks.PeakConfig(),
    eval_cfg: metrics.EvalConfig = metrics.DEFAULT_EVAL,
    synth_cfg: SynthConfig = SynthConfig(),
    window: float = dbn.TEMPO_WINDOW,
    jobs: int = 1,
) -> RunReport:
    """Corpus means for the standard decoder configurations, one table row
    each: raw peak picking, the fixed-lambda DBN, the per-track optimal
    lambda, GT-tempo constraint combined with the optimal lambda, and the
    GT-activation upper bound.
    """
    grid = _lambda_grid(lambdas, dbn_cfg)

    def held_grid(rec):  # the lambda grid held to the GT tempo window
        return _lambda_grid(lambdas, _held_to_gt_tempo(rec, window, dbn_cfg))

    report = RunReport(experiment="systems")
    scored = gt_scored = _score_source(report, dataset, source, lambda rec: [peak_cfg, dbn_cfg, *grid, *held_grid(rec)],
                                       eval_cfg, synth_cfg, jobs, diagnostics.MIN_TEMPO_BEATS)
    if source != GT_SOURCE:  # the GT upper bound decodes a second activation per track
        ids = {rec.track_id for rec, _ in scored}
        gt_scored = _score_source(report, dataset, GT_SOURCE, lambda rec: (dbn_cfg,) if rec.track_id in ids else (),
                                  eval_cfg, synth_cfg, jobs, diagnostics.MIN_TEMPO_BEATS)
        gt_scored = [(rec, scores) for rec, scores in gt_scored if rec.track_id in ids]
        gt_ids = {rec.track_id for rec, _ in gt_scored}  # less a track whose GT curve cannot be decoded
        scored = [(rec, scores) for rec, scores in scored if rec.track_id in gt_ids]
    optimal = [_sweep(grid, scores) for _, scores in scored]
    constrained = [_sweep(held_grid(rec), scores) for rec, scores in scored]
    configurations = (
        ("peak-picking", [scores[peak_cfg] for _, scores in scored], None),
        (f"dbn-lambda={dbn_cfg.transition_lambda:g}", [scores[dbn_cfg] for _, scores in scored], None),
        ("dbn-optimal-lambda", [r[i] for r, i in optimal], [i for _, i in optimal]),
        ("gt-tempo+optimal-lambda", [r[i] for r, i in constrained], [i for _, i in constrained]),
        ("gt-activations+dbn", [scores[dbn_cfg] for _, scores in gt_scored], None),
    )
    table = []
    for label, results, best in configurations:
        for j, ((rec, _), result) in enumerate(zip(scored, results)):
            best_lambda = None if best is None else float(lambdas[best[j]])
            report.rows.append(_row(rec, source, label, result, best_lambda=best_lambda))
        table.append((label, *_mean_cells(results)))
    report.tables["systems"] = (("configuration", "mean_f", "mean_cmlt", "mean_amlt"), table)
    report.summary = {"n_tracks": len(scored)}
    return report


# ---------------------------------------------------------------------------
# Axis table (difficulty axes side by side)
# ---------------------------------------------------------------------------


def run_axis_table(
    dataset: Dataset,
    source: str,
    dbn_cfg: dbn.DbnConfig = dbn.DbnConfig(),
    peak_cfg: peaks.PeakConfig = peaks.PeakConfig(),
    eval_cfg: metrics.EvalConfig = metrics.DEFAULT_EVAL,
    synth_cfg: SynthConfig = SynthConfig(),
    window: float = dbn.TEMPO_WINDOW,
    jobs: int = 1,
) -> RunReport:
    """Per-difficulty-axis comparison table.

    For each axis, on-axis vs off-axis tracks: mean activation at annotated
    beats, its rank correlation with the system's (peak-picked) F-measure,
    the F change from routing through the DBN with the fraction of tracks
    hurt, and the CMLt gain from constraining to the ground-truth tempo.
    """
    report = RunReport(experiment="axis-table")
    scored = _score_source(report, dataset, source,
                           lambda rec: (peak_cfg, dbn_cfg, _held_to_gt_tempo(rec, window, dbn_cfg)),
                           eval_cfg, synth_cfg, jobs, diagnostics.MIN_TEMPO_BEATS)
    tracks = []  # (axes, act at GT, peak F, DBN F change, GT-tempo CMLt gain)
    for rec, scores in scored:
        try:
            at_gt = diagnostics.act_at_gt(_activation_of(rec, source, synth_cfg), rec.annotation)
        except NoOverlap as exc:  # the curve ends before the first annotated beat
            report.notes.append(f"{exc}; skipped")
            continue
        delta = scores[dbn_cfg].f_measure - scores[peak_cfg].f_measure
        cmlt_gain = scores[_held_to_gt_tempo(rec, window, dbn_cfg)].cmlt - scores[dbn_cfg].cmlt
        tracks.append((rec.metadata.axes, at_gt, scores[peak_cfg].f_measure, delta, cmlt_gain))
        report.rows.append(_row(rec, source, "peak-picking", scores[peak_cfg], delta_f=delta))

    header = ("axis", "side", "n", "act_at_gt", "rho_act_f", "delta_f_dbn", "pct_hurt", "delta_cmlt_gt_tempo")
    table = []
    for axis in AXES:
        for side in ("on", "off"):
            members = [t[1:] for t in tracks if (axis in t[0]) == (side == "on")]
            if not members:
                table.append((axis, side, 0, "", "", "", "", ""))
                continue
            at_gts, peak_fs, deltas, cmlt_gains = zip(*members)
            try:
                rho_text = f"{diagnostics.spearman(at_gts, peak_fs):+.3f}"
            except DegenerateInput:
                rho_text = ""
            table.append((
                axis, side, len(members),
                f"{np.mean(at_gts):.3f}", rho_text,
                *_delta_cells(deltas),
                f"{np.mean(cmlt_gains):+.3f}",
            ))
    report.tables["axis-table"] = (header, table)
    report.summary = {"n_tracks": len(tracks)}
    return report


# ---------------------------------------------------------------------------
# Taxonomy
# ---------------------------------------------------------------------------


def run_taxonomy(
    dataset: Dataset,
    source: str,
    decoder: str = "peaks",
    intersect_source: str | None = None,
    dbn_cfg: dbn.DbnConfig = dbn.DbnConfig(),
    peak_cfg: peaks.PeakConfig = peaks.PeakConfig(),
    eval_cfg: metrics.EvalConfig = metrics.DEFAULT_EVAL,
    synth_cfg: SynthConfig = SynthConfig(),
    jobs: int = 1,
) -> RunReport:
    """Failure taxonomy over a corpus, with activation diagnostics per track.

    With ``intersect_source`` the category reflects both systems: a track
    keeps its category only when both systems agree (the intersection view);
    disagreements are counted as ``mixed`` and left uncategorized.
    """
    spec = peak_cfg if decoder == "peaks" else dbn_cfg
    report = RunReport(experiment="taxonomy")

    def score(src):
        scored = _score_source(report, dataset, src, lambda rec: (spec,), eval_cfg, synth_cfg, jobs)
        return {rec.track_id: scores[spec] for rec, scores in scored}

    primary_results = score(source)
    other_results = score(intersect_source) if intersect_source else None
    config = f"{decoder}+intersect[{intersect_source}]" if other_results is not None else decoder
    counts = Counter()
    for rec in dataset:
        result = primary_results.get(rec.track_id)
        if result is None or (other_results is not None and rec.track_id not in other_results):
            continue
        row = _row(rec, source, config, eval=result)
        category = diagnostics.classify_failure(result)
        if other_results is not None and diagnostics.classify_failure(other_results[rec.track_id]) != category:
            counts["mixed"] += 1
        else:
            act = _activation_of(rec, source, synth_cfg)
            try:
                row.diagnostics = diagnostics.compute_diagnostics(act, rec.annotation)
            except NoOverlap as exc:  # the curve ends before the first annotated beat
                report.notes.append(f"{exc}; skipped")
                continue
            row.category = category
            counts[str(category)] += 1
        report.rows.append(row)
    report.summary = {"n_tracks": len(report.rows)}
    for cat in sorted(counts):
        report.summary[f"n_{cat}"] = counts[cat]
    return report


# ---------------------------------------------------------------------------
# Figure data
# ---------------------------------------------------------------------------


TEMPO_BIN_BPM = 5.0  # width of the tempo histogram's bins


def emit_figure_data(dataset: Dataset, rows=None, tempo_curve=None):
    """CSV bundles for the three figure kinds; returns {filename: csv text}.

    (a) GT tempo histogram with a marker at the default DBN minimum BPM;
    (b) activation-vs-F scatter rows; (c) tempo-curve series.
    """
    bpms = [diagnostics.tempo_stats(record.annotation).gt_bpm for record in _with_tempo(dataset)]
    histogram = []
    if bpms:
        lo = math.floor(min(bpms) / TEMPO_BIN_BPM) * TEMPO_BIN_BPM
        hi = math.ceil(max(bpms) / TEMPO_BIN_BPM) * TEMPO_BIN_BPM
        edges = np.arange(lo, hi + TEMPO_BIN_BPM, TEMPO_BIN_BPM)
        counts, _ = np.histogram(bpms, bins=edges)
        for b_lo, b_hi, count in zip(edges[:-1], edges[1:], counts):
            histogram.append((f"{b_lo:g}", f"{b_hi:g}", int(count), int(b_hi <= dbn.DbnConfig.min_bpm)))

    scatter = [(row.track_id, f"{row.diagnostics.act_at_gt:.6f}", f"{row.eval.f_measure:.6f}",
                str(row.category) if row.category else "")
               for row in sorted(rows or [], key=lambda r: r.track_id)
               if row.diagnostics is not None and row.eval is not None]
    return {
        "fig_tempo_histogram.csv": csv_text(("bin_lo", "bin_hi", "count", "below_default_min_bpm"),
                                            histogram),
        "fig_act_scatter.csv": csv_text(("track_id", "act_at_gt", "f_measure", "category"), scatter),
        "fig_tempo_curve.csv": csv_text(TEMPO_CURVE_HEADER, tempo_curve or []),
    }
