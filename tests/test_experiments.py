import concurrent.futures
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatdiag import cli, dbn, experiments, ingest, metrics, peaks, reports
from beatdiag.experiments import SynthConfig, synthesize_gt_activation
from beatdiag.ingest import BeatAnnotation, DatasetLayout
from conftest import PSEUDO_DIR, TESTS_DIR, make_grid_annotation, record_passes


def load_pseudo():
    layout = DatasetLayout(activation_dirs={"pseudo": "activations/pseudo"})
    return ingest.load_dataset(PSEUDO_DIR, layout)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_synthesize_single_beat_values():
    ref = BeatAnnotation(track_id="t", beats=np.array([1.0]))
    act = synthesize_gt_activation(ref, SynthConfig(fps=50.0))
    assert len(act) == math.ceil(2.0 * 50)
    assert act.values[50] == pytest.approx(1.0)
    assert act.values[49] == pytest.approx(np.exp(-1 / 8))
    assert act.fps == 50.0


def test_synthesize_decays_beyond_six_sigma():
    ref = BeatAnnotation(track_id="t", beats=np.array([1.0]))
    act = synthesize_gt_activation(ref, SynthConfig(fps=50.0))
    assert act.values[80:].max() < 0.01
    assert act.values.max() <= 1.0


def test_synthesize_overlap_combines_by_max():
    ref = BeatAnnotation(track_id="t", beats=np.array([1.0, 1.06]))
    act = synthesize_gt_activation(ref, SynthConfig(fps=50.0))
    assert act.values.max() <= 1.0


@pytest.mark.parametrize("sigma", [1e-300, 1e-154, 1e155, 1e300])
def test_synth_config_rejects_a_sigma_whose_square_is_not_a_normal_float(sigma):
    with pytest.raises(ValueError, match="sigma_frames squared"):
        SynthConfig(sigma_frames=sigma)


@pytest.mark.parametrize("sigma", [1.5e-154, 1e154])
def test_synthesize_at_the_extreme_sigmas_warns_of_nothing(sigma):
    ref = BeatAnnotation(track_id="t", beats=np.array([1.0, 1.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = synthesize_gt_activation(ref, SynthConfig(sigma_frames=sigma, fps=50.0)).values
    assert np.all((values >= 0) & (values <= 1))


def test_default_lambda_grid_is_the_thirteen_point_grid():
    grid = experiments.LAMBDA_GRID
    assert len(grid) == 13
    assert grid[0] == 1
    assert grid[-1] == 500
    for named in (1, 2, 5, 20, 30, 100, 500):
        assert named in grid


@given(ibi_frames=st.integers(20, 100), start_frame=st.integers(10, 30), n=st.integers(16, 40))
@settings(max_examples=15)
def test_gt_synthesis_round_trip_on_frame_aligned_grids(ibi_frames, start_frame, n):
    # Frame-aligned peaks make skipping a beat cost the full density floor,
    # so the annotated level always wins. The bar pointer keeps cycling
    # through the lead-in and the one-second synthesis tail, so up to three
    # spurious beats cap the worst case at 2n/(2n+3) (0.914 at n=16).
    fps = 50.0
    beats = (start_frame + ibi_frames * np.arange(n)) / fps
    ref = BeatAnnotation(track_id="t", beats=beats)
    act = synthesize_gt_activation(ref, SynthConfig(fps=fps))
    est = dbn.decode(act, dbn.DbnConfig(min_bpm=30.0))
    assert metrics.f_measure(est, ref.beats) >= 0.9


def test_gt_synthesis_round_trip_rubato_corpus_mean():
    # Corpus-level mirror: with fractional periods a minority of tracks can
    # track at half tempo (phase-correct), which caps the mean below 1.0.
    rng = np.random.default_rng(42)
    fs = []
    for trial in range(30):
        n = int(rng.integers(25, 50))
        base = rng.uniform(0.65, 1.5)
        ibis = base * (1 + rng.uniform(-0.1, 0.1, n - 1))
        beats = rng.uniform(0.5, 1.5) + np.concatenate(([0], np.cumsum(ibis)))
        ref = BeatAnnotation(track_id=f"t{trial}", beats=beats)
        act = synthesize_gt_activation(ref, SynthConfig())
        est = dbn.decode(act, dbn.DbnConfig(min_bpm=30.0))
        fs.append(metrics.f_measure(est, ref.beats))
    assert np.mean(fs) >= 0.9
    assert min(fs) >= 0.5


def test_gt_round_trip_fast_fractional_grid_halves_with_correct_phase():
    # Characterization: 120 BPM at 43.07 fps is a fractional 21.5-frame
    # period; tempo alternation under lambda=100 costs more than halving.
    ref = make_grid_annotation(bpm=120, start=0.5, duration=40.0)
    act = synthesize_gt_activation(ref, SynthConfig())
    est = dbn.decode(act, dbn.DbnConfig(min_bpm=30.0))
    r = metrics.evaluate(est, ref.beats)
    assert r.amlt > 0.95
    assert 0.6 < r.f_measure < 0.7


# ---------------------------------------------------------------------------
# dataset stats
# ---------------------------------------------------------------------------


def test_dataset_stats_pseudo_corpus():
    report = experiments.dataset_stats(load_pseudo())
    assert report.summary["n_tracks"] == 3
    assert report.summary["n_below_55_bpm"] == 1
    assert report.summary["median_gt_bpm"] == pytest.approx(71.16, abs=0.1)


# ---------------------------------------------------------------------------
# gt bottleneck
# ---------------------------------------------------------------------------


def test_run_gt_bottleneck_slow_corpus_recovers():
    records = []
    for i, bpm in enumerate((45, 60, 75)):
        ann = make_grid_annotation(bpm=bpm, track_id=f"t{i}")
        records.append(ingest.TrackRecord(
            track_id=f"t{i}", annotation=ann,
            metadata=ingest.TrackMetadata(track_id=f"t{i}"),
        ))
    ds = ingest.Dataset(records)
    report = experiments.run_gt_bottleneck(ds)
    assert report.summary["n_tracks"] == 3
    assert report.summary["mean_f"] >= 0.95
    assert report.summary["n_below_f_0.5"] == 0


def test_bottleneck_table_gap_definition():
    ds = load_pseudo()
    report = experiments.run_bottleneck_table([("pseudo", ds)], source="pseudo")
    header, rows = report.tables["bottleneck"]
    row = dict(zip(header, rows[0]))
    assert row["dataset"] == "pseudo"
    assert int(row["n"]) == 3
    gap = float(row["gt_dbn_f"]) - float(row["real_dbn_f"])
    assert float(row["gap"]) == pytest.approx(gap, abs=2e-3)


def test_bottleneck_table_annotations_only():
    ds = load_pseudo()
    report = experiments.run_bottleneck_table([("pseudo", ds)], source=experiments.GT_SOURCE)
    header, rows = report.tables["bottleneck"]
    row = dict(zip(header, rows[0]))
    assert row["real_peak_f"] == ""
    assert row["real_dbn_f"] == ""
    assert row["gap"] == ""
    assert row["gt_dbn_f"] != ""


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_lambda_dominance_per_track():
    ds = load_pseudo()
    for record in ds.annotated():
        act = record.activations["pseudo"]
        sweep = experiments.sweep_lambda(act, record.annotation, (1, 5, 100, 500))
        for lam, res in zip(sweep.lambdas, sweep.results):
            assert sweep.best_result.f_measure >= res.f_measure - 1e-12
        assert sweep.best_lambda in sweep.lambdas


def test_sweep_lambda_tie_prefers_smaller():
    ref = make_grid_annotation(bpm=75, start=0.5, duration=20.0)
    act = synthesize_gt_activation(ref, SynthConfig(fps=50.0))
    sweep = experiments.sweep_lambda(act, ref, (50, 100))
    if sweep.results[0].f_measure == sweep.results[1].f_measure:
        assert sweep.best_lambda == 50


def test_run_lambda_sweep_report():
    ds = load_pseudo()
    report = experiments.run_lambda_sweep(ds, "pseudo", (1, 100))
    assert report.summary["n_tracks"] == 3
    assert report.summary["optimal_mean_f"] >= report.summary["best_fixed_mean_f"] - 1e-12
    assert len(report.rows) == 3
    assert all(r.best_lambda in (1.0, 100.0) for r in report.rows)


def test_run_threshold_sweep_report():
    ds = load_pseudo()
    report = experiments.run_threshold_sweep(ds, "pseudo")
    assert report.summary["optimal_mean_f"] >= report.summary["default_mean_f"] - 1e-12
    for row in report.rows:
        assert row.eval.f_measure >= row.baseline_f - 1e-12


def test_threshold_sweep_picks_once_per_track_and_scores_each_beat_array_once(monkeypatch):
    ds = load_pseudo()
    scored, picked = [], Counter()
    evaluate_many, pick = metrics.evaluate_many, peaks._peak_frames

    def counting_evaluate_many(ests, ref, cfg=metrics.DEFAULT_EVAL):
        scored.append((ref.tobytes(), [est.tobytes() for est in ests]))
        return evaluate_many(ests, ref, cfg)

    def counting_pick(act, cfg):  # every suppression pass
        picked[act.values.tobytes()] += 1
        return pick(act, cfg)

    monkeypatch.setattr(metrics, "evaluate_many", counting_evaluate_many)
    monkeypatch.setattr(peaks, "_peak_frames", counting_pick)
    report = experiments.run_threshold_sweep(ds, "pseudo")
    monkeypatch.undo()
    assert len(picked) == 3 and set(picked.values()) == {1}
    assert len(scored) == 3 and len({ref for ref, _ in scored}) == 3  # one call per track
    assert all(len(set(ests)) == len(ests) for _, ests in scored)  # no two arrays equal
    grid = [*peaks.DEFAULT_THRESHOLD_GRID, 0.5]
    for row in report.rows:
        rec = ds[row.track_id]
        act = rec.activations["pseudo"]
        distinct = {peaks.pick_peaks(act, peaks.PeakConfig(thr)).tobytes() for thr in grid}
        assert [set(ests) for ref, ests in scored if ref == rec.annotation.beats.tobytes()] == [distinct]
        want = peaks.sweep_threshold(act, rec.annotation)
        assert (row.eval, row.best_threshold) == (want.best_result, want.best_threshold)
        assert row.baseline_f == metrics.evaluate(peaks.pick_peaks(act), rec.annotation.beats).f_measure
    assert sum(len(ests) for _, ests in scored) < 3 * len(grid)


# ---------------------------------------------------------------------------
# peak vs dbn
# ---------------------------------------------------------------------------


def test_peak_vs_dbn_matches_frozen_expectations():
    expected = json.loads((PSEUDO_DIR / "expected.json").read_text())
    ds = load_pseudo()
    report = experiments.run_peak_vs_dbn(ds, "pseudo")
    by_track = {r.track_id: r for r in report.rows}
    for track_id, want in expected["tracks"].items():
        row = by_track[track_id]
        assert row.baseline_f == pytest.approx(want["peak_f"], abs=1e-9)
        assert row.eval.f_measure == pytest.approx(want["dbn_default_f"], abs=1e-9)
        assert row.delta_f == pytest.approx(want["delta_f_dbn_minus_peak"], abs=1e-9)


def test_peak_vs_dbn_identical_outputs_count_as_unchanged():
    ref = make_grid_annotation(bpm=75, start=0.5, duration=20.0, track_id="x")
    act = synthesize_gt_activation(ref, SynthConfig(fps=50.0))
    rec = ingest.TrackRecord(track_id="x", annotation=ref,
                             metadata=ingest.TrackMetadata(track_id="x"),
                             activations={"m": act})
    report = experiments.run_peak_vs_dbn(ingest.Dataset([rec]), "m")
    row = report.rows[0]
    if abs(row.delta_f) <= experiments.HURT_MARGIN:
        assert report.summary["n_unchanged"] == 1


# ---------------------------------------------------------------------------
# tempo curve
# ---------------------------------------------------------------------------


def test_tempo_curve_with_gt_source():
    ds = load_pseudo()
    report = experiments.run_tempo_curve(ds, "pseudo", [(experiments.GT_TEMPO_SOURCE, {})])
    header, series = report.tables["tempo-curve"]
    assert [row[0] for row in series] == ["unconstrained", "gt-tempo"]
    assert all(int(row[1]) == 3 for row in series)


def test_tempo_curve_missing_estimates_are_skipped_and_counted():
    ds = load_pseudo()
    src = ("partial", {"pseudo01": 96.0})
    report = experiments.run_tempo_curve(ds, "pseudo", [src])
    header, series = report.tables["tempo-curve"]
    partial = dict(zip(header, series[1]))
    assert int(partial["n"]) == 1
    assert int(partial["n_skipped"]) == 2
    assert any("partial" in n for n in report.notes)


def test_tempo_curve_window_covering_range_equals_baseline(monkeypatch):
    ds = load_pseudo()
    cfg = dbn.DbnConfig(min_bpm=30.0, max_bpm=215.0)
    # center and window chosen so every track's effective range is [30, 215]
    source = ("cover", {r.track_id: 122.5 for r in ds.annotated()})
    calls = count_decodes(monkeypatch)
    report = experiments.run_tempo_curve(ds, "pseudo", [source], window=0.76, dbn_cfg=cfg)
    header, series = report.tables["tempo-curve"]
    assert series[0][2:5] == series[1][2:5]
    # the held window resolves to the baseline's config: one decode per track
    assert sum(calls.values()) == 3


# ---------------------------------------------------------------------------
# taxonomy
# ---------------------------------------------------------------------------


def test_taxonomy_on_pseudo_corpus():
    expected = json.loads((PSEUDO_DIR / "expected.json").read_text())
    ds = load_pseudo()
    report = experiments.run_taxonomy(ds, "pseudo", decoder="peaks")
    by_track = {r.track_id: r for r in report.rows}
    for track_id, want in expected["tracks"].items():
        assert str(by_track[track_id].category) == want["peak_category"]
        assert by_track[track_id].diagnostics is not None
    assert report.summary["n_tracks"] == 3


def test_taxonomy_intersection_mode():
    ds = load_pseudo()
    report = experiments.run_taxonomy(ds, "pseudo", decoder="peaks", intersect_source="gt-synth")
    assert report.summary["n_tracks"] == 3
    labels = {r.track_id: r.category for r in report.rows}
    # gt-synth through peaks is good everywhere, so only 'good' survives
    for track_id, category in labels.items():
        if category is not None:
            assert str(category) == "good"


# ---------------------------------------------------------------------------
# systems and axis tables
# ---------------------------------------------------------------------------


def test_systems_table_configurations():
    ds = load_pseudo()
    report = experiments.run_systems_table(ds, "pseudo", (1, 100))
    header, table = report.tables["systems"]
    configs = [row[0] for row in table]
    assert configs == [
        "peak-picking",
        "dbn-lambda=100",
        "dbn-optimal-lambda",
        "gt-tempo+optimal-lambda",
        "gt-activations+dbn",
    ]
    means = {row[0]: float(row[1]) for row in table}
    # per-track optimal lambda cannot lose to the fixed default
    assert means["dbn-optimal-lambda"] >= means["dbn-lambda=100"] - 1e-9
    # the GT-activation upper bound dominates every real-activation DBN row
    assert means["gt-activations+dbn"] >= means["dbn-lambda=100"] - 1e-9
    assert len(report.rows) == 5 * 3


def test_systems_table_constrained_rows_have_lambda():
    ds = load_pseudo()
    report = experiments.run_systems_table(ds, "pseudo", (1, 100))
    constrained = [r for r in report.rows if r.config == "gt-tempo+optimal-lambda"]
    assert len(constrained) == 3
    assert all(r.best_lambda in (1.0, 100.0) for r in constrained)


def test_axis_table_structure():
    ds = load_pseudo()
    report = experiments.run_axis_table(ds, "pseudo")
    header, table = report.tables["axis-table"]
    assert header[0] == "axis"
    assert len(table) == 8  # four axes, on and off rows
    by_key = {(r[0], r[1]): r for r in table}
    on = by_key[("tempo_instability", "on")]
    assert int(on[2]) == 2  # pseudo02 and pseudo03 carry the axis
    off = by_key[("tempo_instability", "off")]
    assert int(off[2]) == 1
    assert on[3] != ""  # act_at_gt present
    assert len(report.rows) == 3


# ---------------------------------------------------------------------------
# aggregation / reports
# ---------------------------------------------------------------------------


def test_aggregate_single_row_is_identity():
    ds = load_pseudo()
    report = experiments.run_peak_vs_dbn(ds, "pseudo")
    row = report.rows[0]
    stats = reports.aggregate([row], "category")
    assert len(stats) == 1
    assert stats[0].n == 1
    assert stats[0].means["f_measure"] == pytest.approx(row.eval.f_measure)


def test_aggregate_partition_groups_sum_to_n():
    ds = load_pseudo()
    report = experiments.run_peak_vs_dbn(ds, "pseudo")
    for group_by in ("category", "confidence", "tag_count", "bpm_band", "axis_count"):
        stats = reports.aggregate(report.rows, group_by)
        assert sum(s.n for s in stats) == len(report.rows)


def test_aggregate_by_confidence_groups():
    ds = load_pseudo()
    report = experiments.run_peak_vs_dbn(ds, "pseudo")
    stats = reports.aggregate(report.rows, "confidence")
    keys = [s.group for s in stats]
    assert keys == ["1", "2", "4"]


def test_rows_csv_round_trip():
    ds = load_pseudo()
    report = experiments.run_taxonomy(ds, "pseudo", decoder="peaks")
    text = reports.rows_to_csv(report.sorted_rows())
    back = reports.rows_from_csv(text)
    assert len(back) == len(report.rows)
    for a, b in zip(report.sorted_rows(), back):
        assert a.track_id == b.track_id
        assert a.eval.f_measure == pytest.approx(b.eval.f_measure, abs=1e-6)
        assert a.category == b.category
        assert a.axes == b.axes
    # rows.csv keeps its columns, and every experiment's rows parse back to the same bytes
    assert text.splitlines()[0] == (
        "track_id,system,config,f_measure,cmlc,cmlt,amlc,amlt,n_ref,n_est,category,act_at_gt,max_activation,"
        "peak_sharpness,periodicity_strength,entropy,false_positive_activation,gt_bpm,ibi_cv,axes,confidence,"
        "tag_count,baseline_f,delta_f,best_lambda,best_threshold")
    runs = {name: call(ds, 1) for name, call in EXPERIMENT_CALLS.items()}
    runs["gt-bottleneck"] = experiments.run_gt_bottleneck(ds)
    for name, run in runs.items():
        text = reports.rows_to_csv(run.sorted_rows())
        assert len(text.splitlines()) > 1, name
        assert reports.rows_to_csv(reports.rows_from_csv(text)) == text, name


def test_write_run_report_files(tmp_path):
    ds = load_pseudo()
    report = experiments.run_peak_vs_dbn(ds, "pseudo")
    run_dir = reports.write_run_report(report, tmp_path, {"source": "pseudo"})
    for name in ("rows.csv", "aggregates.csv", "report.txt", "manifest.txt"):
        assert (run_dir / name).exists()
    manifest = (run_dir / "manifest.txt").read_text()
    assert "toolkit_version=" in manifest
    assert "source=pseudo" in manifest


# One call per CLI experiment; small lambda grids keep the pool runs short.
EXPERIMENT_CALLS = {
    "bottleneck": lambda ds, jobs: experiments.run_bottleneck_table([("pseudo", ds)], "pseudo", jobs=jobs),
    "lambda-sweep": lambda ds, jobs: experiments.run_lambda_sweep(
        ds, "pseudo", (1, 100), jobs=jobs),
    "threshold-sweep": lambda ds, jobs: experiments.run_threshold_sweep(ds, "pseudo", jobs=jobs),
    "tempo-curve": lambda ds, jobs: experiments.run_tempo_curve(
        ds, "pseudo", [("partial", {"pseudo01": 96.0}), (experiments.GT_TEMPO_SOURCE, {})], jobs=jobs),
    "peak-vs-dbn": lambda ds, jobs: experiments.run_peak_vs_dbn(ds, "pseudo", jobs=jobs),
    "taxonomy": lambda ds, jobs: experiments.run_taxonomy(
        ds, "pseudo", intersect_source=experiments.GT_SOURCE, jobs=jobs),
    "dataset-stats": lambda ds, jobs: experiments.dataset_stats(ds),  # runs no pool
    "systems": lambda ds, jobs: experiments.run_systems_table(
        ds, "pseudo", (1, 100), jobs=jobs),
    "axis-table": lambda ds, jobs: experiments.run_axis_table(ds, "pseudo", jobs=jobs),
}


def assert_same_report(a, b):
    assert reports.rows_to_csv(a.sorted_rows()) == reports.rows_to_csv(b.sorted_rows())
    assert a.tables == b.tables
    assert a.summary == b.summary
    assert a.notes == b.notes


@pytest.mark.parametrize("name", EXPERIMENT_CALLS)
def test_report_determinism_across_jobs(name):
    # A fresh dataset per run: on one dataset the second run would find every
    # DBN decode in the dataset's cache and never reach the pool.
    a, b = (EXPERIMENT_CALLS[name](load_pseudo(), jobs) for jobs in (1, 2))
    assert_same_report(a, b)


NO_POOL_RUNS = {  # (dataset, run, runs before it on that dataset)
    "threshold-sweep": (load_pseudo, EXPERIMENT_CALLS["threshold-sweep"], 0),
    "taxonomy": (load_pseudo, EXPERIMENT_CALLS["taxonomy"], 0),  # peaks, intersected with gt-synth
    "peak-vs-dbn-warm": (load_pseudo, EXPERIMENT_CALLS["peak-vs-dbn"], 1),
    "peak-vs-dbn-one-track": (lambda: ingest.Dataset(list(load_pseudo())[:1]), EXPERIMENT_CALLS["peak-vs-dbn"], 0),
}


@pytest.mark.parametrize("name", NO_POOL_RUNS)
def test_runs_without_two_batches_to_decode_start_no_pool(name, monkeypatch):
    """With no DBN decode left to make, or one batch of them, a run at
    --jobs 2 decodes in process and writes the report of --jobs 1."""
    dataset, run, warm_ups = NO_POOL_RUNS[name]
    want = run(dataset(), 1)
    ds = dataset()
    for _ in range(warm_ups):
        run(ds, 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert_same_report(run(ds, 2), want)


def test_gt_synth_experiments_use_synth_cfg():
    # At 6 fps a frame is 167 ms, so the synthesized peaks miss the +/-70 ms
    # window on some beats; at 100 fps the DBN decodes a different curve.
    ds = load_pseudo()
    coarse, fine = SynthConfig(fps=6.0), SynthConfig(fps=100.0)
    sweep = experiments.run_threshold_sweep(ds, experiments.GT_SOURCE, synth_cfg=coarse)
    vs_dbn = experiments.run_peak_vs_dbn(ds, experiments.GT_SOURCE, synth_cfg=fine)
    for row in sweep.rows:
        ann = ds[row.track_id].annotation
        want = peaks.sweep_threshold(synthesize_gt_activation(ann, coarse), ann)
        assert (row.eval, row.best_threshold) == (want.best_result, want.best_threshold)
    for row in vs_dbn.rows:
        ann = ds[row.track_id].annotation
        assert row.eval == metrics.evaluate(dbn.decode(synthesize_gt_activation(ann, fine)), ann.beats)
    assert sweep.summary["optimal_mean_f"] < 1.0


def test_emit_figure_data_histogram_and_empty():
    ds = load_pseudo()
    bundles = experiments.emit_figure_data(ds)
    hist = bundles["fig_tempo_histogram.csv"].splitlines()
    assert hist[0] == "bin_lo,bin_hi,count,below_default_min_bpm"
    below = sum(int(r.split(",")[2]) for r in hist[1:] if r.split(",")[3] == "1")
    assert below == 1  # exactly one sub-55 BPM pseudo track
    empty = experiments.emit_figure_data(ingest.Dataset([]))
    assert empty["fig_act_scatter.csv"] == "track_id,act_at_gt,f_measure,category\n"
    assert empty["fig_tempo_curve.csv"].startswith("tempo_source,")


# ---------------------------------------------------------------------------
# the per-dataset decode cache
# ---------------------------------------------------------------------------


def _suite_stages(source):
    """``beatdiag suite``'s stages for ``source``, in run order."""
    return cli.SUITE[:-3] if source == experiments.GT_SOURCE else cli.SUITE


def run_suite_stages(dataset, source, names=None):
    """{stage: RunReport} of the suite's stages, run as the suite runs them."""
    out = {}
    for name in names or _suite_stages(source):
        args = cli.build_parser().parse_args(["experiment", name, "--source", source, "-o", "unused"])
        out[name] = cli.run_experiment(args, [("pseudo", dataset)])
    return out


# The settings each experiment reads, as it records them with no flags. All
# but dataset-stats score tracks. The five experiments that sweep or bound
# the DBN decode from 30 BPM; peak-vs-dbn, taxonomy and axis-table keep the
# stock 55 BPM floor.
_SCORED = {"jobs": 1, "trim": 0.0, "fps": 43.07, "sigma_frames": 2.0}
_DBN_30 = {"min_bpm": 30.0, "max_bpm": 215.0, "transition_lambda": 100.0, "observation_lambda": 16,
           "no_correct": False}
_DBN_55 = {**_DBN_30, "min_bpm": 55.0}
_PEAKS = {"threshold": 0.5, "min_separation": 0.1}
DEFAULT_CONFIGS = {
    "bottleneck": {**_SCORED, **_DBN_30, **_PEAKS},
    "gt-bottleneck": {**_SCORED, **_DBN_30},
    "lambda-sweep": {**_SCORED, "lambdas": None, **_DBN_30},
    "threshold-sweep": {**_SCORED, "thresholds": None, **_PEAKS},
    "tempo-curve": {**_SCORED, **_DBN_30, "tempo_window": 0.2, "tempo_file": [], "gt_tempo": False},
    "peak-vs-dbn": {**_SCORED, **_DBN_55, **_PEAKS},
    "taxonomy": {**_SCORED, **_DBN_55, **_PEAKS, "decoder": "peaks", "intersect_source": None},
    "dataset-stats": {},
    "systems": {**_SCORED, "lambdas": None, **_DBN_30, **_PEAKS, "tempo_window": 0.2},
    "axis-table": {**_SCORED, **_DBN_55, **_PEAKS, "tempo_window": 0.2},
}


def test_each_experiment_resolves_its_default_config():
    assert set(DEFAULT_CONFIGS) == set(cli.EXPERIMENTS)
    for name, report in run_suite_stages(load_pseudo(), "pseudo", DEFAULT_CONFIGS).items():
        assert report.config == {"experiment": name, "source": "pseudo", **DEFAULT_CONFIGS[name]}, name


def count_decodes(monkeypatch) -> Counter:
    """Count DBN decodes, keyed by activation, fps and config, from now on.

    Each distinct config of each request of a ``dbn.decode_batch`` call
    counts once. The call cuts its own batches at any ``jobs``, and
    ``dbn.decode`` is a batch of one, so this counts the decodes of all.
    """
    calls = Counter()
    decode_batch = dbn.decode_batch

    def counting_decode_batch(requests, jobs=1):
        requests = [(act, list(dict.fromkeys(cfgs))) for act, cfgs in requests]
        calls.update((act.values.tobytes(), act.fps, cfg) for act, cfgs in requests for cfg in cfgs)
        return decode_batch(requests, jobs)

    monkeypatch.setattr(dbn, "decode_batch", counting_decode_batch)
    return calls


def test_suite_decodes_each_activation_and_config_once(monkeypatch):
    calls = count_decodes(monkeypatch)
    run_suite_stages(load_pseudo(), "pseudo")
    # per track: one GT decode, 13 lambdas (the bottleneck's real decode is
    # lambda 100), the GT-tempo window, and peak-vs-dbn's 55 BPM floor
    assert sum(calls.values()) == 3 * (1 + 13 + 1 + 1)
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("source", ["pseudo", experiments.GT_SOURCE])
def test_suite_stages_same_on_warm_and_fresh_dataset(source):
    warm = load_pseudo()
    first, second = run_suite_stages(warm, source), run_suite_stages(warm, source)
    for name in first:
        fresh = run_suite_stages(load_pseudo(), source, [name])[name]
        assert_same_report(first[name], fresh)
        assert_same_report(second[name], fresh)


def test_decode_cache_keeps_synth_configs_and_sources_apart(monkeypatch):
    ds = load_pseudo()
    experiments.run_gt_bottleneck(ds)
    calls = count_decodes(monkeypatch)
    coarse = SynthConfig(fps=50.0)
    warm = experiments.run_gt_bottleneck(ds, coarse)
    assert sum(calls.values()) == 3  # none of the default-config decodes served
    assert_same_report(warm, experiments.run_gt_bottleneck(load_pseudo(), coarse))
    # gt-bottleneck's spec on the real activations: same spec, other source
    calls.clear()
    real = experiments.run_lambda_sweep(ds, "pseudo", (100,))
    assert sum(calls.values()) == 3
    assert_same_report(real, experiments.run_lambda_sweep(load_pseudo(), "pseudo", (100,)))


def test_warm_dataset_decodes_nothing_under_a_new_eval_config(monkeypatch):
    ds = load_pseudo()
    experiments.run_peak_vs_dbn(ds, "pseudo")
    calls = count_decodes(monkeypatch)
    strict = metrics.EvalConfig(f_window=0.03, trim_seconds=1.0)
    warm = experiments.run_peak_vs_dbn(ds, "pseudo", eval_cfg=strict)
    assert sum(calls.values()) == 0  # the decodes cached under the default config are scored again
    assert_same_report(warm, experiments.run_peak_vs_dbn(load_pseudo(), "pseudo", eval_cfg=strict))


def test_systems_table_gt_row_uses_the_decode_cache(monkeypatch):
    spec = (1, 100)
    ds = load_pseudo()
    experiments.run_gt_bottleneck(ds)
    calls = count_decodes(monkeypatch)
    warm = experiments.run_systems_table(ds, "pseudo", spec)
    # per track: lambdas 1 and 100 (100 is the fixed row), each also held to
    # the GT tempo; gt-bottleneck's decodes serve the GT row
    assert sum(calls.values()) == 3 * 4
    calls.clear()
    assert_same_report(warm, experiments.run_systems_table(load_pseudo(), "pseudo", spec))
    assert sum(calls.values()) == 3 * 5


def test_systems_table_decodes_each_state_space_in_one_call(monkeypatch):
    calls = record_passes(monkeypatch)
    ds = load_pseudo()
    report = experiments.run_systems_table(ds, "pseudo")
    assert report.summary["n_tracks"] == 3
    for rec in ds.annotated():
        act = rec.activations["pseudo"]
        held = experiments._held_to_gt_tempo(rec, dbn.TEMPO_WINDOW, experiments.SLOW_DBN)
        passes = [(key, lambdas) for values, key, lambdas in calls if values == act.values.tobytes()]
        # the free grid (with the fixed lambda-100 row among it), then the GT-held grid
        assert [key for key, _ in passes] == [dbn.space_key(experiments.SLOW_DBN, act.fps), dbn.space_key(held, act.fps)]
        assert [sorted(lambdas) for _, lambdas in passes] == [list(experiments.LAMBDA_GRID)] * 2
    # 3 tracks x 2 real spaces x 13 lambdas, and one GT copy per track
    assert len(calls) == 3 * 3
    assert sum(len(lambdas) for _, _, lambdas in calls) == 3 * 2 * 13 + 3


def test_tempo_curve_windows_with_one_state_space_share_a_pass(monkeypatch):
    # 120.0 and 120.3 BPM windows hold different BPM ranges that round to
    # the same periods: one constrained pass per track, not two
    sources = [(f"t{i}", dict.fromkeys(("pseudo01", "pseudo02", "pseudo03"), bpm))
               for i, bpm in enumerate((120.0, 120.3))]
    calls = record_passes(monkeypatch)
    report = experiments.run_tempo_curve(load_pseudo(), "pseudo", sources)
    assert len(calls) == 3 * 2
    rows = {}
    for row in report.rows:
        rows.setdefault(row.track_id, {})[row.config] = row.eval
    assert len(rows) == 3
    for by_config in rows.values():
        assert by_config["constrained[t0]"] == by_config["constrained[t1]"]
    series = {row[0]: row[1:] for row in report.tables["tempo-curve"][1]}
    assert series["t0"] == series["t1"]


ZERO_TRACK_RUNS = {
    "systems-trim": ["systems", "--trim", "1000"],
    "bottleneck-trim": ["bottleneck", "--trim", "1000"],
    "gt-bottleneck-trim": ["gt-bottleneck", "--trim", "1000"],
    "systems-fps2": ["systems", "--fps", "2"],  # every GT curve is undecodable
    "bottleneck-fps2": ["bottleneck", "--fps", "2"],  # a real column and no GT one
}


@pytest.mark.parametrize("name", ZERO_TRACK_RUNS)
def test_zero_track_reports_have_empty_cells(name, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["experiment", *ZERO_TRACK_RUNS[name], "--dataset", f"p={PSEUDO_DIR}", "--source", "pseudo",
                         "-o", str(tmp_path)]) == 0
    assert not re.search(r"\bnan\b", capsys.readouterr().out)
    written = [path for path in tmp_path.rglob("*") if path.suffix in (".txt", ".csv")]
    assert any(path.name == "report.txt" for path in written)
    for path in written:
        assert not re.search(r"\bnan\b", path.read_text()), path.name


@pytest.mark.parametrize("source", ["pseudo", experiments.GT_SOURCE])
def test_suite_report_files_same_at_any_jobs(tmp_path, source):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(TESTS_DIR.parent / "src"),
                                                                     os.environ.get("PYTHONPATH")]))}
    files = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        subprocess.run([sys.executable, "-m", "beatdiag.cli", "suite", str(PSEUDO_DIR),
                        "--source", source, "--jobs", jobs, "-o", str(out)], env=env, check=True,
                       capture_output=True)
        # a manifest records the jobs setting itself
        files.append({path.relative_to(out).as_posix(): path.read_bytes().replace(f"jobs={jobs}\n".encode(), b"")
                      for path in sorted(out.rglob("*")) if path.is_file()})
    assert {name.split("/")[0] for name in files[0]} == set(_suite_stages(source))
    assert files[0] == files[1]


def mixed_rate_root(tmp_path):
    """The pseudo corpus with its activations rewritten at two frame rates
    and three lengths: noisy Gaussian pulses on the annotated beats."""
    root = tmp_path / "mixed"
    shutil.copytree(PSEUDO_DIR, root)
    rng = np.random.default_rng(11)
    for rec, fps, seconds in zip(load_pseudo(), (43.07, 50.0, 43.07), (30.0, 25.0, 27.5)):
        curve = synthesize_gt_activation(rec.annotation, SynthConfig(fps=fps)).values[:int(seconds * fps)]
        values = np.clip(0.7 * curve + rng.uniform(0, 0.3, len(curve)), 0, 1)
        ingest.write_activation(ingest.ActivationCurve(values=values, fps=fps, source_label="pseudo"),
                                root / "activations" / "pseudo" / f"{rec.track_id}.act")
    return root


MIXED_RATE_RUNS = {
    "tempo-curve": ["tempo-curve", "--gt-tempo"],
    "systems": ["systems", "--lambdas", "1,20,100"],
    "lambda-sweep": ["lambda-sweep"],
}


@pytest.mark.parametrize("name", MIXED_RATE_RUNS)
def test_reports_same_at_any_jobs_on_mixed_rates_and_lengths(tmp_path, name):
    """Batches of tracks with unequal frame rates and lengths, cut
    differently at --jobs 1 and 2, write the same report bytes."""
    root = mixed_rate_root(tmp_path)
    files = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert cli.main(["experiment", *MIXED_RATE_RUNS[name], "--dataset", f"m={root}", "--source", "pseudo",
                         "--jobs", jobs, "-o", str(out)]) == 0
        files.append({path.relative_to(out).as_posix(): path.read_bytes().replace(f"jobs={jobs}\n".encode(), b"")
                      for path in sorted(out.rglob("*")) if path.is_file()})
    rows = reports.rows_from_csv(files[0][f"{name}/rows.csv"].decode())
    assert {row.track_id for row in rows} == {"pseudo01", "pseudo02", "pseudo03"}
    assert files[0] == files[1]


def test_gt_curves_are_synthesized_once_per_dataset_track_and_config(monkeypatch):
    calls = Counter()
    synthesize = experiments.synthesize_gt_activation

    def counting_synthesize(ref, cfg=SynthConfig()):
        calls[ref.track_id, cfg] += 1
        return synthesize(ref, cfg)

    monkeypatch.setattr(experiments, "synthesize_gt_activation", counting_synthesize)
    ds = load_pseudo()
    experiments.run_gt_bottleneck(ds)
    experiments.run_taxonomy(ds, experiments.GT_SOURCE, decoder="dbn")  # diagnostics read the curve too
    experiments.run_axis_table(ds, experiments.GT_SOURCE)
    assert sum(calls.values()) == 3
    assert set(calls.values()) == {1}


# ---------------------------------------------------------------------------
# tracks with too few annotated beats
# ---------------------------------------------------------------------------


def short_annotation_dataset():
    """The pseudo corpus with pseudo01's annotation emptied and pseudo02's cut to two beats."""
    records = []
    for rec, keep in zip(load_pseudo(), (0, 2, None)):
        ann = BeatAnnotation(rec.track_id, rec.annotation.beats[:keep])
        records.append(ingest.TrackRecord(rec.track_id, ann, rec.metadata, rec.activations))
    return ingest.Dataset(records)


@pytest.mark.parametrize("name", EXPERIMENT_CALLS)
def test_tracks_with_short_annotations_are_skipped_and_listed(name):
    """The skip note comes first, before the experiment's own notes, and
    no note is listed twice."""
    report = EXPERIMENT_CALLS[name](short_annotation_dataset(), 1)
    scored = {row.track_id for row in report.rows}
    if name in ("systems", "axis-table", "dataset-stats"):  # these need tempo statistics
        assert scored == {"pseudo03"}
        skipped = "2 track(s) with <3 beats skipped: ['pseudo01', 'pseudo02']"
    else:
        assert "pseudo01" not in scored and {"pseudo02", "pseudo03"} <= scored
        skipped = ("pseudo: " if name == "bottleneck" else "") + "1 track(s) with <2 beats skipped: ['pseudo01']"
    assert report.notes[0] == skipped
    assert len(set(report.notes)) == len(report.notes)
    if name == "tempo-curve":  # pseudo02 has no GT tempo to hold the decoder to
        assert "tempo source 'gt-tempo': 1 track(s) without estimate" in report.notes[1:]
