"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 1-3 exercise the real SMC annotation corpus and are skipped unless
it is available: point BEATDIAG_SMC_DIR (or place the files under data/smc)
at a directory containing the 217 annotation files, either directly or in a
beats/ subdirectory. Everything else is self-contained and always runs.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from beatdiag import dbn, diagnostics, experiments, ingest, metrics, reports
from beatdiag.diagnostics import FailureCategory
from beatdiag.experiments import SynthConfig, synthesize_gt_activation
from beatdiag.ingest import ActivationCurve, BeatAnnotation, DatasetLayout
from conftest import DATA_DIR, PSEUDO_DIR
from oracles import dense_model, dense_viterbi_score, f_measure_oracle, score_path

REPO_ROOT = Path(__file__).resolve().parent.parent


def report_line(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# SMC corpus discovery (criteria 1-3)
# ---------------------------------------------------------------------------


def smc_annotations():
    root = Path(os.environ.get("BEATDIAG_SMC_DIR", REPO_ROOT / "data" / "smc"))
    candidates = [root / "beats", root / "annotations", root]
    beats_dir = next(
        (d for d in candidates if d.is_dir() and any(
            p.suffix in (".beats", ".txt") for p in d.iterdir() if p.is_file())),
        None,
    )
    if beats_dir is None:
        pytest.skip(
            "SMC annotations not found: set BEATDIAG_SMC_DIR to a directory "
            "holding the 217 SMC annotation files (optionally under beats/)"
        )
    ds = ingest.load_dataset(beats_dir.parent, DatasetLayout(beats_dir=beats_dir.name, tags_dir=None))
    assert len(ds) == 217, f"expected 217 SMC annotations, found {len(ds)}"
    return ds


# ---------------------------------------------------------------------------
# Criterion 1: GT-activation bottleneck on SMC
# ---------------------------------------------------------------------------


def test_c1_gt_bottleneck_on_smc():
    ds = smc_annotations()
    start = time.monotonic()
    report = experiments.run_gt_bottleneck(
        ds,
        synth_cfg=SynthConfig(sigma_frames=2.0, fps=43.07),
        dbn_cfg=dbn.DbnConfig(min_bpm=30.0, max_bpm=215.0, transition_lambda=100.0),
    )
    elapsed = time.monotonic() - start
    mean_f = report.summary["mean_f"]
    n_low = report.summary["n_below_f_0.5"]
    ok = abs(mean_f - 0.924) <= 0.01 and n_low <= 4 and elapsed < 300
    report_line(
        "C1", ok,
        f"GT+DBN corpus mean F={mean_f:.4f} (target 0.924 +/- 0.01), "
        f"{n_low} track(s) below F=0.5 (limit 4), runtime {elapsed:.0f}s (limit 300s)",
    )
    assert abs(mean_f - 0.924) <= 0.01
    assert n_low <= 4
    assert elapsed < 300


# ---------------------------------------------------------------------------
# Criterion 2: SMC dataset statistics
# ---------------------------------------------------------------------------


def test_c1_gt_bottleneck_mirror_at_smc_scale():
    # Same machinery and budget as C1, on 217 synthetic rubato tracks whose
    # tempo distribution mimics the target corpus (median ~71 BPM, ~21%
    # below 55). Checks scale and runtime, not the corpus-specific value.
    rng = np.random.default_rng(217)
    records = []
    for i in range(217):
        bpm = float(np.exp(rng.normal(np.log(71.0), 0.33)))
        bpm = min(max(bpm, 31.0), 210.0)
        n = int(40.0 / (60.0 / bpm)) + 1
        ibis = (60.0 / bpm) * (1 + rng.uniform(-0.08, 0.08, n - 1))
        beats = rng.uniform(0.3, 1.2) + np.concatenate(([0], np.cumsum(ibis)))
        ann = BeatAnnotation(track_id=f"synth{i:03d}", beats=beats)
        records.append(ingest.TrackRecord(
            track_id=ann.track_id, annotation=ann,
            metadata=ingest.TrackMetadata(track_id=ann.track_id),
        ))
    ds = ingest.Dataset(records)
    start = time.monotonic()
    report = experiments.run_gt_bottleneck(ds)
    elapsed = time.monotonic() - start
    mean_f = report.summary["mean_f"]
    ok = mean_f >= 0.9 and elapsed < 300
    report_line(
        "C1-mirror", ok,
        f"GT+DBN on 217 synthetic rubato tracks: mean F={mean_f:.4f} (>= 0.9), "
        f"{report.summary['n_below_f_0.5']} below 0.5, runtime {elapsed:.0f}s (limit 300s)",
    )
    assert mean_f >= 0.9
    assert elapsed < 300


def test_c2_smc_dataset_statistics():
    ds = smc_annotations()
    report = experiments.dataset_stats(ds)
    s = report.summary
    ok = (
        abs(s["median_gt_bpm"] - 70.9) <= 0.2
        and s["n_below_55_bpm"] == 45
        and s["n_below_60_bpm"] == 61
        and abs(s["median_ibi_cv"] - 0.091) <= 0.003
    )
    report_line(
        "C2", ok,
        f"median tempo {s['median_gt_bpm']:.2f} BPM (70.9 +/- 0.2), "
        f"{s['n_below_55_bpm']} below 55 (=45), {s['n_below_60_bpm']} below 60 (=61), "
        f"median IBI CV {s['median_ibi_cv']:.4f} (0.091 +/- 0.003)",
    )
    assert abs(s["median_gt_bpm"] - 70.9) <= 0.2
    assert s["n_below_55_bpm"] == 45
    assert s["n_below_60_bpm"] == 61
    assert abs(s["median_ibi_cv"] - 0.091) <= 0.003


# ---------------------------------------------------------------------------
# Criterion 3: min_bpm widening on the slow subset
# ---------------------------------------------------------------------------


def _widening_effect(records):
    gaps = []
    f55 = []
    f30 = []
    for record in records:
        act = synthesize_gt_activation(record.annotation, SynthConfig())
        r55 = metrics.evaluate(dbn.decode(act, dbn.DbnConfig(min_bpm=55.0)), record.annotation.beats)
        r30 = metrics.evaluate(dbn.decode(act, dbn.DbnConfig(min_bpm=30.0)), record.annotation.beats)
        gaps.append(r55.amlt - r55.f_measure)
        f55.append(r55.f_measure)
        f30.append(r30.f_measure)
    return float(np.median(gaps)), float(np.mean(f30) - np.mean(f55))


def test_c3_min_bpm_widening_on_smc_slow_tracks():
    ds = smc_annotations()
    slow = [
        r for r in ds
        if len(r.annotation.beats) >= 3 and diagnostics.tempo_stats(r.annotation).gt_bpm < 55.0
    ]
    assert len(slow) == 45
    median_gap, mean_gain = _widening_effect(slow)
    ok = median_gap > 0.25 and mean_gain >= 0.3
    report_line(
        "C3", ok,
        f"sub-55-BPM subset (n={len(slow)}): median(AMLt - F) at min_bpm=55 is "
        f"{median_gap:.3f} (> 0.25), widening to 30 raises mean F by {mean_gain:.3f} (>= 0.3)",
    )
    assert median_gap > 0.25
    assert mean_gain >= 0.3


def test_c3_min_bpm_widening_synthetic_mirror():
    rng = np.random.default_rng(7)
    records = []
    for i, bpm in enumerate((36, 38, 40, 42, 45, 48, 50, 52)):
        ibis = (60.0 / bpm) * (1 + rng.uniform(-0.04, 0.04, 30))
        beats = 0.7 + np.concatenate(([0], np.cumsum(ibis)))
        ann = BeatAnnotation(track_id=f"slow{i}", beats=beats)
        records.append(ingest.TrackRecord(
            track_id=ann.track_id, annotation=ann,
            metadata=ingest.TrackMetadata(track_id=ann.track_id),
        ))
    median_gap, mean_gain = _widening_effect(records)
    ok = median_gap > 0.25 and mean_gain >= 0.3
    report_line(
        "C3-mirror", ok,
        f"synthetic sub-55 corpus (n={len(records)}): median octave gap {median_gap:.3f}, "
        f"mean F gain from widening {mean_gain:.3f}",
    )
    assert median_gap > 0.25
    assert mean_gain >= 0.3


# ---------------------------------------------------------------------------
# Criterion 4: metric oracle equivalence
# ---------------------------------------------------------------------------


def test_c4_f_measure_matches_brute_force_on_1000_instances():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(1000):
        n_est = int(rng.integers(0, 13))
        n_ref = int(rng.integers(0, 13))
        est = np.sort(rng.uniform(0, 12, n_est))
        ref = np.sort(rng.uniform(0, 12, n_ref))
        got = metrics.f_measure(est, ref)
        want = f_measure_oracle(list(est), list(ref), 0.07)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9
    report_line("C4a", True, f"F-measure == exhaustive matching oracle on 1000 instances "
                             f"(max |diff| = {worst:.2e})")


def test_c4_continuity_matches_golden_fixtures():
    fixtures = json.loads((DATA_DIR / "golden_continuity.json").read_text())
    assert len(fixtures) == 50
    worst = 0.0
    for fx in fixtures:
        est = np.asarray(fx["est"])
        ref = np.asarray(fx["ref"])
        cmlc, cmlt, amlc, amlt = metrics.continuity(est, ref)
        for got, key in ((cmlc, "cmlc"), (cmlt, "cmlt"), (amlc, "amlc"), (amlt, "amlt")):
            worst = max(worst, abs(got - fx[key]))
            assert abs(got - fx[key]) <= 1e-9, fx["name"]
    report_line("C4b", True, f"continuity == 50 golden fixtures from the independent "
                             f"implementation (max |diff| = {worst:.2e})")


# ---------------------------------------------------------------------------
# Criterion 5: Viterbi exactness
# ---------------------------------------------------------------------------


def test_c5_viterbi_exact_on_200_random_instances():
    rng = np.random.default_rng(555)
    worst = 0.0
    n_done = 0
    while n_done < 200:
        fps = rng.uniform(20, 100)
        min_bpm = rng.uniform(40, 200)
        max_bpm = min(min_bpm * rng.uniform(1.0, 2.5), 60.0 * fps / 2.0)
        if max_bpm < min_bpm:
            continue
        cfg = dbn.DbnConfig(
            min_bpm=min_bpm,
            max_bpm=max_bpm,
            transition_lambda=float(rng.choice([1, 5, 30, 100, 400])),
            observation_lambda=int(rng.choice([2, 8, 16])),
        )
        tau_min = int(round(60 * fps / cfg.max_bpm))
        tau_max = int(round(60 * fps / cfg.min_bpm))
        if tau_min < 2 or tau_max < tau_min:
            continue
        if sum(range(tau_min, tau_max + 1)) > 200:
            continue
        n_frames = int(rng.integers(1, 31))
        values = rng.uniform(0, 1, n_frames)
        act = ActivationCurve(values=values, fps=fps, source_label="r")
        path, logp = dbn.viterbi(act, cfg)
        init, trans, obs = dense_model(
            cfg.min_bpm, cfg.max_bpm, cfg.transition_lambda, cfg.observation_lambda, fps, values
        )
        diff = abs(dense_viterbi_score(init, trans, obs) - logp)
        path_diff = abs(score_path(path, init, trans, obs) - logp)
        worst = max(worst, diff, path_diff)
        assert diff <= 1e-9
        assert path_diff <= 1e-9
        n_done += 1
    report_line("C5", True, f"Viterbi log score == exhaustive dense DP on 200 instances "
                            f"(max |diff| = {worst:.2e})")


# ---------------------------------------------------------------------------
# Criterion 6: sweep dominance
# ---------------------------------------------------------------------------


def _test_corpora():
    layout = DatasetLayout(activation_dirs={"pseudo": "activations/pseudo"})
    yield "pseudo", ingest.load_dataset(PSEUDO_DIR, layout), "pseudo"

    rng = np.random.default_rng(31)
    records = []
    for i, bpm in enumerate((45, 60, 72, 90)):
        ibis = (60.0 / bpm) * (1 + rng.uniform(-0.06, 0.06, 25))
        beats = 0.6 + np.concatenate(([0], np.cumsum(ibis)))
        ann = BeatAnnotation(track_id=f"syn{i}", beats=beats)
        clean = synthesize_gt_activation(ann, SynthConfig())
        noisy = np.clip(clean.values * rng.uniform(0.55, 0.95)
                        + rng.uniform(0, 0.25, len(clean.values)), 0, 1)
        act = ActivationCurve(values=noisy, fps=clean.fps, source_label="noisy")
        records.append(ingest.TrackRecord(
            track_id=ann.track_id, annotation=ann,
            metadata=ingest.TrackMetadata(track_id=ann.track_id),
            activations={"noisy": act},
        ))
    yield "synthetic", ingest.Dataset(records), "noisy"


def test_c6_sweep_dominance_everywhere():
    lambda_violations = 0
    threshold_violations = 0
    n_tracks = 0
    for name, ds, source in _test_corpora():
        lam_report = experiments.run_lambda_sweep(ds, source)
        fixed_lambda_f = {}
        for record in ds:
            act = record.activations[source]
            for lam in experiments.LAMBDA_GRID:
                cfg = dbn.DbnConfig(min_bpm=30.0, transition_lambda=float(lam))
                est = dbn.decode(act, cfg)
                f = metrics.f_measure(est, record.annotation.beats)
                fixed_lambda_f.setdefault(record.track_id, []).append(f)
        for row in lam_report.rows:
            n_tracks += 1
            if any(row.eval.f_measure < f - 1e-12 for f in fixed_lambda_f[row.track_id]):
                lambda_violations += 1
        thr_report = experiments.run_threshold_sweep(ds, source)
        for row in thr_report.rows:
            if row.eval.f_measure < row.baseline_f - 1e-12:
                threshold_violations += 1
    ok = lambda_violations == 0 and threshold_violations == 0
    report_line(
        "C6", ok,
        f"per-track optimal lambda >= every fixed lambda and optimal threshold >= default "
        f"threshold on {n_tracks} tracks across 2 corpora "
        f"({lambda_violations} + {threshold_violations} violations)",
    )
    assert lambda_violations == 0
    assert threshold_violations == 0


# ---------------------------------------------------------------------------
# Criterion 7: taxonomy totality
# ---------------------------------------------------------------------------


def test_c7_taxonomy_totality_and_fixture_cases():
    rng = np.random.default_rng(77)
    categories = set(FailureCategory)
    for _ in range(10_000):
        amlt = rng.uniform()
        cmlt = rng.uniform() * amlt
        amlc = rng.uniform() * amlt
        cmlc = rng.uniform() * min(cmlt, amlc)
        r = metrics.EvalResult(
            f_measure=rng.uniform(), cmlc=cmlc, cmlt=cmlt, amlc=amlc, amlt=amlt,
            n_ref=10, n_est=10,
        )
        assert diagnostics.classify_failure(r) in categories

    def make(f, cmlc=0.0, cmlt=0.0, amlc=0.0, amlt=0.0):
        return metrics.EvalResult(f, cmlc, cmlt, amlc, amlt, 10, 10)

    fixtures = [
        (make(0.85, amlt=0.9), FailureCategory.GOOD),
        (make(0.25, amlt=0.25), FailureCategory.TOTAL_FAILURE),
        (make(0.5, cmlc=0.2, cmlt=0.5, amlc=0.6, amlt=0.9), FailureCategory.OCTAVE_ERROR),
        (make(0.5, cmlc=0.2, cmlt=0.5, amlc=0.5, amlt=0.6), FailureCategory.CONTINUITY_ERROR),
        (make(0.5, cmlc=0.4, cmlt=0.5, amlc=0.5, amlt=0.6), FailureCategory.OTHER),
    ]
    for r, want in fixtures:
        assert diagnostics.classify_failure(r) is want
    report_line("C7", True, "classify_failure assigned exactly one category to 10000 random "
                            "results; all 5 threshold fixtures classify as specified")


# ---------------------------------------------------------------------------
# Criterion 8: end-to-end pipeline smoke on the bundled pseudo corpus
# ---------------------------------------------------------------------------


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "beatdiag.cli", *args],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )


def test_c8_pipeline_smoke_on_bundled_pseudo_corpus(tmp_path):
    expected = json.loads((PSEUDO_DIR / "expected.json").read_text())
    acts = PSEUDO_DIR / "activations" / "pseudo"
    beats = PSEUDO_DIR / "beats"
    tags = PSEUDO_DIR / "tags"

    proc = _run_cli([
        "experiment", "peak-vs-dbn",
        "--beats-dir", str(beats), "--tags-dir", str(tags),
        "--activations", f"pseudo={acts}", "--source", "pseudo",
        "-o", str(tmp_path),
    ])
    assert proc.returncode == 0, proc.stderr
    rows = reports.rows_from_csv((tmp_path / "peak-vs-dbn" / "rows.csv").read_text())
    by_track = {r.track_id: r for r in rows}
    worst = 0.0
    for track_id, want in expected["tracks"].items():
        row = by_track[track_id]
        worst = max(
            worst,
            abs(row.baseline_f - want["peak_f"]),
            abs(row.eval.f_measure - want["dbn_default_f"]),
            abs(row.delta_f - want["delta_f_dbn_minus_peak"]),
        )
        assert abs(row.baseline_f - want["peak_f"]) < 1e-6
        assert abs(row.eval.f_measure - want["dbn_default_f"]) < 1e-6

    proc = _run_cli([
        "decode", "--dbn", "--min-bpm", "30", str(acts), "-o", str(tmp_path / "decoded"),
    ])
    assert proc.returncode == 0, proc.stderr
    decoded = {p.stem: ingest.load_beats(p) for p in sorted((tmp_path / "decoded").glob("*.beats"))}
    assert set(decoded) == set(expected["tracks"])
    for track_id, want in expected["tracks"].items():
        ref = ingest.load_beats(beats / f"{track_id}.beats")
        f = metrics.f_measure(decoded[track_id].beats, ref.beats)
        assert abs(f - want["dbn_min30_f"]) < 5e-3  # beats serialized at ms precision

    proc = _run_cli([
        "eval", "--est", str(tmp_path / "decoded"), "--ref", str(beats),
    ])
    assert proc.returncode == 0, proc.stderr
    assert "mean over 3 track(s)" in proc.stdout
    report_line("C8", True, f"CLI experiment + decode + eval round trip on the 3 bundled "
                            f"pseudo-model tracks matches frozen outputs (max |diff| = {worst:.2e})")


def test_pseudo_corpus_generator_reproduces_the_bundled_corpus(tmp_path, monkeypatch):
    """scripts/generate_pseudo_activations.py, pointed at an empty
    directory, writes every file of the bundled corpus byte for byte."""
    spec = importlib.util.spec_from_file_location("generate_pseudo_activations",
                                                  REPO_ROOT / "scripts" / "generate_pseudo_activations.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "ROOT", tmp_path)
    generator.main()
    written, bundled = ({path.relative_to(root).as_posix(): path.read_bytes()
                         for path in root.rglob("*") if path.is_file()} for root in (tmp_path, PSEUDO_DIR))
    assert sorted(written) == sorted(bundled)
    assert written == bundled
