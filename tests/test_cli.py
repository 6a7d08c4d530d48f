import contextlib
import csv
import io
import shutil
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from beatdiag import cli, experiments, ingest, reports
from beatdiag.experiments import MAX_SYNTH_FRAMES, SynthConfig, synthesize_gt_activation
from beatdiag.ingest import ActivationCurve, BeatAnnotation, write_activation, write_beats
from conftest import PSEUDO_DIR, TESTS_DIR, make_grid_annotation
from test_experiments import DEFAULT_CONFIGS


def run(argv):
    return cli.main(argv)


def _write_mini_inputs(tmp_path, bpms=(72, 96)):
    beats_dir = tmp_path / "beats"
    acts_dir = tmp_path / "acts"
    beats_dir.mkdir()
    acts_dir.mkdir()
    for i, bpm in enumerate(bpms):
        ref = make_grid_annotation(bpm=bpm, start=0.5, duration=20.0, track_id=f"trk{i}")
        write_beats(ref.beats, beats_dir / f"trk{i}.beats")
        act = synthesize_gt_activation(ref, SynthConfig(fps=50.0))
        write_activation(act, acts_dir / f"trk{i}.act")
    return beats_dir, acts_dir


def test_decode_dbn_round_trip(tmp_path, capsys):
    beats_dir, acts_dir = _write_mini_inputs(tmp_path)
    out = tmp_path / "out"
    code = run(["decode", "--dbn", "--min-bpm", "30", str(acts_dir), "-o", str(out)])
    assert code == 0
    written = sorted(out.glob("*.beats"))
    assert len(written) == 2
    ann = ingest.load_beats(written[0])  # round-trips through the parser
    assert len(ann.beats) > 10
    assert (out / "manifest.txt").exists()
    assert "min_bpm=30" in (out / "manifest.txt").read_text()


def test_decode_peaks(tmp_path):
    beats_dir, acts_dir = _write_mini_inputs(tmp_path)
    out = tmp_path / "out"
    assert run(["decode", "--peaks", "--threshold", "0.5", str(acts_dir), "-o", str(out)]) == 0
    assert len(list(out.glob("*.beats"))) == 2


def test_decode_constrained_requires_tempo_file(tmp_path):
    _, acts_dir = _write_mini_inputs(tmp_path)
    out = tmp_path / "out"
    assert run(["decode", "--dbn-constrained", str(acts_dir), "-o", str(out)]) == 1


def test_decode_constrained_with_tempo_file(tmp_path):
    beats_dir, acts_dir = _write_mini_inputs(tmp_path)
    tempo = tmp_path / "tempo.csv"
    tempo.write_text("track_id,bpm,source_label\ntrk0,72,gt\ntrk1,96,gt\n")
    out = tmp_path / "out"
    assert run([
        "decode", "--dbn-constrained", str(acts_dir), "-o", str(out), "--tempo-file", str(tempo),
    ]) == 0
    assert len(list(out.glob("*.beats"))) == 2


def test_decode_missing_fps_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.act"
    bad.write_text("0.5\n0.6\n")
    out = tmp_path / "out"
    assert run(["decode", "--dbn", str(bad), "-o", str(out)]) == 1
    assert "bad.act" in capsys.readouterr().err


def test_eval_perfect_copy(tmp_path, capsys):
    beats_dir, _ = _write_mini_inputs(tmp_path)
    assert run(["eval", "--est", str(beats_dir), "--ref", str(beats_dir)]) == 0
    out = capsys.readouterr().out
    assert "F=1.000" in out
    assert "CMLt=1.000" in out


def test_eval_trim_flag(tmp_path, capsys):
    beats_dir = tmp_path / "ref"
    est_dir = tmp_path / "est"
    beats_dir.mkdir()
    est_dir.mkdir()
    ref = make_grid_annotation(bpm=60, start=1.0, duration=20.0, track_id="a")
    write_beats(ref.beats, beats_dir / "a.beats")
    write_beats(np.concatenate([[0.2], ref.beats[ref.beats >= 5.0]]), est_dir / "a.beats")
    assert run(["eval", "--est", str(est_dir), "--ref", str(beats_dir), "--trim", "5"]) == 0
    assert "F=1.000" in capsys.readouterr().out


def test_eval_mismatched_ids_exit_one(tmp_path, capsys):
    beats_dir, _ = _write_mini_inputs(tmp_path)
    other = tmp_path / "other"
    other.mkdir()
    write_beats([1.0, 2.0], other / "zz.beats")
    assert run(["eval", "--est", str(other), "--ref", str(beats_dir)]) == 1
    err = capsys.readouterr().err
    assert "zz" in err and "trk0" in err


def test_diagnose_csv(tmp_path, capsys):
    beats_dir, acts_dir = _write_mini_inputs(tmp_path)
    assert run(["diagnose", "--activations", str(acts_dir), "--beats", str(beats_dir)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("track_id,act_at_gt,")
    assert len(out.strip().splitlines()) == 3


def test_synth_gt_then_decode_round_trip(tmp_path):
    beats_dir, _ = _write_mini_inputs(tmp_path)
    synth_dir = tmp_path / "synth"
    assert run([
        "synth-gt", "--beats", str(beats_dir), "-o", str(synth_dir), "--fps", "50",
    ]) == 0
    act = ingest.load_activation(sorted(synth_dir.glob("*.act"))[0])
    assert act.fps == 50.0


def test_experiment_dataset_stats_prints_median(tmp_path, capsys):
    out = tmp_path / "run"
    assert run([
        "experiment", "dataset-stats",
        "--beats-dir", str(PSEUDO_DIR / "beats"),
        "--tags-dir", str(PSEUDO_DIR / "tags"),
        "-o", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "median_gt_bpm" in stdout
    assert (out / "dataset-stats" / "rows.csv").exists()
    assert (out / "dataset-stats" / "fig_tempo_histogram.csv").exists()


def test_experiment_unknown_name_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["experiment", "frobnicate", "-o", str(tmp_path)])
    assert exc.value.code == 2


def test_report_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    run([
        "experiment", "taxonomy",
        "--beats-dir", str(PSEUDO_DIR / "beats"),
        "--tags-dir", str(PSEUDO_DIR / "tags"),
        "--activations", f"pseudo={PSEUDO_DIR / 'activations' / 'pseudo'}",
        "--source", "pseudo",
        "-o", str(out),
    ])
    capsys.readouterr()
    rows_csv = out / "taxonomy" / "rows.csv"
    assert run(["report", str(rows_csv), "--group-by", "category"]) == 0
    stdout = capsys.readouterr().out
    assert "group" in stdout
    assert "good" in stdout


def test_experiment_bottleneck_with_dataset_roots(tmp_path, capsys):
    out = tmp_path / "run"
    assert run([
        "experiment", "bottleneck",
        "--dataset", f"mini={PSEUDO_DIR}",
        "--source", "pseudo",
        "-o", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "bottleneck" in stdout
    report_txt = (out / "bottleneck" / "report.txt").read_text()
    assert "mini" in report_txt
    assert "gt_dbn_f" in report_txt


def test_experiment_trim_past_a_tracks_beats_skips_and_lists_it(tmp_path):
    corpus = tmp_path / "pseudo"
    shutil.copytree(PSEUDO_DIR, corpus)
    write_beats(np.array([0.8, 1.2, 1.6, 2.0]), corpus / "beats" / "pseudo02.beats")
    out = tmp_path / "run"
    assert run([
        "experiment", "peak-vs-dbn", "--dataset", f"p={corpus}", "--source", "pseudo", "--trim", "5",
        "-o", str(out),
    ]) == 0
    report_txt = (out / "peak-vs-dbn" / "report.txt").read_text()
    assert "1 track(s) with <2 beats skipped: ['pseudo02']" in report_txt
    rows = (out / "peak-vs-dbn" / "rows.csv").read_text()
    assert "pseudo01" in rows and "pseudo02" not in rows


def test_experiment_lambda_sweep_cli(tmp_path, capsys):
    out = tmp_path / "run"
    assert run([
        "experiment", "lambda-sweep",
        "--beats-dir", str(PSEUDO_DIR / "beats"),
        "--activations", f"pseudo={PSEUDO_DIR / 'activations' / 'pseudo'}",
        "--source", "pseudo",
        "--lambdas", "1,100",
        "-o", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "optimal_mean_f" in stdout
    rows = (out / "lambda-sweep" / "rows.csv").read_text().splitlines()
    assert len(rows) == 4  # header + 3 tracks


def test_experiment_tempo_curve_cli_with_tempo_file(tmp_path, capsys):
    tempo = tmp_path / "tempo.csv"
    tempo.write_text(
        "track_id,bpm,source_label\npseudo01,96,est\npseudo02,90,est\npseudo03,72,est\n"
    )
    out = tmp_path / "run"
    assert run([
        "experiment", "tempo-curve",
        "--beats-dir", str(PSEUDO_DIR / "beats"),
        "--activations", f"pseudo={PSEUDO_DIR / 'activations' / 'pseudo'}",
        "--source", "pseudo",
        "--tempo-file", f"est={tempo}",
        "--gt-tempo",
        "-o", str(out),
    ]) == 0
    curve = (out / "tempo-curve" / "fig_tempo_curve.csv").read_text().splitlines()
    assert curve[0].startswith("tempo_source,")
    labels = [line.split(",")[0] for line in curve[1:]]
    assert labels == ["unconstrained", "est", "gt-tempo"]


@pytest.mark.parametrize("row", ["pseudo01,nan,est", "pseudo01,inf,est", "pseudo01"])
def test_experiment_tempo_curve_bad_tempo_file_exits_one(tmp_path, capsys, row):
    tempo = tmp_path / "bad.csv"
    tempo.write_text(f"track_id,bpm,source_label\npseudo02,90,est\n{row}\n")
    assert run([
        "experiment", "tempo-curve",
        "--beats-dir", str(PSEUDO_DIR / "beats"),
        "--activations", f"pseudo={PSEUDO_DIR / 'activations' / 'pseudo'}",
        "--source", "pseudo",
        "--tempo-file", f"L={tempo}",
        "-o", str(tmp_path / "run"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tempo}:3: ")
    assert "Traceback" not in err


def test_run_suite_script_on_pseudo_corpus(tmp_path):
    proc = _run_cli_process(["suite", str(PSEUDO_DIR), "-o", str(tmp_path / "suite")])
    assert proc.returncode == 0, proc.stderr
    for name in cli.SUITE:
        assert (tmp_path / "suite" / name / "rows.csv").exists(), name
    assert (tmp_path / "suite" / "taxonomy" / "fig_act_scatter.csv").exists()


def test_suite_stages_match_experiment_runs(tmp_path):
    """Each suite stage writes what ``beatdiag experiment`` writes on the same root."""
    suite = tmp_path / "suite"
    proc = _run_cli_process(["suite", str(PSEUDO_DIR), "-o", str(suite)])
    assert proc.returncode == 0, proc.stderr
    stages = sorted(p.name for p in suite.iterdir())
    assert len(stages) == 8
    for name in stages:
        assert run(["experiment", name, "--dataset", f"pseudo={PSEUDO_DIR}", "--source", "pseudo",
                    "-o", str(tmp_path / "cli")]) == 0
        files = sorted(p.name for p in (suite / name).iterdir())
        assert files == sorted(p.name for p in (tmp_path / "cli" / name).iterdir())
        for file in files:
            expected = (tmp_path / "cli" / name / file).read_text()
            assert (suite / name / file).read_text() == expected, (name, file)
        assert "source=pseudo" in (suite / name / "manifest.txt").read_text().splitlines()


def test_run_suite_script_on_relative_root(tmp_path):
    proc = _run_cli_process(["suite", str(PSEUDO_DIR.relative_to(TESTS_DIR.parent)), "-o", str(tmp_path / "suite")])
    assert proc.returncode == 0, proc.stderr
    assert "activation directory missing" not in proc.stderr
    rows = reports.rows_from_csv((tmp_path / "suite" / "taxonomy" / "rows.csv").read_text())
    assert len(rows) == 3


@pytest.mark.parametrize("flags", [
    ["lambda-sweep", "--source", "nosuch"],
    ["taxonomy", "--source", "pseudo", "--intersect-source", "nosuch"],
])
def test_experiment_source_no_track_carries_exits_one(tmp_path, capsys, flags):
    assert run(["experiment", *flags, "--beats-dir", str(PSEUDO_DIR / "beats"),
                "--activations", f"pseudo={PSEUDO_DIR / 'activations' / 'pseudo'}",
                "-o", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "'nosuch'" in err and "sources present: pseudo" in err
    assert not (tmp_path / "run").exists()


def test_run_suite_script_source_no_track_carries_exits_one(tmp_path):
    proc = _run_cli_process(["suite", str(PSEUDO_DIR), "--source", "nosuch", "-o", str(tmp_path / "suite")])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "'nosuch'" in proc.stderr and "sources present: pseudo" in proc.stderr
    assert not (tmp_path / "suite").exists()


def test_experiment_bottleneck_with_relative_dataset_root(tmp_path, monkeypatch):
    monkeypatch.chdir(PSEUDO_DIR.parent)
    out = tmp_path / "run"
    assert run([
        "experiment", "bottleneck", "--dataset", f"mini={PSEUDO_DIR.name}", "--source", "pseudo",
        "-o", str(out),
    ]) == 0
    text = (out / "bottleneck" / "report.txt").read_text()
    assert "missing" not in text
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("dataset "))
    header, cells = lines[at].split(), lines[at + 2].split()
    assert len(cells) == len(header)  # an empty cell would drop a column
    assert 0.0 < float(dict(zip(header, cells))["real_dbn_f"]) <= 1.0


@pytest.mark.parametrize("name,fps", [("peak-vs-dbn", "100"), ("threshold-sweep", "6")])
def test_experiment_gt_synth_honours_fps(tmp_path, name, fps):
    common = ["experiment", name, "--beats-dir", str(PSEUDO_DIR / "beats")]
    assert run(common + ["-o", str(tmp_path / "default")]) == 0
    assert run(common + ["--fps", fps, "-o", str(tmp_path / "flag")]) == 0
    default = (tmp_path / "default" / name / "rows.csv").read_text()
    assert (tmp_path / "flag" / name / "rows.csv").read_text() != default
    assert f"fps={float(fps)}" in (tmp_path / "flag" / name / "manifest.txt").read_text()


def test_experiment_empty_dataset_exits_one(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert run([
        "experiment", "dataset-stats", "--beats-dir", str(empty), "-o", str(tmp_path / "o"),
    ]) == 1
    assert "no tracks" in capsys.readouterr().err


# Each flag that only some commands read: the manifest key it sets, and a value.
CHOOSY_FLAGS = {
    "--min-bpm": ("min_bpm", "30"), "--max-bpm": ("max_bpm", "200"), "--lambda": ("transition_lambda", "50"),
    "--observation-lambda": ("observation_lambda", "8"), "--no-correct": ("no_correct", None),
    "--threshold": ("threshold", "0.3"), "--min-separation": ("min_separation", "0.2"), "--trim": ("trim", "1"),
    "--fps": ("fps", "50"), "--sigma-frames": ("sigma_frames", "3"), "--tempo-window": ("tempo_window", "0.1"),
    "--lambdas": ("lambdas", "1,2"), "--thresholds": ("thresholds", "0.2,0.4"), "--decoder": ("decoder", "dbn"),
    "--intersect-source": ("intersect_source", "gt-synth"), "--tempo-file": ("tempo_file", "est=no-such.csv"),
    "--gt-tempo": ("gt_tempo", None),
}
EXPERIMENT_UNREAD = [(name, flag) for name, config in DEFAULT_CONFIGS.items()
                     for flag, (key, _) in CHOOSY_FLAGS.items() if key not in config]
_DBN_FLAGS = ("--min-bpm", "--max-bpm", "--lambda", "--observation-lambda", "--no-correct")
DECODE_UNREAD = [*(("decode --peaks", flag) for flag in (*_DBN_FLAGS, "--tempo-window", "--tempo-file")),
                 *(("decode --dbn", flag) for flag in ("--threshold", "--min-separation", "--tempo-window",
                                                       "--tempo-file")),
                 ("decode --dbn-constrained", "--threshold"), ("decode --dbn-constrained", "--min-separation")]


def test_unread_pair_counts():
    """Of 17 such flags, the ten experiments read 89 (experiment, flag)
    pairs, and decode's three modes 14 of their 27 (mode, flag) pairs. Each
    sweep reads its own grid only: lambda-sweep and systems --lambdas,
    threshold-sweep --thresholds."""
    assert (len(EXPERIMENT_UNREAD), len(DECODE_UNREAD)) == (170 - 89, 27 - 14)
    assert {("lambda-sweep", "--thresholds"), ("systems", "--thresholds"),
            ("threshold-sweep", "--lambdas")} <= set(EXPERIMENT_UNREAD)


@pytest.mark.parametrize("command,flag", [
    ("decode", "--jobs"), ("eval", "--jobs"), ("diagnose", "--jobs"), ("synth-gt", "--jobs"), ("diagnose", "--config"),
    *DECODE_UNREAD, *EXPERIMENT_UNREAD,
])
def test_flag_a_command_would_ignore_exits_two(tmp_path, capsys, command, flag):
    """--jobs is experiment's alone, diagnose reads no config file, and a
    command that does not read a settings or experiment flag rejects it,
    before it writes anything."""
    acts, beats, out = str(PSEUDO_DIR / "activations" / "pseudo"), str(PSEUDO_DIR / "beats"), str(tmp_path / "o")
    tempo = tmp_path / "tempo.csv"
    tempo.write_text("track_id,bpm,source_label\npseudo01,90,est\n")
    argv = {
        "decode": ["decode", "--peaks", acts, "-o", out],
        "eval": ["eval", "--est", beats, "--ref", beats],
        "diagnose": ["diagnose", "--activations", acts, "--beats", beats],
        "synth-gt": ["synth-gt", "--beats", beats, "-o", out],
        "decode --peaks": ["decode", "--peaks", acts, "-o", out],
        "decode --dbn": ["decode", "--dbn", acts, "-o", out],
        "decode --dbn-constrained": ["decode", "--dbn-constrained", "--tempo-file", str(tempo), acts, "-o", out],
    }.get(command, ["experiment", command, "--dataset", f"p={PSEUDO_DIR}", "-o", out])
    value = CHOOSY_FLAGS[flag][1] if flag in CHOOSY_FLAGS else "2"
    with pytest.raises(SystemExit) as exc:
        run(argv + [flag] + ([value] if value else []))
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()
    if flag in CHOOSY_FLAGS:
        assert f"error: {command} does not read {flag}\n" in capsys.readouterr().err


def test_config_keys_a_command_does_not_read_are_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trim=5\njobs=2\nmin_bpm=abc\nthreshold=0.3\n")
    out = tmp_path / "out"
    assert run(["decode", "--peaks", "--config", str(cfg), str(PSEUDO_DIR / "activations" / "pseudo"),
                "-o", str(out)]) == 0
    assert (out / "manifest.txt").read_text().splitlines()[1:] == [
        "command=decode:peaks", "min_separation=0.1", "threshold=0.3"]


def test_taxonomy_manifest_records_its_decoder(tmp_path):
    for decoder in ("peaks", "dbn"):
        assert run(["experiment", "taxonomy", "--dataset", f"p={PSEUDO_DIR}", "--source", "pseudo",
                    "--decoder", decoder, "-o", str(tmp_path / decoder)]) == 0
    by_peaks, by_dbn = ((tmp_path / d / "taxonomy" / "manifest.txt").read_text().splitlines() for d in ("peaks", "dbn"))
    assert "decoder=peaks" in by_peaks and "decoder=dbn" in by_dbn
    assert [line for line in by_peaks if not line.startswith("decoder=")] == [
        line for line in by_dbn if not line.startswith("decoder=")]


def test_bad_config_value_exits_one(tmp_path, capsys):
    _, acts_dir = _write_mini_inputs(tmp_path, bpms=(72,))
    assert run([
        "decode", "--peaks", "--threshold", "1.5", str(acts_dir), "-o", str(tmp_path / "o"),
    ]) == 1
    assert "threshold" in capsys.readouterr().err


def test_public_import_surface():
    import beatdiag

    for name in beatdiag.__all__:
        assert getattr(beatdiag, name) is not None


def test_import_cli_leaves_scipy_stats_unloaded():
    import subprocess
    import sys

    code = "import sys, beatdiag.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_axis_table_run_leaves_scipy_unloaded(tmp_path):
    import subprocess
    import sys

    code = ("import sys\nfrom beatdiag import cli\n"
            f"code = cli.main(['experiment', 'axis-table', '--dataset', 'p={PSEUDO_DIR}', '--source', 'pseudo',"
            f" '-o', r'{tmp_path / 'out'}'])\n"
            "print(code, 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_import_cli_leaves_process_pool_unloaded():
    import subprocess
    import sys

    code = "import sys, beatdiag.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_traced_functions_exist():
    """Every function the benchmark tracer wraps exists under that name."""
    import ast
    import importlib

    source = (TESTS_DIR.parent / "perfbench" / "tracing.py").read_text()
    traced = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                  if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED")
    missing = [f"{layer}.{name}" for layer, names in traced.items()
               for name in names if not callable(getattr(importlib.import_module(f"beatdiag.{layer}"), name, None))]
    assert missing == []


def test_benchmark_suite_replay_runs_the_suite_stages_in_order():
    """perfbench's suite replay, which drives the experiments API itself,
    names the stages of cli.SUITE in its order."""
    import ast

    tree = ast.parse((TESTS_DIR.parent / "perfbench" / "workloads.py").read_text())
    run_suite = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "run_suite")
    calls = sorted((node.lineno, node.col_offset, node.args[0].value) for node in ast.walk(run_suite)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "stage")
    assert tuple(name for *_, name in calls) == cli.SUITE


def test_suite_leaves_out_systems_and_axis_table():
    """The battery is every experiment but systems and axis-table, each once."""
    assert set(cli.EXPERIMENTS) == set(cli.SUITE) | {"systems", "axis-table"}
    assert len(set(cli.SUITE)) == len(cli.SUITE) == len(cli.EXPERIMENTS) - 2


def test_traced_systems_run_writes_the_untraced_files(tmp_path):
    """The benchmark tracer, installed around a systems run, records spans
    and leaves the report files as an untraced run writes them."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TESTS_DIR.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    argv = ["experiment", "systems", "--dataset", f"p={PSEUDO_DIR}", "--source", "pseudo", "--lambdas", "1,100",
            "--jobs", "1", "-o"]
    assert run([*argv, str(tmp_path / "plain")]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert run([*argv, str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    plain, traced = ({path.relative_to(root).as_posix(): path.read_bytes() for path in root.rglob("*") if path.is_file()}
                     for root in (tmp_path / "plain", tmp_path / "traced"))
    assert plain and plain == traced
    names = {span[0] for span in tracer.spans}
    assert {"experiments.run_systems_table", "dbn.build_state_space"} <= names


def test_decode_binary_activations(tmp_path):
    ref = make_grid_annotation(bpm=75, start=0.5, duration=15.0, track_id="bin0")
    act = synthesize_gt_activation(ref, SynthConfig(fps=50.0))
    acts_dir = tmp_path / "acts"
    acts_dir.mkdir()
    write_activation(act, acts_dir / "bin0.bin", binary=True)
    out = tmp_path / "out"
    assert run(["decode", "--dbn", "--min-bpm", "30", str(acts_dir), "-o", str(out)]) == 0
    decoded = ingest.load_beats(out / "bin0.beats")
    assert len(decoded.beats) >= len(ref.beats) - 1


def test_decode_dir_reads_only_activation_files(tmp_path):
    _, acts_dir = _write_mini_inputs(tmp_path)
    (acts_dir / "README").write_text("not an activation\n")
    (acts_dir / "notes.csv").write_text("a,b\n")
    out = tmp_path / "out"
    assert run(["decode", "--peaks", str(acts_dir), "-o", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.beats")) == ["trk0.beats", "trk1.beats"]


def test_decode_rejects_two_files_for_one_track(tmp_path, capsys):
    _, acts_dir = _write_mini_inputs(tmp_path, bpms=(72,))
    write_activation(ingest.load_activation(acts_dir / "trk0.act"), acts_dir / "trk0.bin", binary=True)
    assert run(["decode", "--peaks", str(acts_dir), "-o", str(tmp_path / "out")]) == 1
    assert "both track 'trk0'" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.beats"))


@pytest.mark.parametrize("kind", ["corrupt", "low-fps", "empty-window"])
def test_decode_checks_every_file_before_writing_any(tmp_path, capsys, kind):
    """A bad file last in sort order exits 1 naming it, and no .beats file
    is written, not even for the good files before it."""
    acts_dir = tmp_path / "acts"
    shutil.copytree(PSEUDO_DIR / "activations" / "pseudo", acts_dir)
    tempo = tmp_path / "tempo.csv"  # zz: 10 BPM +/- 20% lies below the 30 BPM bound
    tempo.write_text("track_id,bpm,source_label\npseudo01,90,e\npseudo02,70,e\npseudo03,80,e\nzz,10,e\n")
    bad = acts_dir / ("zz.bin" if kind == "corrupt" else "zz.act")
    if kind == "corrupt":  # an ACT1 header for 100 frames followed by 10
        bad.write_bytes(b"ACT1" + struct.pack("<dQ", 50.0, 100) + bytes(40))
    else:  # at 2 fps a beat period at 215 BPM is one frame
        fps = 2.0 if kind == "low-fps" else 43.07
        write_activation(ActivationCurve(values=np.full(40, 0.5), fps=fps, source_label="m"), bad)
    mode = ["--dbn-constrained", "--tempo-file", str(tempo)] if kind == "empty-window" else ["--dbn"]
    assert run(["decode", *mode, str(acts_dir), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not (tmp_path / "out").exists()


def test_eval_rejects_two_files_for_one_track(tmp_path, capsys):
    beats_dir, _ = _write_mini_inputs(tmp_path, bpms=(72,))
    (beats_dir / "trk0.txt").write_text("0.5\n1.0\n")
    assert run(["eval", "--est", str(beats_dir), "--ref", str(beats_dir)]) == 1
    err = capsys.readouterr().err
    assert str(beats_dir / "trk0.beats") in err and str(beats_dir / "trk0.txt") in err


def test_experiment_rejects_two_activation_files_for_one_track(tmp_path, capsys):
    root = tmp_path / "root"
    root.mkdir()
    _, acts_dir = _write_mini_inputs(root, bpms=(72,))
    source_dir = root / "activations" / "m"
    source_dir.mkdir(parents=True)
    acts_dir.joinpath("trk0.act").rename(source_dir / "trk0.act")
    write_activation(ingest.load_activation(source_dir / "trk0.act"), source_dir / "trk0.bin", binary=True)
    code = run(["experiment", "bottleneck", "--dataset", f"mini={root}", "--source", "m",
                "-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(source_dir / "trk0.act") in err and str(source_dir / "trk0.bin") in err


def test_experiment_with_jobs_two(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    common = [
        "experiment", "peak-vs-dbn",
        "--beats-dir", str(PSEUDO_DIR / "beats"),
        "--activations", f"pseudo={PSEUDO_DIR / 'activations' / 'pseudo'}",
        "--source", "pseudo",
    ]
    assert run(common + ["-o", str(out1), "--jobs", "1"]) == 0
    assert run(common + ["-o", str(out2), "--jobs", "2"]) == 0
    rows1 = (out1 / "peak-vs-dbn" / "rows.csv").read_text()
    rows2 = (out2 / "peak-vs-dbn" / "rows.csv").read_text()
    assert rows1 == rows2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "beatdiag" in capsys.readouterr().out


def test_config_file_with_flag_override(tmp_path):
    beats_dir, acts_dir = _write_mini_inputs(tmp_path, bpms=(42,))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("min_bpm=30\n")
    out_file_cfg = tmp_path / "o1"
    out_flag = tmp_path / "o2"
    run(["decode", "--dbn", "--config", str(cfg), str(acts_dir), "-o", str(out_file_cfg)])
    run(["decode", "--dbn", "--config", str(cfg), "--min-bpm", "55", str(acts_dir), "-o", str(out_flag)])
    with_file = ingest.load_beats(next(out_file_cfg.glob("*.beats")))
    with_flag = ingest.load_beats(next(out_flag.glob("*.beats")))
    # config file widens the range so the 42 BPM track decodes at its level;
    # the explicit flag forces the default minimum back and doubles it
    assert len(with_flag.beats) > 1.5 * len(with_file.beats)
    assert "min_bpm=55" in (out_flag / "manifest.txt").read_text()
    assert "min_bpm=30" in (out_file_cfg / "manifest.txt").read_text()


def _run_cli_process(argv):
    """``python -m beatdiag.cli ARGV`` in a fresh interpreter, from the repository root."""
    import subprocess
    import sys

    return subprocess.run([sys.executable, "-m", "beatdiag.cli", *argv], capture_output=True, text=True,
                          cwd=str(TESTS_DIR.parent))


def _break_input(root, kind):
    """Make one input file of the given kind under ``root`` malformed; returns its path."""
    if kind == "beats":  # a UTF-16 byte order mark is not UTF-8
        path = root / "beats" / "pseudo01.beats"
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
    elif kind == "tags":
        path = root / "tags" / "pseudo01.tags"
        path.write_text(path.read_text() + "confidence: high\n")
    elif kind == "tempo":
        path = root / "tempo.csv"
        path.write_text("track_id,bpm,source_label\npseudo01,90\n")
    else:  # an ACT1 header for 100 frames followed by 10
        (root / "activations" / "pseudo" / "pseudo01.act").unlink()
        path = root / "activations" / "pseudo" / "pseudo01.bin"
        path.write_bytes(b"ACT1" + struct.pack("<dQ", 50.0, 100) + bytes(40))
    return path


@pytest.mark.parametrize("kind", ["beats", "tags", "tempo", "act1"])
def test_cli_process_rejects_malformed_input_with_its_path(tmp_path, kind):
    root = tmp_path / "pseudo"
    shutil.copytree(PSEUDO_DIR, root)
    tempo = root / "tempo.csv"
    tempo.write_text("track_id,bpm,source_label\npseudo01,90,est\n")
    bad = _break_input(root, kind)
    proc = _run_cli_process(["experiment", "tempo-curve", "--dataset", f"p={root}", "--source", "pseudo",
                             "--tempo-file", f"est={tempo}", "-o", str(tmp_path / "out")])
    assert proc.returncode == 1
    assert "error: " in proc.stderr and str(bad) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_process_skips_and_lists_track_with_empty_annotation(tmp_path):
    root = tmp_path / "pseudo"
    shutil.copytree(PSEUDO_DIR, root)
    (root / "beats" / "pseudo01.beats").write_text("")
    proc = _run_cli_process(["experiment", "peak-vs-dbn", "--dataset", f"p={root}", "--source", "pseudo",
                             "-o", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    note = "1 track(s) with <2 beats skipped: ['pseudo01']"
    assert note in proc.stdout and note in (tmp_path / "out" / "peak-vs-dbn" / "report.txt").read_text()
    rows = reports.rows_from_csv((tmp_path / "out" / "peak-vs-dbn" / "rows.csv").read_text())
    assert sorted(row.track_id for row in rows) == ["pseudo02", "pseudo03"]


def _bad_cli_input(tmp_path, case):
    """(argv, how the error must start: the path and line of the bad input,
    where it has them) for one malformed input."""
    rows = tmp_path / "rows.csv"
    cfg = tmp_path / "bad.cfg"
    if case == "missing-rows":
        return ["report", str(tmp_path / "missing.csv")], f"{tmp_path / 'missing.csv'}: "
    if case == "no-track-id":
        rows.write_text("system,f_measure\npeaks,0.5\n")
        return ["report", str(rows)], f"{rows}:1: no track_id column"
    if case == "bad-value":
        rows.write_text("track_id,f_measure\na,0.5\nb,high\n")
        return ["report", str(rows)], f"{rows}:3: "
    if case == "bad-count":  # not a whole number of beats
        rows.write_text("track_id,f_measure,n_ref\na,0.5,inf\n")
        return ["report", str(rows)], f"{rows}:2: n_ref: "
    if case == "non-utf8-rows":
        rows.write_bytes(b"track_id,f_measure\n\xff,0.5\n")
        return ["report", str(rows)], f"{rows}: not UTF-8 text"
    if case == "missing-config":
        return (["decode", "--peaks", "--config", str(cfg), str(PSEUDO_DIR / "activations"), "-o",
                 str(tmp_path / "out")], f"{cfg}: ")
    if case == "bad-config-range":  # converts, then fails the DbnConfig check
        cfg.write_text("# bounds\nmin_bpm=-5\n")
        return (["decode", "--dbn", "--config", str(cfg), str(PSEUDO_DIR / "activations"), "-o",
                 str(tmp_path / "out")], f"{cfg}:2: min_bpm: need 0 < min_bpm <= max_bpm")
    if case == "bad-config-list":
        cfg.write_text("lambdas=1,x\n")
        return (["experiment", "lambda-sweep", "--dataset", f"p={PSEUDO_DIR}", "--config", str(cfg), "-o",
                 str(tmp_path / "out")], f"{cfg}:1: lambdas: could not convert string to float: 'x'")

    def experiment(name):
        return ["experiment", name, "--dataset", f"p={PSEUDO_DIR}", "--source", "pseudo", "--config", str(cfg),
                "-o", str(tmp_path / "out")]

    if case == "bad-config-grid":
        cfg.write_text("# grid\nthresholds=0.5,0.3\n")
        return experiment("threshold-sweep"), f"{cfg}:2: thresholds: thresholds must be non-empty, positive, ascending"
    if case == "bad-config-threshold":
        cfg.write_text("threshold=1.5\n")
        return experiment("threshold-sweep"), f"{cfg}:1: threshold: threshold must be in (0, 1)"
    if case == "bad-config-separation":
        cfg.write_text("# picking\nmin_separation=-1\n")
        return experiment("threshold-sweep"), f"{cfg}:2: min_separation: min_separation must be >= 0"
    if case == "bad-config-window":
        cfg.write_text("tempo_window=-1\n")
        return experiment("tempo-curve"), f"{cfg}:1: tempo_window: tempo_window must be finite and >= 0"
    if case == "bad-config-window-nan":
        cfg.write_text("tempo_window=nan\n")
        return experiment("systems"), f"{cfg}:1: tempo_window: tempo_window must be finite and >= 0"
    if case == "bad-flag-window":
        return (["decode", "--dbn-constrained", "--tempo-window", "-1", str(PSEUDO_DIR / "activations"),
                 "-o", str(tmp_path / "out")], "tempo_window must be finite and >= 0, got -1.0")
    if case == "bad-config-jobs":
        cfg.write_text("# processes\njobs=0\n")
        return experiment("gt-bottleneck"), f"{cfg}:2: jobs: jobs must be >= 1, got 0"
    if case == "bad-flag-jobs":
        return (["experiment", "gt-bottleneck", "--dataset", f"p={PSEUDO_DIR}", "--jobs", "-2", "-o",
                 str(tmp_path / "out")], "jobs must be >= 1, got -2")
    if case == "bad-config-key":  # a misspelt key
        cfg.write_text("min_bmp=30\n")
        return (["decode", "--dbn", "--config", str(cfg), str(PSEUDO_DIR / "activations"), "-o",
                 str(tmp_path / "out")], f"{cfg}:1: min_bmp: unknown key")
    if case == "bad-config-flag-key":  # a flag that is not a setting
        cfg.write_text("source=pseudo\n")
        return experiment("lambda-sweep"), f"{cfg}:1: source: unknown key"
    if case == "bad-config-repeat":
        cfg.write_text("min_bpm=30\n# again\nmin_bpm=40\n")
        return experiment("gt-bottleneck"), f"{cfg}:3: min_bpm: repeated key, first set on line 1"
    if case == "bad-config-bool":
        cfg.write_text("no_correct=flase\n")
        return (["decode", "--dbn", "--config", str(cfg), str(PSEUDO_DIR / "activations"), "-o",
                 str(tmp_path / "out")], f"{cfg}:1: no_correct: 'flase' is not 1/true/yes/0/false/no")
    if case == "decode-low-fps":  # one frame per beat period at 215 BPM
        act = tmp_path / "slow.act"
        write_activation(ActivationCurve(values=np.full(40, 0.5), fps=2.0, source_label="m"), act)
        return ["decode", "--dbn", str(act), "-o", str(tmp_path / "out")], f"{act}: fps 2.0 too low"
    if case == "decode-empty-range":  # 10 BPM +/- 20% lies below the 30 BPM bound
        tempo = tmp_path / "tempo.csv"
        tempo.write_text("track_id,bpm,source_label\npseudo01,10,est\n")
        act = PSEUDO_DIR / "activations" / "pseudo" / "pseudo01.act"
        return (["decode", "--dbn-constrained", "--tempo-file", str(tempo), str(act), "-o", str(tmp_path / "out")],
                f"{act}: empty BPM range")
    cfg.write_text("# bounds\nmax_bpm=200\nmin_bpm=abc\n")
    return (["decode", "--dbn", "--config", str(cfg), str(PSEUDO_DIR / "activations"), "-o", str(tmp_path / "out")],
            f"{cfg}:3: min_bpm: could not convert string to float: 'abc'")


@pytest.mark.parametrize("case", ["missing-rows", "no-track-id", "bad-value", "bad-count", "non-utf8-rows",
                                  "missing-config", "bad-config-value", "bad-config-range", "bad-config-list",
                                  "bad-config-grid", "bad-config-threshold", "bad-config-separation",
                                  "bad-config-window", "bad-config-window-nan", "bad-flag-window", "bad-config-jobs",
                                  "bad-flag-jobs", "bad-config-key",
                                  "bad-config-flag-key", "bad-config-repeat", "bad-config-bool", "decode-low-fps",
                                  "decode-empty-range"])
def test_cli_process_rejects_bad_report_and_config_input_with_its_path(tmp_path, case):
    argv, where = _bad_cli_input(tmp_path, case)
    proc = _run_cli_process(argv)
    assert proc.returncode == 1
    assert f"error: {where}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command,flag,name", [
    ("decode --dbn", "--lambda", "transition_lambda"), ("decode --dbn", "--max-bpm", "max_bpm"),
    ("decode --peaks", "--min-separation", "min_separation"), ("eval", "--trim", "trim"),
    ("synth-gt", "--fps", "fps"), ("synth-gt", "--sigma-frames", "sigma_frames"),
    ("experiment gt-bottleneck", "--fps", "fps"), ("experiment gt-bottleneck", "--trim", "trim"),
])
def test_cli_rejects_non_finite_settings(tmp_path, capsys, command, flag, name, value):
    inputs = {"decode": [str(PSEUDO_DIR / "activations")], "eval": ["--est", str(PSEUDO_DIR / "beats"), "--ref",
              str(PSEUDO_DIR / "beats")], "synth-gt": ["--beats", str(PSEUDO_DIR / "beats")],
              "experiment": ["--dataset", f"p={PSEUDO_DIR}"]}[command.split()[0]]
    out = tmp_path / "out"
    assert run([*command.split(), flag, value, *inputs, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and value in err
    assert not out.exists()


@pytest.mark.parametrize("argv,name", [
    (["decode", "--dbn", "--min-bpm", "1e-310"], "min_bpm"),  # the period overflows to inf
    (["decode", "--dbn", "--min-bpm", "1e-3"], "min_bpm"),  # trillions of states
    (["synth-gt", "--sigma-frames", "1e300"], "sigma_frames"),  # its square overflows
])
def test_cli_rejects_settings_that_overflow(tmp_path, capsys, argv, name):
    inputs = {"decode": [str(PSEUDO_DIR / "activations" / "pseudo" / "pseudo01.act")],
              "synth-gt": ["--beats", str(PSEUDO_DIR / "beats")]}[argv[0]]
    assert run([*argv, *inputs, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    if argv[0] == "decode":
        assert err.startswith(f"error: {inputs[0]}: ")


@pytest.mark.parametrize("command", ["synth-gt", "experiment gt-bottleneck"])
@pytest.mark.parametrize("fps", ["1e300", "1e308"])  # 1e308 s^-1 over 40 s overflows to inf
def test_synthesized_curve_frame_count_is_bounded(tmp_path, capsys, command, fps):
    inputs = ["--beats", str(PSEUDO_DIR / "beats")] if command == "synth-gt" else ["--dataset", f"p={PSEUDO_DIR}"]
    assert run([*command.split(), "--fps", fps, *inputs, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: pseudo01: fps {float(fps)} gives over {MAX_SYNTH_FRAMES} frames\n"
    assert not list(tmp_path.glob("out/**/*.act"))


def test_synthesized_curve_may_hold_max_synth_frames(monkeypatch):
    ref = BeatAnnotation(track_id="t", beats=np.array([1.0, 9.0]))  # (9 s + 1 s tail) at 10 fps: 100 frames
    monkeypatch.setattr(experiments, "MAX_SYNTH_FRAMES", 100)
    assert len(synthesize_gt_activation(ref, SynthConfig(fps=10.0)).values) == 100
    monkeypatch.setattr(experiments, "MAX_SYNTH_FRAMES", 99)
    with pytest.raises(ValueError, match="t: fps 10.0 gives over 99 frames"):
        synthesize_gt_activation(ref, SynthConfig(fps=10.0))


def test_diagnose_huge_fps_puts_every_beat_outside_the_curve(tmp_path, capsys):
    """At 1e307 fps every beat time maps past the 4-frame curve; it is
    skipped without overflow warnings, and the track has no beat left."""
    acts_dir = tmp_path / "acts"
    acts_dir.mkdir()
    write_activation(ActivationCurve(values=np.full(4, 0.5), fps=1e307, source_label="m"), acts_dir / "pseudo01.act")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["diagnose", "--activations", str(acts_dir), "--beats", str(PSEUDO_DIR / "beats")]) == 1
    assert capsys.readouterr().err == "error: pseudo01: no annotated beat inside the curve\n"
    assert [str(w.message) for w in caught] == []


def test_decode_huge_lambda_forbids_every_tempo_change(tmp_path):
    """At lambda 1e308 the off-diagonal log transitions overflow to -inf,
    the limit of a large lambda: no warning, and the beats of 1e300."""
    act = PSEUDO_DIR / "activations" / "pseudo" / "pseudo01.act"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for lam in ("1e300", "1e308"):
            assert run(["decode", "--dbn", "--lambda", lam, str(act), "-o", str(tmp_path / lam)]) == 0
    assert [str(w.message) for w in caught] == []
    assert (tmp_path / "1e308" / "pseudo01.beats").read_bytes() == (tmp_path / "1e300" / "pseudo01.beats").read_bytes()


@pytest.mark.parametrize("min_bpm", ["1e-310", "1e-3"])
def test_experiment_skips_tracks_whose_period_overflows(tmp_path, capsys, min_bpm):
    assert run(["experiment", "gt-bottleneck", "--dataset", f"p={PSEUDO_DIR}", "--min-bpm", min_bpm,
                "-o", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    for track in ("pseudo01", "pseudo02", "pseudo03"):
        assert f"{track} (gt-synth): min_bpm {float(min_bpm)} at fps 43.07 gives a beat period over" in out


def _probe_root(tmp_path, probe):
    """The pseudo corpus with one activation replaced: pseudo01's by 40
    frames at 2 fps, or pseudo02's by a single frame."""
    root = tmp_path / "pseudo"
    shutil.copytree(PSEUDO_DIR, root)
    track, values, fps = {"fps2": ("pseudo01", np.full(40, 0.5), 2.0),
                          "one-frame": ("pseudo02", np.array([0.5]), 43.07)}[probe]
    write_activation(ActivationCurve(values=values, fps=fps, source_label="pseudo"),
                     root / "activations" / "pseudo" / f"{track}.act")
    return root


@pytest.mark.parametrize("jobs,copies", [("1", ()), ("2", ()), ("2", ("pseudo00", "pseudo04", "pseudo05"))],
                         ids=["1", "2", "2-in-a-batch"])
def test_cli_process_decoder_error_names_track_and_source(tmp_path, jobs, copies):
    """A track whose curve the DBN cannot decode is skipped and named, by
    track and source, before any decode; the run goes on. With ``copies``
    the corpus gains good tracks on both sides of the bad one, so that
    every batch holds several tracks."""
    root = _probe_root(tmp_path, "fps2")
    for copy, track in zip(copies, ("pseudo02", "pseudo03", "pseudo02")):
        for sub, suffix in (("beats", ".beats"), ("tags", ".tags"), ("activations/pseudo", ".act")):
            shutil.copy(root / sub / f"{track}{suffix}", root / sub / f"{copy}{suffix}")
    proc = _run_cli_process(["experiment", "peak-vs-dbn", "--dataset", f"p={root}", "--source", "pseudo",
                             "--jobs", jobs, "-o", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    note = "pseudo01 (pseudo): fps 2.0 too low for max_bpm 215.0 (beat period 1 < 2 frames); skipped"
    run_dir = tmp_path / "out" / "peak-vs-dbn"
    assert note in proc.stdout and note in (run_dir / "report.txt").read_text()
    rows = reports.rows_from_csv((run_dir / "rows.csv").read_text())
    assert sorted(row.track_id for row in rows) == sorted(["pseudo02", "pseudo03", *copies])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_process_empty_tempo_window_names_track_and_source(tmp_path, jobs):
    """A tempo estimate whose window holds no BPM range leaves its track out
    of that tempo source's series only, counted in n_skipped and named in a
    note."""
    tempo = tmp_path / "tempo.csv"
    tempo.write_text("track_id,bpm,source_label\npseudo01,10,est\npseudo02,70,est\n")  # 10 BPM +/- 20% < 30 BPM
    proc = _run_cli_process(["experiment", "tempo-curve", "--dataset", f"p={PSEUDO_DIR}", "--source", "pseudo",
                             "--tempo-file", f"est={tempo}", "--jobs", jobs, "-o", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    run_dir = tmp_path / "out" / "tempo-curve"
    notes = ["tempo source 'est': 1 track(s) without estimate",
             "tempo source 'est': pseudo01: empty BPM range for center 10.0 +/- 20%; skipped"]
    for note in notes:
        assert note in proc.stdout and note in (run_dir / "report.txt").read_text()
    series = {row[0]: row for row in csv.reader((run_dir / "fig_tempo_curve.csv").read_text().splitlines()[1:])}
    assert (series["unconstrained"][1], series["unconstrained"][-1]) == ("3", "0")
    assert (series["est"][1], series["est"][-1]) == ("1", "2")
    rows = reports.rows_from_csv((run_dir / "rows.csv").read_text())
    assert sorted(row.track_id for row in rows if row.config == "constrained[est]") == ["pseudo02"]


@pytest.mark.parametrize("name", ["tempo-curve", "systems", "axis-table"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_process_skips_and_lists_track_whose_gt_tempo_window_is_empty(tmp_path, name, jobs):
    """An annotation at 300 BPM: +/- 20% lies above the 215 BPM bound."""
    root = tmp_path / "pseudo"
    shutil.copytree(PSEUDO_DIR, root)
    (root / "beats" / "pseudo03.beats").write_text("".join(f"{0.5 + 0.2 * i:.3f}\n" for i in range(100)))
    proc = _run_cli_process(["experiment", name, "--dataset", f"p={root}", "--source", "pseudo",
                             "--jobs", jobs, "-o", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    note = "pseudo03: empty BPM range for center 300.00000000000006 +/- 20%; skipped"
    if name == "tempo-curve":
        note = f"tempo source 'gt-tempo': {note}"
    assert note in proc.stdout and note in (tmp_path / "out" / name / "report.txt").read_text()
    rows = reports.rows_from_csv((tmp_path / "out" / name / "rows.csv").read_text())
    held = {"tempo-curve": "constrained[gt-tempo]", "systems": "gt-tempo+optimal-lambda"}.get(name, "peak-picking")
    assert sorted(row.track_id for row in rows if row.config == held) == ["pseudo01", "pseudo02"]
    if name == "tempo-curve":  # the unconstrained series keeps the track
        assert "pseudo03" in {row.track_id for row in rows if row.config == "unconstrained"}


@pytest.mark.parametrize("name", ["taxonomy", "axis-table"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_process_skips_and_lists_track_whose_curve_holds_no_beat(tmp_path, name, jobs):
    root = _probe_root(tmp_path, "one-frame")
    proc = _run_cli_process(["experiment", name, "--dataset", f"p={root}", "--source", "pseudo",
                             "--jobs", jobs, "-o", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    note = "pseudo02: no annotated beat inside the curve; skipped"
    assert note in proc.stdout and note in (tmp_path / "out" / name / "report.txt").read_text()
    rows = reports.rows_from_csv((tmp_path / "out" / name / "rows.csv").read_text())
    assert sorted(row.track_id for row in rows) == ["pseudo01", "pseudo03"]


# Tiny tracks, and corpora of them, of random frame rates, lengths and beats.
SMALL_TRACKS = st.tuples(st.sampled_from([2.0, 10.0, 43.07, 50.0, 100.0]),  # fps
                         st.integers(1, 200),  # frames
                         st.floats(0.0, 3.0),  # first beat
                         st.lists(st.floats(0.05, 1.5), max_size=11),  # inter-beat intervals
                         st.booleans(),  # binary activation file
                         st.integers(0, 2**32 - 1))
SMALL_CORPORA = st.lists(SMALL_TRACKS, min_size=1, max_size=3)


def _write_small_curve(path, track):
    """Write the activation curve of ``track`` to ``path``."""
    fps, n_frames, _, _, binary, seed = track
    values = np.random.default_rng(seed).uniform(0, 1, n_frames)
    write_activation(ActivationCurve(values=values, fps=fps, source_label=path.parent.name), path, binary=binary)


def _write_small_corpus(root, tracks):
    """Write each (i, track) of ``tracks`` under ``root`` as track t{i} of
    activation source fz; returns ``root``."""
    (root / "beats").mkdir(parents=True)
    (root / "activations" / "fz").mkdir(parents=True)
    for i, track in tracks:
        _, _, first, intervals, _, _ = track
        write_beats(first + np.cumsum([0.0, *intervals]), root / "beats" / f"t{i}.beats")
        _write_small_curve(root / "activations" / "fz" / f"t{i}.act", track)
    return root


@settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tracks=SMALL_CORPORA)
def test_every_experiment_on_a_random_small_corpus_exits_cleanly(tmp_path_factory, tracks):
    """Tiny corpora of random frame rates, lengths and beats: every
    experiment exits 0, or 1 naming the offending file, with no traceback
    and no numpy RuntimeWarning. At --jobs 1 all tracks share one batch."""
    root = _write_small_corpus(tmp_path_factory.mktemp("fuzz"), enumerate(tracks))
    for name in cli.EXPERIMENTS:
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["experiment", name, "--dataset", f"f={root}", "--source", "fz", "-o", str(root / "out")])
        assert rc == 0 or (rc == 1 and stderr.getvalue().startswith(f"error: {root}")), (name, stderr.getvalue())


def _suite_rows(tmp, name, tracks, bystander=None):
    """{track id: [(stage, its rows.csv line after the id)]} of ``beatdiag
    suite`` on a corpus of ``tracks`` written to ``tmp/name/f``, or None
    when the suite exits 1. Every corpus root is named f, the dataset name.
    ``bystander`` is (path under the root, track): one more curve to write."""
    root = _write_small_corpus(tmp / name / "f", tracks)
    if bystander:
        (root / bystander[0]).parent.mkdir(parents=True, exist_ok=True)
        _write_small_curve(root / bystander[0], bystander[1])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if cli.main(["suite", str(root), "--source", "fz", "-o", str(tmp / name / "out")]) != 0:
            return None
    rows = {}
    for stage in cli.SUITE:
        for line in (tmp / name / "out" / stage / "rows.csv").read_text().splitlines()[1:]:
            track_id, _, rest = line.partition(",")
            rows.setdefault(track_id, []).append((stage, rest))
    return rows


@settings(max_examples=8, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tracks=SMALL_CORPORA)
def test_suite_rows_same_for_a_corpus_and_its_halves_run_apart(tmp_path_factory, tracks):
    """The split invariant: a track's rows.csv lines, at every suite stage,
    do not depend on which other tracks share its run."""
    tmp = tmp_path_factory.mktemp("split")
    numbered = list(enumerate(tracks))
    whole = _suite_rows(tmp, "whole", numbered)
    assume(whole is not None)
    half = (len(numbered) + 1) // 2
    parts = {}
    for name, part in (("first", numbered[:half]), ("second", numbered[half:])):
        if part:
            rows = _suite_rows(tmp, name, part)
            assert rows is not None, f"the {name} half exits 1"
            parts.update(rows)
    assert parts == whole


@settings(max_examples=8, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tracks=SMALL_CORPORA)
def test_suite_rows_same_for_a_track_and_its_copy(tmp_path_factory, tracks):
    """The duplicate invariant: track 0 copied under a new id gets track
    0's rows.csv lines at every suite stage, and the others keep theirs."""
    tmp = tmp_path_factory.mktemp("duplicate")
    numbered = list(enumerate(tracks))
    whole = _suite_rows(tmp, "whole", numbered)
    assume(whole is not None)
    copied = _suite_rows(tmp, "copied", [*numbered, (len(tracks), tracks[0])])
    assert copied is not None, "the corpus with the copy exits 1"
    assert copied.pop(f"t{len(tracks)}", None) == whole.get("t0")  # None: skipped in both
    assert copied == whole


@settings(max_examples=6, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tracks=SMALL_CORPORA, extra=SMALL_TRACKS, where=st.sampled_from(["fz/t9.act", "fy/t0.act"]))
def test_suite_rows_same_with_a_bystander_curve(tmp_path_factory, tracks, extra, where):
    """The bystander invariant: a curve with no annotation (fz/t9), or a
    second activation source on track 0 (fy/t0), changes no track's
    rows.csv lines at any suite stage."""
    tmp = tmp_path_factory.mktemp("bystander")
    numbered = list(enumerate(tracks))
    whole = _suite_rows(tmp, "whole", numbered)
    assume(whole is not None)
    rows = _suite_rows(tmp, "bystander", numbered, (f"activations/{where}", extra))
    assert rows is not None, f"the corpus with {where} exits 1"
    assert "t9" not in rows and rows == whole


@settings(max_examples=6, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tracks=st.lists(SMALL_TRACKS, min_size=2, max_size=3), data=st.data())
def test_suite_rows_same_when_tracks_sort_in_another_order(tmp_path_factory, tracks, data):
    """The order invariant: track i renamed t{order[i]}, so that the tracks
    sort in another order, keeps its rows.csv lines at every suite stage."""
    order = data.draw(st.permutations(range(len(tracks))).filter(lambda p: p != sorted(p)))
    tmp = tmp_path_factory.mktemp("order")
    whole = _suite_rows(tmp, "whole", list(enumerate(tracks)))
    renamed = _suite_rows(tmp, "renamed", [(order[i], track) for i, track in enumerate(tracks)])
    assert (renamed is None) == (whole is None)
    if whole is not None:
        assert {f"t{order.index(int(name[1:]))}": lines for name, lines in renamed.items()} == whole


def _decode_dir(acts, out, mode, tempo):
    """(exit code, last stderr line, {name: bytes} of the .beats files) of
    ``decode`` in ``mode`` on the file or directory ``acts``."""
    flags = {"dbn": ["--dbn"], "dbn-constrained": ["--dbn-constrained", "--tempo-file", str(tempo)],
             "peaks": ["--peaks"]}[mode]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = cli.main(["decode", *flags, str(acts), "-o", str(out)])
    return rc, stderr.getvalue().rstrip("\n").rpartition("\n")[2], {p.name: p.read_bytes() for p in out.glob("*.beats")}


@settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tracks=SMALL_CORPORA)
def test_decode_of_a_directory_is_each_file_decoded_alone(tmp_path_factory, tracks):
    """``decode DIR`` writes, per track, the bytes of its file decoded
    alone. It exits 1 exactly when some file alone exits 1, with that first
    file's error, and then writes no .beats file. Each track's tempo
    estimate is its mean annotated tempo; a track without beat intervals
    has none, and --dbn-constrained skips it."""
    root = _write_small_corpus(tmp_path_factory.mktemp("decode"), enumerate(tracks))
    acts = root / "activations" / "fz"
    tempo = root / "tempo.csv"
    tempo.write_text("track_id,bpm,source_label\n" + "".join(
        f"t{i},{60.0 / np.mean(track[3])},e\n" for i, track in enumerate(tracks) if track[3]))
    for mode in ("dbn", "dbn-constrained", "peaks"):
        alone = [_decode_dir(path, root / mode / path.name, mode, tempo) for path in sorted(acts.iterdir())]
        rc, error, written = _decode_dir(acts, root / mode / "all", mode, tempo)
        failed = [err for code, err, _ in alone if code]
        assert rc == (1 if failed else 0), mode
        if failed:
            assert error == failed[0] and written == {}, mode
        else:
            assert written == {name: data for _, _, files in alone for name, data in files.items()}, mode
