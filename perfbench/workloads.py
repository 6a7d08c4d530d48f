"""The benchmark's workloads, and the child process that runs one of them.

run.py starts this file in a fresh interpreter for every repetition:

    python3 perfbench/workloads.py WORKLOAD CORPUS OUT RESULT --jobs N --spawned T [--trace SPANS] [--setup-only]

It imports beatdiag, sets the workload up, runs its operations, and writes
one JSON object to RESULT: set-up and wall time, peak memory, the status of
every operation and the digest of every checked output file. With --trace
the public functions of every module are wrapped (see tracing.py) and the
spans are written to SPANS at exit. With --setup-only it stops after the
set-up and writes setup_s alone, so that a run can sample set-up time more
often than it can repeat the whole workload.

Every operation writes under OUT/<operation name>/, which is how run.py
matches output files to operations. Only this module imports beatdiag; the
module level imports the standard library alone, so run.py can read the
workload table without loading the program.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from corpus import CorpusSpec  # noqa: E402

FPS = 43.07

# Digested outputs: every CSV (rows, aggregates, eval, diagnose, figures),
# every .beats file, and each report.txt, which alone holds a stage's
# summary and extra tables (the bottleneck stage's real-activation results).
# Manifests record --jobs and are left out.
CHECKED_SUFFIXES = (".csv", ".beats")
CHECKED_NAMES = ("report.txt",)


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    jobs: int
    steps: tuple = ()  # CLI commands, in order; the suite's stages are fixed in run_suite
    decode_flags: tuple = ()


# Sizes are chosen so that one repetition takes 5-13 s on 2 cores; a run
# repeats it for --seconds and reports medians.
WORKLOADS = {
    # Decoder-bound; the only workload with a process pool and with decodes
    # repeated across experiments.
    "suite-noisy": Workload(CorpusSpec(8, 40.0, FPS, binary=True, source="noisy"), 2),
    # No DBN call: peak picking, metrics, diagnostics, text parsing, reports.
    "cli-peaks": Workload(CorpusSpec(64, 40.0, FPS, binary=False, source="model"), 1,
                          ("decode", "eval", "diagnose", "threshold-sweep", "taxonomy"), ("--peaks",)),
    # One 10-minute track at 100 fps: T=60000 frames, K=173 tempi, S=19722
    # states; scaling in T and K and memory, nothing repeated.
    "long-track": Workload(CorpusSpec(1, 600.0, 100.0, binary=True, source="long"), 1,
                           ("decode", "eval"), ("--dbn", "--min-bpm", "30")),
}


def digest_outputs(out: Path) -> dict:
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and (path.suffix in CHECKED_SUFFIXES or path.name in CHECKED_NAMES):
            files[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    return files


def _csv_rows(path: Path) -> int:
    """Data rows of a CSV with a header line."""
    return len(path.read_text().splitlines()) - 1


class Runner:
    """Runs named operations, recording status and time of each."""

    def __init__(self):
        self.ops = []
        self.first_call = None

    def op(self, name, fn, check):
        """Run fn, then check(result); return the result, or None on failure."""
        start = time.monotonic()
        if self.first_call is None:
            self.first_call = start
        result = None
        try:
            result = fn()
            error = check(result)
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        self.ops.append({"name": name, "ok": error is None, "error": error,
                         "seconds": time.monotonic() - start})
        return None if error else result


def load_suite_dataset(corpus: Path, source: str):
    """The suite's one corpus load, part of its set-up.

    Paths are absolute: with a relative dataset root scripts/run_smc_suite.py
    joins the root onto the activation directory twice (see NOTES.md).
    """
    from beatdiag import ingest

    return ingest.load_dataset(
        corpus, ingest.DatasetLayout(activation_dirs={source: str(corpus / "activations" / source)})
    )


def run_suite(runner, dataset, corpus: Path, out: Path, n_tracks: int, jobs: int, source: str):
    """The scripts/run_smc_suite.py battery, through the experiments API."""
    from beatdiag import experiments, reports

    def check(report):
        n = report.summary.get("n_tracks")
        if n is None and "bottleneck" in report.tables:
            n = report.tables["bottleneck"][1][0][1]
        return None if n == n_tracks else f"n_tracks={n}, corpus has {n_tracks}"

    def stage(name, fn, *args, **kw):
        def call():
            report = fn(*args, **kw)
            reports.write_run_report(report, out, {"experiment": name, "source": source, "jobs": jobs})
            return report
        return runner.op(name, call, check)

    stage("dataset-stats", experiments.dataset_stats, dataset)
    stage("gt-bottleneck", experiments.run_gt_bottleneck, dataset, jobs=jobs)
    stage("bottleneck", experiments.run_bottleneck_table, [(corpus.name, dataset)], source=source, jobs=jobs)
    stage("lambda-sweep", experiments.run_lambda_sweep, dataset, source, jobs=jobs)
    stage("tempo-curve", experiments.run_tempo_curve, dataset, source,
          [(experiments.GT_TEMPO_SOURCE, {})], jobs=jobs)
    stage("threshold-sweep", experiments.run_threshold_sweep, dataset, source, jobs=jobs)
    stage("peak-vs-dbn", experiments.run_peak_vs_dbn, dataset, source, jobs=jobs)
    taxonomy = stage("taxonomy", experiments.run_taxonomy, dataset, source, jobs=jobs)

    def figures():
        fig_dir = out / "figures"
        fig_dir.mkdir(parents=True, exist_ok=True)
        for name, text in experiments.emit_figure_data(dataset, rows=taxonomy.rows).items():
            (fig_dir / name).write_text(text)
        return _csv_rows(fig_dir / "fig_act_scatter.csv")

    runner.op("figures", figures,
              lambda n: None if n == n_tracks else f"{n} scatter rows, corpus has {n_tracks}")


def run_cli(runner, corpus: Path, out: Path, n_tracks: int, workload: Workload):
    """File-in, file-out commands through cli.main, as a user runs them."""
    from beatdiag import cli

    source = workload.corpus.source
    acts = str(corpus / "activations" / source)
    beats = str(corpus / "beats")
    dataset_flags = ["--beats-dir", beats, "--tags-dir", str(corpus / "tags"),
                     "--activations", f"{source}={acts}", "--source", source]
    commands = {
        "decode": ["decode", *workload.decode_flags, acts, "-o", str(out / "decode")],
        "eval": ["eval", "--est", str(out / "decode"), "--ref", beats, "-o", str(out / "eval" / "eval.csv")],
        "diagnose": ["diagnose", "--activations", acts, "--beats", beats,
                     "-o", str(out / "diagnose" / "diagnose.csv")],
        "threshold-sweep": ["experiment", "threshold-sweep", *dataset_flags, "-o", str(out)],
        "taxonomy": ["experiment", "taxonomy", *dataset_flags, "-o", str(out)],
    }
    produced = {
        "decode": lambda: len(list((out / "decode").glob("*.beats"))),
        "eval": lambda: _csv_rows(out / "eval" / "eval.csv"),
        "diagnose": lambda: _csv_rows(out / "diagnose" / "diagnose.csv"),
        "threshold-sweep": lambda: _csv_rows(out / "threshold-sweep" / "rows.csv"),
        "taxonomy": lambda: _csv_rows(out / "taxonomy" / "rows.csv"),
    }
    (out / "eval").mkdir(parents=True, exist_ok=True)
    (out / "diagnose").mkdir(parents=True, exist_ok=True)
    for step in workload.steps:
        def call(argv=commands[step]):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                return exc.code

        def check(rc, count=produced[step]):
            if rc != 0:
                return f"exit code {rc}"
            n = count()
            return None if n == n_tracks else f"{n} track(s) written, corpus has {n_tracks}"

        runner.op(step, call, check)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("corpus", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--trace", type=Path, help="record spans and write them here")
    parser.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    corpus, out = args.corpus.resolve(), args.out.resolve()
    n_tracks = len(list((corpus / "beats").glob("*.beats")))

    start = time.perf_counter()
    import beatdiag.cli  # noqa: F401  (beatdiag itself imports every other module)
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    suite = args.workload == "suite-noisy"
    dataset = load_suite_dataset(corpus, workload.corpus.source) if suite else None
    set_up = time.monotonic()
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_s": set_up - args.spawned}))
        return 0

    runner = Runner()
    if suite:
        run_suite(runner, dataset, corpus, out, n_tracks, args.jobs, workload.corpus.source)
    else:
        run_cli(runner, corpus, out, n_tracks, workload)
    wall_s = time.monotonic() - runner.first_call

    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "setup_s": set_up - args.spawned,
        "wall_s": wall_s,
        "peak_rss_mb": (self_ru.ru_maxrss + child_ru.ru_maxrss) / 1024.0,
        "import_s": import_s,
        "ops": runner.ops,
        "files": digest_outputs(out),
        "versions": versions(),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace, {"import_s": import_s, "wall_s": wall_s, "first_call": runner.first_call,
                                 "alloc_peak_bytes": tracer.alloc_peak_of_largest_decode()})
    args.result.write_text(json.dumps(result))
    return 0


def versions() -> dict:
    import multiprocessing
    import os
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "pool_start_method": multiprocessing.get_start_method()}


if __name__ == "__main__":
    sys.exit(main())
