#!/usr/bin/env python3
"""beatdiag corpus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save FILE]
    python3 perfbench/run.py --record                      # rewrite references.json
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl
    python3 perfbench/run.py --alternate PARENT_DIR CHANGE_DIR --runs 10 [--workload NAME]

Run from the root of a source checkout; the program under test is its
src/beatdiag, imported from source. Each repetition runs in a fresh
interpreter (workloads.py) on a corpus generated from the seed (corpus.py),
and every output is checked against references.json.

With --trace 0 a run repeats the workload for --seconds and reports the
median of each end-to-end metric; set-up alone is sampled at least
SETUP_SAMPLES times. Before the first repetition and after each one it
times fixed reference work (calibrate.py), and reports wall_s and setup_s
scaled from the machine's speed during the run to the reference speed
REFERENCE_S, because the shared machine's speed drifts over minutes.

With --trace 1 it makes one untraced and one traced repetition at --jobs 1
(and, on suite-noisy, one untraced at the workload's --jobs 2) and reports
the per-layer metrics of BENCHMARK.json.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from corpus import VARIANTS, generate, variant  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCES = BENCH / "references.json"
WORK = BENCH / ".work"
MIN_REPS = 2
# A long-track repetition takes 12-15 s, so a 40 s run holds only 2-3 of
# them; set-up alone (about 1.2 s) is sampled until setup_s has this many
# values, so that its median is not the mean of two.
SETUP_SAMPLES = 5
# Seconds the reference work of calibrate.py takes on one vCPU of the
# baseline machine (NOTES.md). wall_s and setup_s are raw times multiplied
# by REFERENCE_S over the run's median calibration time: seconds at this
# speed. The constant only sets the scale; it must not change between the
# commits being compared.
REFERENCE_S = 0.5
# Every run must exit within 180 s; leave room for corpus generation.
HARD_LIMIT_S = 170.0
# One thread per process for BLAS; parallelism comes from --jobs only.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_rep(name: str, corpus: Path, out: Path, jobs: int, deadline: float, trace: Path | None = None,
            setup_only: bool = False) -> dict:
    """One repetition in a fresh interpreter; returns the child's result."""
    result_file = out.with_suffix(".json")
    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, str(BENCH / "workloads.py"), name, str(corpus), str(out), str(result_file),
            "--jobs", str(jobs)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for a repetition")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--spawned", repr(spawned)], env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: repetition did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: workload process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(result_file.read_text())
    shutil.rmtree(out, ignore_errors=True)
    return result


def calibrate(jobs: int, work: Path, deadline: float) -> float:
    """Seconds the reference work takes, in each of `jobs` processes at once."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for a calibration")
    env = {**os.environ, **THREAD_ENV}
    argv = [sys.executable, str(BENCH / "calibrate.py"), str(jobs), str(work / "calibration")]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=timeout, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"calibration did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"calibration exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return float(proc.stdout)


def check_outputs(rep: dict, expected: dict) -> tuple[int, list[str]]:
    """(operations attempted, failures) of one repetition.

    An operation is one command or stage, or one per-track .beats output.
    It fails when it raised, processed fewer tracks than the corpus holds,
    or wrote output that differs from the stored reference.
    """
    got = rep["files"]
    failures = []
    attempted = 0
    for op in rep["ops"]:
        attempted += 1
        prefix = op["name"] + "/"
        mine = {p: d for p, d in got.items() if p.startswith(prefix) and not p.endswith(".beats")}
        want = {p: d for p, d in expected.items() if p.startswith(prefix) and not p.endswith(".beats")}
        if not op["ok"]:
            failures.append(f"{op['name']}: {op['error']}")
        elif mine != want:
            failures.append(f"{op['name']}: output differs from reference in "
                            f"{sorted(p for p in set(mine) | set(want) if mine.get(p) != want.get(p))}")
    for path in sorted(p for p in set(got) | set(expected) if p.endswith(".beats")):
        attempted += 1
        if got.get(path) != expected.get(path):
            failures.append(f"{path}: differs from reference")
    return attempted, failures


def timed_run(name: str, corpus: Path, work: Path, seconds: float, deadline: float):
    """Repeat the workload for `seconds`; every repetition is checked.

    The reference work is timed before the first repetition and after every
    one, so that the calibrations span the run as the repetitions do.
    """
    workload = WORKLOADS[name]
    if workload.jobs == 1:
        # The vCPUs change speed independently; run the repetitions and the
        # calibrations (children inherit the mask) on one and the same CPU.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    reps = []
    cals = [calibrate(workload.jobs, work, deadline)]
    start = time.monotonic()
    while True:
        reps.append(run_rep(name, corpus, work / f"out{len(reps)}", workload.jobs, deadline))
        cals.append(calibrate(workload.jobs, work, deadline))
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / len(reps)
        if len(reps) >= MIN_REPS and (next_end > seconds or start + next_end > deadline):
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_rep(name, corpus, work / "setup", workload.jobs, deadline, setup_only=True)["setup_s"])
        cals.append(calibrate(workload.jobs, work, deadline))
    raw = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "calibration_s": statistics.median(cals),
    }
    metrics = {
        "wall_s": raw["wall_s"] * REFERENCE_S / raw["calibration_s"],
        "setup_s": raw["setup_s"] * REFERENCE_S / raw["calibration_s"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return metrics, reps, setups, cals, raw


def traced_run(name: str, corpus: Path, work: Path, deadline: float):
    """Untraced and traced repetitions at --jobs 1; per-layer metrics of the traced one."""
    from tracing import layer_metrics

    workload = WORKLOADS[name]
    reps = []
    pool = None
    if workload.jobs > 1:
        pool = run_rep(name, corpus, work / "pool", workload.jobs, deadline)
        reps.append(pool)
    plain = run_rep(name, corpus, work / "plain", 1, deadline)
    span_file = work / "spans.json"
    traced = run_rep(name, corpus, work / "traced", 1, deadline, trace=span_file)
    reps += [plain, traced]
    trace = json.loads(span_file.read_text())

    step_s = {op["name"]: op["seconds"] for op in traced["ops"]}
    stage_s = step_s if name == "suite-noisy" else {}
    cli_s = {} if name == "suite-noisy" else step_s
    metrics = layer_metrics(trace, stage_s, cli_s)
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    metrics["trace.spans"] = len(trace["spans"])
    if pool is not None:
        jobs1 = sum(op["seconds"] for op in plain["ops"])
        jobs2 = sum(op["seconds"] for op in pool["ops"])
        metrics["experiments.pool_efficiency"] = jobs1 / (workload.jobs * jobs2)
    return metrics, reps, [r["setup_s"] for r in reps], [], {}


def result_line(spec: dict, trace: bool, metrics: dict, reps: list, expected: dict):
    attempted = 0
    failures = []
    for rep in reps:
        n, fails = check_outputs(rep, expected)
        attempted += n
        failures += fails
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in declared},
    }
    return result, failures


def print_summary(name: str, seed: int, result: dict, failures: list, reps: list, raw: dict):
    print(f"workload {name}, seed {seed} (corpus variant {variant(seed)}), {len(reps)} repetition(s)")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
    for metric, value in raw.items():
        print(f"  {'raw ' + metric:34s} {value:>14.6g} s")
    print(f"  {'error_rate':34s} {result['failed'] / result['attempted']:>14.6g} "
          f"share ({result['failed']}/{result['attempted']} operations)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")


def record_references(names, work: Path):
    """Run every corpus variant once and store the digests of its outputs."""
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in names:
        refs[name] = {}
        for v in range(VARIANTS):
            corpus = generate(WORKLOADS[name].corpus, v, work / "corpus")
            rep = run_rep(name, corpus, work / "out", WORKLOADS[name].jobs, time.monotonic() + 600)
            bad = [op for op in rep["ops"] if not op["ok"]]
            if bad:
                raise BenchError(f"{name} variant {v}: cannot record, failed {bad}")
            refs[name][str(v)] = rep["files"]
            shutil.rmtree(corpus)
            print(f"recorded {name} variant {v}: {len(rep['files'])} files, wall {rep['wall_s']:.2f} s")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="append the result, with machine facts, to this JSON-lines file")
    parser.add_argument("--record", action="store_true", help="rewrite the output references")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--alternate", nargs=2, type=Path, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    start = time.monotonic()

    if args.compare or args.alternate:
        import compare
        if args.compare:
            return compare.compare_files(*args.compare, load_spec())
        return compare.alternate(*args.alternate, args.workload or sorted(WORKLOADS), args.runs, args.seed,
                                 args.seconds, load_spec())

    if not (ROOT / "src" / "beatdiag" / "__init__.py").is_file():
        print(f"error: no beatdiag source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if not args.record and (not args.workload or len(args.workload) != 1):
        parser.error("give exactly one --workload")
    # Termination by signal unwinds like an exception, so that a running
    # repetition is killed and waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    work = WORK / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.record:
            record_references(args.workload or sorted(WORKLOADS), work)
            return 0
        name = args.workload[0]
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        expected = json.loads(REFERENCES.read_text()).get(name, {}).get(str(variant(args.seed)), {})
        corpus = generate(WORKLOADS[name].corpus, args.seed, work / "corpus")
        deadline = start + HARD_LIMIT_S
        if args.trace:
            metrics, reps, setups, cals, raw = traced_run(name, corpus, work, deadline)
        else:
            metrics, reps, setups, cals, raw = timed_run(name, corpus, work, seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    result, failures = result_line(spec, bool(args.trace), metrics, reps, expected)
    print_summary(name, args.seed, result, failures, reps, raw)
    if args.save:
        with args.save.open("a") as fh:
            fh.write(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                                 "rep_wall_s": [r["wall_s"] for r in reps],
                                 "rep_setup_s": setups, "calibrations": cals,
                                 "machine": reps[-1]["versions"], "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
