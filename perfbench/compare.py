"""Compare a parent and a change by the benchmark's own bounds.

A result file holds one JSON object per line, as `run.py --save` appends
them; lines of traced runs are ignored. For each workload and end-to-end
metric the comparison prints both sides' median and quartiles, the pair
wins of the change (run i of one file against run i of the other) and a
verdict:

  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run;
  improved    the change wins at least 9 of 10 pairs and its median is
              better by more than the parent's IQR (or every change run
              beats every parent run);
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

A change whose runs fail more operations than the parent's (a higher
error_rate, failed over attempted) is not called improved: its verdict
reads "more failures" instead.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path


def load(path: Path) -> tuple[dict, dict]:
    """Of the untraced runs: {workload: {metric: [values in file order]}},
    and {workload: [failed, attempted]} summed over the runs."""
    values: dict = {}
    ops: dict = {}
    for line in Path(path).read_text().splitlines():
        entry = json.loads(line)
        if entry.get("trace"):
            continue
        result = entry["result"]
        for metric, value in result["metrics"].items():
            values.setdefault(entry["workload"], {}).setdefault(metric, []).append(value["value"])
        counts = ops.setdefault(entry["workload"], [0, 0])
        counts[0] += result["failed"]
        counts[1] += result["attempted"]
    return values, ops


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound: float, better: str) -> tuple[str, int, int]:
    """(verdict, change wins, pairs)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) < 0: b is better
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    pairs = min(len(parent), len(change))
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if (p3 - p1) / p_med > bound:
        return ("improved" if every_run_better else "unresolved"), wins, pairs
    if every_run_better or (wins >= 0.9 * pairs and sign * (p_med - c_med) > p3 - p1):
        return "improved", wins, pairs
    if sign * (c_med - p_med) / p_med > bound:
        return "regressed", wins, pairs
    return "unchanged", wins, pairs


def compare_files(parent_file: Path, change_file: Path, spec: dict) -> int:
    (parent, parent_ops), (change, change_ops) = load(parent_file), load(change_file)
    for workload in sorted(set(parent) & set(change)):
        (pf, pa), (cf, ca) = parent_ops[workload], change_ops[workload]
        print(f"{workload}: error_rate parent {pf / pa:.4g} ({pf}/{pa}), change {cf / ca:.4g} ({cf}/{ca})")
    print(f"{'workload':12s} {'metric':12s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s} "
          f"{'delta':>8s} {'wins':>6s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        (pf, pa), (cf, ca) = parent_ops[workload], change_ops[workload]
        more_failures = cf / ca > pf / pa
        for m in spec["end_to_end"]:
            a, b = parent[workload].get(m["name"]), change[workload].get(m["name"])
            if not a or not b:
                continue
            label, wins, pairs = verdict(a, b, m["bound"], m["better"])
            if label == "improved" and more_failures:
                label = "more failures"
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            print(f"{workload:12s} {m['name']:12s} {am:12.4f} [{a1:.4f}, {a3:.4f}] {bm:12.4f} [{b1:.4f}, {b3:.4f}] "
                  f"{100 * (bm - am) / am:+7.1f}% {wins:>2d}/{pairs:<3d}  {label} (bound {m['bound']:.0%})")
    return 0


def alternate(parent_dir: Path, change_dir: Path, workloads, runs: int, first_seed: int,
              seconds: float | None, spec: dict) -> int:
    """Run both checkouts' benchmarks in alternating order, then compare.

    Each side runs its own perfbench/run.py, which is the same code as long
    as the change does not edit the benchmark. Results go to
    perfbench/.work/alternate-{parent,change}.jsonl of this checkout.
    """
    work = Path(__file__).resolve().parent / ".work"
    work.mkdir(exist_ok=True)
    files = {"parent": work / "alternate-parent.jsonl", "change": work / "alternate-change.jsonl"}
    for path in files.values():
        path.unlink(missing_ok=True)
    sides = [("parent", Path(parent_dir).resolve()), ("change", Path(change_dir).resolve())]
    for i in range(runs):
        for workload in workloads:
            for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(first_seed + i),
                        "--trace", "0", "--save", str(files[side])]
                if seconds is not None:
                    argv += ["--seconds", str(seconds)]
                subprocess.run(argv, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
                print(f"pair {i + 1}/{runs}: {workload} on {side} done", flush=True)
    return compare_files(files["parent"], files["change"], spec)
