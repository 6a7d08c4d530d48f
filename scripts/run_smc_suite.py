#!/usr/bin/env python3
"""Run the full per-track diagnostic experiment battery on a dataset root.

Expected layout under ROOT (override with flags):
    beats/          one .beats/.txt annotation file per track
    tags/           optional .tag/.tags difficulty descriptor files
    activations/L/  optional activation files per source label L
    tempo/*.csv     optional tempo-estimate files (track_id,bpm,source_label)

Usage:
    python scripts/run_smc_suite.py ROOT -o OUT [--source LABEL] [--jobs N]

Each stage runs ``beatdiag experiment NAME --source LABEL --jobs N -o OUT``
on the dataset, loaded once. Without real model activations the battery
still runs everything that only needs annotations (dataset-stats,
gt-bottleneck, lambda sweep on synthetic GT activations, GT-tempo curve);
with activations it adds the peak-vs-dbn, threshold-sweep, and taxonomy runs
on them.
"""

import argparse
import sys
import time
from pathlib import Path

from beatdiag import cli, ingest
from beatdiag.errors import ToolkitError
from beatdiag.experiments import GT_SOURCE

# The battery, in run order; the last three need real activations.
STAGES = ("dataset-stats", "gt-bottleneck", "bottleneck", "lambda-sweep", "tempo-curve",
          "threshold-sweep", "peak-vs-dbn", "taxonomy")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("root", help="dataset root directory")
    parser.add_argument("-o", "--output", required=True, help="run output directory")
    parser.add_argument("--source", default=None, help="activation source label to analyze")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    root = Path(args.root)
    layout = ingest.root_layout(root)
    sources = sorted(layout.activation_dirs)
    datasets = [(root.name, ingest.load_dataset(root, layout))]
    dataset = datasets[0][1]
    print(f"{len(dataset)} tracks, activation sources: {sources or 'none'}")
    if dataset.residue_tags:
        n = sum(len(v) for v in dataset.residue_tags.values())
        print(f"warning: {n} unrecognized tag(s) across {len(dataset.residue_tags)} track(s)")

    source = args.source or (sources[0] if sources else GT_SOURCE)
    t0 = time.monotonic()
    for name in STAGES[:-3] if source == GT_SOURCE else STAGES:
        start = time.monotonic()
        stage = cli.build_parser().parse_args(
            ["experiment", name, "--source", source, "--jobs", str(args.jobs), "-o", args.output])
        report = cli.run_experiment(stage, datasets)
        cli.write_experiment(report, datasets, args.output)
        print(f"[{time.monotonic() - start:6.1f}s] {name}: "
              + " ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in list(report.summary.items())[:5]))
    print(f"total {time.monotonic() - t0:.1f}s; reports under {args.output}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ToolkitError, ValueError) as exc:
        sys.exit(f"error: {exc}")
