#!/usr/bin/env python3
"""Run the full per-track diagnostic experiment battery on a dataset root.

Expected layout under ROOT (override with flags):
    beats/          one .beats/.txt annotation file per track
    tags/           optional .tag/.tags difficulty descriptor files
    activations/L/  optional activation files per source label L
    tempo/*.csv     optional tempo-estimate files (track_id,bpm,source_label)

Usage:
    python scripts/run_smc_suite.py ROOT -o OUT [--source LABEL] [--jobs N]

Without real model activations the battery still runs everything that only
needs annotations (dataset-stats, gt-bottleneck, lambda sweep on synthetic
GT activations, GT-tempo curve); with activations it adds the peak-vs-dbn,
threshold-sweep, and taxonomy runs on them.
"""

import argparse
import sys
import time
from pathlib import Path

from beatdiag import experiments, ingest, reports


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
    dataset = ingest.load_dataset(root, layout)
    print(f"{len(dataset)} tracks, activation sources: {sources or 'none'}")
    if dataset.residue_tags:
        n = sum(len(v) for v in dataset.residue_tags.values())
        print(f"warning: {n} unrecognized tag(s) across {len(dataset.residue_tags)} track(s)")

    source = args.source or (sources[0] if sources else experiments.GT_SOURCE)
    out = Path(args.output)
    t0 = time.monotonic()

    def run(name, fn, *fargs, **kw):
        start = time.monotonic()
        report = fn(*fargs, **kw)
        reports.write_run_report(report, out, {"experiment": name, "source": source, "jobs": args.jobs})
        print(f"[{time.monotonic() - start:6.1f}s] {name}: "
              + " ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in list(report.summary.items())[:5]))
        return report

    run("dataset-stats", experiments.dataset_stats, dataset)
    run("gt-bottleneck", experiments.run_gt_bottleneck, dataset, jobs=args.jobs)
    run("bottleneck", experiments.run_bottleneck_table, [(root.name, dataset)],
        source=None if source == experiments.GT_SOURCE else source, jobs=args.jobs)
    run("lambda-sweep", experiments.run_lambda_sweep, dataset, source, jobs=args.jobs)
    run("tempo-curve", experiments.run_tempo_curve, dataset, source,
        [(experiments.GT_TEMPO_SOURCE, {})], jobs=args.jobs)
    if source != experiments.GT_SOURCE:
        run("threshold-sweep", experiments.run_threshold_sweep, dataset, source, jobs=args.jobs)
        run("peak-vs-dbn", experiments.run_peak_vs_dbn, dataset, source, jobs=args.jobs)
        taxonomy = run("taxonomy", experiments.run_taxonomy, dataset, source, jobs=args.jobs)
        bundles = experiments.emit_figure_data(dataset, rows=taxonomy.rows)
        fig_dir = out / "figures"
        fig_dir.mkdir(parents=True, exist_ok=True)
        for name, text in bundles.items():
            (fig_dir / name).write_text(text)
    print(f"total {time.monotonic() - t0:.1f}s; reports under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
