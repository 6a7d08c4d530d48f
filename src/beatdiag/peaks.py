"""Threshold-based peak picking over activation curves.

This is the raw, DBN-free beat extraction path: local maxima above a
threshold, with close peaks suppressed in favor of the higher one.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .ingest import ActivationCurve, BeatAnnotation
from . import metrics


@dataclass(frozen=True)
class PeakConfig:
    threshold: float = 0.5
    min_separation: float = 0.1  # seconds

    def __post_init__(self):
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must be in (0, 1)")
        if self.min_separation < 0:
            raise ValueError("min_separation must be >= 0")


# Sweep endpoints 0.05 and 0.98 with uniform 0.05 spacing in between.
DEFAULT_THRESHOLD_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20)) + (0.98,)


def _candidate_peaks(values: np.ndarray) -> np.ndarray:
    """Frames of local maxima; a plateau yields its first frame.

    A run of equal values is a peak when no neighboring run is higher and at
    least one existing neighboring run is strictly lower. ``values`` is
    non-empty, as in an ActivationCurve.
    """
    run_start = np.ones(len(values), dtype=bool)
    run_start[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(run_start)
    level = values[starts]
    rise = level[:-1] < level[1:]  # run i + 1 is above run i
    fall = level[1:] < level[:-1]  # run i is above run i + 1
    no_higher = np.r_[True, rise] & np.r_[fall, True]
    peak = no_higher & (np.r_[False, rise] | np.r_[fall, False])
    return starts[peak]


def pick_peaks(act: ActivationCurve, cfg: PeakConfig = PeakConfig()) -> np.ndarray:
    """Beat times (seconds) from thresholded local maxima.

    Among peaks closer than ``min_separation`` the higher one wins; equal
    heights keep the earlier frame.
    """
    values = act.values
    candidates = _candidate_peaks(values)
    candidates = candidates[values[candidates] >= cfg.threshold]
    min_gap = cfg.min_separation * act.fps
    if min_gap > 0 and len(candidates) > 1:
        kept: list[int] = []
        # Highest first, ties by earlier frame.
        for frame in candidates[np.lexsort((candidates, -values[candidates]))].tolist():
            pos = bisect.bisect_left(kept, frame)
            before = kept[pos - 1] if pos > 0 else None
            after = kept[pos] if pos < len(kept) else None
            if before is not None and frame - before < min_gap:
                continue
            if after is not None and after - frame < min_gap:
                continue
            kept.insert(pos, frame)
        candidates = kept
    return np.sort(np.asarray(candidates, dtype=float)) / act.fps


def pick_peaks_grid(act: ActivationCurve, configs) -> dict:
    """{cfg: pick_peaks(act, cfg)} for every PeakConfig in ``configs``.

    One suppression pass per ``min_separation``, at the group's lowest
    threshold. The pass visits candidates highest first, so those at or
    above any higher threshold are a prefix of its visit order and get the
    same decisions: each threshold's picks are the returned beats whose
    frame reaches it, bit-identical to a pass at that threshold.
    """
    # A beat's frame is read back as rint(beat * fps), which is exact while
    # frame / fps is a normal, finite float; outside this range of fps, pick
    # each threshold on its own.
    if not 1e-250 < act.fps < 1e250:
        return {cfg: pick_peaks(act, cfg) for cfg in configs}
    groups = {}
    for cfg in configs:
        groups.setdefault(cfg.min_separation, []).append(cfg)
    picks = {}
    for group in groups.values():
        beats = pick_peaks(act, min(group, key=lambda cfg: cfg.threshold))
        heights = act.values[np.rint(beats * act.fps).astype(np.intp)]
        picks.update((cfg, beats[heights >= cfg.threshold]) for cfg in group)
    return picks


@dataclass(frozen=True)
class ThresholdSweep:
    """Per-threshold results plus the F-optimal threshold (ties go lower)."""

    thresholds: tuple
    results: tuple
    best_threshold: float
    best_result: metrics.EvalResult


def sweep_threshold(
    act: ActivationCurve,
    ref: BeatAnnotation,
    thresholds=DEFAULT_THRESHOLD_GRID,
    eval_cfg: metrics.EvalConfig = metrics.DEFAULT_EVAL,
    min_separation: float = 0.1,
) -> ThresholdSweep:
    """Evaluate pick_peaks against ``ref`` at every threshold in the grid."""
    if not len(thresholds):
        raise ValueError("thresholds must be non-empty")
    results = []
    for thr in thresholds:
        est = pick_peaks(act, PeakConfig(threshold=thr, min_separation=min_separation))
        results.append(metrics.evaluate(est, ref.beats, eval_cfg))
    best_i = 0
    for i, res in enumerate(results):
        if res.f_measure > results[best_i].f_measure:
            best_i = i
    return ThresholdSweep(
        thresholds=tuple(thresholds),
        results=tuple(results),
        best_threshold=float(thresholds[best_i]),
        best_result=results[best_i],
    )
