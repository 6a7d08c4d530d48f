"""Threshold-based peak picking over activation curves.

This is the raw, DBN-free beat extraction path: local maxima above a
threshold, with close peaks suppressed in favor of the higher one.
"""

from __future__ import annotations

import bisect
import math
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
        if not 0 <= self.min_separation < math.inf:  # NaN fails too
            raise ValueError(f"min_separation must be >= 0 and finite, got {self.min_separation}")


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
    no_higher = np.concatenate(([True], rise)) & np.concatenate((fall, [True]))
    peak = no_higher & (np.concatenate(([False], rise)) | np.concatenate((fall, [False])))
    return starts[peak]


def _peak_frames(act: ActivationCurve, cfg: PeakConfig) -> np.ndarray:
    """Sorted frames of the thresholded local maxima that survive suppression.

    Among peaks closer than ``min_separation`` the higher one wins; equal
    heights keep the earlier frame.
    """
    values = act.values
    candidates = _candidate_peaks(values)
    candidates = candidates[values[candidates] >= cfg.threshold]
    min_gap = cfg.min_separation * act.fps
    if min_gap <= 0 or len(candidates) <= 1:
        return candidates
    kept: list[int] = []  # sorted
    # Highest first, ties by earlier frame.
    for frame in candidates[np.lexsort((candidates, -values[candidates]))].tolist():
        pos = bisect.bisect_left(kept, frame)
        if pos > 0 and frame - kept[pos - 1] < min_gap:
            continue
        if pos < len(kept) and kept[pos] - frame < min_gap:
            continue
        kept.insert(pos, frame)
    return np.asarray(kept, dtype=np.intp)


def pick_peaks(act: ActivationCurve, cfg: PeakConfig = PeakConfig()) -> np.ndarray:
    """Beat times (seconds) from thresholded local maxima (``_peak_frames``)."""
    return _peak_frames(act, cfg) / act.fps


def pick_peaks_grid(act: ActivationCurve, configs) -> dict:
    """{cfg: pick_peaks(act, cfg)} for every PeakConfig in ``configs``.

    One suppression pass per ``min_separation``, at the group's lowest
    threshold. The pass visits candidates highest first, so those at or
    above any higher threshold are a prefix of its visit order and get the
    same decisions: each threshold's picks are the pass's frames that reach
    it, the same frames as a pass at that threshold.
    """
    groups = {}
    for cfg in configs:
        groups.setdefault(cfg.min_separation, []).append(cfg)
    picks = {}
    for group in groups.values():
        frames = _peak_frames(act, min(group, key=lambda cfg: cfg.threshold))
        heights = act.values[frames]
        picks.update((cfg, frames[heights >= cfg.threshold] / act.fps) for cfg in group)
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
