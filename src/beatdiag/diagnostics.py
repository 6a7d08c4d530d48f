"""Activation-quality diagnostics, failure taxonomy, and tempo statistics.

The activation diagnostics quantify whether a curve is usable at all
(energy at annotated beats, peaked shape, periodic structure) independently
of any decoder. The taxonomy buckets evaluation results into disjoint
failure modes with fixed precedence.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateInput, InsufficientReference, NoOverlap
from .ingest import ActivationCurve, BeatAnnotation
from .metrics import EvalResult
from .peaks import PeakConfig, _peak_frames

log = logging.getLogger(__name__)

GT_NEIGHBORHOOD_FRAMES = 2  # +/- window around each annotated beat
SHARPNESS_OFFSET_FRAMES = 3
PERIODICITY_BPM_RANGE = (30.0, 215.0)
MIN_TEMPO_BEATS = 3  # annotated beats that tempo statistics need

# Failure taxonomy thresholds (classify_failure).
GOOD_F = 0.8
TOTAL_FAILURE_F = 0.3  # a total failure is below both of these
TOTAL_FAILURE_AMLT = 0.3
OCTAVE_GAP = 0.25  # AMLt - F
CONTINUITY_GAP = 0.2  # CMLt - CMLc


@dataclass(frozen=True)
class ActivationDiagnostics:
    act_at_gt: float
    max_activation: float
    peak_sharpness: float
    periodicity_strength: float
    entropy: float
    false_positive_activation: float


class FailureCategory(str, Enum):
    GOOD = "good"
    TOTAL_FAILURE = "total_failure"
    OCTAVE_ERROR = "octave_error"
    CONTINUITY_ERROR = "continuity_error"
    OTHER = "other"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class TempoStats:
    gt_bpm: float
    ibi_cv: float


def _beat_frames(act: ActivationCurve, ref: BeatAnnotation) -> np.ndarray:
    with np.errstate(over="ignore"):  # a huge fps gives inf, which lies outside the curve
        frames = np.round(ref.beats * act.fps)
    in_range = (frames >= 0) & (frames < len(act.values))  # on floats: only these fit an int64
    if not in_range.all():
        log.warning(
            "%s: %d beat(s) outside the %d-frame curve skipped",
            ref.track_id, int((~in_range).sum()), len(act.values),
        )
    return frames[in_range].astype(np.int64)


def _windows(frames: np.ndarray, n: int) -> np.ndarray:
    """Frame indices within +/-2 frames of each beat, clipped to the curve;
    a clipped window repeats its edge frame, which changes no max or mask."""
    offsets = np.arange(-GT_NEIGHBORHOOD_FRAMES, GT_NEIGHBORHOOD_FRAMES + 1)
    return np.clip(frames[:, None] + offsets, 0, n - 1)


def act_at_gt(act: ActivationCurve, ref: BeatAnnotation) -> float:
    """Mean over annotated beats of the max activation within +/-2 frames."""
    return _act_at_frames(act, _beat_frames(act, ref), ref.track_id)


def _act_at_frames(act: ActivationCurve, frames: np.ndarray, track_id: str) -> float:
    if frames.size == 0:
        raise NoOverlap(f"{track_id}: no annotated beat inside the curve")
    return float(np.mean(act.values[_windows(frames, len(act.values))].max(axis=1)))


def false_positive_activation(act: ActivationCurve, ref: BeatAnnotation) -> float:
    """Mean activation over frames farther than 2 frames from every beat."""
    return _far_from_frames(act, _beat_frames(act, ref))


def _far_from_frames(act: ActivationCurve, frames: np.ndarray) -> float:
    far = np.ones(len(act.values), dtype=bool)
    far[_windows(frames, len(act.values))] = False
    if not far.any():
        return 0.0
    return float(act.values[far].mean())


def peak_sharpness(act: ActivationCurve) -> float:
    """Mean peak prominence over a 3-frame offset; 0 when no peaks."""
    values = act.values
    frames = _peak_frames(act, PeakConfig(threshold=0.1, min_separation=0.0))
    if frames.size == 0:
        return 0.0
    before = values[np.maximum(frames - SHARPNESS_OFFSET_FRAMES, 0)]
    after = values[np.minimum(frames + SHARPNESS_OFFSET_FRAMES, len(values) - 1)]
    sharpness = values[frames] - 0.5 * (before + after)
    # where, not np.maximum: like max(x, 0.0), a tie or NaN keeps x
    return float(np.mean(np.where(0.0 > sharpness, 0.0, sharpness)))


def periodicity_strength(act: ActivationCurve) -> float:
    """Max normalized autocorrelation over lags in the 30-215 BPM range."""
    x = act.values - act.values.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return 0.0
    lag_min = int(round(60.0 * act.fps / PERIODICITY_BPM_RANGE[1]))
    lag_max = int(round(60.0 * act.fps / PERIODICITY_BPM_RANGE[0]))
    lag_min = max(lag_min, 1)
    lag_max = min(lag_max, len(x) - 1)
    if lag_max < lag_min:
        return 0.0
    best = max(float(np.dot(x[:-lag], x[lag:])) / denom for lag in range(lag_min, lag_max + 1))
    return float(np.clip(best, 0.0, 1.0))


def activation_entropy(act: ActivationCurve) -> float:
    """Shannon entropy of the sum-normalized curve, scaled to [0, 1]."""
    total = act.values.sum()
    n = len(act.values)
    if total == 0.0 or n < 2:
        return 0.0
    p = act.values / total
    nonzero = p[p > 0]
    return float(-(nonzero * np.log(nonzero)).sum() / np.log(n))


def compute_diagnostics(act: ActivationCurve, ref: BeatAnnotation) -> ActivationDiagnostics:
    frames = _beat_frames(act, ref)  # once: it logs the beats outside the curve
    return ActivationDiagnostics(
        act_at_gt=_act_at_frames(act, frames, ref.track_id),
        max_activation=float(act.values.max()),
        peak_sharpness=peak_sharpness(act),
        periodicity_strength=periodicity_strength(act),
        entropy=activation_entropy(act),
        false_positive_activation=_far_from_frames(act, frames),
    )


def classify_failure(result: EvalResult) -> FailureCategory:
    """Assign exactly one failure category; precedence is fixed.

    good -> total failure -> octave error -> continuity error -> other.
    """
    if result.f_measure >= GOOD_F:
        return FailureCategory.GOOD
    if result.f_measure < TOTAL_FAILURE_F and result.amlt < TOTAL_FAILURE_AMLT:
        return FailureCategory.TOTAL_FAILURE
    if result.amlt - result.f_measure > OCTAVE_GAP:
        return FailureCategory.OCTAVE_ERROR
    if result.cmlt - result.cmlc > CONTINUITY_GAP:
        return FailureCategory.CONTINUITY_ERROR
    return FailureCategory.OTHER


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation, with average ranks for ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 3:
        raise DegenerateInput("spearman needs two equal-length sequences of >= 3 values")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt(np.dot(rx, rx) * np.dot(ry, ry))
    if denom == 0.0:
        raise DegenerateInput("zero rank variance")
    rho = float(np.dot(rx, ry) / denom)
    return float(np.clip(rho, -1.0, 1.0))


def median(values) -> float:
    """``np.median`` of a non-empty sequence, bit for bit (nan if any value
    is nan). np.median imports numpy.ma on its first call, about 20 ms."""
    ordered = np.sort(np.asarray(values, dtype=float))
    mid = len(ordered) // 2
    if np.isnan(ordered[-1]):
        return float("nan")
    # np.median takes the mean of the middle values, and its sum (np.add.reduce)
    # starts from +0.0: the sign of a zero median is that sum's, not a + b's
    middle = ordered[mid - 1 + len(ordered) % 2:mid + 1]
    return float(np.add.reduce(middle) / len(middle))


def tempo_stats(ref: BeatAnnotation) -> TempoStats:
    """Median-IBI tempo and the coefficient of variation of the IBIs."""
    if len(ref.beats) < MIN_TEMPO_BEATS:
        raise InsufficientReference(f"{ref.track_id}: tempo stats need >= {MIN_TEMPO_BEATS} beats")
    ibis = np.diff(ref.beats)
    return TempoStats(
        gt_bpm=60.0 / median(ibis),
        ibi_cv=float(ibis.std() / ibis.mean()),
    )


# ---------------------------------------------------------------------------
# Tempo-estimate scoring
# ---------------------------------------------------------------------------

BPM_BANDS = ((0.0, 55.0), (55.0, 70.0), (70.0, 90.0), (90.0, 120.0), (120.0, np.inf))


def _band_name(bpm: float) -> str:
    for lo, hi in BPM_BANDS:
        if lo <= bpm < hi:
            if np.isinf(hi):
                return f">={lo:g}"
            if lo == 0.0:
                return f"<{hi:g}"
            return f"{lo:g}-{hi:g}"
    return "unknown"


def score_tempo_estimate(est_bpm: float, gt_bpm: float, tol: float = 0.08) -> str:
    """correct / double / half within relative tolerance, else other."""
    if abs(est_bpm - gt_bpm) / gt_bpm <= tol:
        return "correct"
    if abs(est_bpm - 2.0 * gt_bpm) / (2.0 * gt_bpm) <= tol:
        return "double"
    if abs(est_bpm - 0.5 * gt_bpm) / (0.5 * gt_bpm) <= tol:
        return "half"
    return "other"
