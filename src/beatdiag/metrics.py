"""Beat evaluation metrics: F-measure and the four continuity scores.

The continuity scores follow the Davies evaluation conventions as
implemented by the standard MIR evaluation library: per-variation
denominators are max(#reference, #estimated), comparisons against the
tolerances are strict, and sequence starts fall back to forward-looking
intervals. Those boundary conventions are pinned by golden fixtures in the
test suite.

By default nothing is trimmed; set ``trim_seconds`` to restore the common
5-second convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientReference


@dataclass(frozen=True)
class EvalConfig:
    f_window: float = 0.07
    continuity_phase_tol: float = 0.175
    continuity_tempo_tol: float = 0.175
    trim_seconds: float = 0.0

    def __post_init__(self):
        if self.f_window <= 0 or self.continuity_phase_tol <= 0 or self.continuity_tempo_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.trim_seconds < 0:
            raise ValueError("trim_seconds must be >= 0")


DEFAULT_EVAL = EvalConfig()


@dataclass(frozen=True)
class EvalResult:
    """Scores for one (estimate, reference) pair."""

    f_measure: float
    cmlc: float
    cmlt: float
    amlc: float
    amlt: float
    n_ref: int
    n_est: int


def trim_beats(beats, trim_seconds: float) -> np.ndarray:
    """Drop beats earlier than ``trim_seconds``; no-op when it is 0."""
    beats = np.asarray(beats, dtype=float)
    if trim_seconds <= 0:
        return beats
    return beats[beats >= trim_seconds]


# ---------------------------------------------------------------------------
# F-measure
# ---------------------------------------------------------------------------


def match_beats(est, ref, window: float) -> list[tuple[int, int]]:
    """Maximum-cardinality one-to-one matching of beats within ``window``.

    Both inputs must be sorted. Returns (est_index, ref_index) pairs sorted
    by est index. Each estimate in turn takes the earliest unmatched
    reference inside its inclusive window; as all windows have one width,
    this greedy pass finds a matching of maximum size.
    """
    est = np.asarray(est, dtype=float)
    ref = np.asarray(ref, dtype=float)
    lo = np.searchsorted(ref, est - window, side="left")
    hi = np.searchsorted(ref, est + window, side="right")
    pairs = []
    j = 0  # every reference below j is matched or left of all later windows
    for i in range(est.size):
        j = max(j, lo[i])
        if j < hi[i]:
            pairs.append((i, int(j)))
            j += 1
    return pairs


def f_measure(est, ref, cfg: EvalConfig = DEFAULT_EVAL) -> float:
    """Harmonic mean of precision and recall over matched beats.

    Both sequences empty scores 1.0; exactly one empty scores 0.0.
    """
    est = trim_beats(est, cfg.trim_seconds)
    ref = trim_beats(ref, cfg.trim_seconds)
    if est.size == 0 and ref.size == 0:
        return 1.0
    if est.size == 0 or ref.size == 0:
        return 0.0
    hits = len(match_beats(est, ref, cfg.f_window))
    if hits == 0:
        return 0.0
    precision = hits / est.size
    recall = hits / ref.size
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Continuity
# ---------------------------------------------------------------------------


def metrical_variations(ref) -> list[np.ndarray]:
    """Reference variations scored by the AML metrics.

    Order: annotated level, offbeat, double tempo, half tempo from beat 1,
    half tempo from beat 2.
    """
    ref = np.asarray(ref, dtype=float)
    half_idx = np.arange(0, ref.size - 0.5, 0.5)
    double = np.interp(half_idx, np.arange(ref.size), ref)
    return [ref, double[1::2], double, ref[::2], ref[1::2]]


def _local_intervals(est, ref, m, j):
    # Sequence starts look forward; elsewhere the previous interval is used.
    if m == 0 or j == 0:
        if j + 1 < ref.size:
            ref_int = ref[j + 1] - ref[j]
        else:
            ref_int = ref[j] - ref[j - 1]
        if m + 1 < est.size:
            est_int = est[m + 1] - est[m]
        else:
            est_int = est[m] - est[m - 1]
    else:
        ref_int = ref[j] - ref[j - 1]
        est_int = est[m] - est[m - 1]
    return ref_int, est_int


def _variation_scores(est, ref, phase_tol, period_tol):
    n = max(ref.size, est.size)
    correct = np.zeros(est.size, dtype=bool)
    used = np.zeros(ref.size, dtype=bool)
    for m in range(est.size):
        gaps = np.abs(ref - est[m])
        j = int(np.argmin(gaps))
        if used[j]:
            continue
        ref_int, est_int = _local_intervals(est, ref, m, j)
        if ref_int == 0:
            # Degenerate duplicate reference beats; mirrors the reference
            # library, where such a beat can never satisfy the phase test.
            phase = 1.0 if gaps[j] == 0 else np.inf
            period = 0.0 if est_int == 0 else np.inf
        else:
            phase = abs(gaps[j] / ref_int)
            period = abs(1.0 - est_int / ref_int)
        if phase < phase_tol and period < period_tol:
            used[j] = True
            correct[m] = True
    total = int(correct.sum())
    longest = 0
    run = 0
    for hit in correct:
        run = run + 1 if hit else 0
        longest = max(longest, run)
    return longest / n, total / n


def continuity(est, ref, cfg: EvalConfig = DEFAULT_EVAL) -> tuple[float, float, float, float]:
    """Continuity scores (cmlc, cmlt, amlc, amlt).

    CML scores the annotated metrical level only; AML takes the best over
    the variation set from :func:`metrical_variations`. The "c" variants
    use the longest correct run, the "t" variants all correct beats.
    """
    est = trim_beats(est, cfg.trim_seconds)
    ref = trim_beats(ref, cfg.trim_seconds)
    if ref.size < 2:
        raise InsufficientReference(f"continuity needs >= 2 reference beats, got {ref.size}")
    if est.size <= 1:
        return 0.0, 0.0, 0.0, 0.0
    continuous = []
    total = []
    for variation in metrical_variations(ref):
        c, t = _variation_scores(est, variation, cfg.continuity_phase_tol, cfg.continuity_tempo_tol)
        continuous.append(c)
        total.append(t)
    return continuous[0], total[0], max(continuous), max(total)


def evaluate(est, ref, cfg: EvalConfig = DEFAULT_EVAL) -> EvalResult:
    """Full metric suite for one (estimate, reference) pair."""
    est = trim_beats(est, cfg.trim_seconds)
    ref = trim_beats(ref, cfg.trim_seconds)
    inner = EvalConfig(
        f_window=cfg.f_window,
        continuity_phase_tol=cfg.continuity_phase_tol,
        continuity_tempo_tol=cfg.continuity_tempo_tol,
        trim_seconds=0.0,
    )
    cmlc, cmlt, amlc, amlt = continuity(est, ref, inner)
    return EvalResult(
        f_measure=f_measure(est, ref, inner),
        cmlc=cmlc,
        cmlt=cmlt,
        amlc=amlc,
        amlt=amlt,
        n_ref=int(ref.size),
        n_est=int(est.size),
    )
