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


_BLOCK_ELEMENTS = 1 << 14  # caps the estimate x reference gap matrix held at once (128 KiB)


def _variation_scores(est, refs, phase_tol, period_tol) -> list[tuple[float, float]]:
    """(longest correct run, correct count) / max(#ref, #est) per reference.

    All references are scored in one pass over their concatenation; ``g``
    indexes it, ``j`` indexes each reference.
    """
    sizes = np.array([r.size for r in refs])[:, None]
    first = np.cumsum(sizes, axis=0) - sizes
    last = first + sizes - 1
    ref = np.concatenate(refs)
    # Nearest reference beat per estimate; argmin keeps the first minimum.
    j = np.empty((len(refs), est.size), dtype=np.intp)
    rows = max(1, _BLOCK_ELEMENTS // ref.size)
    for lo in range(0, est.size, rows):
        gaps = ref - est[lo : lo + rows, None]
        np.abs(gaps, out=gaps)
        for v, (a, b) in enumerate(zip(first[:, 0], last[:, 0] + 1)):
            j[v, lo : lo + rows] = np.argmin(gaps[:, a:b], axis=1)
    g = first + j
    gap = np.abs(ref[g] - est)
    # Local intervals: sequence starts look forward if there is a next beat;
    # elsewhere (and in a 1-beat reference, via its wrap) the previous one.
    m = np.arange(est.size)
    start = (m == 0) | (j == 0)
    ref_next = ref[np.minimum(g + 1, last)] - ref[g]
    ref_int = np.where(start & (j + 1 < sizes), ref_next, ref[g] - ref[np.where(j == 0, last, g - 1)])
    est_next = est[np.minimum(m + 1, est.size - 1)] - est
    est_int = np.where(start & (m + 1 < est.size), est_next, est - est[m - 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        # Degenerate duplicate reference beats (ref_int == 0) mirror the
        # reference library, where such a beat can never satisfy the phase test.
        degenerate = ref_int == 0
        phase = np.where(degenerate, np.where(gap == 0, 1.0, np.inf), np.abs(gap / ref_int))
        period = np.where(degenerate, np.where(est_int == 0, 0.0, np.inf), np.abs(1.0 - est_int / ref_int))
    # Each reference beat is claimed by the first estimate that passes on it.
    passing = np.flatnonzero((phase < phase_tol) & (period < period_tol))
    claims = passing[np.unique(g.ravel()[passing], return_index=True)[1]]
    correct = np.zeros((len(refs), est.size + 2), dtype=bool)  # a miss at each end of each row
    correct[:, 1:-1].flat[claims] = True
    edges = np.flatnonzero(correct.ravel()[1:] != correct.ravel()[:-1])
    longest = np.zeros(len(refs), dtype=int)
    np.maximum.at(longest, edges[::2] // (est.size + 2), edges[1::2] - edges[::2])
    n = np.maximum(sizes[:, 0], est.size).tolist()
    return [(c / k, t / k) for c, t, k in zip(longest.tolist(), correct.sum(axis=1).tolist(), n)]


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
    tols = (cfg.continuity_phase_tol, cfg.continuity_tempo_tol)
    continuous, total = zip(*_variation_scores(est, metrical_variations(ref), *tols))
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
