"""Beat evaluation metrics: F-measure and the four continuity scores.

The continuity scores follow the Davies evaluation conventions as
implemented by the standard MIR evaluation library: per-variation
denominators are max(#reference, #estimated), comparisons against the
tolerances are strict, and sequence starts fall back to forward-looking
intervals. Those boundary conventions are pinned by golden fixtures in the
test suite.

By default nothing is trimmed; set ``trim_seconds`` to restore the common
5-second convention.

``evaluate_many`` scores several estimates against one reference in one
pass: the reference is trimmed and its metrical variations are built once,
the continuity scores of all estimates come from one nearest-beat search
over their concatenation, and the F-measure windows from one search.
``evaluate``, ``continuity`` and ``f_measure`` run the same pass on one
estimate, so the batched and single results are the same bits.
"""

from __future__ import annotations

import math
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
        for name in ("f_window", "continuity_phase_tol", "continuity_tempo_tol"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.trim_seconds < math.inf:
            raise ValueError(f"trim_seconds must be >= 0 and finite, got {self.trim_seconds}")


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


def _greedy_pairs(lo: list, hi: list) -> list[tuple[int, int]]:
    """Greedy one-to-one matching given each estimate's window [lo, hi) of
    reference indices; see :func:`match_beats`."""
    pairs = []
    j = 0  # every reference below j is matched or left of all later windows
    for i, (a, b) in enumerate(zip(lo, hi)):
        if j < a:
            j = a
        if j < b:
            pairs.append((i, j))
            j += 1
    return pairs


def _windows(est, ref, window: float) -> tuple[list, list]:
    lo = np.searchsorted(ref, est - window, side="left")
    hi = np.searchsorted(ref, est + window, side="right")
    return lo.tolist(), hi.tolist()


def match_beats(est, ref, window: float) -> list[tuple[int, int]]:
    """Maximum-cardinality one-to-one matching of beats within ``window``.

    Both inputs must be sorted. Returns (est_index, ref_index) pairs sorted
    by est index. Each estimate in turn takes the earliest unmatched
    reference inside its inclusive window; as all windows have one width,
    this greedy pass finds a matching of maximum size.
    """
    return _greedy_pairs(*_windows(np.asarray(est, dtype=float), np.asarray(ref, dtype=float), window))


def _f_measures(ests, ref, window: float) -> list[float]:
    """F-measure of each estimate against ``ref``; one window search over
    the estimates' concatenation, then one greedy matching per estimate."""
    lo, hi = _windows(np.concatenate(ests), ref, window)
    scores, a = [], 0
    for est in ests:
        b = a + est.size
        hits = len(_greedy_pairs(lo[a:b], hi[a:b]))
        a = b
        if est.size == 0 and ref.size == 0:
            scores.append(1.0)
        elif hits == 0:
            scores.append(0.0)
        else:
            precision = hits / est.size
            recall = hits / ref.size
            scores.append(2 * precision * recall / (precision + recall))
    return scores


def f_measure(est, ref, cfg: EvalConfig = DEFAULT_EVAL) -> float:
    """Harmonic mean of precision and recall over matched beats.

    Both sequences empty scores 1.0; exactly one empty scores 0.0.
    """
    est = trim_beats(est, cfg.trim_seconds)
    ref = trim_beats(ref, cfg.trim_seconds)
    return _f_measures([est], ref, cfg.f_window)[0]


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


def _variation_scores(ests, refs, phase_tol, period_tol) -> list[list[tuple[float, float]]]:
    """Per estimate, (longest correct run, correct count) / max(#ref, #est)
    per reference.

    All estimates and all references are scored in one pass over their
    concatenations: ``g`` indexes the references' concatenation, ``j`` each
    reference; ``i`` indexes the estimates' concatenation, ``m`` each
    estimate, and ``seg`` is the estimate that beat ``i`` belongs to.
    """
    sizes = np.array([r.size for r in refs])[:, None]
    first = np.cumsum(sizes, axis=0) - sizes
    last = first + sizes - 1
    ref = np.concatenate(refs)
    counts = np.array([e.size for e in ests])
    seg = np.repeat(np.arange(counts.size), counts)
    est = np.concatenate(ests)
    # Nearest reference beat per estimate beat; argmin keeps the first minimum.
    j = np.empty((len(refs), est.size), dtype=np.intp)
    rows = max(1, _BLOCK_ELEMENTS // ref.size)
    for lo in range(0, est.size, rows):
        gaps = ref - est[lo : lo + rows, None]
        np.abs(gaps, out=gaps)
        for v, (a, b) in enumerate(zip(first[:, 0], last[:, 0] + 1)):
            j[v, lo : lo + rows] = gaps[:, a:b].argmin(axis=1)
    g = first + j
    gap = np.abs(ref[g] - est)
    # Local intervals: sequence starts look forward if there is a next beat;
    # elsewhere (and in a 1-beat sequence, via its wrap) the previous one.
    i = np.arange(est.size)
    m = i - (np.cumsum(counts) - counts)[seg]
    size = counts[seg]
    start = (m == 0) | (j == 0)
    ref_next = ref[np.minimum(g + 1, last)] - ref[g]
    ref_int = np.where(start & (j + 1 < sizes), ref_next, ref[g] - ref[np.where(j == 0, last, g - 1)])
    est_next = est[np.minimum(i + 1, est.size - 1)] - est
    est_int = np.where(start & (m + 1 < size), est_next, est - est[np.where(m == 0, i + size - 1, i - 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        # Degenerate duplicate reference beats (ref_int == 0) mirror the
        # reference library, where such a beat can never satisfy the phase test.
        degenerate = ref_int == 0
        phase = np.where(degenerate, np.where(gap == 0, 1.0, np.inf), np.abs(gap / ref_int))
        period = np.where(degenerate, np.where(est_int == 0, 0.0, np.inf), np.abs(1.0 - est_int / ref_int))
    # Each (estimate, reference beat) is claimed by the estimate's first beat
    # that passes on it.
    passing = np.flatnonzero((phase < phase_tol) & (period < period_tol))
    owner = (seg * ref.size + g).ravel()[passing]
    claims = passing[np.unique(owner, return_index=True)[1]]
    # Row v holds each estimate's beats in turn, with a miss before each
    # estimate and one at the end, so no run crosses an estimate or a row.
    width = est.size + counts.size + 1
    col = i + seg + 1
    colseg = np.zeros(width, dtype=np.intp)
    colseg[col] = seg
    correct = np.zeros(len(refs) * width, dtype=bool)
    hit = (np.arange(len(refs))[:, None] * width + col).ravel()[claims]
    correct[hit] = True
    edges = np.flatnonzero(correct[1:] != correct[:-1])
    run_start = edges[::2] + 1
    longest = np.zeros((counts.size, len(refs)), dtype=int)
    np.maximum.at(longest, (colseg[run_start % width], run_start // width), edges[1::2] - edges[::2])
    total = np.bincount(colseg[hit % width] * len(refs) + hit // width, minlength=longest.size)
    n = np.maximum(sizes[:, 0], counts[:, None])
    return [
        [(c / k, t / k) for c, t, k in zip(*per_est)]
        for per_est in zip(longest.tolist(), total.reshape(longest.shape).tolist(), n.tolist())
    ]


def _continuity(ests, ref, cfg: EvalConfig) -> list[tuple[float, float, float, float]]:
    """(cmlc, cmlt, amlc, amlt) per trimmed estimate, all scored in one pass."""
    if ref.size < 2:
        raise InsufficientReference(f"continuity needs >= 2 reference beats, got {ref.size}")
    tols = (cfg.continuity_phase_tol, cfg.continuity_tempo_tol)
    scores = []
    for est, per_variation in zip(ests, _variation_scores(ests, metrical_variations(ref), *tols)):
        if est.size <= 1:
            scores.append((0.0, 0.0, 0.0, 0.0))
            continue
        continuous, total = zip(*per_variation)
        scores.append((continuous[0], total[0], max(continuous), max(total)))
    return scores


def continuity(est, ref, cfg: EvalConfig = DEFAULT_EVAL) -> tuple[float, float, float, float]:
    """Continuity scores (cmlc, cmlt, amlc, amlt).

    CML scores the annotated metrical level only; AML takes the best over
    the variation set from :func:`metrical_variations`. The "c" variants
    use the longest correct run, the "t" variants all correct beats.
    An estimate of at most one beat scores 0.
    """
    est = trim_beats(est, cfg.trim_seconds)
    ref = trim_beats(ref, cfg.trim_seconds)
    return _continuity([est], ref, cfg)[0]


def evaluate_many(ests, ref, cfg: EvalConfig = DEFAULT_EVAL) -> list[EvalResult]:
    """``[evaluate(est, ref, cfg) for est in ests]``, in one metrics pass.

    The reference is trimmed and its metrical variations built once, and
    every estimate is scored in the same continuity pass and the same
    window search; results and exceptions are those of :func:`evaluate`.
    """
    ests = [trim_beats(est, cfg.trim_seconds) for est in ests]
    if not ests:
        return []
    ref = trim_beats(ref, cfg.trim_seconds)
    scores = _continuity(ests, ref, cfg)
    return [
        EvalResult(f, *cont, n_ref=int(ref.size), n_est=int(est.size))
        for est, f, cont in zip(ests, _f_measures(ests, ref, cfg.f_window), scores)
    ]


def evaluate(est, ref, cfg: EvalConfig = DEFAULT_EVAL) -> EvalResult:
    """Full metric suite for one (estimate, reference) pair."""
    return evaluate_many([est], ref, cfg)[0]
