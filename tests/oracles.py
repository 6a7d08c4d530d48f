"""Independent brute-force oracles used only by the test suite.

Nothing here may import decoding or matching logic from the package under
test; each oracle recomputes its answer from first principles so the tests
compare two independent routes. The one exception is the ring Viterbi
oracle, which takes the decoder's model densities from the package and
pins only its forward recursion.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from beatdiag import dbn
from beatdiag.errors import CorruptActivation, MalformedAnnotation, MissingFps, ParseError
from beatdiag.ingest import ActivationCurve, BeatAnnotation, track_id_from_path


# ---------------------------------------------------------------------------
# Optimal beat matching (F-measure oracle)
# ---------------------------------------------------------------------------


def max_matching_bitmask(est, ref, window: float) -> int:
    """Exact maximum one-to-one matching size over all injective assignments.

    Dynamic program over (est index, used-reference bitmask); exhaustive in
    the sense that every assignment is represented. Feasible for <= ~16 refs.
    """
    est = list(est)
    ref = list(ref)
    if not est or not ref:
        return 0
    assert len(ref) <= 16, "bitmask oracle limited to 16 reference beats"
    feasible = [
        [j for j, r in enumerate(ref) if abs(e - r) <= window] for e in est
    ]
    best = {0: 0}
    for i in range(len(est)):
        nxt = dict(best)
        for mask, score in best.items():
            for j in feasible[i]:
                bit = 1 << j
                if mask & bit:
                    continue
                key = mask | bit
                if nxt.get(key, -1) < score + 1:
                    nxt[key] = score + 1
        best = nxt
    return max(best.values())


def f_measure_oracle(est, ref, window: float) -> float:
    est = list(est)
    ref = list(ref)
    if not est and not ref:
        return 1.0
    if not est or not ref:
        return 0.0
    hits = max_matching_bitmask(est, ref, window)
    if hits == 0:
        return 0.0
    precision = hits / len(est)
    recall = hits / len(ref)
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Dense Viterbi oracle
# ---------------------------------------------------------------------------


def dense_model(min_bpm, max_bpm, transition_lambda, observation_lambda, fps, activations):
    """Dense (initial, transition, observation) matrices built from scratch.

    Follows the published model definition only: integer beat periods
    tau in [round(60 fps / max_bpm), round(60 fps / min_bpm)], flat layout
    grouped by tau ascending, phase-ordered; beat region of
    max(1, round(tau / observation_lambda)) leading phases.
    """
    tau_min = int(round(60.0 * fps / max_bpm))
    tau_max = int(round(60.0 * fps / min_bpm))
    taus = list(range(tau_min, tau_max + 1))
    offsets = np.concatenate(([0], np.cumsum(taus)[:-1])).astype(int)
    n = int(sum(taus))

    trans = np.full((n, n), -np.inf)
    for ki, tau in enumerate(taus):
        base = offsets[ki]
        for phase in range(tau - 1):
            trans[base + phase, base + phase + 1] = 0.0
        weights = np.array([np.exp(-transition_lambda * abs(t2 / tau - 1.0)) for t2 in taus])
        weights = weights / weights.sum()
        for kj in range(len(taus)):
            trans[base + tau - 1, offsets[kj]] = np.log(weights[kj])

    beat_mask = np.zeros(n, dtype=bool)
    for ki, tau in enumerate(taus):
        size = max(1, int(round(tau / observation_lambda)))
        beat_mask[offsets[ki]: offsets[ki] + size] = True

    acts = np.asarray(activations, dtype=float)
    obs = np.empty((len(acts), n))
    for t, a in enumerate(acts):
        log_beat = np.log(max(a, 1e-12))
        log_non = np.log(max((1.0 - a) / (observation_lambda - 1), 1e-12))
        obs[t] = np.where(beat_mask, log_beat, log_non)

    init = np.full(n, -np.log(n))
    return init, trans, obs


def dense_viterbi_score(init, trans, obs) -> float:
    """Max path log score by dense max-product dynamic programming."""
    delta = init + obs[0]
    for t in range(1, len(obs)):
        delta = (delta[:, np.newaxis] + trans).max(axis=0) + obs[t]
    return float(delta.max())


def enumerate_paths_score(init, trans, obs) -> float:
    """Literal enumeration over every state sequence; tiny instances only."""
    n_states = len(init)
    n_frames = len(obs)
    assert n_states ** n_frames <= 2_000_000, "enumeration oracle would explode"
    best = -np.inf
    for path in itertools.product(range(n_states), repeat=n_frames):
        score = init[path[0]] + obs[0, path[0]]
        for t in range(1, n_frames):
            score += trans[path[t - 1], path[t]] + obs[t, path[t]]
        best = max(best, score)
    return float(best)


def score_path(path, init, trans, obs) -> float:
    """Log score of a specific state path under the dense model."""
    score = init[path[0]] + obs[0, path[0]]
    for t in range(1, len(obs)):
        score += trans[path[t - 1], path[t]] + obs[t, path[t]]
    return float(score)


# ---------------------------------------------------------------------------
# Spearman oracle (rank-based brute force)
# ---------------------------------------------------------------------------


def spearman_rho_oracle(x, y) -> float:
    """Pearson correlation of average ranks, computed the slow direct way."""

    def ranks(v):
        v = list(v)
        out = []
        for value in v:
            smaller = sum(1 for u in v if u < value)
            equal = sum(1 for u in v if u == value)
            out.append(smaller + (equal + 1) / 2.0)
        return np.asarray(out)

    rx = ranks(x)
    ry = ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx**2).sum() * (ry**2).sum()))


# ---------------------------------------------------------------------------
# Scalar-loop peak picking and continuity (the vectorised kernels' oracles)
# ---------------------------------------------------------------------------


def candidate_peaks_oracle(values) -> list[int]:
    """Frames of local maxima by a walk over runs of equal values."""
    n = len(values)
    peaks = []
    start = 0
    while start < n:
        end = start
        while end + 1 < n and values[end + 1] == values[start]:
            end += 1
        left = values[start - 1] if start > 0 else None
        right = values[end + 1] if end + 1 < n else None
        not_below = (left is None or left < values[start]) and (right is None or right < values[start])
        strictly_above_one = (left is not None and left < values[start]) or (
            right is not None and right < values[start]
        )
        if not_below and strictly_above_one:
            peaks.append(start)
        start = end + 1
    return peaks


def pick_peaks_oracle(values, fps: float, threshold: float, min_separation: float) -> list[float]:
    """Peak times: candidates above ``threshold``, then greedy suppression in
    (height descending, frame ascending) order."""
    candidates = [f for f in candidate_peaks_oracle(values) if values[f] >= threshold]
    min_gap = min_separation * fps
    if min_gap > 0 and len(candidates) > 1:
        kept: list[int] = []
        for frame in sorted(candidates, key=lambda f: (-values[f], f)):
            pos = bisect.bisect_left(kept, frame)
            before = kept[pos - 1] if pos > 0 else None
            after = kept[pos] if pos < len(kept) else None
            if before is not None and frame - before < min_gap:
                continue
            if after is not None and after - frame < min_gap:
                continue
            kept.insert(pos, frame)
        candidates = kept
    return (np.sort(np.asarray(candidates, dtype=float)) / fps).tolist()


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


def variation_scores_oracle(est, ref, phase_tol, period_tol):
    """(longest correct run, correct count) / max(#ref, #est), one estimate
    at a time."""
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


# ---------------------------------------------------------------------------
# Per-beat diagnostics loops (the index-arithmetic diagnostics' oracles)
# ---------------------------------------------------------------------------


def act_at_gt_oracle(values, frames, radius: int = 2) -> float:
    """Mean over in-range beat frames of the max value within +/-radius frames."""
    peaks = [values[max(f - radius, 0): f + radius + 1].max() for f in frames]
    return float(np.mean(peaks))


def false_positive_activation_oracle(values, frames, radius: int = 2) -> float:
    """Mean value over frames farther than ``radius`` from every beat frame."""
    far = np.ones(len(values), dtype=bool)
    for f in frames:
        far[max(f - radius, 0): f + radius + 1] = False
    if not far.any():
        return 0.0
    return float(values[far].mean())


def peak_sharpness_oracle(values, fps: float, offset: int = 3) -> float:
    """Mean of max(peak - mean of the values ``offset`` frames either side, 0)
    over the peaks picked at threshold 0.1 with no separation."""
    peak_times = np.asarray(pick_peaks_oracle(values, fps, 0.1, 0.0))
    if peak_times.size == 0:
        return 0.0
    frames = np.round(peak_times * fps).astype(int)
    last = len(values) - 1
    sharpness = [
        max(values[f] - 0.5 * (values[max(f - offset, 0)] + values[min(f + offset, last)]), 0.0)
        for f in frames
    ]
    return float(np.mean(sharpness))


# ---------------------------------------------------------------------------
# Line-by-line beat file parsing (the one-call parser's oracle)
# ---------------------------------------------------------------------------


def parse_beats_oracle(text: str, path):
    """A beat file's text parsed one line at a time: the first token of each
    non-blank line. Only the error types and the BeatAnnotation container
    come from the package."""
    beats = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        token = stripped.split()[0]
        try:
            beats.append(float(token))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: expected a timestamp, got {token!r}") from None
        if not math.isfinite(beats[-1]):
            raise ParseError(f"{path}:{lineno}: timestamp must be finite, got {token!r}")
    arr = np.asarray(beats, dtype=float)
    if arr.size and arr.min() < 0:
        raise MalformedAnnotation(f"{path}: negative timestamp")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        bad = int(np.flatnonzero(np.diff(arr) <= 0)[0]) + 2
        raise MalformedAnnotation(f"{path}: timestamps not strictly increasing at line ~{bad}")
    return BeatAnnotation(track_id=track_id_from_path(path), beats=arr)


# ---------------------------------------------------------------------------
# Line-by-line text activation parsing (the one-call parser's oracle)
# ---------------------------------------------------------------------------


def parse_activation_text_oracle(blob: bytes, path, label: str):
    """The text activation format parsed one line at a time.

    Only the error types and the ActivationCurve container (its range check
    and clipping) come from the package.
    """
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        raise CorruptActivation(f"{path}: neither ACT1 binary nor utf-8 text") from None
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#fps="):
        raise MissingFps(f"{path}: first line must be '#fps=<decimal>'")
    try:
        fps = float(lines[0][len("#fps="):])
    except ValueError:
        raise MissingFps(f"{path}: bad fps value {lines[0]!r}") from None
    if not 0 < fps < math.inf:
        raise MissingFps(f"{path}: fps must be positive and finite, got {fps}")
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            value = float(stripped)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise CorruptActivation(f"{path}:{lineno}: bad value {stripped!r}")
        values.append(value)
    if not values:
        raise CorruptActivation(f"{path}: no activation values")
    try:
        return ActivationCurve(values=np.asarray(values), fps=fps, source_label=label)
    except CorruptActivation as exc:
        raise CorruptActivation(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Ring-buffer Viterbi step (the forward pass's oracle)
# ---------------------------------------------------------------------------


def viterbi_ring_oracle(
    act: ActivationCurve, space: dbn.StateSpace, transition_lambda: float
) -> tuple[np.ndarray, float]:
    """The ring-buffer decoder with its per-frame step as first written.

    The max-plus is one broadcasting ``np.add`` and the winning scores come
    from a fancy-index pair. The model (state space, transition and
    observation densities) comes from the package; the dense oracle above
    checks that independently. This copy pins the step: the package's
    forward pass must give the same path and the same log score bits.
    """
    # wrap_into[k', k] = log p(k -> k'): row k' holds the candidates of target tempo k'
    wrap_into = np.ascontiguousarray(dbn.transition_log_probs(space, transition_lambda).T)
    obs = dbn.observation_log_probs(act, space)
    n_frames = len(act.values)
    n_tempi = space.num_tempi
    first = space.first_states
    ring_base = np.repeat(first, space.intervals)
    is_beat = space.is_beat_state

    def ring_slots(t):
        # ring slot of each flat state (tempo k, phase p) at frame t:
        # first_k + (t - p) mod tau_k, i.e. keyed by the frame its beat started
        return ring_base + (t - space.state_phase) % space.state_interval

    # Beat-region states phase-major, so the first K are the phase-0 states in
    # tempo order: their slots double as the slots of the wrap.
    beat_states = np.flatnonzero(is_beat)
    beat_states = beat_states[np.argsort(space.state_phase[beat_states], kind="stable")]
    slots = ring_slots(0)[beat_states]
    beat_base = ring_base[beat_states]
    beat_end = beat_base + space.state_interval[beat_states]

    delta = np.empty(space.num_states)
    delta[ring_slots(0)] = np.where(is_beat, obs[0, 1], obs[0, 0]) - np.log(space.num_states)
    # Back pointers are only needed at phase wraps: wrap_from[t, k] is the
    # tempo index active at t-1 when tempo k starts a new beat at frame t.
    wrap_from = np.empty((n_frames, n_tempi), dtype=np.min_scalar_type(n_tempi - 1))
    candidates = np.empty((n_tempi, n_tempi))
    src = np.empty(n_tempi, dtype=np.intp)
    tempo_range = np.arange(n_tempi)
    wrap_slots = slots[:n_tempi]
    for t in range(1, n_frames):
        slots += 1  # one frame on: every slot moves one step round its ring
        np.copyto(slots, beat_base, where=slots == beat_end)
        # last phase at t-1 and phase 0 at t share a slot: read, then overwrite
        np.add(delta[wrap_slots], wrap_into, out=candidates)
        candidates.argmax(axis=1, out=src)  # first max -> lowest source tempo
        wrap_from[t] = src
        delta[wrap_slots] = candidates[tempo_range, src]
        in_beat = delta[slots]
        delta += obs[t, 0]
        in_beat += obs[t, 1]
        delta[slots] = in_beat
    final = delta[ring_slots(n_frames - 1)]  # back to flat state order
    end = int(final.argmax())
    log_prob = float(final[end])

    # one slice per beat, walking back through the wrap pointers
    path = np.empty(n_frames, dtype=np.int64)
    k = int(np.searchsorted(first, end, side="right")) - 1
    t, phase = n_frames - 1, end - int(first[k])
    while True:
        beat_start = t - phase  # negative when the first beat began before frame 0
        lo = max(beat_start, 0)
        path[lo:t + 1] = np.arange(first[k] + lo - beat_start, first[k] + phase + 1)
        if beat_start <= 0:
            return path, log_prob
        k = int(wrap_from[beat_start, k])
        t, phase = beat_start - 1, int(space.intervals[k]) - 1



# ---------------------------------------------------------------------------
# Beat extraction from a path (path_to_beats' correction oracle)
# ---------------------------------------------------------------------------


def corrected_beat_frames_oracle(values, in_region) -> list[int]:
    """Per contiguous True run of ``in_region``, the frame of maximum value,
    the first on a tie: one argmax per run, as ``path_to_beats`` once did."""
    in_region = np.asarray(in_region, dtype=bool)
    starts = np.flatnonzero(in_region & ~np.concatenate(([False], in_region[:-1])))
    ends = np.flatnonzero(in_region & ~np.concatenate((in_region[1:], [False]))) + 1
    return [s + int(np.argmax(values[s:e])) for s, e in zip(starts, ends)]
