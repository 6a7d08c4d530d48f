"""Bar-pointer DBN beat decoder.

The latent state is (beat period tau in frames, phase within the period).
Phase advances deterministically one frame at a time; the period may change
only when the phase wraps, with probability proportional to
exp(-lambda * |tau'/tau - 1|). Observations split each period into a beat
region covering roughly 1/observation_lambda of the period and a non-beat
remainder:

    p(a_t | beat state)     = a_t
    p(a_t | non-beat state) = (1 - a_t) / (observation_lambda - 1)

Decoding is exact Viterbi in log space with a uniform initial distribution.
Ties are broken toward the lower flat state id, which makes the decoder
fully deterministic.

The forward pass keeps each tempo's scores in a ring of tau_k slots indexed
by the frame its current beat started, modulo tau_k. Advancing the phase then
moves nothing: a frame reads the last-phase scores and writes the new-beat
scores in the same slot, first_k + t mod tau_k, adds the non-beat density to
every slot and swaps in the beat density on the beat-region slots. The
backtrack fills one beat per step. The arithmetic is the per-frame recursion's,
operation for operation, so paths, scores and the tie rule (lowest source
tempo at a wrap, lowest flat state id at the end) are unchanged.

The K x K max-plus at the wraps runs in one preallocated buffer: a broadcast
copy puts the source scores in every row, an in-place add brings in the log
transition matrix, and a row argmax picks each target's source. The winning
scores come from one gather on the buffer's flat view, at row start plus
source. The step once did the max-plus as one broadcasting ``np.add`` and
the gather as a row/column index pair; each sum is still score plus log
transition, bit for bit (IEEE addition commutes), and numpy runs the copy
and the same-shape add faster than the broadcasting add.

A lambda changes only the K x K transition matrix, so one pass decodes a
grid of L lambdas (``decode_grid``). The scores are one flat array of L
copies of the S slots, lambda l's at l*S, and the max-plus buffer stacks L
blocks of K rows, (L*K, K), against the L transition matrices stacked the
same way; the back pointers are (T, L*K). The beat-region slot indices are
laid out for all L copies at once, every copy's wrap slots first, so each
frame still makes one slot advance, one gather of the wrap slots, one
broadcast copy, one add, one row argmax, one flat gather at row start plus
source, and the observation adds, whatever L is. With L = 1 the index
arrays carry no offset and every step is the single decode's. Every score
sees the same additions in the same order, and each row's argmax is the
same first max over the same K candidates, so each lambda's path and score
bits are those of its own decode. A pass holds T*L*K back-pointer bytes,
8*L*K*K of max-plus buffer and 8*L*S of scores: a grid splits into the
fewest near-equal passes whose buffers fit GRID_PASS_BYTES, one lambda at a
time when a single lambda exceeds it (a 10-minute track at 100 fps). The
budget keeps the buffers near the cache: a 13-lambda grid on a 40 s track
at K = 75 runs as 7 + 6.

``decode_grid`` takes any configs and groups them by ``space_key``: the
integer period range and observation lambda they give at the curve's fps.
Configs with one key have one state space, and so one observation table,
and each transition lambda one transition matrix: one pass decodes the
group, one copy per distinct lambda, and correct_beats acts only after the
pass, in ``path_to_beats``. BPM ranges that differ but round to the same
periods (two tempo windows a fraction of a BPM apart) share their copies.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, StateSpaceError
from .ingest import ActivationCurve

# Densities are floored here before the log so -inf never enters the DP.
DENSITY_FLOOR = 1e-12

# Hard bounds applied to tempo-constrained decoding windows.
CONSTRAINT_MIN_BPM = 30.0
CONSTRAINT_MAX_BPM = 215.0

# Default half-width of a tempo window, as a fraction of its center BPM.
TEMPO_WINDOW = 0.20

# Bytes a lambda grid's forward pass may hold in its lambda-scaled buffers;
# a larger grid decodes in several passes.
GRID_PASS_BYTES = 2 << 20


@dataclass(frozen=True)
class DbnConfig:
    """Full decoder parameterization.

    transition_lambda controls tempo rigidity: high values enforce a near
    constant tempo, low values let the decoder follow the activation.
    """

    min_bpm: float = 55.0
    max_bpm: float = 215.0
    transition_lambda: float = 100.0
    observation_lambda: int = 16
    correct_beats: bool = True

    def __post_init__(self):
        # equality makes a single-tempo space, used by constrained decoding
        if not 0 < self.min_bpm <= self.max_bpm:
            raise ValueError(f"need 0 < min_bpm <= max_bpm, got [{self.min_bpm}, {self.max_bpm}]")
        if self.transition_lambda <= 0:
            raise ValueError("transition_lambda must be positive")
        if self.observation_lambda < 2:
            raise ValueError("observation_lambda must be >= 2")


@dataclass(frozen=True)
class TempoConstraint:
    """A BPM window around an externally supplied tempo estimate."""

    center_bpm: float
    window_fraction: float = TEMPO_WINDOW

    def __post_init__(self):
        if not 0 <= self.window_fraction < math.inf:  # NaN fails too
            raise ValueError(f"tempo_window must be finite and >= 0, got {self.window_fraction}")

    def effective_range(self) -> tuple[float, float]:
        """Window intersected with the global constraint bounds."""
        lo = max(self.center_bpm * (1 - self.window_fraction), CONSTRAINT_MIN_BPM)
        hi = min(self.center_bpm * (1 + self.window_fraction), CONSTRAINT_MAX_BPM)
        if lo > hi:
            raise ConstraintError(
                f"empty BPM range for center {self.center_bpm} +/- {self.window_fraction:.0%}"
            )
        return lo, hi

    def hold(self, cfg: DbnConfig) -> DbnConfig:
        """``cfg`` with its BPM range replaced by the effective window."""
        lo, hi = self.effective_range()
        return dataclasses.replace(cfg, min_bpm=lo, max_bpm=hi)


class StateSpace:
    """Tempo x phase state space with a flat id layout.

    States are grouped by tempo in ascending period order; within a group
    the flat id increases with phase. ``intervals[k]`` is the beat period of
    tempo k in frames, so the group for tempo k spans
    [first_states[k], first_states[k] + intervals[k]).
    """

    def __init__(self, fps: float, intervals: np.ndarray, observation_lambda: int):
        self.fps = float(fps)
        self.intervals = np.asarray(intervals, dtype=np.int64)
        self.observation_lambda = int(observation_lambda)
        self.num_tempi = len(self.intervals)
        self.num_states = int(self.intervals.sum())
        self.first_states = np.concatenate(([0], np.cumsum(self.intervals)[:-1]))
        self.state_interval = np.repeat(self.intervals, self.intervals)
        self.state_phase = np.arange(self.num_states) - np.repeat(self.first_states, self.intervals)
        self.beat_region_sizes = np.maximum(1, np.round(self.intervals / self.observation_lambda)).astype(np.int64)
        self.is_beat_state = self.state_phase < np.repeat(self.beat_region_sizes, self.intervals)


def space_key(cfg: DbnConfig, fps: float) -> tuple[int, int, int]:
    """(tau_min, tau_max, observation_lambda) of ``cfg``'s state space at
    ``fps``: configs with one key decode in the same space."""
    tau_min = int(round(60.0 * fps / cfg.max_bpm))
    tau_max = int(round(60.0 * fps / cfg.min_bpm))
    if tau_min < 2:
        raise StateSpaceError(
            f"fps {fps} too low for max_bpm {cfg.max_bpm} (beat period {tau_min} < 2 frames)"
        )
    if tau_max < tau_min:
        raise StateSpaceError(f"empty interval range [{tau_min}, {tau_max}]")
    return tau_min, tau_max, cfg.observation_lambda


def build_state_space(cfg: DbnConfig, fps: float) -> StateSpace:
    """All integer beat periods representable inside the configured BPM range."""
    tau_min, tau_max, observation_lambda = space_key(cfg, fps)
    return StateSpace(fps, np.arange(tau_min, tau_max + 1), observation_lambda)


def transition_log_probs(space: StateSpace, transition_lambda: float) -> np.ndarray:
    """Log transition matrix between tempi at phase-wrap time, shape (K, K).

    Entry [k, k'] is log p(next period = intervals[k'] | current period =
    intervals[k]); rows are normalized. Within-beat transitions are
    deterministic and therefore not represented.
    """
    tau = space.intervals.astype(float)
    log_w = -transition_lambda * np.abs(tau[np.newaxis, :] / tau[:, np.newaxis] - 1.0)
    # log-sum-exp per row; rows always contain the 0.0 self-transition term
    row_max = log_w.max(axis=1, keepdims=True)
    log_norm = row_max + np.log(np.exp(log_w - row_max).sum(axis=1, keepdims=True))
    return log_w - log_norm


def observation_log_probs(act: ActivationCurve, space: StateSpace) -> np.ndarray:
    """Per-frame log densities, shape (T, 2): column 0 non-beat, column 1 beat."""
    a = act.values
    out = np.empty((len(a), 2))
    out[:, 0] = np.log(np.maximum((1.0 - a) / (space.observation_lambda - 1), DENSITY_FLOOR))
    out[:, 1] = np.log(np.maximum(a, DENSITY_FLOOR))
    return out


def _pointer_type(n_tempi: int) -> np.dtype:
    return np.min_scalar_type(n_tempi - 1)


def _pass_sizes(n_lambdas: int, space: StateSpace, n_frames: int) -> list[int]:
    """Lambdas per pass: the fewest near-equal passes whose lambda-scaled
    buffers (back pointers, max-plus buffer, scores) fit GRID_PASS_BYTES,
    with at least one lambda in each."""
    n_tempi, n_states = space.num_tempi, space.num_states
    per_lambda = n_frames * n_tempi * _pointer_type(n_tempi).itemsize + 8 * n_tempi * n_tempi + 8 * n_states
    n_passes = -(-n_lambdas // max(1, GRID_PASS_BYTES // per_lambda))
    return [n_lambdas // n_passes + (i < n_lambdas % n_passes) for i in range(n_passes)]


def _viterbi_in_space(act: ActivationCurve, space: StateSpace, lambdas) -> list[tuple[np.ndarray, float]]:
    """(path, log score) for each transition lambda, in order, in as few
    forward passes as GRID_PASS_BYTES allows."""
    obs = observation_log_probs(act, space)
    out, lambdas = [], list(lambdas)
    for size in _pass_sizes(len(lambdas), space, len(obs)):
        out += _viterbi_pass(obs, space, lambdas[len(out):len(out) + size])
    return out


def _viterbi_pass(obs: np.ndarray, space: StateSpace, lambdas: list) -> list[tuple[np.ndarray, float]]:
    n_lambdas, n_tempi, n_states = len(lambdas), space.num_tempi, space.num_states
    n_frames = len(obs)
    # wrap_into[l*K + k', k] = log p(k -> k') under lambda l: row l*K + k'
    # holds the candidates of target tempo k' in lambda l's copy
    wrap_into = np.empty((n_lambdas * n_tempi, n_tempi))
    for block, lam in zip(wrap_into.reshape(n_lambdas, n_tempi, n_tempi), lambdas):
        block[...] = transition_log_probs(space, lam).T
    first = space.first_states
    ring_base = np.repeat(first, space.intervals)
    is_beat = space.is_beat_state

    def ring_slots(t):
        # ring slot of each flat state (tempo k, phase p) at frame t:
        # first_k + (t - p) mod tau_k, i.e. keyed by the frame its beat started
        return ring_base + (t - space.state_phase) % space.state_interval

    # Beat-region states phase-major, so the first K are the phase-0 states in
    # tempo order: their slots double as the slots of the wrap. Lambda l's
    # copy of slot i is l*S + i; every copy's wrap slots come first.
    beat_states = np.flatnonzero(is_beat)
    beat_states = beat_states[np.argsort(space.state_phase[beat_states], kind="stable")]
    offsets = np.arange(n_lambdas)[:, np.newaxis] * n_states

    def per_lambda(beat_slots):
        copies = beat_slots + offsets
        return np.concatenate((copies[:, :n_tempi].ravel(), copies[:, n_tempi:].ravel()))

    slots = per_lambda(ring_slots(0)[beat_states])
    beat_base = per_lambda(ring_base[beat_states])
    beat_end = per_lambda(ring_base[beat_states] + space.state_interval[beat_states])

    delta = np.empty(n_lambdas * n_states)
    delta.reshape(n_lambdas, n_states)[:, ring_slots(0)] = np.where(is_beat, obs[0, 1], obs[0, 0]) - np.log(n_states)
    # Back pointers are only needed at phase wraps: wrap_from[t, l*K + k] is
    # the tempo index active at t-1 when tempo k starts a new beat at frame t.
    wrap_from = np.empty((n_frames, n_lambdas * n_tempi), dtype=_pointer_type(n_tempi))
    candidates = np.empty((n_lambdas * n_tempi, n_tempi))
    src = np.empty(n_lambdas * n_tempi, dtype=np.intp)
    # candidates[r, src[r]] is cand_flat[row_start[r] + src[r]]
    cand_flat = candidates.ravel()
    row_start = np.arange(n_lambdas * n_tempi) * n_tempi
    wrap_slots = slots[:n_lambdas * n_tempi]
    # every row of a lambda's K x K block holds that lambda's source scores:
    # the gather through this view of the wrap slots comes out (L, 1, K)
    cand_blocks = candidates.reshape(n_lambdas, n_tempi, n_tempi)
    wrap_sources = wrap_slots.reshape(n_lambdas, 1, n_tempi)
    for t in range(1, n_frames):
        slots += 1  # one frame on: every slot moves one step round its ring
        np.copyto(slots, beat_base, where=slots == beat_end)
        # last phase at t-1 and phase 0 at t share a slot: read, then overwrite
        np.copyto(cand_blocks, delta[wrap_sources])
        candidates += wrap_into
        candidates.argmax(axis=1, out=src)  # first max -> lowest source tempo
        wrap_from[t] = src
        delta[wrap_slots] = cand_flat[row_start + src]
        in_beat = delta[slots]
        delta += obs[t, 0]
        in_beat += obs[t, 1]
        delta[slots] = in_beat
    final_slots = ring_slots(n_frames - 1)  # back to flat state order
    return [_backtrack(delta[l * n_states + final_slots], wrap_from[:, l * n_tempi:(l + 1) * n_tempi], space)
            for l in range(n_lambdas)]


def _backtrack(final: np.ndarray, wrap_from: np.ndarray, space: StateSpace) -> tuple[np.ndarray, float]:
    """The path ending in the best final state, one slice per beat, walking
    back through the wrap pointers."""
    end = int(final.argmax())
    log_prob = float(final[end])
    first = space.first_states
    path = np.empty(len(wrap_from), dtype=np.int64)
    k = int(np.searchsorted(first, end, side="right")) - 1
    t, phase = len(wrap_from) - 1, end - int(first[k])
    while True:
        beat_start = t - phase  # negative when the first beat began before frame 0
        lo = max(beat_start, 0)
        path[lo:t + 1] = np.arange(first[k] + lo - beat_start, first[k] + phase + 1)
        if beat_start <= 0:
            return path, log_prob
        k = int(wrap_from[beat_start, k])
        t, phase = beat_start - 1, int(space.intervals[k]) - 1


def viterbi(act: ActivationCurve, cfg: DbnConfig = DbnConfig()) -> tuple[np.ndarray, float]:
    """Exact MAP state path for the activation, plus its log score."""
    space = build_state_space(cfg, act.fps)
    return _viterbi_in_space(act, space, [cfg.transition_lambda])[0]


def path_to_beats(
    path: np.ndarray, space: StateSpace, act: ActivationCurve, correct: bool = True
) -> np.ndarray:
    """Beat times from a state path.

    A beat is emitted where the path enters the beat region (frame 0 counts
    when it starts inside). With ``correct`` the beat moves to the frame of
    maximum activation within that contiguous beat-region run.
    """
    in_region = space.is_beat_state[path]
    if not in_region.any():
        return np.empty(0)
    starts = np.flatnonzero(in_region & ~np.concatenate(([False], in_region[:-1])))
    ends = np.flatnonzero(in_region & ~np.concatenate((in_region[1:], [False]))) + 1
    if correct:
        frames = np.array(
            [s + int(np.argmax(act.values[s:e])) for s, e in zip(starts, ends)], dtype=np.int64
        )
    else:
        frames = starts
    return frames / space.fps


def decode_grid(act: ActivationCurve, cfgs) -> dict:
    """{cfg: decode(act, cfg)} for any configs.

    Configs with one ``space_key`` at act.fps decode in one state space,
    one copy per distinct transition_lambda, in as few forward passes as
    GRID_PASS_BYTES allows. Every key is computed first, so a config with
    no state space raises StateSpaceError before any pass runs.
    """
    groups = {}
    for cfg in dict.fromkeys(cfgs):
        groups.setdefault(space_key(cfg, act.fps), []).append(cfg)
    beats = {}
    for group in groups.values():
        space = build_state_space(group[0], act.fps)
        lambdas = list(dict.fromkeys(cfg.transition_lambda for cfg in group))
        paths = dict(zip(lambdas, _viterbi_in_space(act, space, lambdas)))
        beats.update((cfg, path_to_beats(paths[cfg.transition_lambda][0], space, act, cfg.correct_beats))
                     for cfg in group)
    return beats


def decode(act: ActivationCurve, cfg: DbnConfig = DbnConfig()) -> np.ndarray:
    """Decode an activation curve into beat times (seconds)."""
    return decode_grid(act, [cfg])[cfg]


def decode_constrained(act: ActivationCurve, cfg: DbnConfig, constraint: TempoConstraint) -> np.ndarray:
    """Decode with the BPM range replaced by the constraint window."""
    return decode(act, constraint.hold(cfg))
