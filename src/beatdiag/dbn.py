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

The forward pass keeps each tempo's scores in two rings: one of b_k
beat-region slots (b_k = beat_region_sizes[k]) and one of tau_k - b_k
non-beat slots. Advancing the phase moves only the state that leaves a
region: each frame every ring's newest slot steps one place back, onto the
slot of its oldest state. The wrap reads each tempo's oldest non-beat score
(phase tau_k - 1); the state leaving the beat region (phase b_k - 1) moves
into that non-beat slot as phase b_k; the max-plus winner takes the beat
slot it freed as phase 0. Then the non-beat density is added to every
non-beat slot and the beat density to every beat slot. The backtrack fills
one beat per step. The arithmetic is the per-frame recursion's, operation
for operation, so paths, scores and the tie rule (lowest source tempo at a
wrap, lowest flat state id at the end) are unchanged.

The K x K max-plus at the wraps runs in one preallocated buffer: a broadcast
copy puts the source scores in every row, an in-place add brings in the log
transition matrix, and a row argmax picks each target's source. The winning
scores come from one gather on the buffer's flat view, at row start plus
source. Each sum is score plus log transition, bit for bit, and numpy runs
the copy and the same-shape add faster than one broadcasting add.

One pass decodes any list of copies, and a copy is (observations, state
space, transition lambda): the lambdas of a grid, the tracks of a batch,
the tempo windows of a tempo curve. The scores are one array of two
regions: copy c's beat rings, in tempo order, fill row c of the beat
region, (C, max B + 1), and its non-beat rings row c of the non-beat
region, (C, max (S - B) + 1); the last slot of each row is a sink that
holds -inf. The max-plus buffer stacks C blocks of K rows, (C*K, K), for
the pass's largest K, against the C transition matrices stacked the same
way, each padded with -inf rows and columns; a padded tempo's rings are
its copy's sinks, and the back pointers are (T, C*K). One index array of
2*C*K entries holds every ring's newest slot, the beat rings first, so
each frame makes one index step (a decrement and a wrap to the ring's
top), one gather of the wrap slots, one broadcast copy, one add, one row
argmax, one move of the leaving states, one flat gather at row start plus
source, and two column adds, whatever C is. The observations are a
(T, C, 2) table, zero past a copy's last frame, or, when every copy shares
one table (a lambda grid, a single decode), a (T, 1, 2) view of that
table: either way each region takes one (C, 1) column add over its
contiguous (C, stride) view. A ring's newest slot at frame t is its base
plus (T_c - 1 - t) mod its length, so at copy c's last frame every ring
holds its phases in ascending order from its base, and the copy's rows are
its beat and non-beat states in flat order: its final scores are two
masked copies. A copy shorter than the pass sees zeros after its end.
-inf never beats a finite score and the padded columns come after the
real ones, so the first-max tie rule is unchanged and no NaN can arise:
every score sees the same additions in the same order, and each row's
argmax is the same first max over the same candidates, so each copy's
path and score bits are those of its own decode.

A copy holds T*K back-pointer bytes, 8*K*K of max-plus buffer, 8*(S + 2)
of scores and, when the pass mixes observation tables, 16*T of its own
observations, all at the pass's largest T, K and regions.
``_viterbi_grids`` takes one (activation, state space, lambdas) grid per
activation and space: a grid whose copies do not fit GRID_PASS_BYTES splits into the
fewest near-equal passes of its own (a 10-minute track at 100 fps runs
one lambda at a time, while a 13-lambda grid on a 40 s track at K = 75
fits one pass); the other grids, in order of K, fill shared passes
whole. One grid never spreads over shared passes.

``decode_batch`` takes (activation, configs) requests and keys each
config by ``space_key``: the integer period range and observation lambda
it gives at the curve's fps. Configs with one key have one state space,
and so one observation table, and each transition lambda one transition
matrix: one copy decodes each distinct (activation, key, lambda), and
correct_beats acts only after the pass, in ``path_to_beats``. BPM ranges
that differ but round to the same periods (two tempo windows a fraction
of a BPM apart) share their copies.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
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

# Bytes a forward pass may hold in its per-copy buffers; a larger grid
# decodes in several passes. At 4 MiB a 13-lambda grid on a 40 s track at
# K = 75 (2.6 MiB) is one pass: on a 2-core Xeon the 8-track suite benchmark
# at --jobs 2, 60% of it such grids, ran 5% faster than with passes of 7 + 6.
GRID_PASS_BYTES = 4 << 20

# The longest beat period a state space may hold, in frames: about 8.4M
# states and a 128 MiB max-plus buffer per copy. 30 BPM at 100 fps is 200.
MAX_PERIOD = 4096


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
        if not 0 < self.min_bpm <= self.max_bpm < math.inf:  # NaN fails too
            raise ValueError(f"need 0 < min_bpm <= max_bpm < inf, got [{self.min_bpm}, {self.max_bpm}]")
        if not 0 < self.transition_lambda < math.inf:
            raise ValueError(f"transition_lambda must be positive and finite, got {self.transition_lambda}")
        # an integer, so that one state space has one space_key
        lam = self.observation_lambda
        if isinstance(lam, bool) or not isinstance(lam, numbers.Integral) or lam < 2:
            raise ValueError(f"observation_lambda must be an int >= 2, got {lam!r}")


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
    longest = 60.0 * fps / cfg.min_bpm  # may overflow to inf
    if not longest <= MAX_PERIOD:
        raise StateSpaceError(f"min_bpm {cfg.min_bpm} at fps {fps} gives a beat period over {MAX_PERIOD} frames")
    tau_min = int(round(60.0 * fps / cfg.max_bpm))
    tau_max = int(round(longest))
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
    with np.errstate(over="ignore"):  # -inf at a huge lambda is the limit: no tempo change
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


def _copy_bytes(n_tempi: int, n_states: int, n_frames: int, own_obs: bool) -> int:
    """Bytes one copy adds to a pass of this size: back pointers, max-plus
    buffer, its beat and non-beat score rows (8 bytes a state; the two
    sinks are left out), and its observation columns when it has its own."""
    return (n_frames * n_tempi * _pointer_type(n_tempi).itemsize + 8 * n_tempi * n_tempi + 8 * n_states
            + 16 * n_frames * own_obs)


def _pass_sizes(n_lambdas: int, space: StateSpace, n_frames: int) -> list[int]:
    """Lambdas per pass: the fewest near-equal passes whose lambda-scaled
    buffers (back pointers, max-plus buffer, scores) fit GRID_PASS_BYTES,
    with at least one lambda in each."""
    per_lambda = _copy_bytes(space.num_tempi, space.num_states, n_frames, False)
    n_passes = -(-n_lambdas // max(1, GRID_PASS_BYTES // per_lambda))
    return [n_lambdas // n_passes + (i < n_lambdas % n_passes) for i in range(n_passes)]


def _pass_bytes(copies) -> int:
    """Bytes of one pass over (act, space, ...) copies, each padded to the
    largest space and the longest curve."""
    n_tempi = max(space.num_tempi for _, space, *_ in copies)
    n_states = max(space.num_states for _, space, *_ in copies)
    n_frames = max(len(act.values) for act, *_ in copies)
    own_obs = len({(id(act), space.observation_lambda) for act, space, *_ in copies}) > 1
    return len(copies) * _copy_bytes(n_tempi, n_states, n_frames, own_obs)


def _viterbi_grids(grids):
    """Yield ((g, j), (path, log score)) for lambda j of each (act, space,
    lambdas) grid g, pass by pass, in as few forward passes as
    GRID_PASS_BYTES allows.

    A grid too large for one pass splits into near-equal passes of its own.
    The other grids, in order of K, fill passes whole, up to GRID_PASS_BYTES:
    one track's grid never spreads over passes that it shares.
    """
    passes, units = [], []
    for g, (act, space, lambdas) in enumerate(grids):
        copies = [(act, space, lam, (g, j)) for j, lam in enumerate(lambdas)]
        sizes = _pass_sizes(len(copies), space, len(act.values))
        if len(sizes) > 1:
            passes += [copies[sum(sizes[:i]):sum(sizes[:i + 1])] for i in range(len(sizes))]
        elif copies:
            units.append(copies)
    packed = []
    for unit in sorted(units, key=lambda unit: unit[0][1].num_tempi):
        if packed and _pass_bytes(packed + unit) > GRID_PASS_BYTES:
            passes.append(packed)
            packed = []
        packed = packed + unit
    passes += [packed] if packed else []
    for copies in passes:
        yield from zip((copy[3] for copy in copies), _viterbi_pass(copies))


def _viterbi_pass(copies) -> list[tuple[np.ndarray, float]]:
    """(path, log score) of each (act, space, lambda, ...) copy, in one
    forward pass; the module docstring gives the layout."""
    tables = {}
    for act, space, *_ in copies:
        if (id(act), space.observation_lambda) not in tables:
            tables[id(act), space.observation_lambda] = observation_log_probs(act, space)
    obs_of = [tables[id(act), space.observation_lambda] for act, space, *_ in copies]
    n_copies = len(copies)
    spaces = [space for _, space, *_ in copies]
    n_tempi = max(space.num_tempi for space in spaces)
    lengths = [len(obs) for obs in obs_of]
    n_frames = max(lengths)
    # wrap_into[c*K + k', k] = log p(k -> k') in copy c: row c*K + k' holds
    # the candidates of target tempo k'; padded rows and columns are -inf
    wrap_into = np.full((n_copies * n_tempi, n_tempi), -np.inf)
    for block, (_, space, lam, *_) in zip(wrap_into.reshape(n_copies, n_tempi, n_tempi), copies):
        block[:space.num_tempi, :space.num_tempi] = transition_log_probs(space, lam).T
    # Region 0 holds each copy's beat rings, a row of strides[0] slots per
    # copy; region 1 its non-beat rings, rows of strides[1]. A ring holds
    # tempo k's b_k beat (or tau_k - b_k non-beat) states; the last slot of
    # a row is its copy's sink. idx holds each ring's newest slot at frame t,
    # base + (T_c - 1 - t) mod len, beat rings first: every ring holds its
    # phases in ascending order from its base at its copy's last frame.
    n_beat = [int(space.beat_region_sizes.sum()) for space in spaces]
    strides = (max(n_beat) + 1, max(space.num_states - b for space, b in zip(spaces, n_beat)) + 1)
    scores = np.full(n_copies * sum(strides), -np.inf)
    beat = scores[:n_copies * strides[0]].reshape(n_copies, strides[0])
    rest = scores[n_copies * strides[0]:].reshape(n_copies, strides[1])
    lens = np.ones((2, n_copies, n_tempi), dtype=np.intp)  # a padded tempo's rings are its copy's sinks
    bases = np.empty_like(lens)
    for c, (obs, space, b) in enumerate(zip(obs_of, spaces, n_beat)):
        k = space.num_tempi
        for r, size in enumerate((space.beat_region_sizes, space.intervals - space.beat_region_sizes)):
            row = r * n_copies * strides[0] + c * strides[r]
            lens[r, c, :k] = size
            bases[r, c] = row + strides[r] - 1
            bases[r, c, :k] = row + np.cumsum(size) - size
        beat[c, :b] = obs[0, 1] - np.log(space.num_states)
        rest[c, :space.num_states - b] = obs[0, 0] - np.log(space.num_states)
    idx = (bases + (np.array(lengths)[:, None] - 1) % lens).ravel()
    top, below = (bases + lens - 1).ravel(), (bases - 1).ravel()
    new_beat, new_rest = idx[:n_copies * n_tempi], idx[n_copies * n_tempi:]
    if len(tables) == 1:
        obs = obs_of[0][:, None]  # (T, 1, 2): a column that every copy's row broadcasts
    else:  # per-copy observations, zero past a copy's last frame
        obs = np.zeros((n_frames, n_copies, 2))
        for c, own in enumerate(obs_of):
            obs[:len(own), c] = own
    rest_obs, beat_obs = obs[..., :1], obs[..., 1:]
    # Back pointers are only needed at phase wraps: wrap_from[t, c*K + k] is
    # the tempo index active at t-1 when tempo k starts a new beat at frame t.
    wrap_from = np.empty((n_frames, n_copies * n_tempi), dtype=_pointer_type(n_tempi))
    candidates = np.empty((n_copies * n_tempi, n_tempi))
    src = np.empty(n_copies * n_tempi, dtype=np.intp)
    # candidates[r, src[r]] is cand_flat[row_start[r] + src[r]]
    cand_flat = candidates.ravel()
    row_start = np.arange(n_copies * n_tempi) * n_tempi
    # every row of a copy's K x K block holds that copy's source scores: the
    # gather through this view of the wrap slots comes out (C, 1, K)
    cand_blocks = candidates.reshape(n_copies, n_tempi, n_tempi)
    wrap_sources = new_rest.reshape(n_copies, 1, n_tempi)
    ends = {}
    for c, length in enumerate(lengths):
        ends.setdefault(length - 1, []).append(c)
    finals = [None] * n_copies

    def keep_finals(t):
        for c in ends[t]:  # each region's rings, read from their bases, are its states in flat order
            space = spaces[c]
            finals[c] = final = np.empty(space.num_states)
            final[space.is_beat_state] = beat[c, :n_beat[c]]
            final[~space.is_beat_state] = rest[c, :space.num_states - n_beat[c]]

    if 0 in ends:
        keep_finals(0)
    for t in range(1, n_frames):
        idx -= 1  # one frame on: each ring's newest slot is one step back
        np.copyto(idx, top, where=idx == below)
        # phase tau - 1 at t-1 wraps; its non-beat slot is phase b at t
        np.copyto(cand_blocks, scores[wrap_sources])
        candidates += wrap_into
        candidates.argmax(axis=1, out=src)  # first max -> lowest source tempo
        wrap_from[t] = src
        # phase b - 1 at t-1 leaves the beat region; its beat slot is phase 0 at t
        scores[new_rest] = scores[new_beat]
        scores[new_beat] = cand_flat[row_start + src]
        rest += rest_obs[t]
        beat += beat_obs[t]
        if t in ends:
            keep_finals(t)
    return [_backtrack(final, wrap_from[:length, c * n_tempi:c * n_tempi + space.num_tempi], space)
            for c, (final, length, space) in enumerate(zip(finals, lengths, spaces))]


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
    return next(_viterbi_grids([(act, space, [cfg.transition_lambda])]))[1]


def path_to_beats(
    path: np.ndarray, space: StateSpace, act: ActivationCurve, correct: bool = True
) -> np.ndarray:
    """Beat times from a state path.

    A beat is emitted where the path enters the beat region (frame 0 counts
    when it starts inside). With ``correct`` the beat moves to the frame of
    maximum activation within that contiguous beat-region run, the first
    such frame on a tie.
    """
    in_region = space.is_beat_state[path]
    if not in_region.any():
        return np.empty(0)
    entered = in_region & ~np.concatenate(([False], in_region[:-1]))
    starts = np.flatnonzero(entered)
    frames = starts
    if correct:
        ends = np.flatnonzero(in_region & ~np.concatenate((in_region[1:], [False]))) + 1
        values = act.values[:len(path)]
        # one max per [start, end) run; the padded frame lets a run end at the last frame
        peak = np.maximum.reduceat(np.append(values, 0.0), np.column_stack((starts, ends)).ravel())[::2]
        at_peak = np.flatnonzero(in_region & (values == peak[np.cumsum(entered) - 1]))
        frames = at_peak[np.searchsorted(at_peak, starts)]
    return frames / space.fps


def decode_batch(requests, jobs: int = 1) -> list[dict]:
    """[{cfg: decode(act, cfg)} for each (act, cfgs) of ``requests``].

    Each activation decodes each distinct (``space_key``, transition_lambda)
    of its configs once, as one copy; the copies of a batch share forward
    passes, as many as GRID_PASS_BYTES requires. Every key is computed
    first, so a config with no state space raises StateSpaceError before
    any pass runs. Two batches or more (``_batches``, at most ``jobs``)
    decode in a process pool, one process per batch, to the same beats.
    """
    keyed = [(act, {cfg: space_key(cfg, act.fps) for cfg in dict.fromkeys(cfgs)}) for act, cfgs in requests]
    batches = _batches(keyed, jobs)
    if len(batches) <= 1:
        return _decode_keyed(keyed)
    # imported here: multiprocessing costs every process that never forks a pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(batches)) as pool:
        return [beats for batch in pool.map(_decode_keyed, batches, chunksize=1) for beats in batch]


def _batches(keyed, jobs: int) -> list[list]:
    """``jobs`` contiguous runs of the (act, {cfg: key}) requests, near-equal
    in frames x copies; fewer when a run would be empty, and one when no
    request has a copy."""
    weights = [len(act.values) * len({(key, cfg.transition_lambda) for cfg, key in keys.items()})
               for act, keys in keyed]
    total, done, runs = sum(weights), 0, {}
    for request, weight in zip(keyed, weights):
        run = min(jobs - 1, int((done + weight / 2) * jobs // total)) if total else 0
        runs.setdefault(run, []).append(request)
        done += weight
    return list(runs.values())


def _decode_keyed(keyed) -> list[dict]:
    """``decode_batch`` of (act, {cfg: key}) requests, in this process."""
    spaces, grids = {}, {}  # grids: (id(act), key) -> (act, space, {lambda: [(request, cfg)]})
    for i, (act, keys) in enumerate(keyed):
        for cfg, key in keys.items():
            if (key, act.fps) not in spaces:
                spaces[key, act.fps] = build_state_space(cfg, act.fps)
            users = grids.setdefault((id(act), key), (act, spaces[key, act.fps], {}))[2]
            users.setdefault(cfg.transition_lambda, []).append((i, cfg))
    grids = [(act, space, list(users), list(users.values())) for act, space, users in grids.values()]
    beats = [dict.fromkeys(keys) for _, keys in keyed]
    # each path becomes beats as soon as its pass ends, so a batch holds the paths of one pass
    for (g, j), (path, _) in _viterbi_grids([grid[:3] for grid in grids]):
        act, space, _, users = grids[g]
        for i, cfg in users[j]:
            beats[i][cfg] = path_to_beats(path, space, act, cfg.correct_beats)
    return beats


def decode(act: ActivationCurve, cfg: DbnConfig = DbnConfig()) -> np.ndarray:
    """Decode an activation curve into beat times (seconds)."""
    return decode_batch([(act, [cfg])])[0][cfg]


def decode_constrained(act: ActivationCurve, cfg: DbnConfig, constraint: TempoConstraint) -> np.ndarray:
    """Decode with the BPM range replaced by the constraint window."""
    return decode(act, constraint.hold(cfg))
