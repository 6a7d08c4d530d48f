import concurrent.futures
import dataclasses
import hashlib
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beatdiag import dbn, ingest, metrics
from beatdiag.errors import ConstraintError, StateSpaceError
from beatdiag.experiments import LAMBDA_GRID, SLOW_DBN, SynthConfig, synthesize_gt_activation
from beatdiag.ingest import ActivationCurve
from conftest import PSEUDO_DIR, make_grid_annotation, make_pulse_activation, record_passes
from oracles import (corrected_beat_frames_oracle, dense_model, dense_viterbi_score, enumerate_paths_score,
                     score_path, viterbi_ring_oracle)


def curve(values, fps=50.0):
    return ActivationCurve(values=np.asarray(values, dtype=float), fps=fps, source_label="t")


# ---------------------------------------------------------------------------
# state space
# ---------------------------------------------------------------------------


def test_state_space_single_tempo():
    space = dbn.build_state_space(dbn.DbnConfig(min_bpm=60, max_bpm=60), fps=100)
    assert list(space.intervals) == [100]
    assert space.num_states == 100


def test_state_space_default_range_at_fps50():
    space = dbn.build_state_space(dbn.DbnConfig(), fps=50)
    assert space.intervals[0] == 14
    assert space.intervals[-1] == 55
    assert space.num_tempi == 42
    assert space.num_states == 1449


def test_state_space_min_bpm_30():
    space = dbn.build_state_space(dbn.DbnConfig(min_bpm=30), fps=50)
    assert space.intervals[-1] == 100


def test_state_space_fps_too_low():
    with pytest.raises(StateSpaceError):
        dbn.build_state_space(dbn.DbnConfig(), fps=5)


def test_space_key_bounds_the_longest_period():
    cfg = dbn.DbnConfig(min_bpm=60.0)
    assert dbn.space_key(cfg, fps=dbn.MAX_PERIOD)[1] == dbn.MAX_PERIOD
    with pytest.raises(StateSpaceError, match=f"min_bpm 60.0 at fps {dbn.MAX_PERIOD + 1} gives a beat period over"):
        dbn.space_key(cfg, fps=dbn.MAX_PERIOD + 1)
    with pytest.raises(StateSpaceError, match="over"):  # 60 * fps overflows to inf
        dbn.space_key(cfg, fps=1e308)


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, True, 1])
def test_observation_lambda_must_be_an_int_of_at_least_2(value):
    with pytest.raises(ValueError, match="observation_lambda must be an int >= 2"):
        dbn.DbnConfig(observation_lambda=value)


def test_beat_region_sizes():
    space = dbn.build_state_space(dbn.DbnConfig(min_bpm=30), fps=50)
    sizes = dict(zip(space.intervals.tolist(), space.beat_region_sizes.tolist()))
    assert sizes[14] == 1
    assert sizes[100] == round(100 / 16)
    assert all(s >= 1 for s in space.beat_region_sizes)


# ---------------------------------------------------------------------------
# transition model
# ---------------------------------------------------------------------------


def test_transition_rows_normalized():
    space = dbn.build_state_space(dbn.DbnConfig(), fps=50)
    wrap = dbn.transition_log_probs(space, 100.0)
    sums = np.exp(wrap).sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


def test_transition_high_lambda_concentrates_mass():
    space = dbn.build_state_space(dbn.DbnConfig(min_bpm=40, max_bpm=80), fps=50)
    wrap = np.exp(dbn.transition_log_probs(space, 500.0))
    k = int(np.where(space.intervals == 50)[0][0])
    trio = {int(space.intervals[j]): wrap[k, j] for j in range(space.num_tempi)}
    mass = trio[50] / (trio[49] + trio[50] + trio[51])
    assert mass > 0.99


def test_transition_lambda_to_zero_is_uniform():
    space = dbn.build_state_space(dbn.DbnConfig(min_bpm=50, max_bpm=70), fps=50)
    wrap = np.exp(dbn.transition_log_probs(space, 1e-9))
    assert np.allclose(wrap, 1.0 / space.num_tempi, atol=1e-6)


# ---------------------------------------------------------------------------
# observation model
# ---------------------------------------------------------------------------


def test_observation_floor_at_extremes():
    space = dbn.build_state_space(dbn.DbnConfig(), fps=50)
    obs = dbn.observation_log_probs(curve([1.0, 0.0]), space)
    floor = np.log(1e-12)
    assert obs[0, 0] == floor  # non-beat density at a=1
    assert obs[1, 1] == floor  # beat density at a=0


def test_observation_densities():
    space = dbn.build_state_space(dbn.DbnConfig(), fps=50)
    obs = dbn.observation_log_probs(curve([0.5, 1 / 16]), space)
    assert obs[0, 0] == pytest.approx(np.log(0.5 / 15))
    assert obs[1, 0] == pytest.approx(obs[1, 1])  # crossover at a = 1/16


# ---------------------------------------------------------------------------
# viterbi exactness
# ---------------------------------------------------------------------------


def _random_instance(rng, max_states=200, max_frames=30):
    while True:
        fps = rng.uniform(20, 100)
        min_bpm = rng.uniform(40, 200)
        max_bpm = min_bpm * rng.uniform(1.0, 2.5)
        cfg = dbn.DbnConfig(
            min_bpm=min_bpm,
            max_bpm=min(max_bpm, 60.0 * fps / 2.0),
            transition_lambda=float(rng.choice([1, 5, 30, 100, 400])),
            observation_lambda=int(rng.choice([2, 8, 16])),
        )
        tau_min = int(round(60 * fps / cfg.max_bpm))
        tau_max = int(round(60 * fps / cfg.min_bpm))
        if tau_min < 2 or tau_max < tau_min:
            continue
        n_states = sum(range(tau_min, tau_max + 1))
        if n_states <= max_states:
            n_frames = int(rng.integers(1, max_frames + 1))
            values = rng.uniform(0, 1, n_frames)
            return cfg, fps, values


def test_viterbi_matches_dense_oracle_small_instances():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        cfg, fps, values = _random_instance(rng)
        act = ActivationCurve(values=values, fps=fps, source_label="r")
        path, logp = dbn.viterbi(act, cfg)
        init, trans, obs = dense_model(
            cfg.min_bpm, cfg.max_bpm, cfg.transition_lambda, cfg.observation_lambda, fps, values
        )
        assert score_path(path, init, trans, obs) == pytest.approx(logp, abs=1e-9)
        assert dense_viterbi_score(init, trans, obs) == pytest.approx(logp, abs=1e-9)


def test_dense_oracle_matches_literal_enumeration():
    rng = np.random.default_rng(99)
    for _ in range(5):
        cfg = dbn.DbnConfig(min_bpm=290, max_bpm=430, transition_lambda=20, observation_lambda=2)
        fps = 20.0  # tau in [3, 4]: 7 states
        values = rng.uniform(0, 1, 6)
        init, trans, obs = dense_model(
            cfg.min_bpm, cfg.max_bpm, cfg.transition_lambda, cfg.observation_lambda, fps, values
        )
        assert dense_viterbi_score(init, trans, obs) == pytest.approx(
            enumerate_paths_score(init, trans, obs), abs=1e-12
        )


def test_viterbi_single_frame():
    act = curve([0.9])
    path, logp = dbn.viterbi(act, dbn.DbnConfig())
    assert len(path) == 1
    assert np.isfinite(logp)


def test_viterbi_all_zero_activation_no_crash():
    act = curve(np.zeros(200))
    beats = dbn.decode(act, dbn.DbnConfig())
    assert np.all(np.diff(beats) > 0) or len(beats) <= 1


def test_viterbi_impulse_train_locks_to_period():
    values = np.zeros(2000)
    values[25::25] = 1.0
    act = curve(values)
    path, _ = dbn.viterbi(act, dbn.DbnConfig())
    space = dbn.build_state_space(dbn.DbnConfig(), 50.0)
    assert set(space.state_interval[path][200:].tolist()) == {25}
    est = dbn.decode(act, dbn.DbnConfig())
    frames = np.round(est * 50).astype(int)
    assert set(np.diff(frames)[2:].tolist()) == {25}


# sha256 of path.tobytes() and float.hex(log score), recorded with the per-frame
# decoder that preceded the ring-buffer recursion. Any change to the arithmetic
# or to the tie rule changes these.
GOLDEN_VITERBI = {
    "pseudo:pseudo01,30,1": ("a7cc8250b734e21d58d84d287b7e85795f4a95b67f7c6ed970ac1889b8233502", "-0x1.3188119c7a6b8p+12"),
    "pseudo:pseudo01,30,100": ("b2ee12e21b0eb62d07c0360a63b878b51c3f4c4111d5775faffb667b82fb71ea", "-0x1.2656bba38604ep+12"),
    "pseudo:pseudo01,55,1": ("5fd585e88d9780d33fe8e7c08b40b3fde22b53c64a8496a6b6e38e429b2a47a5", "-0x1.30835876f3563p+12"),
    "pseudo:pseudo01,55,100": ("b2ee12e21b0eb62d07c0360a63b878b51c3f4c4111d5775faffb667b82fb71ea", "-0x1.2642dede1b0bep+12"),
    "pseudo:pseudo02,30,1": ("6fbddbf6386c87d28119a4d8553bf38e094a0901b045fa63dd9de2543e418d0a", "-0x1.185c14e48c19fp+12"),
    "pseudo:pseudo02,30,100": ("eab59d4a7a34e12531f974e73c8349eee035f51e229184cc835ff39bb1c099c0", "-0x1.1318a0d5a3779p+12"),
    "pseudo:pseudo02,55,1": ("3fdf8ee70710f5ca84384f81e7b6312503b6df804cf4b8b7ac0cc0beec921fae", "-0x1.279fd672bf06ap+12"),
    "pseudo:pseudo02,55,100": ("39b93221460abe501fcf6495ed65e2d0fd61a9e32e50b2376bcb5554d39b694f", "-0x1.270186a841caap+12"),
    "pseudo:pseudo03,30,1": ("385a1ecdcc38d3ba8e9e0e126fe90d3e41d013e5d59a71a7441fe570d0db979c", "-0x1.39b8035b2ab76p+12"),
    "pseudo:pseudo03,30,100": ("e063b0ae4c56e8046df10305270a2ca2ddc4c1871f60940eeae7f975ed4dd118", "-0x1.3dc082c21f2f6p+12"),
    "pseudo:pseudo03,55,1": ("07b8bfe3e87afbf1c3623e21dfd8f67e8cd3d9e494897622e9c71c5cc13bc70c", "-0x1.3e3392ac939c9p+12"),
    "pseudo:pseudo03,55,100": ("e4bb260316ce9641ae50271e6380ddabb2a24ff1998322ef3f5c421933498213", "-0x1.418d5b36e3aa5p+12"),
    "gt-synth:42,40,55": ("7e79c0c2bbb1a01e0e1ecf7683d1eb28e5b70e81ca1f2cbc425dac0d5ecd892f", "-0x1.7eb516d0bdfcfp+12"),
    "gt-synth:42,40,30": ("f8f3f8c65816fa949580b6dc8d2f40ef784daebced791f2dcbffc3c3891a5052", "-0x1.19c741c6bf028p+12"),
    # a tie between source tempi at a wrap lies on the decoded path
    "gt-synth:36,20,55": ("94bc14acbdcbbdc717af133b8cd730954bb85e8804d0c5e986aea7c329434cf3", "-0x1.6c453e38f99e4p+11"),
    "one-frame": ("af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc", "-0x1.d893488501b18p+2"),
    "short": ("f00190c88bd4ad3152a407d93a243f022e9e8b675b06ec7e498b99e198b3f8a1", "-0x1.0d011b5529a35p+5"),
    "single-tempo": ("7beddae6b79f2a980e0b39d276924d62cb439a306cb4e3aa0c240862f12dd064", "-0x1.0660b1eb928d9p+10"),
    "pre-start": ("ae8e437a90407bcd024e922c84dc05c62c5c5e46ccb9d7cfed1be4d3a01c7464", "-0x1.69462e18b7939p+9"),
}


def golden_case(name):
    kind, _, arg = name.partition(":")
    if kind == "pseudo":
        track, min_bpm, lam = arg.split(",")
        act = ingest.load_activation(PSEUDO_DIR / "activations" / "pseudo" / f"{track}.act")
        return act, dbn.DbnConfig(min_bpm=float(min_bpm), transition_lambda=float(lam))
    if kind == "gt-synth":  # Gaussian bumps: long exact-zero stretches, many ties
        bpm, duration, min_bpm = map(float, arg.split(","))
        ref = make_grid_annotation(bpm=bpm, start=0.7, duration=duration)
        return synthesize_gt_activation(ref, SynthConfig()), dbn.DbnConfig(min_bpm=min_bpm)
    if kind == "one-frame":
        return curve([0.9]), dbn.DbnConfig()
    if kind == "short":  # 10 frames, below tau_min = 14 at 50 fps
        return curve(np.random.default_rng(11).uniform(0, 1, 10)), dbn.DbnConfig()
    if kind == "single-tempo":
        return curve(np.random.default_rng(12).uniform(0, 1, 300)), dbn.DbnConfig(min_bpm=120, max_bpm=120)
    if kind == "pre-start":  # pulses at frames 10, 35, ...: frame 0 sits mid-beat
        values = np.zeros(200)
        values[10::25] = 1.0
        return curve(values), dbn.DbnConfig(min_bpm=120, max_bpm=120)
    raise KeyError(name)


@pytest.mark.parametrize("name", sorted(GOLDEN_VITERBI))
def test_viterbi_bit_identical_to_golden(name):
    act, cfg = golden_case(name)
    path, logp = dbn.viterbi(act, cfg)
    assert (hashlib.sha256(path.tobytes()).hexdigest(), float.hex(logp)) == GOLDEN_VITERBI[name]


def test_golden_cases_cover_their_edge():
    space = dbn.build_state_space(dbn.DbnConfig(), 50.0)
    assert len(golden_case("short")[0].values) < space.intervals.min()
    act, cfg = golden_case("gt-synth:42,40,55")
    assert (act.values == 0).sum() > len(act.values) // 2
    act, cfg = golden_case("pre-start")
    path, _ = dbn.viterbi(act, cfg)
    assert dbn.build_state_space(cfg, act.fps).state_phase[path[0]] > 0


def _activation_values(kind, n_frames, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.uniform(0, 1, n_frames)
    if kind == "quantised":  # thirds: many exact ties between states
        return rng.integers(0, 4, n_frames) / 3
    if kind == "sparse":
        return (rng.uniform(0, 1, n_frames) < 0.05).astype(float)
    return np.full(n_frames, float(kind))  # constant, "0.0" is all zero


@settings(max_examples=60)
@given(
    kind=st.sampled_from(["random", "quantised", "sparse", "0.0", "0.5", "1.0"]),
    n_frames=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    fps=st.sampled_from([20.0, 43.07, 50.0, 100.0]),
    tau_min=st.integers(2, 40),
    n_tempi=st.integers(1, 200),
    transition_lambda=st.floats(-2, 6).map(lambda e: 10.0 ** e),
    observation_lambda=st.sampled_from([2, 8, 16]),
)
# a tie between source tempi at a wrap lies on the path: pins the first-max rule
@example(kind="quantised", n_frames=150, seed=0, fps=20.0, tau_min=3, n_tempi=20, transition_lambda=10.0,
         observation_lambda=2)
# tau 2 and 3 at observation lambda 2: one-slot beat and non-beat rings
@example(kind="quantised", n_frames=60, seed=3, fps=20.0, tau_min=2, n_tempi=2, transition_lambda=1.0,
         observation_lambda=2)
@example(kind="random", n_frames=50, seed=4, fps=50.0, tau_min=7, n_tempi=1, transition_lambda=100.0,
         observation_lambda=16)  # a single-tempo space
@example(kind="random", n_frames=1, seed=5, fps=50.0, tau_min=5, n_tempi=4, transition_lambda=100.0,
         observation_lambda=8)  # T = 1
def test_viterbi_step_matches_ring_oracle(kind, n_frames, seed, fps, tau_min, n_tempi,
                                          transition_lambda, observation_lambda):
    # n_tempi == 1 is the single-tempo space, min_bpm == max_bpm
    cfg = dbn.DbnConfig(min_bpm=60.0 * fps / (tau_min + n_tempi - 1), max_bpm=60.0 * fps / tau_min,
                        transition_lambda=transition_lambda, observation_lambda=observation_lambda)
    space = dbn.build_state_space(cfg, fps)
    assert space.num_tempi == n_tempi
    act = curve(_activation_values(kind, n_frames, seed), fps=fps)
    path, logp = dbn.viterbi(act, cfg)
    want_path, want_logp = viterbi_ring_oracle(act, space, transition_lambda)
    assert np.array_equal(path, want_path)
    assert float.hex(logp) == float.hex(want_logp)


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["random", "quantised", "sparse", "0.0"]),
    n_frames=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    fps=st.sampled_from([20.0, 43.07, 50.0, 100.0]),
    tau_min=st.integers(2, 30),
    n_tempi=st.integers(1, 60),
    lambdas=st.lists(st.sampled_from(LAMBDA_GRID), min_size=1, max_size=7),
    per_pass=st.integers(0, 7),
)
@example(kind="random", n_frames=9, seed=1, fps=50.0, tau_min=12, n_tempi=5, lambdas=[100], per_pass=0)  # T < tau_min
@example(kind="quantised", n_frames=150, seed=0, fps=20.0, tau_min=3, n_tempi=20, lambdas=[10, 1, 10, 500, 10],
         per_pass=2)  # duplicate lambdas, across pass splits
def test_lambda_grid_matches_ring_oracle_per_lambda(kind, n_frames, seed, fps, tau_min, n_tempi, lambdas, per_pass):
    """Each lambda of a grid decodes as alone: the same path and score bits
    as the oracle, also when the grid is split into passes of ``per_pass``
    lambdas (0: the default budget)."""
    cfgs = [dbn.DbnConfig(min_bpm=60.0 * fps / (tau_min + n_tempi - 1), max_bpm=60.0 * fps / tau_min,
                          transition_lambda=float(lam)) for lam in lambdas]
    space = dbn.build_state_space(cfgs[0], fps)
    act = curve(_activation_values(kind, n_frames, seed), fps=fps)
    with pytest.MonkeyPatch.context() as mp:
        if per_pass:  # a budget that holds per_pass lambdas and no more
            mp.setattr(dbn, "GRID_PASS_BYTES", 1)  # still one lambda per pass
            assert dbn._pass_sizes(len(lambdas), space, n_frames) == [1] * len(lambdas)
            per_lambda = n_frames * n_tempi + 8 * n_tempi**2 + 8 * space.num_states
            mp.setattr(dbn, "GRID_PASS_BYTES", per_pass * per_lambda + per_lambda - 1)
            sizes = dbn._pass_sizes(len(lambdas), space, n_frames)
            assert len(sizes) == -(-len(lambdas) // per_pass) and sum(sizes) == len(lambdas)
            assert max(sizes) - min(sizes) <= 1
        decoded = dict(dbn._viterbi_grids([(act, space, [cfg.transition_lambda for cfg in cfgs])]))
        decodes = [decoded[0, j] for j in range(len(cfgs))]
        beats = dbn.decode_batch([(act, cfgs)])[0]
    assert len(decodes) == len(cfgs) and set(beats) == set(cfgs)
    for cfg, (path, logp) in zip(cfgs, decodes):
        want_path, want_logp = viterbi_ring_oracle(act, space, cfg.transition_lambda)
        assert np.array_equal(path, want_path)
        assert float.hex(logp) == float.hex(want_logp)
        assert np.array_equal(beats[cfg], dbn.path_to_beats(want_path, space, act, cfg.correct_beats))


def test_lambda_grid_pass_sizes(monkeypatch):
    # a 40 s track at 43.07 fps from 30 BPM (K = 75): 13 lambdas in one pass,
    # or in two near-equal passes under half the budget
    space = dbn.build_state_space(dbn.DbnConfig(min_bpm=30.0), 43.07)
    assert space.num_tempi == 75
    assert dbn._pass_sizes(13, space, 1723) == [13]
    assert dbn._pass_sizes(1, space, 1723) == [1]
    assert dbn._pass_sizes(0, space, 1723) == []
    with monkeypatch.context() as mp:
        mp.setattr(dbn, "GRID_PASS_BYTES", dbn.GRID_PASS_BYTES // 2)
        assert dbn._pass_sizes(13, space, 1723) == [7, 6]
    # a 10-minute track at 100 fps (K = 173): its back pointers alone exceed the budget
    space = dbn.build_state_space(dbn.DbnConfig(min_bpm=30.0), 100.0)
    assert space.num_tempi == 173
    assert dbn._pass_sizes(13, space, 60000) == [1] * 13


def test_decode_grid_of_one_is_decode():
    """One request's configs are its grid. ``decode`` is the grid of one
    config; an empty grid, or a batch of no request, decodes nothing."""
    act, cfg = golden_case("pseudo:pseudo01,30,100")
    assert np.array_equal(dbn.decode_batch([(act, [cfg])])[0][cfg], dbn.decode(act, cfg))
    assert dbn.decode_batch([(act, [])]) == [{}]
    assert dbn.decode_batch([]) == []


@pytest.mark.parametrize("other", [{"min_bpm": 40.0}, {"max_bpm": 200.0}, {"observation_lambda": 8},
                                   {"correct_beats": False}])
def test_decode_grid_decodes_configs_that_differ_in_more_than_lambda(other, monkeypatch):
    act = make_pulse_activation(np.arange(0.5, 8.0, 0.6))
    cfg = dbn.DbnConfig(min_bpm=30.0)
    pair = [cfg, dataclasses.replace(cfg, transition_lambda=5.0, **other)]
    want = {c: dbn.decode(act, c) for c in pair}
    calls = record_passes(monkeypatch)
    beats = dbn.decode_batch([(act, pair)])[0]
    assert set(beats) == set(pair)
    for c in pair:
        assert beats[c].tobytes() == want[c].tobytes()
    # correct_beats acts after the pass: that pair shares one space and one pass
    assert len(calls) == (1 if other == {"correct_beats": False} else 2)
    assert [lam for _, _, lambdas in calls for lam in lambdas] == [100.0, 5.0]


def test_decode_grid_checks_every_config_before_any_pass(monkeypatch):
    calls = record_passes(monkeypatch)
    with pytest.raises(StateSpaceError, match="too low for max_bpm"):
        dbn.decode_batch([(curve(np.full(100, 0.5), fps=5.0), [dbn.DbnConfig(max_bpm=60.0), dbn.DbnConfig()])])
    assert calls == []


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["random", "quantised", "sparse"]),
    n_frames=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    fps=st.sampled_from([20.0, 43.07, 50.0]),
    # few ranges, so that configs often share one
    specs=st.lists(st.tuples(st.sampled_from([2, 3, 9]),  # tau_min
                             st.sampled_from([1, 3, 6]),  # tempi
                             st.sampled_from([1.0, 1.001, 0.999]),  # BPM nudge that rounds away
                             st.sampled_from([2, 8, 16]),
                             st.booleans(),
                             st.sampled_from(LAMBDA_GRID)), min_size=1, max_size=6),
    pass_bytes=st.sampled_from([None, 1, 4000]),
)
@example(kind="quantised", n_frames=120, seed=0, fps=20.0,
         specs=[(9, 6, 1.0, 2, True, 10), (9, 6, 1.001, 2, False, 10), (9, 6, 0.999, 2, True, 500),
                (9, 6, 1.0, 8, True, 10), (3, 3, 1.0, 2, True, 1), (9, 6, 1.0, 2, True, 10)],
         pass_bytes=1)  # nudged ranges share a space; duplicates; a forced split
def test_decode_grid_groups_any_configs_by_state_space(kind, n_frames, seed, fps, specs, pass_bytes):
    """Mixed configs in one call: each decodes as alone and as the oracle,
    in one ``_viterbi_grids`` grid per state space carrying its
    distinct lambdas in first-seen order."""
    cfgs = [dbn.DbnConfig(min_bpm=60.0 * fps / (tau_min + n_tempi - 1) * nudge, max_bpm=60.0 * fps / tau_min * nudge,
                          transition_lambda=float(lam), observation_lambda=obs, correct_beats=correct)
            for tau_min, n_tempi, nudge, obs, correct, lam in specs]
    act = curve(_activation_values(kind, n_frames, seed), fps=fps)
    groups = {}
    for cfg in dict.fromkeys(cfgs):
        groups.setdefault(dbn.space_key(cfg, fps), []).append(cfg.transition_lambda)
    with pytest.MonkeyPatch.context() as mp:
        if pass_bytes is not None:
            mp.setattr(dbn, "GRID_PASS_BYTES", pass_bytes)
        calls = record_passes(mp)
        beats = dbn.decode_batch([(act, cfgs)])[0]
        assert [call[1:] for call in calls] == [(key, list(dict.fromkeys(lambdas))) for key, lambdas in groups.items()]
    assert set(beats) == set(cfgs)
    for cfg in cfgs:
        tau_min, tau_max, _ = dbn.space_key(cfg, fps)
        space = dbn.build_state_space(cfg, fps)
        assert list(space.intervals) == list(range(tau_min, tau_max + 1))
        want_path, _ = viterbi_ring_oracle(act, space, cfg.transition_lambda)
        assert beats[cfg].tobytes() == dbn.path_to_beats(want_path, space, act, cfg.correct_beats).tobytes()
        assert beats[cfg].tobytes() == dbn.decode(act, cfg).tobytes()


@settings(max_examples=40)
@given(
    tracks=st.lists(st.tuples(st.sampled_from(["random", "quantised", "sparse", "0.0"]),
                              st.integers(1, 160),  # frames
                              st.integers(0, 2**32 - 1),  # seed
                              st.sampled_from([20.0, 43.07, 50.0]),
                              st.lists(st.tuples(st.integers(2, 20),  # tau_min
                                                 st.integers(1, 25),  # tempi
                                                 st.sampled_from([2, 8, 16]),
                                                 st.lists(st.sampled_from(LAMBDA_GRID), min_size=1, max_size=3)),
                                       min_size=1, max_size=3)),
                    min_size=1, max_size=4),
    pass_bytes=st.sampled_from([None, 1, 3000, 30000]),
)
@example(tracks=[("quantised", 150, 0, 20.0, [(3, 20, 2, [10, 1]), (9, 6, 2, [500])]),
                 ("random", 40, 1, 50.0, [(12, 5, 16, [100])]),  # shorter than the pass, T < tau_max
                 ("sparse", 1, 2, 43.07, [(2, 1, 8, [1])])],  # one frame, one tempo
         pass_bytes=30000)
# a copy of one-slot rings (tau 2 and 3 at observation lambda 2) ends before the K = 20 copy of its pass
@example(tracks=[("quantised", 120, 5, 20.0, [(3, 20, 8, [10, 100])]), ("sparse", 30, 6, 20.0, [(2, 2, 2, [1, 500])])],
         pass_bytes=None)
def test_mixed_passes_match_ring_oracle_per_copy(tracks, pass_bytes):
    """Passes that mix tracks, state spaces, lengths and observation
    tables: every copy has the path and score bits of the oracle, whatever
    budget splits the passes, and no FP warning arises from the padding."""
    grids = []
    for kind, n_frames, seed, fps, spaces in tracks:
        act = curve(_activation_values(kind, n_frames, seed), fps=fps)
        for tau_min, n_tempi, obs, lambdas in spaces:
            cfg = dbn.DbnConfig(min_bpm=60.0 * fps / (tau_min + n_tempi - 1), max_bpm=60.0 * fps / tau_min,
                                observation_lambda=obs)
            grids.append((act, dbn.build_state_space(cfg, fps), [float(lam) for lam in dict.fromkeys(lambdas)]))
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="raise", under="ignore"):
        if pass_bytes is not None:
            mp.setattr(dbn, "GRID_PASS_BYTES", pass_bytes)
        passes = record_pass_copies(mp)
        decoded = dict(dbn._viterbi_grids(grids))
    assert sorted(copy for copies in passes for copy in copies) == [
        (g, j) for g, (_, _, lambdas) in enumerate(grids) for j in range(len(lambdas))]
    for copies in passes:  # a grid shares a pass only when the whole grid is in it
        grids_in = {g for g, _ in copies}
        assert len(grids_in) == 1 or all(sum(g == h for h, _ in copies) == len(grids[g][2]) for g in grids_in)
    assert sorted(decoded) == sorted(copy for copies in passes for copy in copies)
    for g, (act, space, lambdas) in enumerate(grids):
        for j, lam in enumerate(lambdas):
            path, logp = decoded[g, j]
            want_path, want_logp = viterbi_ring_oracle(act, space, lam)
            assert np.array_equal(path, want_path)
            assert float.hex(logp) == float.hex(want_logp)


def record_pass_copies(mp) -> list:
    """The (grid, lambda) index of each copy of each ``dbn._viterbi_pass``."""
    passes = []
    viterbi_pass = dbn._viterbi_pass
    mp.setattr(dbn, "_viterbi_pass", lambda copies: passes.append([c[3] for c in copies]) or viterbi_pass(copies))
    return passes


def test_mixed_pass_packing(monkeypatch):
    # four 40 s tracks of unequal length, each with a free K = 75 copy and a
    # held grid of K = 9 or 12: in order of K, the held grids and then the
    # free copies fill passes up to a 2 MiB budget; a pass that takes in a
    # free copy pads all of its copies to K = 75
    monkeypatch.setattr(dbn, "GRID_PASS_BYTES", 2 << 20)
    fps, n_frames = 43.07, 1723
    rng = np.random.default_rng(0)
    acts = [curve(rng.uniform(0, 1, n_frames - i), fps=fps) for i in range(4)]
    free = dbn.build_state_space(dbn.DbnConfig(min_bpm=30.0), fps)
    held = [dbn.build_state_space(dbn.DbnConfig(min_bpm=bpm, max_bpm=140.0), fps) for bpm in (100.0, 90.0)]
    assert (free.num_tempi, held[0].num_tempi, held[1].num_tempi) == (75, 9, 12)
    grids = [grid for i, act in enumerate(acts) for grid in ((act, free, [100.0]), (act, held[i % 2], [1.0, 100.0]))]
    passes = record_pass_copies(monkeypatch)
    list(dbn._viterbi_grids(grids))
    assert passes == [[(1, 0), (1, 1), (5, 0), (5, 1), (3, 0), (3, 1), (7, 0), (7, 1), (0, 0)],
                      [(2, 0), (4, 0), (6, 0)]]
    # a grid too large for one pass keeps its own near-equal passes
    passes.clear()
    list(dbn._viterbi_grids([(acts[0], free, [float(lam) for lam in LAMBDA_GRID]), (acts[1], held[0], [1.0])]))
    assert passes == [[(0, j) for j in range(7)], [(0, j) for j in range(7, 13)], [(1, 0)]]
    # the budget counts each copy's own observation columns
    passes.clear()
    monkeypatch.setattr(dbn, "GRID_PASS_BYTES", 3 * dbn._copy_bytes(75, free.num_states, n_frames, True))
    list(dbn._viterbi_grids([(act, free, [100.0]) for act in acts]))
    assert passes == [[(0, 0), (1, 0), (2, 0)], [(3, 0)]]


def test_decode_batch_is_each_request_decoded_alone(monkeypatch):
    rng = np.random.default_rng(3)
    acts = [curve(rng.uniform(0, 1, n), fps=fps) for n, fps in ((300, 50.0), (280, 43.07), (300, 50.0))]
    cfgs = [dbn.DbnConfig(), dbn.DbnConfig(min_bpm=30.0, transition_lambda=5.0),
            dbn.TempoConstraint(100.0).hold(dbn.DbnConfig(correct_beats=False))]
    want = [{cfg: dbn.decode(act, cfg) for cfg in cfgs} for act in acts]
    calls = record_passes(monkeypatch)
    got = dbn.decode_batch([(act, cfgs + cfgs[:1]) for act in acts] + [(acts[0], cfgs[1:])])
    assert len(calls) == 3 * 3  # the repeated request of acts[0] adds no copy
    for beats, expected in zip(got, want + want[:1]):
        assert {cfg: b.tobytes() for cfg, b in beats.items()} == {
            cfg: b.tobytes() for cfg, b in expected.items() if cfg in beats}
    assert dbn.decode_batch([]) == []


def test_batches_are_contiguous_and_near_equal_in_frames_times_copies():
    def request(n_frames, n_lambdas):
        return curve(np.zeros(n_frames)), [dbn.DbnConfig(transition_lambda=lam) for lam in range(1, n_lambdas + 1)]

    def cut(requests, jobs):  # each batch's request indices; a batch holds the keyed requests themselves
        keyed = [(act, {cfg: dbn.space_key(cfg, act.fps) for cfg in cfgs}) for act, cfgs in requests]
        index = {id(request): i for i, request in enumerate(keyed)}
        return [[index[id(request)] for request in batch] for batch in dbn._batches(keyed, jobs)]

    requests = [request(100, 1) for _ in range(6)]
    assert cut(requests, 1) == [[0, 1, 2, 3, 4, 5]]
    assert cut(requests, 2) == [[0, 1, 2], [3, 4, 5]]
    # five copies weigh as much as five tracks
    requests = [request(100, 5), *(request(100, 1) for _ in range(5))]
    assert cut(requests, 2) == [[0], [1, 2, 3, 4, 5]]
    assert cut(requests[:1], 4) == [[0]]
    # 40 s lambda grids at K = 75 fill more than a pass each: still --jobs runs
    grid = [dataclasses.replace(SLOW_DBN, transition_lambda=float(lam)) for lam in LAMBDA_GRID]
    requests = [(curve(np.zeros(1723), fps=43.07), grid) for _ in range(4)]
    assert cut(requests, 2) == [[0, 1], [2, 3]]
    assert cut(requests, 1) == [[0, 1, 2, 3]]
    # a request with no config weighs nothing, and requests of no weight make one batch
    assert cut([(curve(np.zeros(100)), []), request(100, 1), request(100, 1)], 2) == [[0, 1], [2]]
    assert cut([(curve(np.zeros(100)), [])] * 3, 2) == [[0, 1, 2]]
    assert cut([], 2) == []


def test_decode_batch_is_the_same_at_any_jobs(monkeypatch):
    """Requests that mix frame rates, K values and lambda grids decode to the
    same beats, with the same key order, in one process or in a pool of one
    process per batch."""
    rng = np.random.default_rng(7)
    acts = [curve(rng.uniform(0, 1, n), fps=fps) for n, fps in ((300, 50.0), (260, 43.07), (200, 100.0), (300, 50.0))]
    grid = [dbn.DbnConfig(min_bpm=30.0, transition_lambda=float(lam)) for lam in (500, 1, 20)]
    held = dbn.TempoConstraint(120.0).hold(dbn.DbnConfig(correct_beats=False))
    requests = [(acts[0], grid), (acts[1], [held, dbn.DbnConfig(), grid[2]]), (acts[2], []),
                (acts[2], [*grid[:2], held]), (acts[3], [dbn.DbnConfig(max_bpm=180.0), grid[0]]), (acts[0], [held])]
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    runs = [dbn.decode_batch(requests, jobs) for jobs in (1, 2, 4)]
    assert started == [2, 4]
    want = [[(cfg, b.tobytes()) for cfg, b in beats.items()] for beats in runs[0]]
    assert [list(beats) for beats in runs[0]] == [list(dict.fromkeys(cfgs)) for _, cfgs in requests]
    for got in runs[1:]:
        assert [[(cfg, b.tobytes()) for cfg, b in beats.items()] for beats in got] == want
    assert dbn.decode_batch([], jobs=2) == []
    assert dbn.decode_batch([(acts[0], [])], jobs=2) == [{}]
    assert started == [2, 4]


# ---------------------------------------------------------------------------
# beat extraction
# ---------------------------------------------------------------------------


def test_path_to_beats_cycling_period():
    cfg = dbn.DbnConfig(min_bpm=120, max_bpm=120)
    space = dbn.build_state_space(cfg, fps=50)  # single tempo, tau=25
    path = np.tile(np.arange(25), 6)
    act = curve(np.zeros(150))
    beats = dbn.path_to_beats(path, space, act, correct=False)
    assert np.allclose(beats, np.arange(6) * 0.5)


def test_path_to_beats_correction_moves_to_peak():
    cfg = dbn.DbnConfig(min_bpm=60, max_bpm=60, observation_lambda=16)
    space = dbn.build_state_space(cfg, fps=50)  # tau=50, beat region 3 frames
    path = np.tile(np.arange(50), 2)
    values = np.zeros(100)
    values[1] = 0.9    # peak one frame after the phase-0 frame
    values[50] = 0.8
    beats = dbn.path_to_beats(path, space, curve(values), correct=True)
    assert beats[0] == pytest.approx(1 / 50)
    assert beats[1] == pytest.approx(1.0)
    uncorrected = dbn.path_to_beats(path, space, curve(values), correct=False)
    assert uncorrected[0] == 0.0


@settings(max_examples=200)
@given(
    runs=st.lists(st.tuples(st.booleans(), st.integers(1, 6)), min_size=1, max_size=30),
    levels=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(runs=[(False, 2), (True, 3)], levels=1, seed=0)  # a plateau run that ends at the last frame
@example(runs=[(True, 1)], levels=2, seed=0)  # a one-frame path inside the region
def test_path_to_beats_correction_matches_per_run_argmax(runs, levels, seed):
    """Corrected beats are the first frame of maximum activation in each
    beat-region run: plateaus and equal heights go to the earliest frame."""
    in_region = np.concatenate([np.full(n, inside) for inside, n in runs])
    values = np.random.default_rng(seed).integers(0, levels + 1, len(in_region)) / levels
    # a two-state space at 1 fps: state 1 is the beat region, and a frame is a second
    space = types.SimpleNamespace(is_beat_state=np.array([False, True]), fps=1.0)
    beats = dbn.path_to_beats(in_region.astype(np.int64), space, curve(values), correct=True)
    assert beats.tolist() == [float(f) for f in corrected_beat_frames_oracle(values, in_region)]


def test_path_to_beats_no_region_entries():
    cfg = dbn.DbnConfig(min_bpm=60, max_bpm=60)
    space = dbn.build_state_space(cfg, fps=50)
    path = np.arange(10, 40)  # stays inside the non-beat part of the cycle
    beats = dbn.path_to_beats(path, space, curve(np.zeros(30)), correct=False)
    assert len(beats) == 0


# ---------------------------------------------------------------------------
# decode-level behavior
# ---------------------------------------------------------------------------


def test_decode_pulse_train_120bpm_defaults_is_perfect():
    grid = np.arange(0.5, 40.0, 0.5)
    act = make_pulse_activation(grid, fps=50.0, duration=40.0)
    est = dbn.decode(act, dbn.DbnConfig())
    assert metrics.f_measure(est, grid) == 1.0


def test_decode_deterministic():
    rng = np.random.default_rng(5)
    act = curve(rng.uniform(0, 1, 600))
    a = dbn.decode(act, dbn.DbnConfig())
    b = dbn.decode(act, dbn.DbnConfig())
    assert np.array_equal(a, b)


def test_decoded_intervals_within_tempo_range():
    rng = np.random.default_rng(8)
    cfg = dbn.DbnConfig(correct_beats=False)
    space = dbn.build_state_space(cfg, 50.0)
    for _ in range(5):
        act = curve(rng.uniform(0, 1, 500))
        est = dbn.decode(act, cfg)
        if len(est) > 3:
            frames = np.round(est * 50).astype(int)
            inner = np.diff(frames)[1:]
            assert inner.min() >= space.intervals.min() - 1
            assert inner.max() <= space.intervals.max() + 1


def test_decoded_intervals_with_correction_within_region_slack():
    rng = np.random.default_rng(9)
    cfg = dbn.DbnConfig()
    space = dbn.build_state_space(cfg, 50.0)
    slack = int(space.beat_region_sizes.max())
    for _ in range(5):
        act = curve(rng.uniform(0, 1, 500))
        est = dbn.decode(act, cfg)
        if len(est) > 3:
            inner = np.diff(np.round(est * 50).astype(int))[1:]
            assert inner.min() >= space.intervals.min() - slack
            assert inner.max() <= space.intervals.max() + slack


@pytest.mark.parametrize("bpm,fps", [(60.0, 43.07), (120.0, 50.0), (45.0, 43.07)])
def test_lambda_monotone_ibi_variance_on_clean_input(bpm, fps):
    ref = make_grid_annotation(bpm=bpm, start=0.6, duration=40.0)
    act = synthesize_gt_activation(ref, SynthConfig(fps=fps))
    variances = []
    for lam in (1, 5, 20, 100, 500):
        est = dbn.decode(act, dbn.DbnConfig(min_bpm=30, transition_lambda=lam))
        variances.append(float(np.var(np.diff(est))))
    assert all(b <= a + 1e-12 for a, b in zip(variances, variances[1:]))


# ---------------------------------------------------------------------------
# constrained decoding
# ---------------------------------------------------------------------------


def test_constraint_window_arithmetic():
    assert dbn.TempoConstraint(60.0).effective_range() == (48.0, 72.0)


def test_constraint_clamped_to_global_bounds():
    lo, hi = dbn.TempoConstraint(250.0, 0.2).effective_range()
    assert hi == 215.0
    assert lo == pytest.approx(200.0)


def test_constraint_empty_range_raises():
    with pytest.raises(ConstraintError):
        dbn.TempoConstraint(20.0, 0.2).effective_range()


def test_constrained_equals_unconstrained_when_window_covers_range():
    ref = make_grid_annotation(bpm=72, start=0.5, duration=25.0)
    act = synthesize_gt_activation(ref, SynthConfig(fps=50.0))
    cfg = dbn.DbnConfig()  # [55, 215]
    constraint = dbn.TempoConstraint(center_bpm=135.0, window_fraction=80.0 / 135.0)
    assert constraint.effective_range() == (pytest.approx(55.0), 215.0)
    a = dbn.decode(act, cfg)
    b = dbn.decode_constrained(act, cfg, constraint)
    assert np.array_equal(a, b)


def test_constrained_gt_window_recovers_slow_track():
    ref = make_grid_annotation(bpm=42, start=0.7, duration=40.0)
    act = synthesize_gt_activation(ref, SynthConfig())
    cfg = dbn.DbnConfig()  # default min 55 would force double tempo
    constrained = dbn.decode_constrained(act, cfg, dbn.TempoConstraint(42.0))
    assert metrics.f_measure(constrained, ref.beats) > 0.95
