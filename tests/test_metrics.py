import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatdiag import metrics
from beatdiag.errors import InsufficientReference, ToolkitError
from conftest import DATA_DIR
from oracles import f_measure_oracle, variation_scores_oracle

beat_lists = st.lists(
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=12,
).map(lambda xs: np.sort(np.asarray(xs)))


# ---------------------------------------------------------------------------
# F-measure
# ---------------------------------------------------------------------------


def test_f_measure_perfect():
    ref = np.arange(0.5, 10, 0.5)
    assert metrics.f_measure(ref, ref) == 1.0


def test_f_measure_every_second_beat():
    ref = np.arange(1.0, 11.0)  # 10 beats
    est = ref[::2]
    assert metrics.f_measure(est, ref) == pytest.approx(2 / 3)


def test_f_measure_empty_conventions():
    ref = np.arange(1.0, 5.0)
    assert metrics.f_measure([], []) == 1.0
    assert metrics.f_measure([], ref) == 0.0
    assert metrics.f_measure(ref, []) == 0.0


def test_f_measure_window_edges():
    ref = np.arange(1.0, 6.0)
    assert metrics.f_measure(ref + 0.05, ref) == 1.0
    assert metrics.f_measure(ref + 0.10, ref) == 0.0


def test_match_beats_is_one_to_one_and_windowed():
    ref = np.array([1.0, 1.05, 2.0])
    est = np.array([1.02, 1.03, 3.0])
    pairs = metrics.match_beats(est, ref, 0.07)
    assert len(pairs) == 2
    assert len({i for i, _ in pairs}) == len(pairs)
    assert len({j for _, j in pairs}) == len(pairs)
    for i, j in pairs:
        assert abs(est[i] - ref[j]) <= 0.07


def test_match_beats_long_chain_of_overlapping_windows():
    # Estimates 30 ms before references 50 ms apart: every window holds
    # three references, so the windows chain across the whole track.
    ref = 1.0 + 0.05 * np.arange(4000)
    assert len(metrics.match_beats(ref - 0.03, ref, 0.07)) == 4000


@given(est=beat_lists, ref=beat_lists)
@settings(max_examples=300)
def test_f_measure_matches_exhaustive_oracle(est, ref):
    got = metrics.f_measure(est, ref)
    want = f_measure_oracle(list(est), list(ref), 0.07)
    assert got == pytest.approx(want, abs=1e-9)


def test_trim_applies_to_both_sides():
    ref = np.array([1.0, 2.0, 6.0, 7.0, 8.0])
    est = np.array([0.2, 6.0, 7.0, 8.0])  # junk early beat
    cfg = metrics.EvalConfig(trim_seconds=5.0)
    assert metrics.f_measure(est, ref, cfg) == 1.0
    assert metrics.f_measure(est, ref) < 1.0


def test_trim_keeps_a_beat_exactly_at_trim_seconds():
    # mir_eval.beat.trim_beats keeps beats >= the trim time, on both sides
    ref = np.array([1.0, 2.0, 5.0, 6.0, 7.0])
    est = np.array([0.5, 5.0, 6.5])
    result = metrics.evaluate(est, ref, metrics.EvalConfig(trim_seconds=5.0))
    assert (result.n_ref, result.n_est) == (3, 2)


# ---------------------------------------------------------------------------
# Continuity
# ---------------------------------------------------------------------------


def test_continuity_perfect():
    ref = np.arange(0.5, 20, 0.5)
    assert metrics.continuity(ref, ref) == (1.0, 1.0, 1.0, 1.0)


def test_continuity_double_tempo_est():
    ref = np.arange(1.0, 21.0)
    est = np.arange(1.0, 20.5, 0.5)
    cmlc, cmlt, amlc, amlt = metrics.continuity(est, ref)
    assert cmlt < 0.1
    assert amlt == 1.0


def test_continuity_requires_two_reference_beats():
    with pytest.raises(InsufficientReference):
        metrics.continuity(np.array([1.0, 2.0]), np.array([1.0]))


def test_continuity_single_estimate_scores_zero():
    ref = np.arange(1.0, 10.0)
    assert metrics.continuity(np.array([3.0]), ref) == (0.0, 0.0, 0.0, 0.0)
    # A lone beat's interval is 0, which a tempo tolerance above 1 would pass.
    loose = metrics.EvalConfig(continuity_phase_tol=1.5, continuity_tempo_tol=1.5)
    assert metrics.continuity(np.array([3.0]), ref, loose) == (0.0, 0.0, 0.0, 0.0)


def test_golden_continuity_fixtures_exact():
    fixtures = json.loads((DATA_DIR / "golden_continuity.json").read_text())
    assert len(fixtures) == 50
    for fx in fixtures:
        ref = np.asarray(fx["ref"])
        est = np.asarray(fx["est"])
        cmlc, cmlt, amlc, amlt = metrics.continuity(est, ref)
        for got, key in ((cmlc, "cmlc"), (cmlt, "cmlt"), (amlc, "amlc"), (amlt, "amlt")):
            assert got == pytest.approx(fx[key], abs=1e-9), fx["name"]
        assert metrics.f_measure(est, ref) == pytest.approx(fx["f_measure"], abs=1e-9), fx["name"]


# Reference beats on a coarse grid repeat (ref_int == 0); a size-1 reference
# is the half-tempo variation of a 2-beat annotation; estimates are unsorted.
grid_ref = st.lists(st.integers(0, 40), min_size=1, max_size=20).map(lambda xs: np.sort(xs) / 4.0)
real_ref = st.lists(st.floats(0.05, 2.0), min_size=1, max_size=20).map(lambda g: np.cumsum(g))
grid_est = st.lists(st.integers(0, 44), min_size=0, max_size=25).map(lambda xs: np.asarray(xs) / 4.0)
real_est = st.lists(st.floats(0.0, 40.0), min_size=0, max_size=25).map(lambda xs: np.asarray(xs, dtype=float))
tolerances = st.one_of(st.sampled_from([0.175, 0.25, 0.5, 1.0]), st.floats(0.01, 1.5))


def _oracle_scores(est, refs, phase_tol=0.175, period_tol=0.175):
    return [variation_scores_oracle(est, ref, phase_tol, period_tol) for ref in refs]


@given(
    est=st.one_of(grid_est, real_est),
    refs=st.lists(st.one_of(grid_ref, real_ref), min_size=1, max_size=5),
    phase_tol=tolerances,
    period_tol=tolerances,
)
@settings(max_examples=500)
def test_variation_scores_match_oracle(est, refs, phase_tol, period_tol):
    got = metrics._variation_scores([est], refs, phase_tol, period_tol)[0]
    assert got == _oracle_scores(est, refs, phase_tol, period_tol)


@given(
    est=st.one_of(grid_est, real_est),
    ref=st.one_of(grid_ref, real_ref).filter(lambda ref: ref.size >= 2),
    block=st.integers(1, 40),
)
@settings(max_examples=200)
def test_variation_scores_independent_of_block_size(est, ref, block):
    refs = metrics.metrical_variations(ref)
    with mock.patch.object(metrics, "_BLOCK_ELEMENTS", block):
        assert metrics._variation_scores([est], refs, 0.175, 0.175)[0] == _oracle_scores(est, refs)


@given(
    ests=st.lists(st.one_of(grid_est, real_est), min_size=1, max_size=6),
    refs=st.lists(st.one_of(grid_ref, real_ref), min_size=1, max_size=5),
    phase_tol=tolerances,
    period_tol=tolerances,
)
@settings(max_examples=300)
def test_variation_scores_of_many_estimates_match_oracle(ests, refs, phase_tol, period_tol):
    got = metrics._variation_scores(ests, refs, phase_tol, period_tol)
    assert got == [_oracle_scores(est, refs, phase_tol, period_tol) for est in ests]


@pytest.mark.parametrize(
    "est, ref",
    [
        ([1.0, 2.0], [1.0, 2.0]),  # 2-beat reference: 1-beat half-tempo variations
        ([2.0, 1.0], [1.0, 2.0]),  # unsorted length-2 estimate
        ([1.0, 1.5], [1.0, 1.0, 2.0]),  # duplicate reference beats
        ([1.0, 1.0, 1.0], [1.0, 1.0]),
        ([0.5, 2.5, 1.5, 1.0], [1.0, 2.0, 3.0]),
        ([], [1.0, 2.0, 3.0]),
    ],
)
def test_continuity_variations_match_oracle(est, ref):
    est = np.asarray(est, dtype=float)
    refs = metrics.metrical_variations(np.asarray(ref, dtype=float))
    assert metrics._variation_scores([est], refs, 0.175, 0.175)[0] == _oracle_scores(est, refs)


# ---------------------------------------------------------------------------
# evaluate and invariants
# ---------------------------------------------------------------------------


def test_evaluate_perfect_all_ones():
    ref = np.arange(0.5, 30, 0.75)
    r = metrics.evaluate(ref, ref)
    assert (r.f_measure, r.cmlc, r.cmlt, r.amlc, r.amlt) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert r.n_ref == r.n_est == len(ref)


def test_evaluate_empty_estimate():
    ref = np.arange(1.0, 10.0)
    r = metrics.evaluate(np.array([]), ref)
    assert r.f_measure == 0.0
    assert (r.cmlc, r.cmlt, r.amlc, r.amlt) == (0.0, 0.0, 0.0, 0.0)


ref_lists = st.lists(
    st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    min_size=2,
    max_size=15,
).map(lambda gaps: np.cumsum(np.asarray(gaps)))


@given(ref=ref_lists, est=beat_lists)
@settings(max_examples=300)
def test_eval_result_ordering_invariants(ref, est):
    r = metrics.evaluate(est, ref)
    assert r.cmlc <= r.cmlt + 1e-12
    assert r.amlc <= r.amlt + 1e-12
    assert r.cmlt <= r.amlt + 1e-12
    assert r.cmlc <= r.amlc + 1e-12


# Dyadic 1/64-grid values keep every sum and difference exactly
# representable, so shifting cannot flip a comparison that sits exactly on a
# tolerance boundary (with raw floats a pair exactly window-apart can match
# unshifted and miss shifted).
dyadic_ref = st.lists(st.integers(1, 128), min_size=2, max_size=15).map(
    lambda gaps: np.cumsum(np.asarray(gaps)) / 64.0
)
dyadic_est = st.lists(st.integers(0, 1920), min_size=0, max_size=12).map(
    lambda xs: np.sort(np.asarray(xs)) / 64.0
)


@given(ref=dyadic_ref, est=dyadic_est, shift=st.integers(0, 3200))
@settings(max_examples=200)
def test_metrics_invariant_to_global_shift(ref, est, shift):
    base = metrics.evaluate(est, ref)
    moved = metrics.evaluate(est + shift / 64.0, ref + shift / 64.0)
    assert moved.f_measure == pytest.approx(base.f_measure, abs=1e-9)
    assert moved.cmlt == pytest.approx(base.cmlt, abs=1e-9)
    assert moved.amlt == pytest.approx(base.amlt, abs=1e-9)


def _outcome(score):
    try:
        return score()
    except ToolkitError as exc:
        return type(exc), str(exc)


def _bits(result):
    return tuple(np.float64(getattr(result, f)).tobytes() for f in ("f_measure", "cmlc", "cmlt", "amlc", "amlt")) + (
        result.n_ref, result.n_est)


@given(
    ests=st.lists(st.one_of(grid_est, real_est), min_size=1, max_size=6),
    ref=st.one_of(grid_ref, real_ref),
    trim=st.sampled_from([0.0, 0.0, 1.0, 3.0, 10.0, 45.0]),
    phase_tol=tolerances,
    period_tol=tolerances,
)
@settings(max_examples=400)
def test_evaluate_many_matches_evaluate_per_array(ests, ref, trim, phase_tol, period_tol):
    # Grid references repeat beats, estimates are unsorted and repeat beats,
    # and a trim may leave fewer than 2 reference beats: then both raise.
    cfg = metrics.EvalConfig(continuity_phase_tol=phase_tol, continuity_tempo_tol=period_tol, trim_seconds=trim)
    many = _outcome(lambda: [_bits(r) for r in metrics.evaluate_many(ests, ref, cfg)])
    each = _outcome(lambda: [_bits(metrics.evaluate(est, ref, cfg)) for est in ests])
    assert many == each


def test_evaluate_many_of_no_estimates_is_empty():
    assert metrics.evaluate_many([], np.array([1.0])) == []
