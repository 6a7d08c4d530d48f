import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beatdiag import metrics, peaks
from beatdiag.ingest import ActivationCurve
from conftest import make_grid_annotation, make_pulse_activation
from oracles import candidate_peaks_oracle, pick_peaks_oracle


def curve(values, fps=50.0):
    return ActivationCurve(values=np.asarray(values, dtype=float), fps=fps, source_label="t")


def test_single_peak():
    est = peaks.pick_peaks(curve([0.0, 0.9, 0.0]))
    assert list(est) == [pytest.approx(0.02)]


def test_all_below_threshold_empty():
    est = peaks.pick_peaks(curve([0.1, 0.4, 0.1]))
    assert len(est) == 0


def test_close_peaks_keep_higher():
    values = np.zeros(20)
    values[5] = 0.8
    values[7] = 0.9
    est = peaks.pick_peaks(curve(values), peaks.PeakConfig(min_separation=0.1))
    assert list(est) == [pytest.approx(0.14)]


def test_equal_close_peaks_keep_earlier():
    values = np.zeros(20)
    values[5] = 0.9
    values[7] = 0.9
    est = peaks.pick_peaks(curve(values), peaks.PeakConfig(min_separation=0.1))
    assert list(est) == [pytest.approx(0.10)]


def test_plateau_first_frame():
    values = np.array([0.0, 0.8, 0.8, 0.8, 0.0])
    est = peaks.pick_peaks(curve(values))
    assert list(est) == [pytest.approx(1 / 50)]


def test_constant_curve_no_peaks():
    assert len(peaks.pick_peaks(curve([0.7] * 30))) == 0


def test_default_grid_has_twenty_values():
    grid = peaks.DEFAULT_THRESHOLD_GRID
    assert len(grid) == 20
    assert grid[0] == 0.05
    assert grid[-2:] == (0.95, 0.98)
    assert np.allclose(np.diff(grid[:-1]), 0.05)


activation_arrays = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=120
).map(np.asarray)


@given(values=activation_arrays, thr_lo=st.floats(0.05, 0.9), thr_hi=st.floats(0.05, 0.9))
@settings(max_examples=300)
def test_raising_threshold_never_adds_peaks(values, thr_lo, thr_hi):
    thr_lo, thr_hi = sorted((thr_lo, thr_hi))
    act = curve(values)
    low = set(np.round(peaks.pick_peaks(act, peaks.PeakConfig(threshold=thr_lo)) * act.fps).astype(int))
    high = set(np.round(peaks.pick_peaks(act, peaks.PeakConfig(threshold=thr_hi)) * act.fps).astype(int))
    assert high <= low


@given(values=activation_arrays, min_sep=st.floats(0.0, 0.5))
@settings(max_examples=300)
def test_output_sorted_with_min_gaps(values, min_sep):
    act = curve(values)
    est = peaks.pick_peaks(act, peaks.PeakConfig(min_separation=min_sep))
    assert np.all(np.diff(est) > 0)
    if len(est) > 1:
        assert np.min(np.diff(est)) >= min_sep - 1 / act.fps


# ---------------------------------------------------------------------------
# Bit-identity with the scalar-loop oracles
# ---------------------------------------------------------------------------

# Few levels give plateaus (at the edges too), equal heights and constant
# curves; raw floats give the usual case.
quantised_arrays = st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=120)
three_level_arrays = st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=120)
constant_arrays = st.tuples(st.floats(0.0, 1.0), st.integers(1, 60)).map(lambda vn: [vn[0]] * vn[1])
any_activation = st.one_of(
    activation_arrays.map(list), quantised_arrays, three_level_arrays, constant_arrays
).map(lambda xs: np.asarray(xs, dtype=float))


@pytest.mark.parametrize(
    "values",
    [
        [0.7],
        [0.7, 0.7, 0.2],  # plateau at the left edge
        [0.2, 0.7, 0.7],  # plateau at the right edge
        [0.7, 0.7, 0.2, 0.7, 0.7],
        [0.2, 0.2, 0.2],
        [0.9, 0.1],
        [0.1, 0.9],
        [0.3, 0.5, 0.5, 0.4, 0.5, 0.5],
    ],
)
def test_candidate_peaks_edge_plateaus_match_oracle(values):
    values = np.asarray(values, dtype=float)
    assert peaks._candidate_peaks(values).tolist() == candidate_peaks_oracle(values)


@given(values=any_activation)
@settings(max_examples=400)
def test_candidate_peaks_match_oracle(values):
    assert peaks._candidate_peaks(values).tolist() == candidate_peaks_oracle(values)


@given(
    values=any_activation,
    threshold=st.one_of(st.sampled_from([0.05, 0.25, 0.5, 0.75, 0.98]), st.floats(0.01, 0.99)),
    min_sep=st.one_of(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]), st.floats(0.0, 0.5)),
    fps=st.sampled_from([10.0, 43.07, 50.0, 100.0]),
)
@settings(max_examples=400)
def test_pick_peaks_matches_oracle(values, threshold, min_sep, fps):
    act = curve(values, fps=fps)
    got = peaks.pick_peaks(act, peaks.PeakConfig(threshold=threshold, min_separation=min_sep))
    assert got.tolist() == pick_peaks_oracle(act.values, fps, threshold, min_sep)



@given(
    values=any_activation,
    thresholds=st.lists(
        st.one_of(st.sampled_from([0.05, 0.25, 0.5, 0.75, 0.98]), st.floats(0.01, 0.99)), min_size=1, max_size=6
    ),
    min_sep=st.one_of(st.sampled_from([0.02, 0.05, 0.1, 0.3]), st.floats(0.001, 0.5)),
    fps=st.sampled_from([10.0, 43.07, 50.0, 100.0, 1e-300, 1e300]),
)
@example(  # 29 / 50 * 50 and 57 / 50 * 50 round to just below the frame
    values=np.where(np.isin(np.arange(60), [29, 57]), 0.9, 0.0), thresholds=[0.5], min_sep=0.1, fps=50.0
)
@settings(max_examples=400)
def test_pick_peaks_grid_matches_pick_peaks(values, thresholds, min_sep, fps):
    # The sampled thresholds equal the quantised curves' levels, so picks
    # exactly at a threshold are covered. At fps 1e-300 and 1e300 a beat time
    # times fps need not give back its frame; the grid filters frames, not times.
    act = curve(values, fps=fps)
    cfgs = [peaks.PeakConfig(thr, sep) for sep in (0.0, min_sep) for thr in thresholds]
    got = peaks.pick_peaks_grid(act, cfgs)
    assert got.keys() == set(cfgs)
    for cfg in cfgs:
        want = peaks.pick_peaks(act, cfg)
        assert (got[cfg].dtype, got[cfg].shape, got[cfg].tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_pick_peaks_equal_heights_inside_min_separation_match_oracle():
    # Equal peaks 2 and 3 frames apart, within a 4-frame minimum gap.
    values = np.zeros(40)
    values[[5, 7, 10, 20, 23, 26, 30]] = [0.9, 0.9, 0.9, 0.8, 0.9, 0.9, 0.8]
    act = curve(values)
    got = peaks.pick_peaks(act, peaks.PeakConfig(min_separation=0.08))
    assert got.tolist() == pick_peaks_oracle(act.values, act.fps, 0.5, 0.08)
    assert np.round(got * act.fps).astype(int).tolist() == [5, 10, 23, 30]


def test_sweep_clean_pulse_perfect_at_all_thresholds_below_peak():
    ref = make_grid_annotation(bpm=100, start=1.0, duration=30.0)
    act = make_pulse_activation(ref.beats, fps=50.0)
    sweep = peaks.sweep_threshold(act, ref)
    for thr, res in zip(sweep.thresholds, sweep.results):
        if thr < 0.9:
            assert res.f_measure == 1.0, thr


def test_best_threshold_dominates_default():
    rng = np.random.default_rng(11)
    ref = make_grid_annotation(bpm=90, start=1.0, duration=30.0)
    base = make_pulse_activation(ref.beats, fps=50.0)
    noisy = ActivationCurve(
        values=np.clip(base.values * 0.6 + rng.uniform(0, 0.3, len(base.values)), 0, 1),
        fps=50.0,
        source_label="n",
    )
    sweep = peaks.sweep_threshold(noisy, ref)
    default = peaks.pick_peaks(noisy, peaks.PeakConfig(threshold=0.5))
    default_f = metrics.f_measure(default, ref.beats)
    assert sweep.best_result.f_measure >= default_f - 1e-12


def test_sweep_tie_goes_to_lower_threshold():
    ref = make_grid_annotation(bpm=100, start=1.0, duration=20.0)
    act = make_pulse_activation(ref.beats, fps=50.0)
    sweep = peaks.sweep_threshold(act, ref, thresholds=(0.2, 0.4, 0.6))
    assert sweep.best_threshold == 0.2


def test_empty_threshold_grid_rejected():
    ref = make_grid_annotation(bpm=100)
    act = make_pulse_activation(ref.beats)
    with pytest.raises(ValueError):
        peaks.sweep_threshold(act, ref, thresholds=())
