import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from beatdiag import diagnostics
from beatdiag.diagnostics import FailureCategory
from beatdiag.errors import DegenerateInput, InsufficientReference, NoOverlap
from beatdiag.experiments import SynthConfig, synthesize_gt_activation
from beatdiag.ingest import ActivationCurve, BeatAnnotation
from beatdiag.metrics import EvalResult
from conftest import make_grid_annotation
from oracles import (act_at_gt_oracle, false_positive_activation_oracle, peak_sharpness_oracle,
                     spearman_rho_oracle)


def curve(values, fps=50.0):
    return ActivationCurve(values=np.asarray(values, dtype=float), fps=fps, source_label="t")


def result(f=0.5, cmlc=0.2, cmlt=0.4, amlc=0.3, amlt=0.5):
    return EvalResult(f_measure=f, cmlc=cmlc, cmlt=cmlt, amlc=amlc, amlt=amlt, n_ref=10, n_est=10)


# ---------------------------------------------------------------------------
# activation-vs-annotation diagnostics
# ---------------------------------------------------------------------------


def test_act_at_gt_on_own_synthesis_frame_aligned():
    # 75 BPM at 50 fps puts every peak on an exact frame
    ref = make_grid_annotation(bpm=75, start=0.5, duration=30.0)
    act = synthesize_gt_activation(ref, SynthConfig(fps=50.0))
    assert diagnostics.act_at_gt(act, ref) >= 0.999


def test_act_at_gt_zero_curve():
    ref = BeatAnnotation(track_id="t", beats=np.array([0.5, 1.0]))
    assert diagnostics.act_at_gt(curve(np.zeros(100)), ref) == 0.0


def test_act_at_gt_all_beats_outside_curve():
    ref = BeatAnnotation(track_id="t", beats=np.array([10.0, 11.0]))
    with pytest.raises(NoOverlap):
        diagnostics.act_at_gt(curve(np.zeros(50)), ref)


@given(start=st.floats(0.3, 2.0), ibi=st.floats(0.3, 1.5))
@settings(max_examples=50)
def test_act_at_gt_high_for_any_synthesized_annotation(start, ibi):
    # Worst case is every peak sampled at a half-frame offset, which for a
    # sigma=2 Gaussian gives exactly exp(-1/32) ~= 0.9692 per beat.
    beats = start + ibi * np.arange(10)
    ref = BeatAnnotation(track_id="t", beats=beats)
    act = synthesize_gt_activation(ref, SynthConfig(fps=50.0))  # min IBI 15 frames
    assert diagnostics.act_at_gt(act, ref) >= np.exp(-1 / 32) - 1e-9


def test_false_positive_activation_conventions():
    ref = BeatAnnotation(track_id="t", beats=np.array([0.5, 1.0]))
    assert diagnostics.false_positive_activation(curve(np.zeros(100)), ref) == 0.0
    assert diagnostics.false_positive_activation(curve(np.full(100, 0.7)), ref) == pytest.approx(0.7)


def test_false_positive_activation_small_for_gt_synthesis():
    ref = make_grid_annotation(bpm=70, start=0.5, duration=40.0)
    act = synthesize_gt_activation(ref, SynthConfig(fps=50.0))
    assert diagnostics.false_positive_activation(act, ref) < 0.2


def test_compute_diagnostics_reports_beats_outside_the_curve_once(caplog):
    ref = BeatAnnotation(track_id="t", beats=np.array([0.5, 1.0, 3.0, 4.0]))
    with caplog.at_level("WARNING", logger="beatdiag.diagnostics"):
        diagnostics.compute_diagnostics(curve(np.full(100, 0.5)), ref)  # 2 s at 50 fps
    assert [r.getMessage() for r in caplog.records] == ["t: 2 beat(s) outside the 100-frame curve skipped"]


def test_peak_sharpness_impulse():
    values = np.zeros(21)
    values[10] = 1.0
    assert diagnostics.peak_sharpness(curve(values)) == pytest.approx(1.0)


def test_peak_sharpness_constant_zero():
    assert diagnostics.peak_sharpness(curve(np.full(30, 0.5))) == 0.0


def test_peak_sharpness_gaussian():
    t = np.arange(41)
    values = np.exp(-((t - 20.0) ** 2) / 8.0)
    expected = 1 - np.exp(-9 / 8)
    assert diagnostics.peak_sharpness(curve(values)) == pytest.approx(expected, abs=1e-6)


short_curves = st.one_of(
    st.lists(st.integers(0, 8).map(lambda k: k / 8), min_size=1, max_size=40),  # plateaus and equal peaks
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)


@given(values=short_curves, fps=st.sampled_from([10.0, 43.07, 50.0]), data=st.data())
@settings(max_examples=400)
def test_beat_window_diagnostics_match_per_beat_loops(values, fps, data):
    act = curve(values, fps)
    n = len(values)
    frames = data.draw(st.one_of(st.sets(st.integers(0, n + 2), max_size=12), st.just({0, n - 1})))
    ref = BeatAnnotation(track_id="t", beats=np.sort(np.asarray(list(frames), dtype=float)) / fps)
    inside = [int(f) for f in np.round(ref.beats * fps) if f < n]
    fpa = diagnostics.false_positive_activation(act, ref)
    assert fpa.hex() == false_positive_activation_oracle(act.values, inside).hex()
    if not inside:
        with pytest.raises(NoOverlap):
            diagnostics.act_at_gt(act, ref)
    else:
        assert diagnostics.act_at_gt(act, ref).hex() == act_at_gt_oracle(act.values, inside).hex()
    assert diagnostics.peak_sharpness(act).hex() == peak_sharpness_oracle(act.values, fps).hex()


def test_periodicity_strength_pulse_train():
    values = np.zeros(2000)
    values[::25] = 1.0
    assert diagnostics.periodicity_strength(curve(values)) > 0.9


def test_periodicity_strength_noise_low():
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 1, 4000)
    assert diagnostics.periodicity_strength(curve(values)) < 0.15


def test_periodicity_strength_constant_zero():
    assert diagnostics.periodicity_strength(curve(np.full(500, 0.4))) == 0.0


def test_entropy_uniform_one():
    assert diagnostics.activation_entropy(curve(np.full(64, 0.5))) == pytest.approx(1.0)


def test_entropy_single_frame_zero():
    values = np.zeros(50)
    values[7] = 0.9
    assert diagnostics.activation_entropy(curve(values)) == 0.0


def test_entropy_two_of_four():
    assert diagnostics.activation_entropy(curve([0.5, 0.0, 0.5, 0.0])) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# taxonomy
# ---------------------------------------------------------------------------


def test_classify_good():
    assert diagnostics.classify_failure(result(f=0.85)) is FailureCategory.GOOD


def test_classify_total_failure():
    assert (
        diagnostics.classify_failure(result(f=0.25, amlt=0.25))
        is FailureCategory.TOTAL_FAILURE
    )


def test_classify_octave_before_continuity():
    r = result(f=0.5, cmlc=0.2, cmlt=0.5, amlc=0.6, amlt=0.9)
    assert diagnostics.classify_failure(r) is FailureCategory.OCTAVE_ERROR


def test_classify_continuity():
    r = result(f=0.5, cmlc=0.2, cmlt=0.5, amlc=0.3, amlt=0.6)
    assert diagnostics.classify_failure(r) is FailureCategory.CONTINUITY_ERROR


def test_classify_other():
    r = result(f=0.5, cmlc=0.4, cmlt=0.5, amlc=0.5, amlt=0.6)
    assert diagnostics.classify_failure(r) is FailureCategory.OTHER


metric_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(cmlc=metric_floats, dt=metric_floats, da=metric_floats, dat=metric_floats, f=metric_floats)
@settings(max_examples=500)
def test_classify_failure_total_function(cmlc, dt, da, dat, f):
    cmlt = min(1.0, cmlc + dt * (1 - cmlc))
    amlc = min(1.0, cmlc + da * (1 - cmlc))
    amlt = min(1.0, max(cmlt, amlc) + dat * (1 - max(cmlt, amlc)))
    r = EvalResult(f_measure=f, cmlc=cmlc, cmlt=cmlt, amlc=amlc, amlt=amlt, n_ref=5, n_est=5)
    assert diagnostics.classify_failure(r) in set(FailureCategory)


# ---------------------------------------------------------------------------
# spearman
# ---------------------------------------------------------------------------


def test_spearman_monotone():
    x = np.arange(10.0)
    assert diagnostics.spearman(x, x**3) == pytest.approx(1.0)
    assert diagnostics.spearman(x, -x) == pytest.approx(-1.0)


def test_spearman_degenerate():
    with pytest.raises(DegenerateInput):
        diagnostics.spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        x = rng.integers(0, 6, n).astype(float)  # heavy ties
        y = rng.normal(size=n)
        if len(set(x)) < 2:
            continue
        rho = diagnostics.spearman(x, y)
        assert rho == pytest.approx(scipy_stats.spearmanr(x, y).statistic, abs=1e-9)
        assert rho == pytest.approx(spearman_rho_oracle(x, y), abs=1e-9)


# ---------------------------------------------------------------------------
# tempo stats / accuracy
# ---------------------------------------------------------------------------


def test_tempo_stats_metronomic():
    ref = BeatAnnotation(track_id="t", beats=np.array([0.0, 1.0, 2.0, 3.0]))
    stats = diagnostics.tempo_stats(ref)
    assert stats.gt_bpm == pytest.approx(60.0)
    assert stats.ibi_cv == 0.0


@given(values=st.lists(st.floats(allow_infinity=False) | st.sampled_from([0.5, 2.0, np.nan]), min_size=1, max_size=12))
@settings(max_examples=200)
def test_median_is_np_median_bit_for_bit(values):
    with np.errstate(over="ignore"):  # both overflow alike on huge inputs
        got, want = diagnostics.median(values), float(np.median(values))
    assert float.hex(got) == float.hex(want)


def test_tempo_stats_needs_three_beats():
    with pytest.raises(InsufficientReference):
        diagnostics.tempo_stats(BeatAnnotation(track_id="t", beats=np.array([0.0, 1.0])))


@given(shift=st.floats(0, 100))
@settings(max_examples=50)
def test_tempo_stats_shift_invariant(shift):
    beats = np.array([0.0, 0.9, 1.7, 2.8, 3.5])
    a = diagnostics.tempo_stats(BeatAnnotation(track_id="t", beats=beats))
    b = diagnostics.tempo_stats(BeatAnnotation(track_id="t", beats=beats + shift))
    assert a.gt_bpm == pytest.approx(b.gt_bpm, abs=1e-9)
    assert a.ibi_cv == pytest.approx(b.ibi_cv, abs=1e-9)


def test_score_tempo_estimate_labels():
    assert diagnostics.score_tempo_estimate(70.0, 70.0) == "correct"
    assert diagnostics.score_tempo_estimate(140.0, 70.0) == "double"
    assert diagnostics.score_tempo_estimate(35.0, 70.0) == "half"
    assert diagnostics.score_tempo_estimate(105.0, 70.0) == "other"
