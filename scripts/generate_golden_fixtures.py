#!/usr/bin/env python3
"""Generate the golden continuity fixtures checked in at
tests/data/golden_continuity.json.

The expected values come from an independent transcription of the Davies
continuity-based beat metrics as implemented by the standard MIR evaluation
library (per-variation denominators max(#ref, #est), strict tolerance
comparisons, forward-looking intervals at sequence starts, one-shot
annotation usage). F-measure expectations come from an exhaustive bitmask
matching oracle. Run once; re-running reproduces the identical file.
Needs scipy, which the package's ``test`` extra installs.
"""

import json
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

PHASE_TOL = 0.175
PERIOD_TOL = 0.175
F_WINDOW = 0.07


def f_measure_scipy(est, ref, window):
    """F-measure with the matching done by scipy's bipartite matcher."""
    est = np.asarray(est, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if est.size == 0 and ref.size == 0:
        return 1.0
    if est.size == 0 or ref.size == 0:
        return 0.0
    adjacency = (np.abs(est[:, None] - ref[None, :]) <= window).astype(int)
    match = maximum_bipartite_matching(csr_matrix(adjacency), perm_type="column")
    hits = int((match >= 0).sum())
    if hits == 0:
        return 0.0
    precision = hits / est.size
    recall = hits / ref.size
    return 2 * precision * recall / (precision + recall)

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_continuity.json"


# --- reference continuity semantics, transcribed independently -------------


def variations(ref):
    ref = np.asarray(ref, dtype=float)
    idx = np.arange(0, ref.shape[0] - 0.5, 0.5)
    double = np.interp(idx, np.arange(ref.shape[0]), ref)
    return [ref, double[1::2], double, ref[::2], ref[1::2]]


def one_variation(ref, est):
    n_annotations = max(ref.shape[0], est.shape[0])
    used = np.zeros(n_annotations)
    success = np.zeros(n_annotations)
    for m in range(est.shape[0]):
        diffs = np.abs(est[m] - ref)
        nearest = int(np.argmin(diffs))
        min_diff = diffs[nearest]
        if used[nearest]:
            continue
        if m == 0 or nearest == 0:
            if nearest + 1 < ref.shape[0]:
                ref_interval = ref[nearest + 1] - ref[nearest]
            else:
                ref_interval = ref[nearest] - ref[nearest - 1]
            if ref_interval == 0:
                phase = 1.0 if min_diff == 0 else np.inf
            else:
                phase = np.abs(min_diff / ref_interval)
            if m + 1 < est.shape[0]:
                est_interval = est[m + 1] - est[m]
            else:
                est_interval = est[m] - est[m - 1]
            if ref_interval == 0:
                period = 0.0 if est_interval == 0 else np.inf
            else:
                period = np.abs(1.0 - est_interval / ref_interval)
        else:
            ref_interval = ref[nearest] - ref[nearest - 1]
            phase = np.abs(min_diff / ref_interval)
            est_interval = est[m] - est[m - 1]
            period = np.abs(1.0 - est_interval / ref_interval)
        if phase < PHASE_TOL and period < PERIOD_TOL:
            used[nearest] = 1
            success[m] = 1
    padded = np.concatenate(([0], success, [0]))
    failures = np.nonzero(padded == 0)[0]
    longest = int(np.max(np.diff(failures))) - 1
    return longest / n_annotations, float(success.sum()) / n_annotations


def reference_continuity(ref, est):
    ref = np.asarray(ref, dtype=float)
    est = np.asarray(est, dtype=float)
    if est.size <= 1 or ref.size <= 1:
        return 0.0, 0.0, 0.0, 0.0
    continuous, total = [], []
    for var in variations(ref):
        c, t = one_variation(var, est)
        continuous.append(c)
        total.append(t)
    return continuous[0], total[0], float(np.max(continuous)), float(np.max(total))


# --- fixture construction ---------------------------------------------------


def build_cases(rng):
    cases = []

    def grid(start, ibi, count):
        return list(np.round(start + ibi * np.arange(count), 6))

    # structured cases
    ref = grid(0.5, 0.5, 20)
    cases.append(("exact", ref, ref))
    cases.append(("shifted_in_tol", ref, list(np.asarray(ref) + 0.03)))
    cases.append(("shifted_out_of_phase", ref, list(np.asarray(ref) + 0.25)))
    cases.append(("double_tempo", ref, grid(0.5, 0.25, 39)))
    cases.append(("half_tempo", ref, grid(0.5, 1.0, 10)))
    cases.append(("half_tempo_offset", ref, grid(1.0, 1.0, 10)))
    cases.append(("offbeat", ref, grid(0.75, 0.5, 19)))
    cases.append(("empty_est", ref, []))
    cases.append(("single_est", ref, [5.0]))
    cases.append(("two_ref", grid(1.0, 0.6, 2), grid(1.0, 0.6, 2)))
    cases.append(("three_ref_partial", grid(1.0, 0.6, 3), [1.0, 1.62, 2.5]))
    cases.append(("est_longer_than_ref", grid(2.0, 0.8, 5), grid(0.4, 0.4, 40)))
    cases.append(("break_in_middle", ref, ref[:8] + list(np.asarray(ref[8:14]) + 0.3) + ref[14:]))

    # randomized cases
    kinds = ("clean", "jittered", "dropout", "spurious", "rubato", "wrong")
    i = 0
    while len(cases) < 50:
        kind = kinds[i % len(kinds)]
        i += 1
        n = int(rng.integers(2, 25))
        ibi = float(rng.uniform(0.28, 1.8))
        start = float(rng.uniform(0.1, 2.0))
        ref = np.round(start + ibi * np.arange(n), 6)
        if kind == "clean":
            est = ref.copy()
        elif kind == "jittered":
            est = ref + rng.normal(0, 0.04, size=n)
        elif kind == "dropout":
            keep = rng.uniform(size=n) > 0.3
            est = ref[keep]
        elif kind == "spurious":
            extra = rng.uniform(ref[0], ref[-1] + 0.5, size=max(1, n // 3))
            est = np.concatenate([ref, extra])
        elif kind == "rubato":
            ibis = ibi * (1 + rng.uniform(-0.3, 0.3, size=n - 1)) if n > 1 else []
            ref = np.round(np.concatenate(([start], start + np.cumsum(ibis))), 6)
            est = ref + rng.normal(0, 0.03, size=len(ref))
        else:  # wrong
            est = rng.uniform(0, ref[-1] + 1, size=int(rng.integers(0, 2 * n + 1)))
        est = np.sort(np.round(np.asarray(est, dtype=float), 6))
        cases.append((f"random_{kind}_{i}", list(map(float, ref)), list(map(float, est))))
    return cases[:50]


def main():
    rng = np.random.default_rng(20250808)
    fixtures = []
    for name, ref, est in build_cases(rng):
        cmlc, cmlt, amlc, amlt = reference_continuity(ref, est)
        fixtures.append(
            {
                "name": name,
                "ref": ref,
                "est": est,
                "cmlc": cmlc,
                "cmlt": cmlt,
                "amlc": amlc,
                "amlt": amlt,
                "f_measure": f_measure_scipy(est, ref, F_WINDOW),
            }
        )
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(fixtures, indent=1) + "\n")
    print(f"wrote {len(fixtures)} fixtures to {OUT}")


if __name__ == "__main__":
    main()
