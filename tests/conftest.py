import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

TESTS_DIR = Path(__file__).resolve().parent
DATA_DIR = TESTS_DIR / "data"
PSEUDO_DIR = DATA_DIR / "pseudo"

sys.path.insert(0, str(TESTS_DIR))
# Tests that start ``python -m beatdiag.cli`` or a script import the source
# tree, as pytest's own ``pythonpath`` setting does for this process.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(TESTS_DIR.parent / "src"), os.environ.get("PYTHONPATH")]))

from beatdiag import dbn  # noqa: E402
from beatdiag.ingest import ActivationCurve, BeatAnnotation  # noqa: E402

# No per-example deadline: a property's first example pays for imports and
# caches that its replay does not, and Hypothesis reports that gap as
# "Unreliable test timings".
settings.register_profile("beatdiag", deadline=None)
settings.load_profile("beatdiag")


@pytest.fixture
def pseudo_root() -> Path:
    return PSEUDO_DIR


def make_grid_annotation(bpm: float, start: float = 0.5, duration: float = 40.0,
                         track_id: str = "grid") -> BeatAnnotation:
    beats = np.arange(start, duration, 60.0 / bpm)
    return BeatAnnotation(track_id=track_id, beats=beats)


def make_pulse_activation(beats, fps: float = 50.0, duration: float | None = None,
                          sigma: float = 2.0, label: str = "pulse") -> ActivationCurve:
    """Direct Gaussian pulse-train activation covering exactly ``duration``."""
    beats = np.asarray(beats, dtype=float)
    if duration is None:
        duration = beats[-1] + 0.5
    n = int(round(duration * fps))
    t = np.arange(n)
    values = np.zeros(n)
    for b in beats:
        c = b * fps
        lo = max(0, int(c) - 15)
        hi = min(n, int(c) + 16)
        np.maximum(values[lo:hi], np.exp(-((t[lo:hi] - c) ** 2) / (2 * sigma**2)),
                   out=values[lo:hi])
    return ActivationCurve(values=values, fps=fps, source_label=label)


def record_passes(monkeypatch) -> list:
    """(activation bytes, state space key, lambdas) of each grid that
    ``dbn._viterbi_grids`` decodes from now on: one per activation and state
    space that ``dbn.decode_batch`` decodes in, listing its pass copies."""
    calls = []
    viterbi_grids = dbn._viterbi_grids

    def recording(grids):
        grids = [(act, space, list(lambdas)) for act, space, lambdas in grids]
        for act, space, lambdas in grids:
            key = (int(space.intervals[0]), int(space.intervals[-1]), space.observation_lambda)
            calls.append((act.values.tobytes(), key, lambdas))
        return viterbi_grids(grids)

    monkeypatch.setattr(dbn, "_viterbi_grids", recording)
    return calls
