"""beatdiag: beat-tracking DBN decoding, evaluation, and diagnostics."""

from ._version import __version__
from .dbn import DbnConfig, TempoConstraint, decode, decode_constrained
from .errors import ToolkitError
from .experiments import SynthConfig, synthesize_gt_activation
from .ingest import (
    ActivationCurve,
    BeatAnnotation,
    Dataset,
    DatasetLayout,
    load_activation,
    load_beats,
    load_dataset,
)
from .metrics import EvalConfig, EvalResult, evaluate, f_measure
from .peaks import PeakConfig, pick_peaks

__all__ = [
    "__version__",
    "ActivationCurve",
    "BeatAnnotation",
    "Dataset",
    "DatasetLayout",
    "DbnConfig",
    "EvalConfig",
    "EvalResult",
    "PeakConfig",
    "SynthConfig",
    "TempoConstraint",
    "ToolkitError",
    "decode",
    "decode_constrained",
    "evaluate",
    "f_measure",
    "load_activation",
    "load_beats",
    "load_dataset",
    "pick_peaks",
    "synthesize_gt_activation",
]
