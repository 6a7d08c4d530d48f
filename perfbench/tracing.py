"""Spans around the calls into beatdiag's public functions.

The tracer replaces each listed function, in every beatdiag module that
binds it, with a wrapper that records a span: name, start, end, parent span
and track id. Calls between modules and within a module both go through
module globals, so nested calls become child spans. Spans stay in memory and
are written out once, at exit; ``layer_metrics`` derives the per-layer
metrics from the file.

Tracing runs at --jobs 1 only: spans recorded in forked pool workers would
be lost.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

TRACED = {
    "ingest": ("load_dataset", "load_activation", "load_beats", "load_tags", "load_tempo_estimates",
               "load_axis_map", "write_beats", "write_activation"),
    "dbn": ("decode", "decode_constrained", "viterbi", "build_state_space", "transition_log_probs",
            "observation_log_probs", "path_to_beats"),
    "peaks": ("pick_peaks", "sweep_threshold"),
    "metrics": ("evaluate", "continuity", "f_measure"),
    "diagnostics": ("compute_diagnostics", "tempo_stats", "classify_failure", "spearman"),
    "experiments": ("synthesize_gt_activation", "dataset_stats", "run_gt_bottleneck",
                    "run_bottleneck_table", "sweep_lambda", "run_lambda_sweep", "run_threshold_sweep",
                    "run_peak_vs_dbn", "run_tempo_curve", "run_systems_table", "run_axis_table",
                    "run_taxonomy", "emit_figure_data"),
    "reports": ("write_run_report", "write_manifest"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)
FILE_READERS = ("ingest.load_activation", "ingest.load_beats", "ingest.load_tags",
                "ingest.load_tempo_estimates", "ingest.load_axis_map")
DBN_SETUP = ("dbn.build_state_space", "dbn.transition_log_probs", "dbn.observation_log_probs")
REPORT_WRITERS = ("reports.write_run_report", "reports.write_manifest")


def _digest(array) -> str:
    return hashlib.sha1(array.tobytes()).hexdigest()[:16]


def _track_of(args):
    for arg in args:
        track_id = getattr(arg, "track_id", None)
        if isinstance(track_id, str):
            return track_id
    return None


def dense_space(fps: float, min_bpm: float, max_bpm: float) -> tuple[int, int]:
    """(K tempi, S states) of the bar-pointer state space for this config."""
    tau_min = int(round(60.0 * fps / max_bpm))
    tau_max = int(round(60.0 * fps / min_bpm))
    k = tau_max - tau_min + 1
    return k, (tau_min + tau_max) * k // 2


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent index, track id, attrs]
        self.spans = []
        self.stack = []
        self.track = None
        self.patched = []
        self.largest_decode = (0, None)

    # -- recording --------------------------------------------------------

    def wrap(self, name, fn):
        attrs_of = getattr(self, "_attrs_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            track = self.track if self.track is not None else _track_of(args)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, track, None])
            stack.append(index)
            start = time.monotonic()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if attrs_of is not None:
                spans[index][5] = attrs_of(return_value, *args, **kwargs)
            return return_value

        wrapper.__wrapped__ = fn
        return wrapper

    def _attrs_dbn_decode(self, _beats, act, cfg=None, *_, **__):
        if cfg is None:
            from beatdiag.dbn import DbnConfig
            cfg = DbnConfig()
        k, s = dense_space(act.fps, cfg.min_bpm, cfg.max_bpm)
        frames = len(act.values)
        if frames * s > self.largest_decode[0]:
            self.largest_decode = (frames * s, (act, cfg))
        return {"key": f"{_digest(act.values)}|{act.fps!r}|{cfg!r}", "frames": frames, "tempi": k,
                "states": s}

    def _attrs_experiments_synthesize_gt_activation(self, _act, ref, cfg=None, *_, **__):
        return {"key": f"{_digest(ref.beats)}|{cfg!r}"}

    def _file_size(self, _result, path, *_, **__):
        return {"bytes": Path(path).stat().st_size} if path is not None else None

    _attrs_ingest_load_activation = _attrs_ingest_load_beats = _attrs_ingest_load_tags = _file_size
    _attrs_ingest_load_tempo_estimates = _attrs_reports_write_manifest = _file_size

    def _attrs_reports_write_run_report(self, run_dir, *_, **__):
        return {"bytes": sum(p.stat().st_size for p in Path(run_dir).iterdir() if p.is_file())}

    def _attrs_ingest_load_axis_map(self, _result, path=None, *_, **__):
        if path is None:
            from beatdiag import ingest
            path = Path(ingest.__file__).parent / "data" / "axis_map.tsv"
        return {"bytes": Path(path).stat().st_size}

    def tracked(self, fn):
        """fn(payload) run with the current track id set from the item."""
        def call(item):
            track_id, payload = item
            outer, self.track = self.track, track_id
            try:
                return fn(payload)
            finally:
                self.track = outer
        return call

    # -- installation -----------------------------------------------------

    def install(self):
        from beatdiag import experiments

        modules = [m for name, m in sys.modules.items() if name == "beatdiag" or name.startswith("beatdiag.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"beatdiag.{layer}"]
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    # A renamed or removed function must be renamed here too;
                    # skipping it would report its metrics as 0.
                    raise RuntimeError(f"traced function beatdiag.{layer}.{fname} not found; update TRACED")
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
                            self.patched.append((m, attr, original))
        # The private track mapper is where a payload meets its track id. Track
        # ids feed no metric, so without it spans only lose their track id.
        map_tracks = getattr(experiments, "_map_tracks", None)
        if map_tracks is not None:
            def traced_map_tracks(fn, items, jobs=1):
                if jobs != 1:
                    raise RuntimeError("tracing needs --jobs 1")
                return map_tracks(self.tracked(fn), [(tid, (tid, p)) for tid, p in items], jobs)
            experiments._map_tracks = traced_map_tracks
            self.patched.append((experiments, "_map_tracks", map_tracks))

    def uninstall(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    # -- output -----------------------------------------------------------

    def alloc_peak_of_largest_decode(self) -> int:
        """tracemalloc peak, in bytes, of one untraced re-run of the largest decode."""
        if self.largest_decode[1] is None:
            return 0
        from beatdiag import dbn
        act, cfg = self.largest_decode[1]
        tracemalloc.start()
        try:
            dbn.decode(act, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def dump(self, path: Path, meta: dict):
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}))


# ---------------------------------------------------------------------------
# Per-layer metrics from a span file
# ---------------------------------------------------------------------------


def _self_times(spans) -> list[float]:
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _outermost(spans, index, names) -> bool:
    """No ancestor of the span has one of these names."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return False
        parent = spans[parent][3]
    return True


def layer_metrics(trace: dict, stage_seconds: dict, step_seconds: dict) -> dict:
    """Per-layer metrics of one traced repetition, as {name: value}."""
    spans = trace["spans"]
    meta = trace["meta"]
    self_s = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(*names):
        """Time in spans of these names, not counting one nested in another."""
        return sum(dur(i) for name in names for i in by_name.get(name, ()) if _outermost(spans, i, names))

    def attr_values(name, key):
        return [spans[i][5][key] for i in by_name.get(name, ()) if spans[i][5]]

    decodes = by_name.get("dbn.decode", [])
    decode_ms = sorted(1e3 * dur(i) for i in decodes)
    decode_s = total("dbn.decode")
    decode_attrs = [spans[i][5] for i in decodes if spans[i][5]]  # None where decode raised
    state_frames = sum(a["frames"] * a["states"] for a in decode_attrs)
    keys = [a["key"] for a in decode_attrs]
    synth_keys = attr_values("experiments.synthesize_gt_activation", "key")
    wall = meta["wall_s"]
    m = {
        "dbn.decode_calls": len(decodes),
        "dbn.decode_s": decode_s,
        "dbn.decode_share": decode_s / wall,
        "dbn.decode_ms_p50": _quantile(decode_ms, 0.5),
        "dbn.decode_ms_p90": _quantile(decode_ms, 0.9),
        "dbn.viterbi_s": sum(self_s[i] for i in decodes + by_name.get("dbn.viterbi", [])),
        "dbn.path_to_beats_s": total("dbn.path_to_beats"),
        "dbn.setup_s": total(*DBN_SETUP),
        "dbn.state_frames": state_frames,
        "dbn.ns_per_state_frame": 1e9 * decode_s / state_frames if state_frames else 0.0,
        "dbn.distinct_ratio": len(set(keys)) / len(keys) if keys else 0.0,
        "dbn.wrap_bytes": max((a["frames"] * a["tempi"] * 4 for a in decode_attrs), default=0),
        "dbn.alloc_peak_mb": meta["alloc_peak_bytes"] / 2**20,
        "peaks.pick_calls": len(by_name.get("peaks.pick_peaks", ())),
        "peaks.pick_s": total("peaks.pick_peaks"),
        "peaks.sweep_s": total("peaks.sweep_threshold"),
        "metrics.evaluate_calls": len(by_name.get("metrics.evaluate", ())),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.continuity_s": total("metrics.continuity"),
        "metrics.f_measure_s": total("metrics.f_measure"),
        "ingest.load_s": total("ingest.load_dataset", *FILE_READERS),
        "ingest.files": sum(len(by_name.get(name, ())) for name in FILE_READERS),
        "ingest.bytes": sum(sum(attr_values(name, "bytes")) for name in FILE_READERS),
        "import.beatdiag_s": meta["import_s"],
        "diagnostics.compute_s": total("diagnostics.compute_diagnostics"),
        "diagnostics.tempo_stats_calls": len(by_name.get("diagnostics.tempo_stats", ())),
        "experiments.synth_distinct_ratio": len(set(synth_keys)) / len(synth_keys) if synth_keys else 0.0,
        "reports.write_s": total(*REPORT_WRITERS),
        "reports.bytes": sum(spans[i][5]["bytes"] for name in REPORT_WRITERS for i in by_name.get(name, ())
                             if spans[i][5] and _outermost(spans, i, REPORT_WRITERS)),
        "trace.wall_s": wall,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s for s, span in zip(self_s, spans) if span[0].startswith(layer + "."))
    # time of the measured operations outside every span: the benchmark's own
    m["bench.self_s"] = wall - sum(dur(i) for i, span in enumerate(spans)
                                   if span[3] < 0 and span[1] >= meta["first_call"])
    for name, seconds in stage_seconds.items():
        m[f"experiments.{name}_s"] = seconds
    for name, seconds in step_seconds.items():
        m[f"cli.{name}_s"] = seconds
    return m


def _quantile(sorted_values, q) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[int(round(q * 100)) - 1]
