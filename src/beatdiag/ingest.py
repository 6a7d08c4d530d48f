"""Dataset ingestion: beat annotations, difficulty tags, activations, tempo estimates.

File conventions
----------------
* Beat annotation: one decimal timestamp (seconds) per line; anything after
  the first whitespace-separated token on a line is ignored.
* Activation text format v1: first line ``#fps=<decimal>``, then one decimal
  in [0, 1] per non-empty line; later ``#`` lines are comments.
* Activation binary format v1: magic ``ACT1``, fps as little-endian float64,
  frame count as little-endian uint64, then count little-endian float32 values.
* Tempo estimates: CSV ``track_id,bpm,source_label`` with a header row.
* Axis map: ``canonical_tag<TAB>axis_name`` lines; a line with no axis adds
  the tag to the vocabulary without an axis.
* Directories: annotation, tag and activation directories are scanned for
  the file names in BEATS_GLOB, TAGS_GLOB and ACTIVATION_GLOB. A file named
  ``manifest.txt`` (what the toolkit writes next to its outputs) is never a
  track, and two files for one track id in one directory are an error.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
import struct
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    CorruptActivation,
    MalformedAnnotation,
    MissingFps,
    ParseError,
    ToolkitError,
)

log = logging.getLogger(__name__)

AXES = ("weak_beat_cues", "tempo_instability", "metrical_ambiguity", "structural")

VALUE_TOLERANCE = 1e-6  # activation values may overshoot [0,1] by at most this

ACT_MAGIC = b"ACT1"

BEATS_GLOB = ("*.beats", "*.txt")
TAGS_GLOB = ("*.tag", "*.tags")
ACTIVATION_GLOB = ("*.act", "*.act.txt", "*.bin")
MANIFEST_NAME = "manifest.txt"


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeatAnnotation:
    """Ground-truth beat times for one track, strictly increasing, in seconds."""

    track_id: str
    beats: np.ndarray

    def __post_init__(self):
        beats = np.asarray(self.beats, dtype=float)
        object.__setattr__(self, "beats", beats)
        if not np.all(np.isfinite(beats)):
            raise MalformedAnnotation(f"{self.track_id}: non-finite timestamp")
        if beats.size and beats[0] < 0:
            raise MalformedAnnotation(f"{self.track_id}: negative timestamp {beats[0]}")
        if beats.size > 1 and not np.all(np.diff(beats) > 0):
            raise MalformedAnnotation(f"{self.track_id}: timestamps not strictly increasing")

    def __len__(self):
        return len(self.beats)


@dataclass(frozen=True)
class TrackMetadata:
    """Per-track difficulty descriptors and annotation provenance."""

    track_id: str
    raw_tags: tuple[str, ...] = ()
    canonical_tags: tuple[str, ...] = ()
    axes: frozenset = frozenset()
    annotator_confidence: int | None = None
    annotator_id: str | None = None


@dataclass(frozen=True)
class ActivationCurve:
    """Per-frame beat probability sequence at a fixed frame rate."""

    values: np.ndarray
    fps: float
    source_label: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not 0 < self.fps < math.inf:
            raise CorruptActivation(f"fps must be positive and finite, got {self.fps}")
        if values.ndim != 1 or values.size < 1:
            raise CorruptActivation("activation must be a non-empty 1-d sequence")
        if not (values.min() >= -VALUE_TOLERANCE and values.max() <= 1 + VALUE_TOLERANCE):  # NaN fails too
            raise CorruptActivation(
                f"activation values outside [0,1]: min={values.min()}, max={values.max()}"
            )
        object.__setattr__(self, "values", np.clip(values, 0.0, 1.0))

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class AxisMap:
    """Canonical-tag vocabulary plus tag -> difficulty-axis assignment."""

    entries: dict
    vocabulary: frozenset

    def __post_init__(self):
        bad = set(self.entries.values()) - set(AXES)
        if bad:
            raise ParseError(f"unknown axis names: {sorted(bad)}")
        object.__setattr__(self, "vocabulary", frozenset(self.vocabulary) | set(self.entries))


@dataclass
class TrackRecord:
    """One track's annotation, metadata, and named activation sources."""

    track_id: str
    annotation: BeatAnnotation | None
    metadata: TrackMetadata
    activations: dict = field(default_factory=dict)


class Dataset:
    """Immutable collection of TrackRecords, iterated in track_id order."""

    def __init__(self, records, residue_tags=None):
        self._records = sorted(records, key=lambda r: r.track_id)
        self._by_id = {r.track_id: r for r in self._records}
        # raw tags that failed normalization, keyed by track_id
        self.residue_tags = dict(residue_tags or {})

    def __iter__(self):
        return iter(self._records)

    def __len__(self):
        return len(self._records)

    def __getitem__(self, track_id: str) -> TrackRecord:
        return self._by_id[track_id]

    def __contains__(self, track_id: str) -> bool:
        return track_id in self._by_id

    def annotated(self):
        """Records that carry a beat annotation."""
        return [r for r in self._records if r.annotation is not None]


@dataclass(frozen=True)
class DatasetLayout:
    """Where the loaders look for each file kind below a dataset root.

    All directories may be absolute or relative to the root passed to
    load_dataset. ``activation_dirs`` maps a source label (e.g. a model
    name) to the directory holding that source's activation files.
    """

    beats_dir: str = "beats"
    tags_dir: str | None = "tags"
    activation_dirs: dict = field(default_factory=dict)


def read_text(path: Path) -> str:
    """The file decoded as UTF-8; a ParseError names the path if it cannot
    be read or is not UTF-8."""
    try:
        return path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# ---------------------------------------------------------------------------
# Beat annotations
# ---------------------------------------------------------------------------


def track_id_from_path(path) -> str:
    """Lowercased filename stem; strips a double extension like `.act.txt`."""
    stem = Path(path).stem
    if stem.endswith(".act"):
        stem = stem[: -len(".act")]
    return stem.lower()


def load_beats(path) -> BeatAnnotation:
    """Parse a beat annotation file: one timestamp per line, seconds.

    Raises ParseError (with line number) on unparseable or non-finite
    lines and MalformedAnnotation when timestamps are negative or not
    strictly increasing.
    """
    path = Path(path)
    lines = read_text(path).splitlines()
    arr = _plain_floats(lines)
    if arr is None:
        arr = _parse_beat_lines(lines, path)
    if arr.size and arr.min() < 0:
        raise MalformedAnnotation(f"{path}: negative timestamp")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        bad = int(np.flatnonzero(np.diff(arr) <= 0)[0]) + 2
        raise MalformedAnnotation(f"{path}: timestamps not strictly increasing at line ~{bad}")
    return BeatAnnotation(track_id=track_id_from_path(path), beats=arr)


def _parse_beat_lines(lines, path) -> np.ndarray:
    """First token of each non-blank line as a timestamp."""
    beats = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        token = stripped.split()[0]
        try:
            beats.append(float(token))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: expected a timestamp, got {token!r}") from None
        if not math.isfinite(beats[-1]):
            raise ParseError(f"{path}:{lineno}: timestamp must be finite, got {token!r}")
    return np.asarray(beats, dtype=float)


def _plain_floats(lines) -> np.ndarray | None:
    """``lines`` as floats in one numpy call, which parses as float() does;
    None unless there is at least one line and every line is one finite
    number. The callers then parse line by line, which skips what may be
    skipped and gives every error its line number."""
    try:
        values = np.array(lines, dtype=float)
    except ValueError:
        return None
    if values.size and np.isfinite(values).all():
        return values
    return None


def write_beats(beats, path, decimals: int = 3):
    """Write beat times one per line; round-trips through load_beats."""
    path = Path(path)
    path.write_text("".join(f"{t:.{decimals}f}\n" for t in np.asarray(beats, dtype=float)))


# ---------------------------------------------------------------------------
# Difficulty tags
# ---------------------------------------------------------------------------


def load_axis_map(path=None) -> AxisMap:
    """Read the tag vocabulary / axis assignment file (default: bundled map)."""
    if path is None:
        text = resources.files("beatdiag").joinpath("data/axis_map.tsv").read_text()
        origin = "<bundled axis_map.tsv>"
    else:
        text = read_text(Path(path))
        origin = str(path)
    entries = {}
    vocabulary = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        tag = parts[0].strip()
        if len(parts) == 1:
            vocabulary.add(tag)
        elif len(parts) == 2:
            axis = parts[1].strip()
            if axis not in AXES:
                raise ParseError(f"{origin}:{lineno}: unknown axis {axis!r}")
            entries[tag] = axis
        else:
            raise ParseError(f"{origin}:{lineno}: expected 'tag<TAB>axis'")
    return AxisMap(entries=entries, vocabulary=frozenset(vocabulary))


_PAREN = re.compile(r"\([^)]*\)")
_SEPARATORS = re.compile(r"[\s_\-]+")


def _singular_candidates(word: str):
    if word.endswith("ies") and len(word) > 4:
        yield word[:-3] + "y"
    if word.endswith("es") and len(word) > 3:
        yield word[:-2]
    if word.endswith("s") and not word.endswith("ss") and len(word) > 2:
        yield word[:-1]


def normalize_tag(raw: str, axis_map: AxisMap | None = None) -> str | None:
    """Normalize a free-text difficulty descriptor to its canonical id.

    Lowercases, strips parenthesized suffixes, collapses whitespace, and maps
    plural forms to the singular vocabulary entry. Returns None when the
    result is not in the vocabulary; callers collect those in a residue list.
    """
    if axis_map is None:
        axis_map = default_axis_map()
    words = _SEPARATORS.split(_PAREN.sub(" ", raw.lower()).strip())
    words = [w for w in words if w]
    if not words:
        return None
    candidate = "_".join(words)
    if candidate in axis_map.vocabulary:
        return candidate
    for singular in _singular_candidates(words[-1]):
        candidate = "_".join(words[:-1] + [singular])
        if candidate in axis_map.vocabulary:
            return candidate
    return None


def assign_axes(tags, axis_map: AxisMap) -> frozenset:
    """Union of the axes mapped from the given canonical tags."""
    return frozenset(axis_map.entries[t] for t in tags if t in axis_map.entries)


_META_LINE = re.compile(r"^(annotator|confidence)\s*[:=]\s*(.+)$", re.IGNORECASE)
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_bool(text: str) -> bool:
    """1/true/yes or 0/false/no, in any case; anything else is a ValueError."""
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not {'/'.join(_BOOLEANS)}") from None


def load_tags(path, axis_map: AxisMap | None = None):
    """Parse a free-text tag file into (TrackMetadata, residue raw tags).

    Tags are separated by newlines, commas, or semicolons. Lines of the form
    ``annotator: X`` and ``confidence: N`` carry annotation
    provenance; either inline keys or a separate metadata file may be used.
    """
    if axis_map is None:
        axis_map = default_axis_map()
    path = Path(path)
    raw_tags = []
    annotator = None
    confidence = None
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        meta = _META_LINE.match(stripped)
        if meta:
            key, value = meta.group(1).lower(), meta.group(2).strip()
            if key == "annotator":
                annotator = value
            elif key == "confidence":
                try:
                    confidence = int(value)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: confidence {value!r} is not an integer") from None
            continue
        raw_tags.extend(t.strip() for t in re.split(r"[,;]", stripped) if t.strip())
    canonical = []
    residue = []
    for raw in raw_tags:
        tag = normalize_tag(raw, axis_map)
        if tag is None:
            residue.append(raw)
        elif tag not in canonical:
            canonical.append(tag)
    if residue:
        log.warning("%s: %d unrecognized tag(s): %s", path.name, len(residue), residue)
    metadata = TrackMetadata(
        track_id=track_id_from_path(path),
        raw_tags=tuple(raw_tags),
        canonical_tags=tuple(canonical),
        axes=assign_axes(canonical, axis_map),
        annotator_confidence=confidence,
        annotator_id=annotator,
    )
    return metadata, residue


_default_axis_map = None


def default_axis_map() -> AxisMap:
    global _default_axis_map
    if _default_axis_map is None:
        _default_axis_map = load_axis_map()
    return _default_axis_map


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def load_activation(path, source_label: str | None = None) -> ActivationCurve:
    """Load an activation curve in either the text or binary interchange format."""
    path = Path(path)
    label = source_label if source_label is not None else track_id_from_path(path)
    blob = path.read_bytes()
    if blob[:4] == ACT_MAGIC:
        return _parse_activation_binary(blob, path, label)
    return _parse_activation_text(blob, path, label)


def _parse_activation_text(blob: bytes, path, label: str) -> ActivationCurve:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        raise CorruptActivation(f"{path}: neither ACT1 binary nor utf-8 text") from None
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#fps="):
        raise MissingFps(f"{path}: first line must be '#fps=<decimal>'")
    try:
        fps = float(lines[0][len("#fps="):])
    except ValueError:
        raise MissingFps(f"{path}: bad fps value {lines[0]!r}") from None
    if not 0 < fps < math.inf:
        raise MissingFps(f"{path}: fps must be positive and finite, got {fps}")
    values = _plain_floats(lines[1:])
    if values is None:
        values = _parse_activation_lines(lines, path)
    try:
        return ActivationCurve(values=values, fps=fps, source_label=label)
    except CorruptActivation as exc:
        raise CorruptActivation(f"{path}: {exc}") from None


def _parse_activation_lines(lines, path) -> np.ndarray:
    """Values of the lines after the fps header, skipping blanks and comments."""
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            value = float(stripped)
        except ValueError:
            value = math.nan  # rejected below, with the non-finite values
        if not math.isfinite(value):
            raise CorruptActivation(f"{path}:{lineno}: bad value {stripped!r}")
        values.append(value)
    if not values:
        raise CorruptActivation(f"{path}: no activation values")
    return np.asarray(values)


def _parse_activation_binary(blob: bytes, path, label: str) -> ActivationCurve:
    if len(blob) < 4 + 8 + 8:
        raise CorruptActivation(f"{path}: truncated header")
    fps = struct.unpack_from("<d", blob, 4)[0]
    count = struct.unpack_from("<Q", blob, 12)[0]
    expected = 4 + 8 + 8 + 4 * count
    if len(blob) != expected:
        raise CorruptActivation(f"{path}: expected {expected} bytes for {count} frames, got {len(blob)}")
    if fps <= 0 or not np.isfinite(fps):
        raise CorruptActivation(f"{path}: bad fps {fps}")
    with np.errstate(invalid="ignore"):  # a signalling NaN; ActivationCurve rejects every NaN
        values = np.frombuffer(blob, dtype="<f4", offset=20, count=count).astype(float)
    try:
        return ActivationCurve(values=values, fps=fps, source_label=label)
    except CorruptActivation as exc:
        raise CorruptActivation(f"{path}: {exc}") from None


def write_activation(act: ActivationCurve, path, binary: bool = False):
    """Write an activation curve in the v1 text or binary interchange format."""
    path = Path(path)
    if binary:
        payload = bytearray(ACT_MAGIC)
        payload += struct.pack("<d", act.fps)
        payload += struct.pack("<Q", len(act.values))
        payload += act.values.astype("<f4").tobytes()
        path.write_bytes(bytes(payload))
    else:
        lines = [f"#fps={act.fps}"]
        lines += [f"{v:.8f}" for v in act.values]
        path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Tempo estimates
# ---------------------------------------------------------------------------


def load_tempo_estimates(path) -> dict:
    """{track_id: bpm} from a ``track_id,bpm,source_label`` CSV (header row
    required), one row per track."""
    path = Path(path)
    estimates, first_line = {}, {}
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    required = {"track_id", "bpm", "source_label"}
    try:
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ParseError(f"{path}: header must contain {sorted(required)}")
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    for lineno, row in rows:
        missing = sorted(key for key in required if row[key] is None)
        if missing:
            raise ParseError(f"{path}:{lineno}: short row, no {missing}")
        try:
            bpm = float(row["bpm"])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad bpm {row['bpm']!r}") from None
        if not 0 < bpm < math.inf:  # NaN fails too
            raise ParseError(f"{path}:{lineno}: bpm must be positive and finite, got {row['bpm']!r}")
        track_id = row["track_id"].strip().lower()
        if track_id in estimates:
            raise ParseError(f"{path}:{lineno}: track {track_id!r} repeated, first on line {first_line[track_id]}")
        estimates[track_id], first_line[track_id] = bpm, lineno
    return estimates


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------


def glob_sorted(directory: Path, patterns) -> list[Path]:
    """Files in ``directory`` matching any of ``patterns``, sorted, each
    once; ``manifest.txt`` is left out."""
    seen = {}
    for pattern in patterns:
        for p in directory.glob(pattern):
            if p.is_file() and p.name != MANIFEST_NAME:
                seen[p] = None
    return sorted(seen)


def files_by_track(paths) -> dict:
    """{track_id: path} in the order of ``paths``; two different files for
    one track id are an error."""
    by_track = {}
    for path in paths:
        track_id = track_id_from_path(path)
        if by_track.setdefault(track_id, path) != path:
            raise ToolkitError(f"{by_track[track_id]} and {path} are both track {track_id!r}")
    return by_track


def load_annotations(directory) -> dict:
    """{track_id: BeatAnnotation} of the annotation files in ``directory``."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ToolkitError(f"not a directory: {directory}")
    paths = files_by_track(glob_sorted(directory, BEATS_GLOB))
    return {track_id: load_beats(path) for track_id, path in paths.items()}


def root_layout(root) -> DatasetLayout:
    """The default layout with one activation source per subdirectory of
    ``root/activations``, named after it. Paths are relative to ``root``."""
    act_root = Path(root) / "activations"
    labels = sorted(p.name for p in act_root.iterdir() if p.is_dir()) if act_root.is_dir() else []
    return DatasetLayout(activation_dirs={label: str(Path("activations", label)) for label in labels})


def load_dataset(root, layout: DatasetLayout | None = None, axis_map: AxisMap | None = None) -> Dataset:
    """Assemble a Dataset from a directory tree described by ``layout``.

    One TrackRecord per annotation file; tags and activations join on
    track_id. An activation without an annotation is kept for decode-only
    use (with a warning); two files for one track in one directory are an
    error. Iteration order is sorted by track_id regardless of filesystem
    enumeration order.
    """
    root = Path(root)
    layout = layout or DatasetLayout()
    axis_map = axis_map or default_axis_map()

    def resolve(rel):
        p = Path(rel)
        return p if p.is_absolute() else root / p

    records: dict[str, TrackRecord] = {}
    residue: dict[str, list[str]] = {}

    beats_dir = resolve(layout.beats_dir)
    if beats_dir.is_dir():
        for track_id, ann in load_annotations(beats_dir).items():
            records[track_id] = TrackRecord(
                track_id=track_id, annotation=ann, metadata=TrackMetadata(track_id=track_id)
            )

    if layout.tags_dir is not None and resolve(layout.tags_dir).is_dir():
        for track_id, path in files_by_track(glob_sorted(resolve(layout.tags_dir), TAGS_GLOB)).items():
            meta, unknown = load_tags(path, axis_map)
            if unknown:
                residue[track_id] = unknown
            if track_id not in records:
                log.warning("tags for unknown track %s", track_id)
                records[track_id] = TrackRecord(track_id=track_id, annotation=None, metadata=meta)
            records[track_id].metadata = meta

    for label, act_dir in sorted(layout.activation_dirs.items()):
        act_dir = resolve(act_dir)
        if not act_dir.is_dir():
            log.warning("activation directory missing: %s", act_dir)
            continue
        for track_id, path in files_by_track(glob_sorted(act_dir, ACTIVATION_GLOB)).items():
            curve = load_activation(path, source_label=label)
            if track_id not in records:
                log.warning("activation without annotation: %s (%s)", track_id, label)
                records[track_id] = TrackRecord(
                    track_id=track_id, annotation=None, metadata=TrackMetadata(track_id=track_id)
                )
            records[track_id].activations[label] = curve

    return Dataset(records.values(), residue_tags=residue)
