"""Seeded synthetic corpora for the benchmark.

This module imports numpy only, never beatdiag: the program under test sees
nothing but the files written here.

Tempi follow the C1-mirror recipe of the acceptance tests (log-normal around
71 BPM, +/-8% rubato per inter-beat interval). Activations are Gaussian
bumps on the annotated beats, perturbed like ``perturb`` in
``scripts/generate_pseudo_activations.py``: one attenuation per track,
spurious bumps and a uniform noise floor. The strength of each perturbation
is interpolated between the easy and the hard pseudo-corpus tracks by a
difficulty drawn per track. With a noise floor alone, peak picking scores
F=1.000 on every track and the benchmark would measure nothing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Every seed maps onto one of this many corpora, so that each seed has an
# output reference stored in references.json.
VARIANTS = 16

ACT_MAGIC = b"ACT1"
SIGMA_FRAMES = 2.0

# (easy, hard) ends of each perturbation, from pseudo01 and pseudo03.
ATTENUATION_LO = (0.75, 0.3)
ATTENUATION_HI = (1.0, 0.55)
SPURIOUS_PER_40S = (2, 45)
SPURIOUS_HEIGHT_LO = (0.2, 0.6)
SPURIOUS_HEIGHT_HI = (0.4, 0.98)
FLOOR = (0.03, 0.05)

# Raw tag spellings (as annotators write them) that normalise onto the
# bundled axis vocabulary, with the probability of each on a track.
TAG_CHOICES = (
    ("Missing Bass", 0.2),
    ("strong syncopation", 0.2),
    ("Ternary meter", 0.1),
    ("rich ornamentation", 0.15),
    ("low familiarity", 0.15),
)


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one workload's corpus; the seed fills in the content."""

    n_tracks: int
    duration_s: float
    fps: float
    binary: bool
    source: str


def variant(seed: int) -> int:
    return seed % VARIANTS


def _lerp(ends, d):
    return ends[0] + (ends[1] - ends[0]) * d


def stratified_draws(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-track log-tempo z-scores and difficulties for n tracks.

    The z-scores are standardised and the difficulties stratified over
    [0, 1], so that the corpus-wide amount of work (beats to score, peaks to
    pick) barely changes from seed to seed while every track still differs.
    """
    z = rng.normal(size=n)
    if n > 1:
        z = (z - z.mean()) / z.std()
    difficulties = (rng.permutation(n) + rng.uniform(size=n)) / n
    return z, difficulties


def make_beats(rng, duration_s: float, z: float) -> tuple[np.ndarray, float]:
    """C1-mirror beat times inside [0, duration_s - 0.5), and the track BPM."""
    bpm = float(np.exp(np.log(71.0) + 0.33 * z))
    bpm = min(max(bpm, 31.0), 210.0)
    n = int(duration_s / (60.0 / bpm)) + 1
    ibis = (60.0 / bpm) * (1 + rng.uniform(-0.08, 0.08, n - 1))
    beats = rng.uniform(0.3, 1.2) + np.concatenate(([0], np.cumsum(ibis)))
    return np.round(beats[beats < duration_s - 0.5], 6), bpm


def clean_activation(beats: np.ndarray, n_frames: int, fps: float) -> np.ndarray:
    values = np.zeros(n_frames)
    support = int(np.ceil(6 * SIGMA_FRAMES))
    for center in beats * fps:
        lo = max(int(np.floor(center)) - support, 0)
        hi = min(int(np.ceil(center)) + support + 1, n_frames)
        frames = np.arange(lo, hi)
        bump = np.exp(-((frames - center) ** 2) / (2 * SIGMA_FRAMES**2))
        np.maximum(values[lo:hi], bump, out=values[lo:hi])
    return values


def perturb(values: np.ndarray, rng, difficulty: float, duration_s: float) -> np.ndarray:
    """The pseudo-corpus perturbation at the given difficulty in [0, 1]."""
    values = values * rng.uniform(_lerp(ATTENUATION_LO, difficulty), _lerp(ATTENUATION_HI, difficulty))
    n = len(values)
    n_spurious = int(round(_lerp(SPURIOUS_PER_40S, difficulty) * duration_s / 40.0))
    for _ in range(n_spurious):
        center = rng.uniform(0, n - 1)
        height = rng.uniform(_lerp(SPURIOUS_HEIGHT_LO, difficulty), _lerp(SPURIOUS_HEIGHT_HI, difficulty))
        lo = max(0, int(center) - 12)
        hi = min(n, int(center) + 13)
        bump = height * np.exp(-((np.arange(lo, hi) - center) ** 2) / 8.0)
        np.maximum(values[lo:hi], bump, out=values[lo:hi])
    values += rng.uniform(0, _lerp(FLOOR, difficulty), size=n)
    return np.clip(values, 0.0, 1.0)


def write_activation(values: np.ndarray, fps: float, path: Path, binary: bool):
    """ACT1 binary or '#fps=' text, the two interchange formats."""
    if binary:
        path.write_bytes(
            ACT_MAGIC + struct.pack("<d", fps) + struct.pack("<Q", len(values))
            + values.astype("<f4").tobytes()
        )
    else:
        path.write_text(f"#fps={fps}\n" + "".join(f"{v:.8f}\n" for v in values))


def tag_lines(rng, bpm: float, difficulty: float) -> list[str]:
    lines = [name for name, p in TAG_CHOICES if rng.uniform() < p]
    if bpm < 60:
        lines.append("slow tempo")
    if rng.uniform() < 0.3:
        lines.append("expressive timing (rubato)")
    if difficulty > 0.6:
        lines.append("lack of transients")
    lines.append(f"confidence: {int(rng.integers(1, 6))}")
    lines.append(f"annotator: a{int(rng.integers(1, 4))}")
    return lines


def generate(spec: CorpusSpec, seed: int, root: Path) -> Path:
    """Write beats/, tags/ and activations/<source>/ under root."""
    rng = np.random.default_rng([variant(seed), spec.n_tracks, int(spec.duration_s), int(spec.fps * 100)])
    beats_dir = root / "beats"
    tags_dir = root / "tags"
    act_dir = root / "activations" / spec.source
    for d in (beats_dir, tags_dir, act_dir):
        d.mkdir(parents=True, exist_ok=True)
    n_frames = int(round(spec.duration_s * spec.fps))
    suffix = ".bin" if spec.binary else ".act"
    log_bpms, difficulties = stratified_draws(rng, spec.n_tracks)
    for i in range(spec.n_tracks):
        track_id = f"t{i:03d}"
        beats, bpm = make_beats(rng, spec.duration_s, log_bpms[i])
        difficulty = difficulties[i]
        values = perturb(clean_activation(beats, n_frames, spec.fps), rng, difficulty, spec.duration_s)
        (beats_dir / f"{track_id}.beats").write_text("".join(f"{t:.6f}\n" for t in beats))
        (tags_dir / f"{track_id}.tags").write_text("\n".join(tag_lines(rng, bpm, difficulty)) + "\n")
        write_activation(values, spec.fps, act_dir / f"{track_id}{suffix}", spec.binary)
    return root
