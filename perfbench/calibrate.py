"""Fixed reference work that measures how fast the machine runs right now.

    python3 perfbench/calibrate.py PROCS SCRATCH_DIR

The benchmark's machine is shared. The speed it gives a process changes by
10-30% from one minute to the next, and by more over an hour (NOTES.md), so
raw times of the same code made minutes apart can differ by more than any
useful bound. A run therefore times this work between its repetitions and
reports its times scaled to a reference speed (run.py, `REFERENCE_S`).

The work stands in for the program's own mix: a max-plus loop over small
numpy arrays shaped like the decoder's (3675 states, 75 tempi); a small
pure-Python loop that picks peaks and sorts like the peak picker; a dict
and a sort over 60000 entries and a random gather over a 16 MB numpy
array, whose working sets are far larger than the CPU caches, like the
metrics, the loaders and the long decode over a whole corpus; and text
files written to SCRATCH_DIR, read back and parsed, like the loaders and
the reports. It imports numpy only, never beatdiag, and must stay
unchanged: every commit is measured against the same work.

PROCS processes (the concurrency of the workload's process pool) do the
work at once; the script prints the mean of their times, in seconds.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

STATES, TEMPI, FRAMES = 3675, 75, 400
VALUES = 5000
ENTRIES = 60_000
GATHER = 2_000_000
FILES, FILE_VALUES = 60, 800


def _decoder_like(rng) -> float:
    last = np.sort(rng.choice(STATES, TEMPI, replace=False))
    first = np.sort(rng.choice(STATES, TEMPI, replace=False))
    wrap = rng.standard_normal((TEMPI, TEMPI))
    obs = rng.standard_normal((FRAMES, 2))
    is_beat = rng.random(STATES) < 0.1
    shifted = np.arange(1, STATES)
    tempo_range = np.arange(TEMPI)
    delta = rng.standard_normal(STATES)
    scratch = np.empty(STATES)
    back = np.empty((FRAMES, TEMPI), dtype=np.int32)
    for t in range(FRAMES):
        candidates = delta[last][:, np.newaxis] + wrap
        src = candidates.argmax(axis=0)
        back[t] = src
        scratch[shifted] = delta[shifted - 1]
        scratch[first] = candidates[src, tempo_range]
        scratch += np.where(is_beat, obs[t, 1], obs[t, 0])
        delta, scratch = scratch - scratch.max(), delta
    return float(delta.sum()) + int(back[-1].sum())


def _peaks_like(rng) -> float:
    values = rng.random(VALUES).tolist()
    peaks = [i for i in range(1, VALUES - 1) if values[i] >= values[i - 1] and values[i] > values[i + 1]]
    taken = {}
    for frame in sorted(peaks, key=lambda f: (-values[f], f)):
        if not any(g in taken for g in range(frame - 3, frame + 4)):
            taken[frame] = values[frame]
    return sum(taken.values())


def _large_python(rng) -> float:
    values = rng.random(ENTRIES).tolist()
    table = {f"track{i:06d}": (v, i) for i, v in enumerate(values)}
    keys = [f"track{i:06d}" for i in rng.permutation(ENTRIES).tolist()]
    total = sum(table[k][0] for k in keys)
    rows = sorted(table.items(), key=lambda kv: kv[1])
    return total + len(rows)


def _large_numpy(rng) -> float:
    values = rng.random(GATHER)
    gathered = values[rng.integers(0, GATHER, GATHER)]
    return float(np.cumsum(gathered + values)[-1])


def _text_files(rng, scratch: Path) -> float:
    scratch.mkdir(parents=True)
    try:
        for i in range(FILES):
            (scratch / f"{i}.txt").write_text("\n".join(f"{v:.6f}" for v in rng.random(FILE_VALUES)))
        return sum(float(x) for i in range(FILES) for x in (scratch / f"{i}.txt").read_text().split())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def reference_work(scratch: Path) -> float:
    """Seconds this process takes for the fixed work."""
    rng = np.random.default_rng(20260517)
    start = time.perf_counter()
    for _ in range(3):
        _decoder_like(rng)
        _peaks_like(rng)
    _large_python(rng)
    _large_numpy(rng)
    _text_files(rng, scratch)
    return time.perf_counter() - start


def concurrent(procs: int, scratch: Path) -> float:
    """Mean seconds of `procs` forked processes doing the work at once."""
    read_fd, write_fd = os.pipe()
    pids = []
    for i in range(procs):
        pid = os.fork()
        if pid == 0:
            try:
                os.write(write_fd, f"{reference_work(scratch / str(i))!r}\n".encode())
            finally:
                os._exit(0)
        pids.append(pid)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        times = [float(line) for line in fh.read().split()]
    for pid in pids:
        os.waitpid(pid, 0)
    if len(times) != procs:
        raise RuntimeError(f"{procs - len(times)} calibration process(es) failed")
    return sum(times) / procs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    procs, scratch = int(argv[0]), Path(argv[1])
    print(repr(reference_work(scratch / "0") if procs == 1 else concurrent(procs, scratch)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
