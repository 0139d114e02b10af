"""Shared pieces of the benchmark: paths, the round record and seeds."""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"


def use_checkout_sources() -> None:
    """Import `stabpair` from this checkout's `src`, never from elsewhere."""
    if not (SRC / "stabpair" / "__init__.py").is_file():
        raise SystemExit(f"error: no stabpair sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def seed_int(seed: int, *tags: int) -> int:
    """A 32-bit seed derived from the workload seed and fixed tags."""
    return int(np.random.SeedSequence((seed, *tags)).generate_state(1)[0])


@dataclass
class Round:
    """One round: every operation of the workload once, with its timings.

    `a` and `b` map each operation of the workload's two kinds to the
    seconds spent inside it, `other` the rest; `wall_s` is the whole round.
    `outputs` keeps what the checks need.
    """

    a: dict = field(default_factory=dict)
    b: dict = field(default_factory=dict)
    other: dict = field(default_factory=dict)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)


def op_medians(rounds: list, part: str) -> dict:
    """Each operation's median seconds across rounds, for part "a", "b" or "other"."""
    return {label: statistics.median(getattr(r, part)[label] for r in rounds)
            for label in getattr(rounds[0], part)}


def timed(times: dict, label: str, fn, *args, **kwargs):
    """Call fn, adding its seconds to times[label]; return its result."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        times[label] = times.get(label, 0.0) + time.perf_counter() - t0
