"""The reference chunk: fixed work that timed ops are measured against.

On a shared host the speed of the same code swings by up to 1.8x for tens
of seconds at a time, so raw op times of two runs of one commit disagree by
more than any useful regression bound.  The timed loop therefore runs this
chunk between ops and reports each op's time divided by the chunk's time
measured around it (unit ``ref``).  The chunk mixes the kinds of work the
workloads do: interpreter work on Python objects, many numpy calls on small
matrices, and complex products at 128x128, the size at which the larger ops
spend their time in BLAS.  Of the compositions tried, this one tracked the
host's speed best across all four workloads; chunks weighted towards small
matrices over-corrected the large ops.  The chunk uses numpy only, never
the library, so no change to the library moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# a round of ops ends once this much op time has passed; then the chunk runs
ROUND_S = 0.25
# chunk time per round, as a share of the round's op time
SHARE = 0.1
MAX_CHUNKS = 40


def _complex(rng, n: int):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = _complex(rng, 8)
        self.mid = _complex(rng, 128)
        for _ in range(20):  # warm caches and lazy numpy set-up
            self.level = self.chunk()
        self.level = self.measure(0.05)

    def chunk(self) -> float:
        """Seconds for one run of the fixed work (3-5 ms here)."""
        start = time.perf_counter()
        counts = {}
        for i in range(2500):
            key = ("k", i % 61)
            counts[key] = counts.get(key, 0) + i
        m = self.small
        for _ in range(40):
            h = m + m.conj().T
            np.linalg.eigvalsh(h)
            np.kron(m[:2, :2], m[:4, :4])
            np.trace(m @ h).real
        for _ in range(4):
            self.mid @ self.mid
        return time.perf_counter() - start

    def measure(self, op_seconds: float) -> float:
        """Median chunk time over enough chunks to cost about ``SHARE`` of
        ``op_seconds``."""
        n = max(1, min(MAX_CHUNKS, round(SHARE * op_seconds / self.level)))
        return statistics.median(self.chunk() for _ in range(n))


class Rounds:
    """Normalises op times by the reference level around them.

    ``add(seconds)`` records an op; once ``ROUND_S`` of op time has
    gathered, the chunk runs and every op of the round is divided by the
    mean of the level measured before and after it.
    """

    def __init__(self, reference: Reference):
        self.ref = reference
        self.before = reference.level
        self.pending = []
        self.pending_s = 0.0
        self.levels = [reference.level]
        self.rel = []  # op time / reference level, in op order

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)
        self.pending_s += seconds
        if self.pending_s >= ROUND_S:
            self.close()

    def close(self) -> None:
        if not self.pending:
            return
        after = self.ref.measure(self.pending_s)
        level = (self.before + after) / 2
        self.levels.append(after)
        self.rel.extend(s / level for s in self.pending)
        self.before, self.pending, self.pending_s = after, [], 0.0
