"""Host speed: timed work scaled by fixed reference work run around it.

The benchmark runs on a shared machine whose speed drifts, for every kind
of code alike, by up to 1.6x between stretches of a few seconds and between
periods of minutes.  A run of half a minute cannot average that away, so
ten runs of the same code spread by a fifth or more.  Each stretch of timed
work is therefore bracketed by two readings of `reference_work`, a fixed
mix of the kinds of work the package does (Python-loop assembly, numpy
masks, a sparse direct solve, sparse matrix-vector products, number
formatting) that calls nothing of the package, and reported at reference
speed:

    wall seconds * REFERENCE_S / mean(reading before, reading after)

So the benchmark's seconds are those of a host on which the reference work
takes REFERENCE_S.  A change to the package changes the timed work and not
the readings, so it shows in full.
"""

from __future__ import annotations

import json
import time

import numpy as np

import oracles as O

# median reading of reference_work in the host's fast periods
# (2 vCPUs, Intel Xeon 2.0 GHz, one BLAS thread)
REFERENCE_S = 0.020
# timed work between two readings; a reading costs about REFERENCE_S
CHUNK_S = 0.4


def reference_work():
    grid = O.Grid.of("annulus", 16)
    grid.holes()
    grid.hessian()
    lap = grid.laplacian("dirichlet")
    x = O.lu(lap).solve(np.ones(grid.m))
    b = grid.interior_biharmonic()
    y = np.ones(b.shape[1])
    for _ in range(40):
        y = b.T @ (b @ y)
        y /= np.abs(y).max()
    json.dumps([repr(float(v)) for v in x])


class HostClock:
    """Scales stretches of timed work to reference speed.

    `start()` takes a reading before a stretch; `scale(wall)` takes one
    after it, returns `wall` at reference speed, and starts the next
    stretch.  Every reading is kept in `readings`.
    """

    def __init__(self):
        for _ in range(3):  # imports and first-use costs, unmeasured
            reference_work()
        self.readings = []
        self.before = None

    def _read(self):
        start = time.perf_counter()
        reference_work()
        took = time.perf_counter() - start
        self.readings.append(took)
        return took

    def start(self):
        self.before = self._read()

    def scale(self, wall):
        after = self._read()
        scaled = wall * REFERENCE_S / ((self.before + after) / 2.0)
        self.before = after
        return scaled
