"""Fixed reference work that gauges how fast the machine runs right now.

The benchmark shares a few cores of a host with other tenants.  Their
load comes and goes within seconds and over minutes, and while it lasts
the core runs our code at up to half speed (hardly any time is taken
from us outright: the core is shared, not lent).  measure.py runs one
reference block between consecutive timed turns of a workload, and each
turn keeps its slowdown:

    slowdown = (reference_s / NOMINAL_S) ** ELASTICITY

where reference_s is the mean time of the blocks just before and after
the turn.  run.py multiplies each turn's rate by its slowdown, so a slow
spell cancels while a change to dysaug moves the rate alone.

The blocks are plain Python and numpy code of the benchmark's own and
never call dysaug.  A "python" block is an edit-distance DP, the
interpreter-bound kind of loop that align, build_confusion and
correction run; a "vector" block is an FFT plus interpolation over a
float array, the kind of work resample, speed and tempo hand to numpy and
scipy.  Each workload is gauged by the kind of work it does.  Contention
slows the text workloads less than the python block: fitted over the
turns of a run, log(rate) falls by 0.4 to 0.85 (median about 0.6) per
unit of log(reference_s) on a 2-vCPU VM, hence ELASTICITY 0.65.
run_batch calls slow about as much as the vector block: ELASTICITY 1.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Time of one block of each kind in the measuring process while the cores
# of a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) were not shared, so that
# scaled figures read as on that machine.
NOMINAL_S = {"python": 0.013, "vector": 0.0072}
ELASTICITY = {"python": 0.65, "vector": 1.0}

_A = "the quick brown fox jumps over the lazy dog while it keeps running far away " * 2
_B = "a quick brown fax jumped over a lazy dug whale it kept runing far awy " * 2
_DP_ROUNDS = 3
_SIGNAL = np.random.default_rng(0).standard_normal(1 << 16)
_GRID = np.linspace(0.0, len(_SIGNAL) - 1.0, int(len(_SIGNAL) * 0.8))
_VECTOR_ROUNDS = 4


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            if ca == cb:
                cur[j] = prev[j - 1]
            else:
                cur[j] = 1 + min(prev[j - 1], prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def block(kind: str) -> float:
    """Run one reference block of `kind` and return its wall time in seconds."""
    t0 = perf_counter()
    if kind == "python":
        for _ in range(_DP_ROUNDS):
            _edit_distance(_A, _B)
    else:
        for _ in range(_VECTOR_ROUNDS):
            spectrum = np.fft.rfft(_SIGNAL)
            np.interp(_GRID, np.arange(len(_SIGNAL)), np.fft.irfft(spectrum, len(_SIGNAL)))
    return perf_counter() - t0


class Gauge:
    """Brackets timed spans with reference blocks of one kind."""

    def __init__(self, kind: str):
        self.kind = kind
        block(kind)  # warm-up
        self._before = block(kind)

    def slowdown(self) -> float:
        """Call right after a timed span: its slowdown, from the blocks
        just before and just after it."""
        after = block(self.kind)
        reference_s = (self._before + after) / 2
        self._before = after
        return (reference_s / NOMINAL_S[self.kind]) ** ELASTICITY[self.kind]

