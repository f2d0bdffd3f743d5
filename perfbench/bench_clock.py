"""Timing corrected for the speed of a shared host.

The 2-vCPU VMs this benchmark runs on change speed by up to 40% over tens
of seconds, whatever process runs: a fixed numpy loop's 25-second medians
spread by 16% between windows, in process CPU time as much as in wall time.
A run cannot outlast that drift, so every timed call is paired with the
reference kernel below, run just before and just after it, and times are
reported in reference seconds: wall seconds scaled by ``REF_S`` over the
reference readings. In a 7-minute experiment, 20 to 30-second medians of
sweep jobs spread by 17% in wall seconds and by 5-6% in reference seconds.

The host switches between speed states that last seconds to minutes, and
the program and the kernel do not slow by quite the same factor in each. A
median over a run's jobs takes the state most of them ran in, which differs
from run to run; the mean weighs the states by their time. So a run reports
``mean_ref_seconds``: its total wall time over its total reference time.

The kernel is the benchmark's own code and calls nothing in ``diffguide``,
so a change to the program cannot change the yardstick. It mixes the
program's two kinds of work: 2-D mixture arithmetic on 2000 rows through
einsum, exp and reductions, and a 64-wide tanh MLP's forward pass and input
gradient.
"""

import time

import numpy as np

# About the kernel's time on the VM that recorded perfbench/baseline.json in
# a quiet spell, so that there a reference second reads about as a wall
# second. It is a fixed constant: changing it rescales every recorded time.
REF_S = 0.14
_ROUNDS = 40

_rng = np.random.default_rng(20250701)
_X = _rng.standard_normal((2000, 2))
_MU = _rng.standard_normal((2, 2))
_PREC = np.stack([np.eye(2) * 1.5, np.eye(2) * 0.7])
_W1 = _rng.standard_normal((2, 64)) * 0.5
_W2 = _rng.standard_normal((64, 64)) * 0.1
_W3 = _rng.standard_normal((64, 2)) * 0.1


def kernel() -> float:
    """A fixed amount of work; the return value only keeps it from being skipped."""
    acc = 0.0
    x = _X
    for _ in range(_ROUNDS):
        diff = x[:, None, :] - _MU[None]
        log_w = -0.5 * np.einsum("nkd,kde,nke->nk", diff, _PREC, diff)
        log_w -= log_w.max(axis=1, keepdims=True)
        w = np.exp(log_w)
        w /= w.sum(axis=1, keepdims=True)
        mean = np.einsum("nk,kd->nd", w, _MU)
        h1 = np.tanh(mean @ _W1)
        h2 = np.tanh(h1 @ _W2)
        logits = h2 @ _W3
        d2 = (np.ones_like(logits) @ _W3.T) * (1.0 - h2 * h2)
        d1 = (d2 @ _W2.T) * (1.0 - h1 * h1)
        x = 0.9 * mean + 0.01 * (d1 @ _W1.T)
        acc += float(x[0, 0])
    return acc


class RefClock:
    """Times calls in reference seconds; every timed call shares its flanking
    reference readings with its neighbours."""

    def __init__(self, clock=time.perf_counter, reference=kernel):
        self.clock = clock
        self.reference = reference
        self.ref_s: list[float] = []  # every reference reading, in wall seconds
        self._last = self._read()

    def _read(self) -> float:
        start = self.clock()
        self.reference()
        elapsed = self.clock() - start
        self.ref_s.append(elapsed)
        return elapsed

    def time(self, fn):
        """Run ``fn()``; return its result, its wall seconds and the mean of
        the reference readings just before and just after it."""
        start = self.clock()
        result = fn()
        wall = self.clock() - start
        before, self._last = self._last, self._read()
        return result, wall, (before + self._last) / 2


def ref_seconds(wall: float, ref: float) -> float:
    """One call's time in reference seconds."""
    return wall * REF_S / ref


def mean_ref_seconds(walls: list[float], refs: list[float]) -> float:
    """Mean time per call in reference seconds."""
    return REF_S * sum(walls) / sum(refs)
