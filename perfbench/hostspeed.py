"""Host-speed probe: fixed reference work timed throughout a run.

The benchmark runs on a few cores of a shared host whose speed swings with
its other tenants.  On a 2-core x86 container a fixed numpy loop took from
4.8 to 7.4 ms within one minute, switching between a fast and a slow state
every few seconds, and the program's timings follow such swings.  No run
length averages out a drift that slow, so the gated timings are
host-normalized: a workload calls :meth:`HostProbe.sample` at points where
nothing of the program runs (between cells, fits, prompts, bursts and
slices), each sample times the reference work, and
:meth:`HostProbe.normalized` divides the wall time of a span by the host's
slowdown in the samples taken right before and right after it.  The result
is the time the span would have taken on the reference host.  Scaling each
span by the samples around it follows the host's state switches, which one
scale per run cannot.

The reference work comes in parts, each a kind of work the program spends
its time on.  A workload samples the parts that match its own work: the
array parts for batched array work (GA population scoring, image models),
the dispatch parts for single-token decoding.  The parts do not slow down
alike: when the host slows, plain interpreter work slows most, so sampling
it for array-bound work would over-correct.  A sample's slowdown is the
geometric mean over its parts of the part's time over its reference time,
so each part weighs the same.  The parts depend on nothing in the
repository, so no change to the program can move them.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

# Each part's time is the median of this many back-to-back runs, so one
# preemption does not move it.
LOOPS_PER_PART = 3
# :meth:`HostProbe.maybe` samples when the last sample is this old.
SAMPLE_EVERY_S = 0.25

_rng = np.random.default_rng(20240521)
_SMALL_A = _rng.standard_normal((32, 32))
_SMALL_B = _rng.standard_normal((32, 32)) / 6.0
_MEDIUM_A = _rng.standard_normal((8, 16, 32, 32))
_MEDIUM_B = _rng.standard_normal((8, 16, 32, 32))
_MATMUL_A = _rng.standard_normal((192, 192))
_MATMUL_B = _rng.standard_normal((192, 192))


def python_part() -> float:
    """Interpreter work: dict and integer bookkeeping."""
    counts: dict = {}
    for i in range(4000):
        counts[i % 53] = counts.get(i % 53, 0) + i
    return float(sum(counts.values()))


def small_array_part() -> float:
    """Per-call numpy overhead: a chain of small matmuls and elementwise ops."""
    x = _SMALL_A
    for _ in range(100):
        x = np.tanh(x @ _SMALL_B)
    return float(x.sum())


def medium_array_part() -> float:
    """Memory-bound elementwise work on activation-sized (1 MiB) arrays."""
    x = np.maximum(_MEDIUM_A * 0.5 + _MEDIUM_B, 0.0)
    return float(np.exp(-x).sum())


def matmul_part() -> float:
    """Compute-bound dense matmul."""
    return float((_MATMUL_A @ _MATMUL_B).sum())


# name -> (part, seconds it takes on the reference host: a 2-core x86
# container in its fast state).
PARTS: Dict[str, Tuple[Callable[[], float], float]] = {
    "python": (python_part, 0.40e-3),
    "small_array": (small_array_part, 0.45e-3),
    "medium_array": (medium_array_part, 0.56e-3),
    "matmul": (matmul_part, 0.26e-3),
}
DISPATCH_PARTS = ("python", "small_array")
ARRAY_PARTS = ("small_array", "medium_array", "matmul")


def slowdown(parts: Sequence[str]) -> float:
    """One sample: the geometric mean over ``parts`` of each part's median
    time over its reference time (1 on the reference host, 2 on a host
    half as fast)."""
    logs = []
    for name in parts:
        part, reference = PARTS[name]
        loops = []
        for _ in range(LOOPS_PER_PART):
            began = time.perf_counter()
            part()
            loops.append(time.perf_counter() - began)
        logs.append(math.log(statistics.median(loops) / reference))
    return math.exp(sum(logs) / len(logs))


class HostProbe:
    """Timestamped slowdown samples of one run, in the order taken."""

    def __init__(self, parts: Sequence[str]) -> None:
        self.parts = tuple(parts)
        self.began: List[float] = []
        self.ended: List[float] = []
        self.slowdowns: List[float] = []

    def sample(self, count: int = 1) -> None:
        """Take ``count`` samples now; nothing of the program may run."""
        for _ in range(count):
            began = time.perf_counter()
            self.slowdowns.append(slowdown(self.parts))
            self.began.append(began)
            self.ended.append(time.perf_counter())

    def maybe(self) -> None:
        """Sample if the last sample is older than ``SAMPLE_EVERY_S``."""
        if not self.ended or time.perf_counter() - self.ended[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def normalized(self, start: float, end: float, count: int = 1) -> float:
        """Host-normalized seconds of the span ``[start, end]``: its wall
        time over the median slowdown of the ``count`` samples that ended
        last before ``start`` and the ``count`` that began first after
        ``end``."""
        before = self.slowdowns[:bisect.bisect_right(self.ended, start)][-count:]
        after = self.slowdowns[bisect.bisect_left(self.began, end):][:count]
        near = before + after
        if not near:
            raise RuntimeError("no host-speed sample next to the span")
        return (end - start) / statistics.median(near)

    def factor(self) -> float:
        """The run's host speed relative to the reference host (one over
        the median slowdown): below 1 on a slower host."""
        return 1.0 / statistics.median(self.slowdowns)
