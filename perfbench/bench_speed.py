"""Host speed for the qloss benchmark: timed intervals at a fixed machine speed.

A shared host changes speed by a third and more, in stretches from under a
second to minutes, and a whole run can fall in a slow stretch: raw times of
the same code then differ from run to run by more than any useful bound.
So every timed interval is accompanied by a fixed calibration block, timed
just before and just after the interval and, on request, every ``TICK_S``
seconds inside it from a ``SIGALRM`` handler in the measuring thread.  The
interval is reported at the speed at which one block takes ``CAL_S``:

    scaled = (interval - time spent in blocks inside it) * CAL_S / mean(block times)

The mean, not a median, because an interval's time is the sum of its
stretches, fast and slow alike; only blocks stalled outright (``STALL``) are
left out.  The blocks are the benchmark's own code, one per mix of work
(``BLOCKS``), and each workload names the one that resembles it: the host
slows interpreted loops much more than dense products of a state-sized
operator with a vector, so one block for all would over- or under-correct.
A change to the program moves only the interval.  Sampling inside the
interval matters for long calls: the host's speed changes within them.
"""

from __future__ import annotations

import functools
import itertools
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

#: nominal time of one calibration block: the speed scaled times are given at
CAL_S = 0.004
#: blocks timed just before and just after each interval
EDGE_BLOCKS = 3
#: period of the blocks timed inside an interval
TICK_S = 0.1
#: a block slower than this multiple of the median block of its interval was
#: stalled (a preemption, a page fault) rather than run at the host's speed
STALL = 3.0


def interpreted_block() -> int:
    """Interpreted loops over small containers and calls on small numpy arrays.

    The mix of the tomography and lattice layers; about CAL_S on a 2-vCPU
    x86-64 cloud host.
    """
    parent = list(range(512))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(1, 512):
        ra, rb = find(i), find((i * 37) % 512)
        if ra != rb:
            parent[ra] = rb
    acc = 0
    for idx, word in enumerate(itertools.product("IXYZ", repeat=3)):
        for outcome in range(16):
            sign = 1
            for q, letter in enumerate(word):
                if letter != "Z" and (outcome >> q) & 1:
                    sign = -sign
            acc += sign * idx
    mat = np.eye(4, dtype=complex)
    vec = np.ones((4, 4, 4), dtype=complex)
    for _ in range(60):
        big = np.kron(mat, np.eye(2))
        vec = np.tensordot(mat, vec, axes=([1], [0]))
        acc += int(np.max(np.abs(big.conj().T @ big)) > 2.0)
    return acc + find(0)


@functools.cache
def _dense_operators() -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(2002_09532)
    side = 3**5  # five three-level ions
    return tuple((rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side)))
                 / side for _ in range(4))


def dense_block() -> float:
    """Dense operators on a five-ion state vector, as the pure-state kernels apply them.

    The mix of the trajectory layers, whose time goes mostly into products
    of a state-sized operator with the amplitude vector; about CAL_S on a
    2-vCPU x86-64 cloud host.
    """
    ops = _dense_operators()
    amps = np.ones(ops[0].shape[0], dtype=complex)
    for i in range(140):
        amps = ops[i % len(ops)] @ amps
        amps = amps / np.sqrt(np.vdot(amps, amps).real)
    return float(amps[0].real)


BLOCKS: dict[str, Callable[[], object]] = {"interpreted": interpreted_block,
                                            "dense": dense_block}


def _time_blocks(block: str, count: int) -> list[float]:
    fn = BLOCKS[block]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


@dataclass
class Interval:
    """One timed interval: seconds as measured, less the blocks run inside it."""

    raw: float = 0.0
    #: CAL_S over the mean unstalled block time around and inside the interval
    speed: float = 1.0

    @property
    def scaled(self) -> float:
        return self.raw * self.speed


@contextmanager
def timed(block: str, inside: bool = True) -> Iterator[Interval]:
    """Time the body of the ``with`` block and the host speed while it runs.

    ``block`` names the calibration block (a key of BLOCKS).  With
    ``inside``, blocks also run every TICK_S seconds during the body (in this
    thread, between bytecodes of the body) and their time is taken out of
    the interval.  Must be used from the main thread.
    """
    interval = Interval()
    samples = _time_blocks(block, EDGE_BLOCKS)
    ticks: list[float] = []
    active = [True]

    def tick(signum, frame):
        if active[0]:
            ticks.extend(_time_blocks(block, 1))

    if inside:
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    t0 = time.perf_counter()
    try:
        yield interval
    finally:
        active[0] = False
        elapsed = time.perf_counter() - t0
        if inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    interval.raw = elapsed - sum(ticks)
    samples += ticks + _time_blocks(block, EDGE_BLOCKS)
    limit = STALL * statistics.median(samples)
    interval.speed = CAL_S / statistics.fmean(t for t in samples if t <= limit)


def warm_up(block: str) -> None:
    """Run a block once: the first run pays for imports and cold caches."""
    _time_blocks(block, 1)
