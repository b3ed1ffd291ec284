"""A fixed pure-Python kernel that measures how fast the machine runs
Python right now.

Shared hosts change the speed they give a process by up to a third
for tens of seconds at a time, so a pass's seconds say as much about
the host as about the program.  The runner times this kernel between
the parts of a pass and, from a timer signal, every ``INTERVAL``
seconds inside them, and reports each part's time in units of the
kernel's median time over those samples (see ``WORKLOADS.md``, *Why
reference units*).  The kernel uses nothing from ``src/``, so a change
to the program does not change the unit it is measured in.

A slow host slows compute-bound code more than code that waits on
memory, and the workloads sit in between, so the kernel has one half
of each: colour refinement and breadth-first searches on a fixed
seeded graph (tuples, dicts, sorting, list growth), and a walk along a
random cycle through a list far larger than the L2 cache.
"""

from __future__ import annotations

import contextlib
import random
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterator

# Seconds between kernel samples inside a part, and kernel runs at
# each boundary between parts.
INTERVAL = 0.5
BOUNDARY_REPEATS = 3
# The kernel's usual wall time on the 2-vCPU Xeon VM that the figures in
# WORKLOADS.md come from; set-up times are reported in seconds at that
# speed.
NOMINAL_S = 0.035


def _graph(nodes: int, degree: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    adjacency: list[list[int]] = [[] for _ in range(nodes)]
    for v in range(nodes):
        for _ in range(degree):
            u = rng.randrange(nodes)
            adjacency[v].append(u)
            adjacency[u].append(v)
    return adjacency


def _cycle(nodes: int, seed: int) -> list[int]:
    """``successor[v]``: one random cycle through all nodes (Sattolo's
    shuffle), each entry its own int object, so a step reads two
    far-apart cache lines."""
    rng = random.Random(seed)
    successor = list(range(nodes))
    for i in range(nodes - 1, 0, -1):
        j = rng.randrange(i)
        successor[i], successor[j] = successor[j], successor[i]
    return successor


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


GRAPH = _graph(600, 3, 7)
_rss_before = _max_rss_mb()
CYCLE = _cycle(500_000, 11)
# The resident memory the cycle adds to this process's peak, which the
# runner takes out of ``peak_rss_mb``.
RSS_MB = _max_rss_mb() - _rss_before
CYCLE_STEPS = 60_000


def kernel(adjacency: list[list[int]] = GRAPH, successor: list[int] = CYCLE) -> int:
    """Colour refinement, a few breadth-first searches and a walk of
    ``CYCLE_STEPS`` along the cycle; about 40 ms on a 2-vCPU Xeon VM."""
    total = 0
    for _ in range(2):
        labels = [len(neighbours) % 3 for neighbours in adjacency]
        for _ in range(6):
            table: dict[tuple, int] = {}
            labels = [
                table.setdefault((labels[v], tuple(sorted(labels[u] for u in neighbours))),
                                 len(table))
                for v, neighbours in enumerate(adjacency)
            ]
        for source in range(0, len(adjacency), 50):
            dist = {source: 0}
            frontier = [source]
            while frontier:
                following = []
                for v in frontier:
                    for u in adjacency[v]:
                        if u not in dist:
                            dist[u] = dist[v] + 1
                            following.append(u)
                frontier = following
            total += sum(dist.values())
        total += len(set(labels))
    v = 0
    for _ in range(CYCLE_STEPS):
        v = successor[v]
        total += v
    return total


def time_kernel() -> tuple[float, float]:
    """Wall and CPU seconds of one kernel run."""
    cpu, start = time.process_time(), time.perf_counter()
    kernel()
    return time.perf_counter() - start, time.process_time() - cpu


def boundary() -> list[tuple[float, float]]:
    """Kernel samples taken between two parts."""
    return [time_kernel() for _ in range(BOUNDARY_REPEATS)]


@dataclass
class Window:
    """The kernel samples taken while a part ran, and the wall and CPU
    seconds they took from it."""

    samples: list[tuple[float, float]] = field(default_factory=list)
    cost_wall: float = 0.0
    cost_cpu: float = 0.0


@contextlib.contextmanager
def sampling() -> Iterator[Window]:
    """Time the kernel ``INTERVAL`` seconds after the block starts and
    after each sample ends, until the block ends.

    The samples run in a ``SIGALRM`` handler, between two bytecodes of
    whatever the block is doing; the block's own time is its measured
    time minus ``cost_wall`` and ``cost_cpu``.  The timer is one-shot
    and re-armed after each sample, so a sample slower than the
    interval is never interrupted by the next one."""
    window = Window()
    active = True

    def on_alarm(_signum, _frame) -> None:
        if not active:
            return
        wall, cpu = time_kernel()
        window.samples.append((wall, cpu))
        window.cost_wall += wall
        window.cost_cpu += cpu
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL)
    try:
        yield window
    finally:
        active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def medians(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """The kernel's median wall and median CPU seconds over samples."""
    return (statistics.median(wall for wall, _cpu in samples),
            statistics.median(cpu for _wall, cpu in samples))
