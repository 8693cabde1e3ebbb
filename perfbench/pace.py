"""The machine's speed, sampled while the benchmark runs.

The benchmark shares a host with other work, and one core's speed can swing
by 1.7x within seconds.  Wall time alone would then measure the neighbours
as much as the program.  A ``Pace`` runs a small fixed piece of pure-Python
work (``_probe``, hash-consing and memoised recursion like the package's BDD
kernel, but none of the package's code) every ``PERIOD`` seconds on a timer
signal, and records when it ran and how long it took.

``scaled(a, b)`` turns the ``perf_counter`` interval [a, b] into reference
seconds.  It takes the elapsed time, less the probes that ran inside the
interval, times the mean speed of the probes within ``WINDOW`` of it, where
speed 1 is a probe that takes ``NOMINAL`` seconds.  Work that took 1 s while the machine
ran at half speed reads 0.5 s.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

PERIOD = 0.025
WINDOW = 0.25  # probes this close to an interval give its speed
NOMINAL = 0.0003  # seconds a probe takes on an uncontended 2.1 GHz Xeon core


def _probe() -> int:
    """Build a 16-variable parity diagram with a memoised apply."""
    unique: dict[int, int] = {}
    nodes: list[tuple[int, int, int]] = [(99, 0, 0), (99, 1, 1)]
    memo: dict[int, int] = {}

    def node(var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var << 40) | (lo << 20) | hi
        found = unique.get(key)
        if found is None:
            found = unique[key] = len(nodes)
            nodes.append((var, lo, hi))
        return found

    def xor(u: int, v: int) -> int:
        if u < 2 and v < 2:
            return u ^ v
        key = (u << 20) | v
        found = memo.get(key)
        if found is not None:
            return found
        vu, lu, hu = nodes[u]
        vv, lv, hv = nodes[v]
        top = min(vu, vv)
        u0, u1 = (lu, hu) if vu == top else (u, u)
        v0, v1 = (lv, hv) if vv == top else (v, v)
        found = memo[key] = node(top, xor(u0, v0), xor(u1, v1))
        return found

    acc = 0
    for var in range(16):
        acc = xor(acc, node(var, 0, 1))
    return len(nodes)


class Pace:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.speeds: list[float] = []
        self.probe_total: list[float] = []  # probe time up to and including each probe

    def __enter__(self) -> "Pace":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        took = time.perf_counter() - start
        self.starts.append(start)
        self.speeds.append(NOMINAL / took)
        self.probe_total.append((self.probe_total[-1] if self.probe_total else 0.0) + took)

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds of the work done in [a, b]."""
        total = [0.0, *self.probe_total]
        probe_time = total[bisect_right(self.starts, b)] - total[bisect_left(self.starts, a)]
        around = self.speeds[bisect_left(self.starts, a - WINDOW) : bisect_right(self.starts, b + WINDOW)]
        return (b - a - probe_time) * sum(around) / len(around)
