"""Machine-speed probe and the paced clock the end-to-end metrics use.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes as neighbours come and go, and the same operation's wall time
drifts with it. Best-of-N and medians cannot remove a drift that lasts
longer than a run, so every timed interval is paired with a probe taken
at the same moment. The probe is a fixed 5 ms of pure-Python geometry
and dictionary work, the kind droptrack spends its time on. An interval
of ``dt`` seconds that ends in a probe taking ``k`` seconds counts as
``dt * PROBE_REF_S / k`` paced seconds: the time it would have taken at
the speed where the probe takes ``PROBE_REF_S``.

``PacedClock`` takes probes from a SIGALRM handler every ``INTERVAL_S``
of wall time, so the program under test is sampled at even intervals
without replacing any of its functions. Probe time is left out of both
the wall and the paced time.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

# The probe's duration on a quiet Intel Xeon core (Python 3.11). Paced
# seconds are seconds at that speed.
PROBE_REF_S = 0.0045
INTERVAL_S = 0.1

_BOX = (4.5, 1.8)


def _corners(cx: float, cy: float, yaw: float) -> list[tuple[float, float]]:
    c, s = math.cos(yaw), math.sin(yaw)
    hl, hw = _BOX[0] / 2.0, _BOX[1] / 2.0
    return [(cx + c * dx - s * dy, cy + s * dx + c * dy)
            for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]


def _clip(subject: list, clipper: list) -> list:
    """Sutherland-Hodgman: the part of `subject` inside convex `clipper`."""
    out = subject
    for i, (ax, ay) in enumerate(clipper):
        bx, by = clipper[(i + 1) % len(clipper)]
        points, out = out, []
        for j, (qx, qy) in enumerate(points):
            px, py = points[j - 1]
            p_in = (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0.0
            q_in = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax) >= 0.0
            if p_in != q_in:
                dx, dy = qx - px, qy - py
                den = (bx - ax) * dy - (by - ay) * dx
                t = ((ax - px) * dy - (ay - py) * dx) / den if den else 0.0
                out.append((px + t * dx, py + t * dy))
            if q_in:
                out.append((qx, qy))
    return out


def _probe_work() -> float:
    totals: dict[tuple[int, int], float] = {}
    checksum = 0.0
    for k in range(300):
        poly = _clip(_corners(0.0, 0.0, 0.01 * k), _corners(0.3 + 0.001 * k, 0.2, 0.5))
        area = 0.0
        for i, (x1, y1) in enumerate(poly):
            x0, y0 = poly[i - 1]
            area += x0 * y1 - x1 * y0
        key = (k % 17, k % 5)
        totals[key] = totals.get(key, 0.0) + abs(area)
        checksum += sum(sorted(totals.values())[:3])
    return checksum


def probe() -> float:
    """Seconds the fixed probe takes now."""
    start = perf_counter()
    _probe_work()
    return perf_counter() - start


class PacedClock:
    """Wall and paced seconds of the code run inside ``with``.

    Only for the main thread, and only one at a time: it owns SIGALRM
    while active.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.paced_s = 0.0
        self._mark = 0.0
        self._busy = False

    def _sample(self, *_):
        # A probe slowed past INTERVAL_S lets the next alarm arrive inside
        # this handler; that alarm is dropped.
        if self._busy:
            return
        self._busy = True
        dt = perf_counter() - self._mark
        k = probe()
        self.wall_s += dt
        self.paced_s += dt * PROBE_REF_S / k
        self._mark = perf_counter()
        self._busy = False

    def __enter__(self) -> PacedClock:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._mark = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # The tail after the last alarm is paced by one closing probe.
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)
