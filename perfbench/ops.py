"""What an op is, how it reports back to run.py, and the host pace that
op times are scaled by.

Kept free of quditmbqc imports, so run.py can load it before it has
checked that the package sources are present.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

clock = time.perf_counter

PROBE_REF_S = 0.003  # the probe's time at the reference pace
PROBE_EVERY_S = 0.25  # ops run between two probes for at least this long
_LONG_KEY = tuple(range(256))


def _probe_work():
    """Fixed interpreter work in the package's style, never in the package:
    dicts keyed by small tuples, modular powers and Fractions, and dicts
    keyed by long tuples (states keys its support by N-tuples)."""
    acc = {}
    f = Fraction(0)
    for i in range(3000):
        k = (i * 7919) % 97, i % 13
        acc[k] = acc.get(k, 0) + pow(i, 3, 101)
        if i % 50 == 0:
            f += Fraction(i, 1 + i % 17)
    table = {}
    for i in range(80):
        key = tuple((x * i + 1) % 7 for x in _LONG_KEY)
        table.setdefault(key, []).append(i)
    return len(acc) + len(table), f


class Pace:
    """The host's current speed, read from a fixed probe run between ops.

    The host lends this process a share of a core that changes from second
    to second, by up to twice, and the package's pure-Python work slows
    with it roughly as the probe does.  A time measured between two probes is
    scaled by PROBE_REF_S over their mean, so it reads in seconds at the
    reference pace whatever the host's state while it ran.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (end, probe seconds)
        self.probe()

    def probe(self) -> None:
        # no collection inside the probe: its cost grows with the heap the
        # program holds, and the probe frees all it allocates
        enabled = gc.isenabled()
        gc.disable()
        t0 = clock()
        _probe_work()
        t1 = clock()
        if enabled:
            gc.enable()
        self.marks.append((t1, t1 - t0))

    def mark(self) -> int:
        """Probe when PROBE_EVERY_S has passed since the last probe; returns
        the index of the probe that opens the next measurement."""
        if clock() - self.marks[-1][0] >= PROBE_EVERY_S:
            self.probe()
        return len(self.marks) - 1

    def scale(self, opened: int) -> float:
        """Factor for a time measured after probe `opened` and before the
        probe that follows it."""
        return 2 * PROBE_REF_S / (self.marks[opened][1] + self.marks[opened + 1][1])


class WrongAnswer(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


class Stages:
    """Per-stage samples that ops record while they run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)

    def time(self, stage: str, fn, *args):
        t0 = clock()
        try:
            return fn(*args)
        finally:
            self.samples[stage].append(clock() - t0)


class Stopwatch:
    """Adds up the time spent inside its `with` blocks."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t0 = clock()
        return self

    def __exit__(self, *exc):
        self.total += clock() - self._t0


@dataclass
class Op:
    kind: str
    fn: Callable[[Stages], None]
    # failure mode of a known defect ("exception" or "timeout"): the op
    # still counts as failed, but does not make the run incorrect
    known_defect: str | None = None


@dataclass
class Workload:
    name: str
    op_limit_s: float  # per-op limit; an op that reaches it has failed
    # seconds one pass over the list took on the parent commit, in a fast
    # spell of the host; a run makes round(--seconds / pass_s) passes, so
    # the pass count never depends on the speed of the program under test
    pass_s: float
    # setup(seed, workdir, program) builds the op list; calls into the
    # package run inside `with program:`, and only those count as set-up time
    setup: Callable[[int, str, Stopwatch], list[Op]]
