"""The host's speed during a run, which every timing figure is divided by.

On a shared host the same code runs 10-60% slower while other tenants
load the machine, in stretches of tens of seconds to minutes: longer
than a stage's slice, and often longer than a whole run.  Spreading a
stage over the run cannot average such a stretch out, so the benchmark
measures the host's speed next to every slice instead.  Right before a
slice it times a fixed pure-Python reference routine on the CPU the
slice will run on.  The slice's times are divided by the host's
*slowness* (the reference's recent time over its nominal time, see
:class:`Host`), so a figure reads what it would on the host running at
nominal speed.

The reference is plain interpreter work -- dict lookups, byte indexing
and integer arithmetic, as in the codecs' inner loops -- and calls
nothing from the package, so no change to the package can change it.
Its slowdown tracks the stages': on the 2-CPU test host, over a 150 s
stretch in which the host's speed moved by 20%, dividing by it cut the
variation of 8-second means of the refill rate from 5.5% to 2.0%.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Optional, Set, Tuple

#: Nominal CPU seconds of one :func:`reference` call: its median on the
#: 2-CPU Xeon host of ``README.md`` while that host was quiet.
REFERENCE_S = 0.00058
#: Calls per probe; the probe is their median, so an interrupt in one
#: call does not count.
CALLS = 15


def reference() -> int:
    """Fixed interpreter work, about half a millisecond."""
    table: Dict[int, int] = {}
    data = bytes(range(256)) * 4
    acc = 0
    for i in range(3000):
        key = (i * 2654435761) & 1023
        acc = (acc + (table.get(key, i) ^ data[i & 1023])) & 0xFFFF
        table[key] = acc
    return acc


def probe() -> float:
    """The host's slowness on this process's CPU: 1.0 at nominal speed,
    above 1 when the host is slower."""
    times = []
    for _ in range(CALLS):
        started = time.process_time()
        reference()
        times.append(time.process_time() - started)
    return statistics.median(times) / REFERENCE_S


class Host:
    """Probes the host before each slice and smooths the probes per CPU.

    ``cpus`` maps a stage to the CPU sets it runs on (``None``: wherever
    this process may run).  A single probe swings by 15-20% from one
    to the next, since the host's speed also flickers within a second,
    faster than a slice can be matched to it.  So each CPU set keeps its
    probes, and a slice is divided by the mean of that set's last
    ``WINDOW`` probes: the drift over tens of seconds is followed, the
    flicker is averaged out.  A stage on several CPU sets -- the served
    mix, whose client and daemon are pinned apart -- gets the mean of
    their figures.
    """

    #: Probes per CPU set that a slice's slowness is the mean of.
    WINDOW = 6

    def __init__(self, cpus: Dict[str, List[Optional[Set[int]]]]) -> None:
        self.cpus = cpus
        self.history: Dict[Tuple[int, ...], List[float]] = {}
        self.probes: Dict[str, List[float]] = {stage: [] for stage in cpus}

    def slowness(self, stage: str) -> float:
        values = []
        for cpus in self.cpus[stage]:
            history = self.history.setdefault(tuple(sorted(cpus or ())), [])
            history.append(self._probe_on(cpus))
            recent = history[-self.WINDOW:]
            values.append(sum(recent) / len(recent))
        value = sum(values) / len(values)
        self.probes[stage].append(value)
        return value

    @staticmethod
    def _probe_on(cpus: Optional[Set[int]]) -> float:
        if not cpus:
            return probe()
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
        try:
            return probe()
        finally:
            os.sched_setaffinity(0, previous)

    def summary(self) -> Dict[str, float]:
        """Mean slowness per stage, for the result document."""
        return {stage: statistics.mean(values)
                for stage, values in self.probes.items() if values}
