"""The yardstick: how fast is this host at this moment?

The benchmark was sized on two vCPUs of a shared host that slows down by
a quarter to a third for seconds to minutes at a time — a neighbour on
the same caches, not the hypervisor's scheduler: CPU time stretches with
wall time and `/proc/stat` counts no steal.  A fixed piece of work takes
the server that much longer whatever the program does, and no estimator
inside a 25 s run can look past a slow minute (README: the best pass of
a run spread by 9 % over consecutive runs however much of the run the
closed loop got).

So the harness times a fixed piece of its own work, this yardstick,
before and after every closed-loop pass and around every step of the
set-up, and reports throughput and set-up time at the reference speed
``REF_S`` instead of at whatever speed the host happened to run.  The
yardstick runs in the harness while the program is idle, never beside a
request or the build (timed beside the build it takes twice as long: the
two vCPUs share what the neighbours contend for), and no change to the
program can move it.

The work is what a Python server's hot paths are made of — random reads
of a dict too large for the caches, heap pushes and pops, a JSON round
trip, some arithmetic — because an arithmetic loop alone follows the
slow stretches half as well (README: over consecutive runs of 16 s,
throughput spread by 7 to 14 % as measured, 7 to 8 % normalised by an
arithmetic loop, 3 to 6 % normalised by the dict, heap and JSON loop).
"""

from __future__ import annotations

import heapq
import json
import random
import statistics
import time
from typing import List, Sequence

#: What one yardstick takes between two passes on the sizing host when
#: it is left alone.  Only a scale: it puts the normalised numbers where
#: the raw ones are on a quiet host.  Changing it rescales every `qps`
#: and `setup_s` ever recorded.
REF_S = 0.0165

_rng = random.Random(7)
_TABLE = {i: (i * 2654435761) % 1000003 for i in range(400_000)}
_KEYS = [_rng.randrange(400_000) for _ in range(20_000)]
_DOC = {"candidates": [
    {"rank": i, "cost": i * 0.37, "query": "x" * 80, "edges": list(range(20))}
    for i in range(40)
]}


def yardstick() -> float:
    """Seconds the fixed work took just now."""
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    for key in _KEYS:
        total += _TABLE[key]
    heap: list = []
    for key in _KEYS[:3000]:
        heapq.heappush(heap, (_TABLE[key], key))
    while heap:
        heapq.heappop(heap)
    json.loads(json.dumps(_DOC))
    return time.perf_counter() - started


def yardsticks() -> List[float]:
    """Three in a row, for the ends of a set-up step."""
    return [yardstick() for _ in range(3)]


def at_reference_speed(seconds: float, yards: Sequence[float]) -> float:
    """``seconds`` of work as long as it would have taken had the host
    run at the reference speed: ``yards`` are the yardsticks timed while
    it ran."""
    return seconds * REF_S / statistics.median(yards)
