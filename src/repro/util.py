"""Small shared utilities: the one clock, counters and the query-time memo."""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Optional

#: The package's one clock, in seconds: monotonic and system-wide (on Linux
#: ``time.monotonic``'s ``CLOCK_MONOTONIC``), so deadlines, latencies and
#: stage timings share one base.
now = time.perf_counter


class Laps:
    """A stopwatch: named consecutive intervals, in the order taken."""

    __slots__ = ("started", "_last", "seconds")

    def __init__(self):
        self.started = self._last = now()
        self.seconds: Dict[str, float] = {}

    def lap(self, name: str) -> float:
        """Close the interval since the last lap (or the start) as ``name``."""
        at = now()
        seconds = self.seconds[name] = at - self._last
        self._last = at
        return seconds

    def total(self) -> Dict[str, float]:
        """The laps, then ``total``: the start to now."""
        self.seconds["total"] = now() - self.started
        return self.seconds


class Counters:
    """Named ints under one lock."""

    def __init__(self, *names: str):
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(names, 0)

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] += n

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


def cache_stats_shape(
    size: int, maxsize: int, hits: int, misses: int
) -> Dict[str, float]:
    """The shape every memo reports under ``/stats`` ``caches``."""
    lookups = hits + misses
    return {
        "size": size,
        "maxsize": maxsize,
        "hits": hits,
        "misses": misses,
        "hit_rate": (hits / lookups) if lookups else 0.0,
    }


class LruDict(OrderedDict):
    """A bounded, thread-safe mapping with least-recently-used eviction.

    The query-time memo layers (keyword lookups, query plans and the
    results they keep) all share this shape: :meth:`hit` returns a value
    and refreshes its recency, :meth:`put` inserts and evicts the oldest
    entries beyond ``maxsize``.  ``None`` is not a valid value (it marks a
    miss).

    The serving layer (:mod:`repro.service`) runs many searches against
    one engine, one per request thread, so these caches are hammered
    from several threads at once.  Every method below therefore holds a
    private lock for the duration of its (short, non-reentrant) critical
    section: the size bound holds at every
    quiescent point, and no internal ``KeyError``/``RuntimeError`` can
    escape from interleaved eviction, overwrite, and clear.

    Hit/miss counters are maintained for service-level cache statistics
    (:meth:`cache_stats`); they count :meth:`hit` calls only, so code that
    bypasses the memo protocol does not skew the rates.
    """

    def __init__(self, maxsize: int):
        self._lock = threading.Lock()
        super().__init__()
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0

    def hit(self, key) -> Optional[object]:
        """The cached value, refreshed as most-recent; None on a miss."""
        with self._lock:
            value = self.get(key)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            self.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        """Insert a value as most-recent and evict least-recently-used
        entries (overwriting an existing key refreshes its recency)."""
        with self._lock:
            self[key] = value
            self.move_to_end(key)
            while len(self) > self.maxsize:
                self.popitem(last=False)

    def clear(self) -> None:  # type: ignore[override]
        with self._lock:
            super().clear()

    def drop_oldest(self) -> None:
        """Evict the least recently used entry, if there is one."""
        with self._lock:
            if self:
                self.popitem(last=False)

    def oldest_first(self) -> list:
        """The values, least recently used first (a copy)."""
        with self._lock:
            return list(self.values())

    def cache_stats(self) -> Dict[str, float]:
        """Size, bound, and hit/miss counts — the service ``/stats`` shape."""
        with self._lock:
            return cache_stats_shape(len(self), self.maxsize, self.hits, self.misses)
