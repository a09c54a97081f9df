"""Unit tests for shared utilities."""

import ast
import pathlib

import repro
from repro.util import Counters, Laps, LruDict, now

#: The clock reads only `repro.util` may make.
_CLOCKS = {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}


def test_hit_refreshes_recency():
    cache = LruDict(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.hit("a") == 1
    cache.put("c", 3)  # evicts "b", the least recently used
    assert cache.hit("b") is None
    assert cache.hit("a") == 1
    assert cache.hit("c") == 3


def test_put_evicts_beyond_maxsize():
    cache = LruDict(3)
    for i in range(10):
        cache.put(i, i + 1)
    assert len(cache) == 3
    assert list(cache) == [7, 8, 9]


def test_miss_returns_none():
    assert LruDict(1).hit("missing") is None


def test_laps_are_consecutive_and_total_covers_them():
    laps = Laps()
    first = laps.lap("first")
    laps.lap("second")
    seconds = laps.total()
    assert list(seconds) == ["first", "second", "total"]
    assert seconds["first"] == first >= 0
    assert seconds["total"] >= seconds["first"] + seconds["second"]
    assert laps.started <= now()


def test_counters_add_and_snapshot():
    counts = Counters("a", "b")
    counts.add("a")
    counts.add("b", 3)
    snapshot = counts.snapshot()
    assert snapshot == {"a": 1, "b": 3}
    counts.add("a")
    assert snapshot["a"] == 1  # a copy, not a view


def test_only_repro_util_reads_a_clock():
    """Every duration and deadline in the package comes from
    `repro.util.now`: no other module names a clock of `time`
    (`time.time` for the HTTP Date header and `time.sleep` stay)."""
    root = pathlib.Path(repro.__file__).parent
    readers = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "util.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.alias):
                names = [node.name]
            else:
                continue
            readers += [
                f"{path.relative_to(root)}:{node.lineno} {name}"
                for name in names if name in _CLOCKS
            ]
    assert readers == []
