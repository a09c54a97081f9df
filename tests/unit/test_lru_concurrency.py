"""Thread-safety stress tests for the shared memos.

The serving layer hammers one `repro.util.LruDict` from a worker pool
(search-result memo, decoded postings) while maintenance clears it, so the
contract is: no internal exception ever escapes `hit`/`put`/`clear`, and
the size bound holds whenever the dict is quiescent.  The keyword-lookup
memo (`repro.keyword.keyword_index.LookupMemo`) is hammered the same way
and owes one thing more: its dependency → keywords reverse map names
exactly the dependencies of the entries it holds.  The counter sets
(`repro.util.Counters`) lose no increment under contention.
"""

import random
import sys
import threading

from repro.keyword.keyword_index import LookupMemo
from repro.util import Counters, LruDict

THREADS = 8
OPS_PER_THREAD = 4000
MAXSIZE = 8
KEYSPACE = 32


def _hammer(cache, seed, failures, barrier):
    rng = random.Random(seed)
    barrier.wait()
    try:
        for i in range(OPS_PER_THREAD):
            key = rng.randrange(KEYSPACE)
            op = rng.random()
            if op < 0.45:
                cache.hit(key)
            elif op < 0.97:
                cache.put(key, key + 1)
            else:
                cache.clear()
    except BaseException as exc:  # noqa: BLE001 - the assertion target
        failures.append(exc)


def test_concurrent_hit_put_clear_never_raises_and_size_bounded():
    cache = LruDict(MAXSIZE)
    failures = []
    barrier = threading.Barrier(THREADS)
    threads = [
        threading.Thread(
            target=_hammer, args=(cache, seed, failures, barrier), daemon=True
        )
        for seed in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "stress thread wedged (deadlock?)"

    assert failures == []
    assert len(cache) <= MAXSIZE
    # The cache still works after the storm.
    cache.put("after", "storm")
    assert cache.hit("after") == "storm"
    assert len(cache) <= MAXSIZE


def _hammer_memo(memo, seed, failures, barrier):
    rng = random.Random(seed)
    barrier.wait()
    try:
        for _ in range(OPS_PER_THREAD):
            key = rng.randrange(KEYSPACE)
            op = rng.random()
            if op < 0.45:
                memo.hit(f"kw{key}")
            elif op < 0.90:
                terms = frozenset(f"t{(key + j) % KEYSPACE}" for j in range(3))
                fuzzy = [(f"t{key}", terms)] if key % 2 else ()
                memo.put(f"kw{key}", (key,), [terms], (), memo.generation, fuzzy)
            else:
                memo.invalidate([frozenset({f"t{key}"})], [("value", key)], lambda term: True)
    except BaseException as exc:  # noqa: BLE001 - the assertion target
        failures.append(exc)


def test_lookup_memo_reverse_map_stays_consistent_under_contention():
    memo = LookupMemo(MAXSIZE)
    failures = []
    barrier = threading.Barrier(THREADS)
    threads = [
        threading.Thread(
            target=_hammer_memo, args=(memo, seed, failures, barrier), daemon=True
        )
        for seed in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "stress thread wedged (deadlock?)"
    finally:
        sys.setswitchinterval(interval)

    assert failures == []
    assert len(memo) <= MAXSIZE
    # A lost update would leave a link to a dropped entry, or an entry
    # that no invalidation can reach: through a dependency or a key.
    for reverse, column in ((memo._dependents, 1), (memo._keyed, 3)):
        links = {
            (dependency, keyword)
            for dependency, keywords in reverse.items()
            for keyword in keywords
        }
        assert links == {
            (dependency, keyword)
            for keyword, entry in memo._entries.items()
            for dependency in entry[column]
        }
    stats = memo.cache_stats()
    assert stats["invalidated"] > 0 and stats["hits"] > 0


def test_counters_and_stats_shape():
    cache = LruDict(2)
    assert cache.hit("missing") is None
    cache.put("a", 1)
    assert cache.hit("a") == 1
    stats = cache.cache_stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["hit_rate"] == 0.5
    assert stats["maxsize"] == 2
    assert stats["size"] == 1


def test_eviction_order_unchanged():
    cache = LruDict(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.hit("a")  # refresh: "b" is now the eviction victim
    cache.put("c", 3)
    assert cache.hit("b") is None
    assert cache.hit("a") == 1
    assert cache.hit("c") == 3


def test_counters_lose_no_add_under_contention():
    counts = Counters("one", "two")
    adds = 10_000
    barrier = threading.Barrier(THREADS)

    def hammer():
        barrier.wait()
        for _ in range(adds):
            counts.add("one")
            counts.add("two", 2)

    threads = [threading.Thread(target=hammer, daemon=True) for _ in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "stress thread wedged (deadlock?)"
    finally:
        sys.setswitchinterval(interval)
    assert counts.snapshot() == {"one": THREADS * adds, "two": 2 * THREADS * adds}
