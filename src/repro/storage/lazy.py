"""Deferred materialization of bundle sections: O(metadata) cold start.

A keyword *search* reads the keyword index, the summary graph, its CSR
substrate, and two scalar predicate preferences — it never touches the
data graph's adjacency or the triple store's SPO/POS/OSP nests.  Those
are only needed by query *processing* (``execute``) and by incremental
maintenance.  Decoding them anyway would dominate cold start: they are
exactly the containers whose reconstruction costs one Python-level hash
per stored object.

So the loader hands the engine subclasses whose heavy state is a
*thunk* over the mmap-ed bundle sections:

* :class:`LazyDataGraph` — predicate preferences, ``len`` and ``stats``
  are served from bundle metadata; the first touch of any other state
  (an update batch, a filter search, ``label_of``) replays the stored
  triples through the :class:`~repro.rdf.graph.DataGraph` constructor
  and the instance becomes that graph;
* :class:`LazyTripleStore` — same pattern for the first ``execute``.

Both thunks return the finished object and :class:`_Deferred` adopts its
state, so laziness is invisible to the byte-identity property tests — it
only moves *when* the work happens.  A lock makes a concurrent first
touch from the serving layer's worker pool safe: the second thread waits
for the first one's result.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Callable, Dict

from repro.rdf.graph import DataGraph
from repro.store.triple_store import TripleStore


class _Deferred:
    """Mixin: the instance's state is ``thunk()``'s, adopted on first touch.

    The subclass constructors deliberately do not chain to their base
    constructor: only cheap, search-relevant scalars are populated
    eagerly.  Any access to an absent attribute funnels through
    ``__getattr__``, which runs the thunk under a lock, adopts the
    finished object's ``__dict__`` and then retries the lookup —
    afterwards the instance is indistinguishable from that object.
    """

    def __init__(self, thunk: Callable[[], object]):
        self._lazy_lock = threading.Lock()
        self._lazy_thunk = thunk

    def _materialize(self) -> None:
        with self._lazy_lock:
            thunk = self._lazy_thunk
            if thunk is None:
                return
            # Eagerly populated attributes are overwritten with equal
            # values.  Clearing the thunk last keeps the "am I
            # materialized" check conservative.
            self.__dict__.update(thunk().__dict__)
            self._lazy_thunk = None

    def __getattr__(self, name):
        # Only reached for attributes missing from __dict__.  Guard
        # against recursion during __init__ and against genuinely unknown
        # attributes after materialization.
        if name.startswith("_lazy") or self.__dict__.get("_lazy_thunk") is None:
            raise AttributeError(name)
        self._materialize()
        return getattr(self, name)


class LazyDataGraph(_Deferred, DataGraph):
    """A :class:`DataGraph` built from its stored triples on first touch."""

    def __init__(
        self,
        thunk: Callable[[], DataGraph],
        *,
        strict: bool,
        conflicts,
        type_pred_counts,
        subclass_pred_counts,
        stats: Dict[str, int],
    ):
        _Deferred.__init__(self, thunk)
        self._lazy_stats = dict(stats)
        self.strict = strict
        self.conflicts = list(conflicts)
        self._type_pred_counts = defaultdict(int, type_pred_counts)
        self._subclass_pred_counts = defaultdict(int, subclass_pred_counts)

    def __len__(self) -> int:
        if self._lazy_thunk is not None:
            return self._lazy_stats["triples"]
        return super().__len__()

    def stats(self) -> Dict[str, int]:
        if self._lazy_thunk is not None:
            return dict(self._lazy_stats)
        return super().stats()


class LazyTripleStore(_Deferred, TripleStore):
    """A :class:`TripleStore` whose SPO/POS/OSP nests decode on first use."""

    def __init__(self, thunk: Callable[[], TripleStore], size: int):
        _Deferred.__init__(self, thunk)
        self._lazy_size = size

    def __len__(self) -> int:
        if self._lazy_thunk is not None:
            return self._lazy_size
        return super().__len__()
