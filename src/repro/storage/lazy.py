"""Deferred materialization of the data graph: O(metadata) cold start.

A keyword *search* reads the keyword index, the summary graph, its CSR
substrate, and two scalar predicate preferences; query *processing*
(``execute``) reads the triple store.  A loaded bundle serves all of
those in place (:mod:`repro.storage.mmap_tier`), so neither ever touches
the data graph's adjacency — only incremental maintenance does.
Rebuilding it anyway would dominate cold start: it costs
one Python-level hash per stored object.

So the loader hands the engine a :class:`LazyDataGraph` whose heavy
state is a *thunk* over the stored triples: predicate preferences,
``len`` and ``stats`` are served from bundle metadata; the first touch
of any other state (an update batch, ``label_of``, ``triples``)
replays the triples through the :class:`~repro.rdf.graph.DataGraph`
constructor and the instance becomes that graph.  Laziness is therefore
invisible to the byte-identity property tests — it only moves *when* the
work happens.  A lock makes a concurrent first touch from the serving
layer's request threads safe: the second thread waits for the first
one's result.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Callable, Dict

from repro.rdf.graph import DataGraph


class LazyDataGraph(DataGraph):
    """A :class:`DataGraph` built from its stored triples on first touch.

    The constructor deliberately does not chain to ``DataGraph``'s: only
    cheap, search-relevant scalars are populated eagerly.  Any access to
    an absent attribute funnels through ``__getattr__``, which runs the
    thunk under a lock, adopts the finished graph's ``__dict__`` and
    then retries the lookup — afterwards the instance is
    indistinguishable from that graph.
    """

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
        self._lazy_lock = threading.Lock()
        self._lazy_thunk = thunk
        self._lazy_stats = dict(stats)
        self.strict = strict
        self.conflicts = list(conflicts)
        self._type_pred_counts = defaultdict(int, type_pred_counts)
        self._subclass_pred_counts = defaultdict(int, subclass_pred_counts)

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

    def __len__(self) -> int:
        if self._lazy_thunk is not None:
            return self._lazy_stats["triples"]
        return super().__len__()

    def stats(self) -> Dict[str, int]:
        if self._lazy_thunk is not None:
            return dict(self._lazy_stats)
        return super().stats()
