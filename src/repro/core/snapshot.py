"""Epoch-versioned read views over one engine's offline structures.

This lives in :mod:`repro.core` (not the serving layer) because the
engine's own search path is built on it — ``search`` is snapshot
acquisition plus ``search_on_snapshot``, which runs the five steps of
Section VI reading only through the pin — and the core must stay
importable without dragging in the HTTP/threading serving stack.  :mod:`repro.service`
re-exports it as part of its public API.

The offline layer is mutated *in place* by the
:class:`~repro.maintenance.IndexManager` (that is what makes maintenance
delta-bounded), so a "snapshot" here is not a copy: it is a pin.  An
:class:`EngineSnapshot` records the exact ``(summary version, keyword-index
version)`` pair — the formal snapshot key — together with direct references
to every structure a search step reads: the summary graph, the
keyword index, the CSR exploration substrate, the cost model (whose base
cost table is keyed on the pinned summary version), the data graph, the
triple store, and the evaluator.

Consistency is a contract between this pin and the writer coordination in
:class:`~repro.service.EngineService`: while any search holds a read view,
no update batch may begin, so every structure the snapshot references
still answers for the pinned versions.  A snapshot used *outside* such a
hold can observe later versions; :meth:`EngineSnapshot.is_current` makes
that detectable, never silent.
"""

from __future__ import annotations

from typing import Hashable, Tuple

#: The formal snapshot key: (SummaryGraph.snapshot_key, KeywordIndex.snapshot_key).
SnapshotKey = Tuple[int, int]


class EngineSnapshot:
    """An immutable read view pinning one engine state for one search.

    Instances are cheap (no copying — the referenced structures are shared
    and, under the service's reader/writer coordination, immutable for the
    lifetime of the read hold).  ``KeywordSearchEngine.search_on_snapshot``
    reads through the snapshot instead of engine attributes, so a search
    that started on version *(s, i)* finishes on version *(s, i)* even if
    the engine object has since moved on.
    """

    __slots__ = (
        "graph",
        "summary",
        "keyword_index",
        "store",
        "evaluator",
        "cost_model",
        "substrate",
        "summary_version",
        "index_version",
        "epoch",
        "k",
        "dmax",
        "guided",
    )

    #: A constant.  Its only reader is the frozen perf/tracing.py, which
    #: hands it to explore_top_k(use_vectorized=), whose one accepted value
    #: it is; both go with ROADMAP item 5(b).
    use_vectorized = None

    def __init__(
        self,
        graph,
        summary,
        keyword_index,
        store,
        evaluator,
        cost_model,
        substrate,
        summary_version: int,
        index_version: int,
        epoch: int,
        k: int,
        dmax: int,
        guided: bool,
    ):
        self.graph = graph
        self.summary = summary
        self.keyword_index = keyword_index
        self.store = store
        self.evaluator = evaluator
        self.cost_model = cost_model
        #: The version-keyed CSR intern tables, fetched eagerly so the
        #: (potentially expensive) build happens once per epoch instead of
        #: racing inside the first batch of concurrent searches.
        self.substrate = substrate
        self.summary_version = summary_version
        self.index_version = index_version
        #: The IndexManager epoch this snapshot was taken in (diagnostics).
        self.epoch = epoch
        self.k = k
        self.dmax = dmax
        self.guided = guided

    @property
    def key(self) -> SnapshotKey:
        """The formal (summary version, index version) snapshot key."""
        return (self.summary_version, self.index_version)

    def is_current(self) -> bool:
        """True while the pinned structures still answer for the pinned
        versions (i.e. no update batch has committed since the pin)."""
        return (
            self.summary.version == self.summary_version
            and self.keyword_index.version == self.index_version
        )

    def __repr__(self):
        return (
            f"EngineSnapshot(summary_version={self.summary_version}, "
            f"index_version={self.index_version}, epoch={self.epoch})"
        )
