"""The end-to-end keyword-search engine (Fig. 2's full pipeline).

Offline, the constructor builds the keyword index and the summary graph
over the data graph, and queries execute on the data graph's own triple
store (``graph.store``); :meth:`KeywordSearchEngine.add_triples` and
:meth:`KeywordSearchEngine.remove_triples` keep them consistent under
data changes through the :class:`~repro.maintenance.IndexManager` — no
rebuild, and nothing query-time to invalidate: every query-time cache
lives on what it was computed from and dies with it.

Per query, :meth:`KeywordSearchEngine.search` performs the five tasks of
Section VI — keyword-to-element mapping, augmentation, exploration, top-k,
query mapping — and returns ranked :class:`QueryCandidate` objects carrying
the conjunctive query, its cost, its subgraph, and presentation renderings
(SPARQL, SQL, natural language).  Augmentation is zero-copy: the summary
graph is never duplicated per query; keyword-derived elements are layered
onto it through an :class:`~repro.summary.overlay.OverlaySummaryGraph`
view.  :meth:`KeywordSearchEngine.execute` then runs a chosen query on the
store, completing the paper's search paradigm: *compute queries, let the
user pick, let the database answer*.

The online pipeline is factored for concurrent serving: ``search`` is
snapshot acquisition (:meth:`KeywordSearchEngine.snapshot`, an
:class:`~repro.core.snapshot.EngineSnapshot` pinning the formal
``(summary version, keyword-index version)`` key) followed by
:meth:`KeywordSearchEngine.search_on_snapshot`, the one place that runs
the five steps in order, each reading only through the snapshot it is
handed.  :class:`~repro.service.EngineService` runs it from its callers'
threads, a whole batch against one shared snapshot; results are
byte-identical either way.

A query's plan (:func:`~repro.summary.augmentation.augment`) keeps what
the steps after augmentation derive, finished searches included when
``search_cache_size`` is set; their candidates are mapped only as far as
a reader asked (``/search`` all k, ``/execute`` up to its rank).
"""

from __future__ import annotations

import json
import threading
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.util import Counters, Laps, LruDict, cache_stats_shape

from repro.core.exploration import DEFAULT_DMAX, ExplorationResult, explore_top_k
from repro.core.query_mapping import QueryMappingError, map_to_query
from repro.maintenance import IndexManager
from repro.core.subgraph import MatchingSubgraph
from repro.keyword.keyword_index import (
    AttributeMatch,
    KeywordIndex,
    KeywordMatch,
    ValueMatch,
)
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.filters import (
    FilteredQuery,
    FilterKeyword,
    bind_filters,
    split_filter_keywords,
)
from repro.rdf.terms import Literal
from repro.query.evaluator import Answer, AnswerRows, QueryEvaluator
from repro.query.isomorphism import canonical_form
from repro.query.nlg import verbalize
from repro.query.presentation import form_signature, present
from repro.query.sparql import to_sparql
from repro.query.sql import to_sql
from repro.rdf.graph import DataGraph
from repro.rdf.triples import Triple
from repro.core.snapshot import EngineSnapshot
from repro.scoring.cost import CostModel, make_cost_model
from repro.summary.augmentation import augment
from repro.summary.substrate import ExplorationSubstrate
from repro.summary.summary_graph import SummaryGraph


def _json_number(value) -> str:
    """What ``json.dumps`` writes for a rank or a cost."""
    if type(value) is int or (type(value) is float and isfinite(value)):
        return repr(value)  # float.__repr__ / int.__repr__, as the encoder
    return json.dumps(value)


class QueryCandidate:
    """One computed interpretation: a ranked conjunctive query.

    A candidate is immutable once built and shared by every search its
    plan's result serves, so its encoded presentation
    (:meth:`json_fragment`: signature, SPARQL and natural-language
    renderings, as the serving layer sends them) is produced on first use
    and kept *here*: a result hit finds it ready, and there is nothing to
    invalidate.  Two threads racing on the first use compute equal bytes;
    the later store wins harmlessly.

    :meth:`to_json` is one presentation pass over the query
    (:func:`repro.query.presentation.present`) plus rank and cost.

    ``form`` is the query's ``canonical_form`` when the caller already
    holds it (query mapping deduplicates on it): the signature is derived
    from it instead of canonicalising a second time.
    """

    __slots__ = ("query", "cost", "subgraph", "rank", "_form", "_json")

    def __init__(
        self,
        query: ConjunctiveQuery,
        cost: float,
        subgraph: MatchingSubgraph,
        rank: int,
        form=None,
    ):
        self.query = query
        self.cost = cost
        self.subgraph = subgraph
        self.rank = rank
        self._form = form
        self._json: Optional[bytes] = None

    def _canonical_form(self):
        form = self._form
        return canonical_form(self.query) if form is None else form

    @property
    def signature(self) -> str:
        """The renaming-invariant id of :func:`repro.quality.query_signature`."""
        return form_signature(self._canonical_form())

    def to_sparql(self) -> str:
        return to_sparql(self.query)

    def to_sql(self) -> str:
        return to_sql(self.query)

    def verbalize(self) -> str:
        return verbalize(self.query)

    def to_json(self) -> Dict[str, object]:
        """The candidate as the HTTP endpoints present it.  The signature
        lets clients (and the quality harness's endpoint seeding) refer to
        an interpretation stably across serving tiers and engine versions."""
        renderings = present(self.query, self._canonical_form())
        return {"rank": self.rank, "cost": self.cost, **renderings}

    def json_fragment(self) -> bytes:
        """``json.dumps(self.to_json())``, encoded once per candidate —
        written field by field with the string and number encoders
        ``json.dumps`` would call, not through a dict."""
        fragment = self._json
        if fragment is None:
            fields = [
                f'"rank": {_json_number(self.rank)}',
                f'"cost": {_json_number(self.cost)}',
            ]
            fields.extend(
                f'"{name}": {encode_basestring_ascii(text)}'
                for name, text in present(self.query, self._canonical_form()).items()
            )
            fragment = self._json = ("{" + ", ".join(fields) + "}").encode("ascii")
            # The fragment carries the signature: of a kept candidate only
            # these bytes need to stay, not the form as well.
            self._form = None
        return fragment

    def __repr__(self):
        return f"QueryCandidate(rank={self.rank}, cost={self.cost:.3f}, query={self.query})"


class SearchResult:
    """The outcome of one keyword search: ranked queries + diagnostics."""

    def __init__(
        self,
        keywords: Sequence[str],
        candidates: List[QueryCandidate],
        matches: List[List[KeywordMatch]],
        ignored_keywords: List[str],
        exploration: Optional[ExplorationResult],
        timings: Dict[str, float],
    ):
        self.keywords = list(keywords)
        self.candidates = candidates
        self.matches = matches
        self.ignored_keywords = ignored_keywords
        self.exploration = exploration
        self.timings = timings

    @property
    def queries(self) -> List[ConjunctiveQuery]:
        return [c.query for c in self.candidates]

    def best(self) -> Optional[QueryCandidate]:
        return self.candidates[0] if self.candidates else None

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    def __repr__(self):
        return (
            f"SearchResult(keywords={self.keywords!r}, "
            f"candidates={len(self.candidates)}, "
            f"total_ms={1000 * self.timings.get('total', 0):.1f})"
        )


def _operand_attributes(snapshot: EngineSnapshot, fk: FilterKeyword) -> frozenset:
    """The A-edge labels a filter operand plausibly constrains.

    Primary route: the operand's value matches reveal the attributes it
    occurs under (``2005`` → ``year``).  Fallback for out-of-data
    operands (``before 2050``): every attribute whose stored values are
    of the same kind (numeric vs. text), judged on one sample row read
    through the store, not the data graph.
    """
    labels = {
        occurrence[0]
        for match in snapshot.keyword_index.lookup(fk.value.lexical)
        if isinstance(match, ValueMatch)
        for occurrence in match.occurrences
    }
    if labels:
        return frozenset(labels)
    operand_numeric = _looks_numeric(fk.value.lexical)
    fallback = set()
    for label in snapshot.keyword_index.attribute_labels():
        sample = next(
            (
                t.object
                for t in snapshot.store.match(None, label, None)
                if isinstance(t.object, Literal)
            ),
            None,
        )
        if sample is not None and _looks_numeric(sample.lexical) == operand_numeric:
            fallback.add(label)
    return frozenset(fallback)


def _looks_numeric(text: str) -> bool:
    try:
        float(text.strip())
        return True
    except ValueError:
        return False


def split_keywords(query: str) -> List[str]:
    """Whitespace keyword segmentation with double-quoted phrase support.

    >>> split_keywords('cimiano "x media" 2006')
    ['cimiano', 'x media', '2006']
    """
    out: List[str] = []
    buffer: List[str] = []
    in_quotes = False
    for ch in query:
        if ch == '"':
            in_quotes = not in_quotes
            if not in_quotes and buffer:
                out.append("".join(buffer))
                buffer = []
        elif ch.isspace() and not in_quotes:
            if buffer:
                out.append("".join(buffer))
                buffer = []
        else:
            buffer.append(ch)
    if buffer:
        out.append("".join(buffer))
    return out


class _PlanResult:
    """One finished search of a plan: its exploration, the ``timings`` of
    the search that ran it, and its candidates, mapped in rank order only
    as far as a reader asked.  Readers extend a kept result under its lock
    (mapping holds the GIL anyway; an idempotent append would have racing
    readers map the same subgraphs twice); ranks already mapped are read
    without it, since candidates are only ever appended."""

    __slots__ = ("exploration", "timings", "candidates", "_pending", "_forms",
                 "_mapping", "_lock")

    def __init__(self, exploration: Optional[ExplorationResult], plan_graph, data_graph):
        self.exploration = exploration
        self.timings: Dict[str, float] = {}
        self.candidates: List[QueryCandidate] = []
        self._pending = iter(exploration.subgraphs) if exploration else None
        self._forms = set()
        # A change to the preferred predicates moves the summary version.
        self._mapping = (plan_graph, data_graph.preferred_type_predicate,
                         data_graph.preferred_subclass_predicate)
        self._lock = threading.Lock()

    def up_to(self, rank: Optional[int]) -> List[QueryCandidate]:
        """A fresh list of the first ``rank`` candidates (all for ``None``).
        Task 5: each subgraph maps to a query, and a query whose canonical
        form a cheaper one already has is dropped."""
        candidates = self.candidates
        if self._pending is not None and (rank is None or len(candidates) < rank):
            with self._lock:
                graph, type_pred, subclass_pred = self._mapping
                while self._pending is not None and (
                    rank is None or len(candidates) < rank
                ):
                    subgraph = next(self._pending, None)
                    if subgraph is None:
                        self._pending = self._forms = None
                        break
                    try:
                        query = map_to_query(
                            subgraph, graph,
                            type_predicate=type_pred, subclass_predicate=subclass_pred,
                        )
                    except QueryMappingError:
                        continue
                    form = canonical_form(query)
                    if form not in self._forms:
                        self._forms.add(form)
                        candidates.append(QueryCandidate(
                            query, subgraph.cost, subgraph,
                            rank=len(candidates) + 1, form=form,
                        ))
        return candidates[:rank]


#: The engine configuration every command-line entry point (``repro
#: search`` / ``serve`` / ``build`` / ``eval``) applies when a
#: flag is not given.  One table, read by :mod:`repro.cli` and
#: :func:`repro.quality.runner.build_eval_engine`, so the entry points
#: cannot drift apart.
ENGINE_DEFAULTS = {"k": 5, "cost_model": "c3", "dmax": DEFAULT_DMAX}


class KeywordSearchEngine:
    """Keyword search through top-k query computation over RDF data.

    Parameters
    ----------
    graph:
        The RDF data graph.
    cost_model:
        ``"c1"`` / ``"c2"`` / ``"c3"`` / ``"pagerank"`` or a
        :class:`~repro.scoring.cost.CostModel` instance.  C3 (popularity ÷
        matching score) is the paper's best performer and the default.
    k:
        Default number of queries to compute.
    dmax:
        Default exploration depth, in elements.
    guided:
        ``True`` only (else ``TypeError``): every search is bounded.  A shim
        for the frozen ``perf/checks.py`` (ROADMAP item 5(b)).
    search_cache_size:
        When positive, query plans keep up to this many finished searches
        in all (and the plan LRU holds at least this many plans), keyed on
        cost model, k and dmax, so a repeated query runs
        neither exploration nor mapping already done.  A result dies with its plan — when the
        summary version moves, or an update recomputes a keyword's matches
        — and a hit returns the ``timings`` of the search that ran it.
        0 (the default): plans keep no results.

    A keyword with no matching element is ignored and reported in
    ``SearchResult.ignored_keywords``; the keyword index bounds how many
    elements one keyword matches
    (:data:`~repro.keyword.keyword_index.MAX_MATCHES_PER_KEYWORD`).
    """

    def __init__(
        self,
        graph: DataGraph,
        cost_model: Union[str, CostModel] = "c3",
        k: int = 10,
        dmax: int = DEFAULT_DMAX,
        guided: bool = True,
        keyword_index: Optional[KeywordIndex] = None,
        summary: Optional[SummaryGraph] = None,
        search_cache_size: int = 0,
    ):
        self.graph = graph
        self.cost_model = (
            make_cost_model(cost_model) if isinstance(cost_model, str) else cost_model
        )
        if guided is not True:
            raise TypeError("KeywordSearchEngine() takes guided=True only")
        self.k = k
        self.dmax = dmax
        self.search_cache_size = search_cache_size
        #: Explorations that started from a seed threshold, and those among
        #: them that refuted it and ran a second time (``/stats``
        #: ``exploration``; the second should stay 0).
        self._seeds = Counters("seeded", "seed_fallbacks")
        #: Provenance of a bundle-loaded engine (path, format version,
        #: epoch at save, WAL state) — ``None`` for a built engine.  The
        #: serving layer surfaces it through ``/stats``.
        self.artifact: Optional[Dict[str, object]] = None
        #: The attached write-ahead delta log of a bundle-loaded engine
        #: (``None`` otherwise).  The log is single-writer (an exclusive
        #: lock is held while attached); ``delta_log.close()`` releases
        #: it so another engine may take over the artifact.
        self.delta_log = None

        # `is None`, not truthiness: a supplied-but-empty component (e.g. a
        # zero-triple bundle's keyword index) must be adopted, not silently
        # rebuilt.
        self.summary = (
            summary if summary is not None else SummaryGraph.from_data_graph(graph)
        )
        self.keyword_index = (
            keyword_index if keyword_index is not None else KeywordIndex(graph)
        )
        # The graph's own store, on both tiers: a constructed graph keeps
        # its triples in a TripleStore, a loaded one is a view over its
        # MmapTripleTier.  Maintenance updates it through the graph.
        self.store = graph.store
        self.evaluator = QueryEvaluator(self.store)
        self.index_manager = IndexManager(
            graph=graph,
            keyword_index=self.keyword_index,
            summary=self.summary,
            evaluator=self.evaluator,
        )

    # ------------------------------------------------------------------
    # Persistence (the offline layer as a durable artifact)
    # ------------------------------------------------------------------

    def save(self, path, force: bool = False) -> Dict[str, object]:
        """Write the whole offline layer to a ``.reprobundle`` file.

        The bundle (``repro.storage``) holds the triple store, keyword
        index and summary graph in a versioned, checksummed, pickle-free
        binary format keyed on the formal ``(summary version,
        keyword-index version)`` snapshot pair;
        :meth:`load` reconstitutes an engine that is byte-identical in
        behavior to this one.  Saving is a streamed rebuild: the engine's
        current triples and configuration go through the one bundle
        builder (:func:`repro.storage.build_bundle_streaming`), so the
        saved version counters are those of a fresh build of the same
        triples while the epoch is this engine's.  Refuses to overwrite
        an existing file unless ``force``.  Returns an info dict (path,
        size, epoch, build statistics).
        """
        from repro.storage import build_bundle_streaming

        return build_bundle_streaming(
            self.graph.triples,
            path,
            force=force,
            cost_model=self.cost_model,
            k=self.k,
            dmax=self.dmax,
            search_cache_size=self.search_cache_size,
            graph_strict=self.graph.strict,
            epoch=self.index_manager.epoch,
            delta_log=self.delta_log,
        )

    @classmethod
    def load(
        cls,
        path,
        *,
        replay_wal: bool = True,
        attach_wal: bool = True,
        wal_path=None,
        **overrides,
    ) -> "KeywordSearchEngine":
        """Reconstitute an engine from a bundle in milliseconds-not-minutes.

        Loading decodes the schema-sized summary graph and serves the
        keyword index and the triple store in place, straight from the
        mapped file (no rebuild, no re-analysis, :attr:`index_tier`
        ``"mmap"``); it does not read the
        sorted runs end to end, so checking them is
        :func:`repro.storage.verify_bundle`'s job, run by whoever owns
        the artifact.  The engine configuration saved in the bundle applies
        unless overridden (``cost_model``, ``k``, ``dmax``,
        ``search_cache_size``; anything else is a ``TypeError``).  A delta
        log next to the bundle has its committed tail replayed through
        incremental maintenance (``replay_wal``) and is then kept
        attached (``attach_wal``) so future :meth:`add_triples` /
        :meth:`remove_triples` epochs survive a restart.  The resulting
        engine records its provenance in :attr:`artifact`.
        """
        from repro.storage import load_engine

        return load_engine(
            path,
            replay_wal=replay_wal,
            attach_wal=attach_wal,
            wal_path=wal_path,
            **overrides,
        )

    @property
    def index_tier(self) -> str:
        """Where the keyword index and triple store live: ``"mmap"`` for a
        loaded bundle, ``"memory"`` for an engine the constructors built."""
        return self.keyword_index.index_tier

    @property
    def guided(self) -> bool:
        """Always ``True``, and read-only (the constructor's ``guided=`` shim)."""
        return True

    # ------------------------------------------------------------------
    # Updates (incremental offline-index maintenance)
    # ------------------------------------------------------------------

    def add_triples(self, triples: Sequence[Triple]) -> int:
        """Insert triples, updating every offline index incrementally.

        Propagates deltas through the data graph (and so the triple store
        it keeps its triples in), the keyword index and the summary graph
        without rebuilding any of them; cached per-element costs and
        selectivity statistics are invalidated.  Returns the number of
        triples actually added.
        """
        return self.index_manager.add_triples(triples)

    def remove_triples(self, triples: Sequence[Triple]) -> int:
        """Remove triples; the incremental counterpart of :meth:`add_triples`."""
        return self.index_manager.remove_triples(triples)

    # ------------------------------------------------------------------
    # Search (Fig. 2, online part): snapshot acquisition + the five steps
    # ------------------------------------------------------------------

    def snapshot(self) -> EngineSnapshot:
        """Pin the current engine state as an immutable read view.

        The snapshot records the formal ``(summary version, keyword-index
        version)`` key and references every structure the pipeline
        reads — including the version-keyed exploration substrate and the cost
        model whose base table is keyed on the pinned summary version.
        Consistency across a racing update is the serving layer's job
        (:class:`~repro.service.EngineService` excludes writers while any
        search holds a read view); single-threaded use needs no
        coordination because nothing mutates mid-search.
        """
        summary = self.summary
        substrate = summary.exploration_substrate()
        # Kept results live on plans: room for as many plans.
        substrate.plans.maxsize = max(substrate.plans.maxsize, self.search_cache_size)
        return EngineSnapshot(
            graph=self.graph,
            summary=summary,
            keyword_index=self.keyword_index,
            store=self.store,
            evaluator=self.evaluator,
            cost_model=self.cost_model,
            substrate=substrate,
            summary_version=summary.snapshot_key,
            index_version=self.keyword_index.snapshot_key,
            epoch=self.index_manager.epoch,
            k=self.k,
            dmax=self.dmax,
        )

    def search(
        self,
        query: Union[str, Sequence[str]],
        k: Optional[int] = None,
        dmax: Optional[int] = None,
    ) -> SearchResult:
        """Compute the top-k conjunctive queries for a keyword query:
        :meth:`snapshot`, then :meth:`search_on_snapshot` on it.

        An empty keyword query (no keywords, or only whitespace) raises
        ``ValueError``: there is nothing to explore, and silently
        returning zero candidates reads like "no interpretation exists"
        when the real problem is upstream input handling.
        """
        return self.search_on_snapshot(self.snapshot(), query, k=k, dmax=dmax)

    def search_on_snapshot(
        self,
        snapshot: EngineSnapshot,
        query: Union[str, Sequence[str]],
        k: Optional[int] = None,
        dmax: Optional[int] = None,
        matches: Optional[List[List[KeywordMatch]]] = None,
    ) -> SearchResult:
        """Run Section VI's five steps in order against a pinned snapshot.

        Keyword mapping, augmentation (plus element costs), exploration
        with top-k, and query mapping each read only through ``snapshot``,
        so a search that pinned version *(s, i)* computes on *(s, i)* from
        start to finish — what lets the serving layer run a batch, or
        concurrent requests, on one snapshot.  ``timings`` holds the
        seconds between consecutive step boundaries, in step order, and
        ``total``; a query no keyword matched stops after the first step.

        ``matches`` replaces the keyword mapping (one match list per
        keyword); the filtered search passes its attribute-level
        interpretations this way.  Such a search neither reads nor fills
        kept results, even when its matches find a plan.
        """
        return self._search(snapshot, query, k, dmax, matches, None)

    def _search(self, snapshot, query, k, dmax, matches, rank) -> SearchResult:
        """:meth:`search_on_snapshot`, with candidates up to ``rank`` (None: all)."""
        keywords = split_keywords(query) if isinstance(query, str) else list(query)
        if not keywords or all(not kw.strip() for kw in keywords):
            raise ValueError(
                "empty keyword query: provide at least one non-whitespace keyword"
            )
        if k is None:
            k = snapshot.k
        if dmax is None:
            dmax = snapshot.dmax
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if dmax < 0:
            raise ValueError(f"dmax must be >= 0, got {dmax}")
        if matches is not None and len(matches) != len(keywords):
            raise ValueError("matches must align one list per keyword")
        keep = matches is None and self.search_cache_size > 0

        laps = Laps()
        # Task 1: keyword-to-element mapping.
        if matches is None:
            matches = snapshot.keyword_index.lookup_all(keywords)
        laps.lap("keyword_mapping")
        ignored = [kw for kw, m in zip(keywords, matches) if not m]
        effective = [m for m in matches if m]
        if not effective and not keep:
            return SearchResult(keywords, [], matches, ignored, None, laps.total())

        # Task 2: zero-copy augmentation — the query's plan, where its result
        # is kept (no matches: the plan of none) — and element costs.
        plan = augment(snapshot.summary, effective)
        key = (snapshot.cost_model, k, dmax)
        result = plan.results.hit(key) if keep else None
        if result is not None:
            candidates = result.up_to(rank)
        else:
            exploration = None
            if effective:
                costs = snapshot.cost_model.element_costs(plan)
                laps.lap("augmentation")
                # Tasks 3+4: exploration and top-k.
                exploration = explore_top_k(plan, costs, k=k, dmax=dmax)
                if isfinite(exploration.seed_threshold):
                    self._seeds.add("seeded")
                    if exploration.seed_fallback:
                        self._seeds.add("seed_fallbacks")
                laps.lap("exploration")
            # Task 5: query mapping, as far as this search reads.
            result = _PlanResult(exploration, plan.graph, snapshot.graph)
            candidates = result.up_to(rank)
            if exploration is not None:
                laps.lap("query_mapping")
            result.timings = laps.total()
            if keep:
                plan.results.put(key, result)
                snapshot.substrate.trim_results(self.search_cache_size)
        return SearchResult(
            keywords, candidates, matches, ignored, result.exploration, dict(result.timings)
        )

    # ------------------------------------------------------------------
    # Filter extension (the paper's Section IX future work)
    # ------------------------------------------------------------------

    def search_with_filters(
        self,
        query: Union[str, Sequence[str]],
        k: Optional[int] = None,
        dmax: Optional[int] = None,
    ) -> List[FilteredQuery]:
        """Keyword search where comparison keywords become FILTER operators.

        Keywords like ``"before 2005"``, ``"since 2000"`` or ``"2000-2005"``
        are recognized as operators
        (:func:`repro.query.filters.split_filter_keywords`), the remaining
        keywords are interpreted as usual, and each computed query gets the
        filters bound to the matching attribute's variable
        (:func:`repro.query.filters.bind_filters`).  ``k`` and ``dmax``
        mean what they mean in :meth:`search`.

        Returns the ranked filtered queries (candidates where a filter
        could not be bound to any attribute are dropped).
        """
        keywords = split_keywords(query) if isinstance(query, str) else list(query)
        plain, filter_keywords = split_filter_keywords(keywords)
        if not plain:
            raise ValueError("a filtered search needs at least one plain keyword")

        # Each filter operand participates in the exploration as the
        # A-edge(s) its values occur under (an AttributeMatch), so the
        # computed subgraphs contain e.g. a `year(?x, ?value)` edge the
        # filter can then constrain.
        snapshot = self.snapshot()
        keyword_index = snapshot.keyword_index
        plain_matches = keyword_index.lookup_all(plain)
        attr_labels = [_operand_attributes(snapshot, fk) for fk in filter_keywords]
        filter_matches = [
            [
                AttributeMatch(label, keyword_index.attribute_classes(label), 1.0)
                for label in sorted(labels, key=lambda u: u.value)
            ]
            for labels in attr_labels
        ]
        result = self.search_on_snapshot(
            snapshot,
            plain + [fk.source for fk in filter_keywords],
            k=k,
            dmax=dmax,
            matches=plain_matches + filter_matches,
        )
        bound = (
            bind_filters(candidate.query, filter_keywords, attr_labels)
            for candidate in result.candidates
        )
        return [filtered for filtered in bound if filtered is not None]

    # ------------------------------------------------------------------
    # Query processing (the database side of the paradigm)
    # ------------------------------------------------------------------

    def execute(
        self,
        candidate: Union[QueryCandidate, ConjunctiveQuery],
        limit: Optional[int] = None,
    ) -> AnswerRows:
        """Run one computed query on the underlying store."""
        query = candidate.query if isinstance(candidate, QueryCandidate) else candidate
        return self.evaluator.evaluate(query, limit=limit)

    def execute_ranked(
        self,
        query: Union[str, Sequence[str]],
        rank: int = 1,
        limit: Optional[int] = 10,
        snapshot: Optional[EngineSnapshot] = None,
    ) -> Tuple[Optional[QueryCandidate], Sequence[Answer], Dict[str, float]]:
        """Search, then run the rank-th interpretation on the store — the
        ``/execute`` request.  Returns ``(candidate, answers, timings)``:
        the search's stage timings plus ``execute``, in seconds.
        ``candidate`` is ``None`` when the search has fewer than ``rank``
        interpretations.

        Query mapping stops at the rank-th candidate: ``query_mapping``
        times the subgraphs mapped up to it, and a kept result maps the
        rest when a later reader asks.
        """
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if snapshot is None:
            snapshot = self.snapshot()
        result = self._search(snapshot, query, None, None, None, rank)
        if len(result.candidates) < rank:
            return None, [], result.timings
        candidate = result.candidates[rank - 1]
        laps = Laps()
        answers = snapshot.evaluator.evaluate(candidate.query, limit=limit)
        return candidate, answers, dict(result.timings, execute=laps.lap("execute"))

    def search_and_execute(
        self,
        query: Union[str, Sequence[str]],
        k: Optional[int] = None,
        min_answers: int = 10,
    ) -> Dict[str, object]:
        """The Fig. 5 measurement protocol: compute the top-k queries, then
        process them best-first until at least ``min_answers`` answers are
        collected.  Returns answers, the queries used, and wall-clock
        timings for both phases.
        """
        laps = Laps()
        result = self.search(query, k=k)
        computation_seconds = laps.lap("computation")

        answers: List[Answer] = []
        used: List[QueryCandidate] = []
        for candidate in result.candidates:
            remaining = min_answers - len(answers)
            if remaining <= 0:
                break
            batch = self.execute(candidate, limit=remaining)
            if batch:
                used.append(candidate)
                answers.extend(batch)
        processing_seconds = laps.lap("processing")

        return {
            "result": result,
            "answers": answers,
            "queries_used": used,
            "computation_seconds": computation_seconds,
            "processing_seconds": processing_seconds,
            "total_seconds": computation_seconds + processing_seconds,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def index_stats(self) -> Dict[str, Dict[str, float]]:
        """Index sizes and build times (the Fig. 6b quantities): each
        index's own ``stats()`` — ``build_seconds`` included — beside the
        data-graph counts.  ``graph_index["summary_ratio"]`` is data-graph
        vertices and edges per summary element, the compression the
        Section VI-C complexity argument relies on."""
        data = {k: float(v) for k, v in self.graph.stats().items()}
        graph_index = self.summary.stats()
        data_elements = sum(
            data[name]
            for name in (
                "entities", "classes", "values", "relation_edges", "attribute_edges"
            )
        )
        graph_index["summary_ratio"] = data_elements / max(
            graph_index["vertices"] + graph_index["edges"], 1
        )
        return {
            "keyword_index": self.keyword_index.stats(),
            "graph_index": graph_index,
            "data_graph": data,
        }

    def data_stats(self) -> Dict[str, int]:
        """``/stats`` ``data``: the live triples, and a loaded bundle's
        in-memory overlay over its runs (0 for a constructed engine)."""
        overlay = self.store.overlay_stats() if self.index_tier == "mmap" else {}
        return {"triples": len(self.graph), "delta_triples": 0, "tombstones": 0, **overlay}

    def exploration_stats(self) -> Dict[str, int]:
        """How this engine's explorations started (``/stats``
        ``exploration``): ``seeded`` ran Algorithm 2 from a threshold read
        off the connectivity tables, ``seed_fallbacks`` of them refuted it
        and were repeated without — correct either way, but each one is a
        second exploration somebody should look at."""
        return self._seeds.snapshot()

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss statistics of the query-time memo layers (the numbers
        the service's ``/stats`` endpoint reports as cache hit rates)."""
        stats = {"keyword_lookups": self.keyword_index.cache_stats()}
        # The plan LRU of the current summary version and the results its
        # plans keep (their counters start over when the version moves).
        substrate = self.summary.built_substrate()
        kept = self.search_cache_size
        plans = substrate.plans if substrate is not None else LruDict(
            max(ExplorationSubstrate.MAX_PLANS, kept)
        )
        if kept > 0:
            held = [plan.results for plan in plans.oldest_first()]
            stats["search_results"] = cache_stats_shape(
                sum(map(len, held)), kept,
                sum(r.hits for r in held), sum(r.misses for r in held),
            )
        stats["plans"] = plans.cache_stats()
        return stats

    def __repr__(self):
        return (
            f"KeywordSearchEngine(triples={len(self.graph)}, "
            f"cost_model={self.cost_model.name!r}, k={self.k})"
        )
