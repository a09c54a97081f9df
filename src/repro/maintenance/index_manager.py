"""Delta propagation through the offline layer (keyword index, summary
graph).

The offline structures are *derived* from the data graph:

* the **summary graph** aggregates instances into class vertices and
  projects every R-edge to class level (Definition 4);
* the **keyword index** maps analyzed labels of classes, edge labels, and
  values to elements, carrying the ``[V-vertex, A-edge, (C-vertex_1..n)]``
  neighbor structures (Section IV-A).

The triple store queries execute on is not among them: it is the data
graph's own (``graph.store``), so mutating the graph updates it.

:class:`IndexManager` maintains both under ``add_triples`` /
``remove_triples`` by *delta propagation*: from a batch of triple deltas
it computes the affected derived facts — classes whose instance sets
change, summary-edge projections of relation triples whose endpoint types
change, attribute-occurrence incidences whose class context changes — and
applies exactly those as counter adjustments and targeted re-indexing.
The adjustments are the constructors' own derivation
(:mod:`repro.rdf.derivation`) applied with a delta of -1 or +1.
Work is proportional to the delta and its neighborhood (the incident
edges of retyped entities), never to the size of the graph or its
indexes, and in particular never to how many triples share a predicate or
a value.

The trickiest dependency is type information: adding or removing a
``type`` triple for entity *e* changes ``types_of(e)``, which silently
moves **every** relation triple incident to *e* to different class-level
summary edges and shifts the class context of *e*'s attribute values in
the keyword index.  The manager therefore snapshots the old projections of
those incident triples before mutating the data graph, decrements them,
and re-increments under the new types afterwards.

Cached query-time state is invalidated on the way out: the summary graph's
mutation ``version`` advances (which expires the cost models' per-element
base-cost caches keyed on it), and the evaluator's selectivity statistics
are dropped.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.keyword.keyword_index import KeywordIndex
from repro.query.evaluator import QueryEvaluator
from repro.rdf.derivation import count_projections
from repro.rdf.graph import DataGraph, EdgeKind, VertexKind
from repro.rdf.namespace import LABEL_PREDICATES
from repro.rdf.terms import Literal, Term, URI
from repro.rdf.triples import Triple
from repro.summary.elements import THING_KEY, SummaryEdgeKind, edge_key
from repro.summary.summary_graph import _SUBCLASS_LABEL, SummaryGraph

#: (edge label, source class, target class; None = Thing) — one
#: class-level projection of a relation triple.
_Projection = Tuple[URI, Optional[Term], Optional[Term]]


class IndexManager:
    """Keeps the offline structures consistent under triple deltas.

    Parameters
    ----------
    graph:
        The data graph (mutated in place).
    keyword_index:
        The keyword index built over ``graph``.
    summary:
        The summary graph built over ``graph``.
    evaluator:
        Optional query evaluator whose cached statistics are invalidated
        after every update batch.
    """

    def __init__(
        self,
        graph: DataGraph,
        keyword_index: KeywordIndex,
        summary: SummaryGraph,
        evaluator: Optional[QueryEvaluator] = None,
    ):
        self.graph = graph
        self.keyword_index = keyword_index
        self.summary = summary
        self.evaluator = evaluator
        #: Monotone batch counter: the number of committed update epochs.
        #: Together with the summary/keyword-index version counters this
        #: is the serving layer's notion of "which state am I reading".
        self.epoch: int = 0
        self._epoch_hooks: List[
            Tuple[
                Optional[Callable[[int], None]],
                Optional[Callable[[int], None]],
                Optional[Callable[[int, Sequence[Triple], Sequence[Triple]], None]],
            ]
        ] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def add_epoch_hooks(
        self,
        begin: Optional[Callable[[int], None]] = None,
        commit: Optional[Callable[[int], None]] = None,
        record: Optional[
            Callable[[int, Sequence[Triple], Sequence[Triple]], None]
        ] = None,
    ) -> None:
        """Register begin/record/commit hooks bracketing every update batch.

        ``begin(epoch)`` runs before the batch touches *any* structure
        (even before the dedup read of the data graph); ``commit(epoch)``
        runs in a ``finally`` — after the batch on success, and on failure
        too — so a hook pair acquiring and releasing a writer lock can
        never deadlock the manager.  The serving layer uses exactly that
        to serialize writes and drain readers around each epoch, which
        covers updates issued directly through the engine as well.

        ``record(epoch, adds, removes)`` is the *write-ahead* hook: it
        runs after the batch is deduplicated against the data graph but
        before any structure mutates, and only for batches that will
        actually toggle triples (and therefore advance :attr:`epoch` on
        success).  The persistence layer's
        :class:`~repro.storage.wal.DeltaLog` appends the batch durably
        here; pairing it with ``commit`` — whose epoch argument reveals
        whether the batch committed (advanced) or failed (unchanged) —
        yields exactly write-ahead-logging semantics.
        """
        self._epoch_hooks.append((begin, commit, record))

    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Insert triples, propagating deltas; returns #actually added."""
        return self.apply_batch(adds=triples)

    def remove_triples(self, triples: Iterable[Triple]) -> int:
        """Remove triples, propagating deltas; returns #actually removed."""
        return self.apply_batch(removes=triples)

    def apply_batch(
        self, adds: Iterable[Triple] = (), removes: Iterable[Triple] = ()
    ) -> int:
        """Apply one atomic update epoch (removes then adds).

        Returns the number of triples actually toggled.  Epoch hooks
        bracket the whole application; a batch that toggles nothing still
        runs the hooks but does not advance :attr:`epoch`.
        """
        epoch = self.epoch
        for begin, _, _ in self._epoch_hooks:
            if begin is not None:
                begin(epoch)
        applied = False
        try:
            changed = self._apply(adds=adds, removes=removes)
            if changed:
                self.epoch += 1
            applied = True
            return changed
        finally:
            # Every commit hook runs even if an earlier one raises: the
            # hooks are independent resources (the WAL's commit marker,
            # the serving layer's writer-lock release), and skipping the
            # lock release because the log hit ENOSPC would wedge the
            # server forever.  The first hook failure is re-raised — but
            # only when the batch itself succeeded (explicit flag, not
            # sys.exc_info(), which would also see an unrelated exception
            # the *caller* happens to be handling), so it never masks the
            # in-flight exception.
            first_exc = None
            for _, commit, _ in self._epoch_hooks:
                if commit is not None:
                    try:
                        commit(self.epoch)
                    except BaseException as exc:
                        if first_exc is None:
                            first_exc = exc
            if first_exc is not None and applied:
                raise first_exc

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------

    def _apply(self, adds: Iterable[Triple], removes: Iterable[Triple]) -> int:
        graph = self.graph
        # Deduplicate and drop no-ops so every batch triple really toggles.
        adds, removes = graph.effective(adds, removes)
        if not adds and not removes:
            return 0

        # Write-ahead hooks: the deduplicated batch is now known to be
        # effective, but nothing has mutated yet — a delta log persisting
        # it here can redo the epoch after a crash at any later point.
        for _, _, record in self._epoch_hooks:
            if record is not None:
                record(self.epoch, adds, removes)

        # Added and removed triples by edge kind, in batch order.
        by_kind: Dict[EdgeKind, Tuple[List[Triple], List[Triple]]] = {
            kind: ([], []) for kind in EdgeKind
        }
        for side, triples in enumerate((adds, removes)):
            for t in triples:
                by_kind[graph.edge_kind(t)][side].append(t)
        type_adds, type_rems = by_kind[EdgeKind.TYPE]
        sub_adds, sub_rems = by_kind[EdgeKind.SUBCLASS]
        attr_adds, attr_rems = by_kind[EdgeKind.ATTRIBUTE]
        rel_adds, rel_rems = by_kind[EdgeKind.RELATION]

        # -- affected derived facts ------------------------------------
        type_changed: Set[Term] = {
            t.subject
            for t in chain(type_adds, type_rems)
            if not isinstance(t.object, Literal)
        }
        affected_classes: Set[Term] = set()
        for t in chain(type_adds, type_rems):
            if not isinstance(t.object, Literal):
                affected_classes.add(t.object)
        for t in chain(sub_adds, sub_rems):
            if not isinstance(t.subject, Literal) and not isinstance(t.object, Literal):
                affected_classes.add(t.subject)
                affected_classes.add(t.object)

        affected_rel_labels: Set[URI] = {t.predicate for t in chain(rel_adds, rel_rems)}

        # Relation triples whose class-level projection moves because an
        # endpoint is retyped; attribute incidences whose class context
        # moves for the same reason.
        reproject: Set[Triple] = set()
        reattribute: Set[Triple] = set()
        for e in type_changed:
            for p, o in graph.outgoing(e):
                if isinstance(o, Literal):
                    reattribute.add(Triple(e, p, o))
                else:
                    reproject.add(Triple(e, p, o))
            for p, s in graph.incoming(e):
                reproject.add(Triple(s, p, e))
        reproject.difference_update(rel_rems)
        reattribute.difference_update(attr_rems)

        # -- decrements under OLD types (snapshotted pre-mutation) ------
        # Summary projections, and (label, value, classes, delta) events
        # for the keyword index's class contexts.
        edge_delta: Dict[_Projection, int] = {}
        occurrence_events: List[Tuple] = []

        def contribute(relations, attributes, delta: int) -> None:
            # Each subject's types once per side of the mutation.
            memo: Dict[Term, FrozenSet[Term]] = {}

            def types(subject: Term) -> FrozenSet[Term]:
                found = memo.get(subject)
                if found is None:
                    found = memo[subject] = graph.types_of(subject)
                return found

            for t in relations:
                count_projections(
                    edge_delta, t.predicate, types(t.subject), types(t.object), delta
                )
            occurrence_events.extend(
                (t.predicate, t.object, types(t.subject), delta) for t in attributes
            )

        contribute(chain(rel_rems, reproject), chain(attr_rems, reattribute), -1)

        # -- mutate the data graph -------------------------------------
        # All-or-nothing: a rejected triple (strict-mode violation) leaves
        # the data graph as it was, so it never drifts from the
        # not-yet-updated indexes.
        before = graph.preferred_type_predicate, graph.preferred_subclass_predicate
        graph.apply(adds, removes)

        # -- increments under NEW types --------------------------------
        contribute(chain(rel_adds, reproject), chain(attr_adds, reattribute), +1)

        # Propagation failures past this point would be internal invariant
        # bugs; surface them with an explicit recovery instruction instead
        # of letting the engine serve silently diverged indexes.
        try:
            self._update_summary(affected_classes, edge_delta, sub_adds, sub_rems)
            self._update_keyword_index(
                affected_classes,
                affected_rel_labels,
                occurrence_events,
                chain(attr_adds, attr_rems),
            )
        except Exception as exc:
            raise RuntimeError(
                "offline-index delta propagation failed after the data graph "
                "was updated; the derived indexes may have diverged — rebuild "
                "the engine from the data graph"
            ) from exc
        # Query mapping writes the preferred type and subclass predicates:
        # changing one moves the summary version, so the plans mapped with it.
        after = graph.preferred_type_predicate, graph.preferred_subclass_predicate
        if after != before:
            self.summary.version += 1
        if self.evaluator is not None:
            self.evaluator.invalidate_statistics()

        return len(adds) + len(removes)

    # ------------------------------------------------------------------
    # Summary graph
    # ------------------------------------------------------------------

    def _update_summary(
        self,
        affected_classes: Set[Term],
        edge_delta: Dict[_Projection, int],
        sub_adds: Sequence[Triple],
        sub_rems: Sequence[Triple],
    ) -> None:
        graph, summary = self.graph, self.summary

        # Class vertices first (new edges may anchor on them).
        for cls in affected_classes:
            key = summary.class_key(cls)
            if graph.vertex_kind(cls) is VertexKind.CLASS:
                agg = graph.instance_count(cls)
                if summary.has_element(key):
                    summary.set_vertex_agg_count(key, agg)
                else:
                    summary.add_class_vertex(cls, agg_count=agg)

        # Thing aggregates the untyped entities; its count moves whenever
        # entities appear, disappear, or are (un)typed.
        untyped = graph.untyped_entity_count
        if untyped > 0 or summary.has_element(THING_KEY):
            summary.ensure_thing(agg_count=untyped)

        # Relation-edge projections.
        for (label, sc, tc), delta in edge_delta.items():
            if delta == 0:
                continue
            if delta > 0 and (sc is None or tc is None):
                summary.ensure_thing(agg_count=graph.untyped_entity_count)
            summary.adjust_edge_agg_count(
                label,
                SummaryEdgeKind.RELATION,
                summary.class_key(sc),
                summary.class_key(tc),
                delta,
            )

        # Subclass edges mirror the direct subclass pairs.
        for t in sub_rems:
            sub, sup = t.subject, t.object
            key = edge_key(
                _SUBCLASS_LABEL, summary.class_key(sub), summary.class_key(sup)
            )
            if sup not in graph.superclasses_of(sub) and summary.has_element(key):
                summary.remove_edge(key)
        for t in sub_adds:
            sub, sup = t.subject, t.object
            if isinstance(sub, Literal) or isinstance(sup, Literal):
                continue
            if sup in graph.superclasses_of(sub):
                summary.add_edge(
                    _SUBCLASS_LABEL,
                    SummaryEdgeKind.SUBCLASS,
                    summary.class_key(sub),
                    summary.class_key(sup),
                    agg_count=1,
                )

        # Drop vertices whose class disappeared (their edges are gone by
        # now: no instances and no subclass pairs can remain).
        for cls in affected_classes:
            key = summary.class_key(cls)
            if graph.vertex_kind(cls) is not VertexKind.CLASS and summary.has_element(key):
                summary.remove_vertex(key)
        if (
            graph.untyped_entity_count == 0
            and summary.has_element(THING_KEY)
            and summary.degree(THING_KEY) == 0
        ):
            summary.remove_vertex(THING_KEY)

        stats = graph.stats()
        summary.set_totals(
            stats["entities"], stats["relation_edges"], stats["attribute_edges"]
        )

    # ------------------------------------------------------------------
    # Keyword index
    # ------------------------------------------------------------------

    def _update_keyword_index(
        self,
        affected_classes: Set[Term],
        affected_rel_labels: Set[URI],
        occurrence_events: Iterable[Tuple],
        attr_delta: Iterable[Triple],
    ) -> None:
        index = self.keyword_index
        for cls in affected_classes:
            index.refresh_class(cls)
        # A label-bearing attribute triple can change the display label a
        # class is indexed under.
        for t in attr_delta:
            if t.predicate in LABEL_PREDICATES and t.subject not in affected_classes:
                index.refresh_class(t.subject)
        for label in affected_rel_labels:
            index.refresh_relation_label(label)
        for label, value, classes, delta in occurrence_events:
            index.adjust_attribute_occurrence(label, value, classes, delta)
