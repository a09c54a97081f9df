"""Section VI-D's mapping rules, closure by closure: the oracle of the
query-mapping identity suite.

This is ``repro.core.query_mapping.map_to_query`` as it stood before it
became one flat loop — a ``_VariableNamer`` object, an ``_emit`` closure
that deduplicates :class:`Atom` objects, the edges and the uncovered
vertices each sorted by ``repr`` on the spot, and the public
``ConjunctiveQuery`` constructor — moved here verbatim, with the scans of
``MatchingSubgraph.edge_keys()`` / ``vertex_keys()`` of that commit
inlined so that the oracle reads nothing but ``subgraph.elements``.  Only
the exception class is shared with production, so that "raises the same
error" is a comparison of types.  ``test_query_mapping_identity.py``
requires the production mapper to return the same atoms in the same order
with the same distinguished tuple, or to raise the same exception type,
on every subgraph it is handed.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from repro.core.query_mapping import QueryMappingError
from repro.core.subgraph import MatchingSubgraph
from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.terms import Literal, Term, URI, Variable
from repro.summary.elements import (
    SummaryEdgeKind,
    SummaryVertexKind,
    is_edge_key,
)
from repro.summary.summary_graph import SummaryGraph


#: Friendly variable names in assignment order, then a numbered fallback.
_VAR_NAMES = ("x", "y", "z", "u", "v", "w")


class _VariableNamer:
    """Deterministic per-vertex variable assignment."""

    def __init__(self):
        self._assigned: Dict[Hashable, Variable] = {}

    def var(self, vertex_key: Hashable) -> Variable:
        existing = self._assigned.get(vertex_key)
        if existing is not None:
            return existing
        index = len(self._assigned)
        if index < len(_VAR_NAMES):
            name = _VAR_NAMES[index]
        else:
            name = f"x{index + 1}"
        variable = Variable(name)
        self._assigned[vertex_key] = variable
        return variable


def map_to_query(
    subgraph: MatchingSubgraph,
    graph: SummaryGraph,
    type_predicate: URI = RDF.type,
    subclass_predicate: URI = RDFS.subClassOf,
    distinguished: Optional[Sequence[Variable]] = None,
) -> ConjunctiveQuery:
    """Translate one matching subgraph into a conjunctive query.

    ``graph`` must be the augmented summary graph the subgraph was explored
    on (vertex/edge metadata is resolved through it).  All variables are
    distinguished unless a projection is given (Section VI-D's default).
    """
    namer = _VariableNamer()
    atoms: List[Atom] = []
    seen = set()

    def _emit(atom: Atom) -> None:
        if atom not in seen:
            seen.add(atom)
            atoms.append(atom)

    def _class_constant(vertex) -> Optional[Term]:
        if vertex.kind is SummaryVertexKind.CLASS:
            return vertex.term
        return None  # Thing: no type atom (documented deviation)

    def _emit_type_atom(vertex_key: Hashable, var_key: Optional[Hashable] = None) -> None:
        vertex = graph.vertex(vertex_key)
        constant = _class_constant(vertex)
        if constant is not None:
            _emit(Atom(type_predicate, namer.var(var_key or vertex_key), constant))

    # Deterministic edge order: sort by stable string form of the key.
    edge_keys = sorted((k for k in subgraph.elements if is_edge_key(k)), key=repr)
    covered_vertices = set()

    for edge_key in edge_keys:
        edge = graph.edge(edge_key)
        source = graph.vertex(edge.source_key)
        target = graph.vertex(edge.target_key)
        covered_vertices.add(edge.source_key)
        covered_vertices.add(edge.target_key)

        if edge.kind is SummaryEdgeKind.ATTRIBUTE:
            _emit_type_atom(edge.source_key)
            if target.kind is SummaryVertexKind.VALUE:
                if not isinstance(target.term, Literal):  # pragma: no cover
                    raise QueryMappingError(f"value vertex without literal: {target!r}")
                _emit(Atom(edge.label, namer.var(edge.source_key), target.term))
            elif target.kind is SummaryVertexKind.ARTIFICIAL:
                _emit(
                    Atom(
                        edge.label,
                        namer.var(edge.source_key),
                        namer.var(edge.target_key),
                    )
                )
            else:
                raise QueryMappingError(
                    f"attribute edge into non-value vertex: {edge!r}"
                )
        elif edge.kind is SummaryEdgeKind.RELATION:
            _emit_type_atom(edge.source_key)
            if edge.source_key == edge.target_key:
                # A class-level self-loop stands for instance pairs *within*
                # one class (a publication citing another publication), not
                # self-relations — give the target a fresh variable
                # (a documented deviation, docs/architecture.md).
                loop_key = ("loop-target", edge_key)
                _emit_type_atom(edge.target_key, var_key=loop_key)
                _emit(Atom(edge.label, namer.var(edge.source_key), namer.var(loop_key)))
            else:
                _emit_type_atom(edge.target_key)
                _emit(
                    Atom(
                        edge.label,
                        namer.var(edge.source_key),
                        namer.var(edge.target_key),
                    )
                )
        elif edge.kind is SummaryEdgeKind.SUBCLASS:
            if source.term is None or target.term is None:
                raise QueryMappingError("subclass edge with Thing endpoint")
            _emit(Atom(subclass_predicate, source.term, target.term))
        else:  # pragma: no cover - enum is closed
            raise QueryMappingError(f"unknown edge kind {edge.kind!r}")

    # Vertices not covered by any edge (single-element or degenerate
    # subgraphs) still need an anchoring atom.
    vertex_keys = {k for k in subgraph.elements if not is_edge_key(k)}
    for vertex_key in sorted(vertex_keys - covered_vertices, key=repr):
        vertex = graph.vertex(vertex_key)
        if vertex.kind is SummaryVertexKind.CLASS:
            _emit(Atom(type_predicate, namer.var(vertex_key), vertex.term))
        elif vertex.kind in (SummaryVertexKind.VALUE, SummaryVertexKind.ARTIFICIAL):
            _anchor_value_vertex(vertex_key, graph, namer, _emit, type_predicate)
        elif vertex.kind is SummaryVertexKind.THING:
            raise QueryMappingError(
                "subgraph consists only of the Thing vertex; no query derivable"
            )

    if not atoms:
        raise QueryMappingError("subgraph produced no atoms")
    return ConjunctiveQuery(atoms, distinguished=distinguished)


def _anchor_value_vertex(vertex_key, graph, namer, emit, type_predicate) -> None:
    """Anchor an isolated value vertex through its cheapest incident A-edge.

    Happens when every keyword maps to the same V-vertex: the subgraph is a
    single vertex, but a query needs the attribute and class context, which
    augmentation recorded as incident edges.
    """
    vertex = graph.vertex(vertex_key)
    incident = graph.incident_edges(vertex_key)
    if not incident:
        raise QueryMappingError(f"value vertex {vertex!r} has no incident edges")
    edge = graph.edge(sorted(incident, key=repr)[0])
    source = graph.vertex(edge.source_key)
    if source.kind is SummaryVertexKind.CLASS:
        emit(Atom(type_predicate, namer.var(edge.source_key), source.term))
    if vertex.kind is SummaryVertexKind.VALUE:
        emit(Atom(edge.label, namer.var(edge.source_key), vertex.term))
    else:
        emit(Atom(edge.label, namer.var(edge.source_key), namer.var(vertex_key)))
