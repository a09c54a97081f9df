"""Mapping matching subgraphs to conjunctive queries (Section VI-D).

Every subgraph vertex gets a distinct variable; its label can serve as a
constant.  The paper's mapping rules are applied exhaustively:

* **A-edge to a matched V-vertex** → ``type(var(v1), constant(v1))`` and
  ``e(var(v1), constant(v2))`` — the literal becomes a query constant.
* **A-edge to the artificial ``value`` node** → ``type(var(v1), c(v1))``
  and ``e(var(v1), var(value))`` — the value stays a free variable.
* **R-edge** → ``type`` atoms for both endpoints plus
  ``e(var(v1), var(v2))``.

Documented deviations (docs/architecture.md "Documented deviations"):
``type(x, Thing)`` atoms are dropped (Thing aggregates exactly the
*untyped* entities, so the atom would never hold in the data), and
subclass edges map to the ground atom
``subclass(constant(v1), constant(v2))`` — the paper omits their rule, and
the instance-level reading would be unsatisfiable.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.core.subgraph import MatchingSubgraph
from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.terms import Literal, URI, Variable
from repro.summary.elements import SummaryEdgeKind, SummaryVertexKind
from repro.summary.summary_graph import SummaryGraph


class QueryMappingError(ValueError):
    """Raised when a subgraph cannot be expressed as a conjunctive query."""


#: Variables in assignment order: six friendly names, then numbered ones.
#: Variables are immutable values, so every query shares these.
_VARIABLES: Tuple[Variable, ...] = tuple(
    Variable(name) for name in ("x", "y", "z", "u", "v", "w")
) + tuple(Variable(f"x{number}") for number in range(7, 33))


def _variable(assigned: Dict[Hashable, Variable], key: Hashable) -> Variable:
    """The variable of a vertex, assigned on first request."""
    variable = assigned.get(key)
    if variable is None:
        index = len(assigned)
        variable = assigned[key] = (
            _VARIABLES[index] if index < len(_VARIABLES) else Variable(f"x{index + 1}")
        )
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
    CLASS = SummaryVertexKind.CLASS
    VALUE = SummaryVertexKind.VALUE
    ARTIFICIAL = SummaryVertexKind.ARTIFICIAL
    vertex_of = graph.vertex
    # Deterministic order: edges, then uncovered vertices, each by the
    # stable string form of their keys.
    edge_keys, vertex_keys = subgraph.partition()
    variables: Dict[Hashable, Variable] = {}  # in assignment order
    # The atoms as (predicate, arg1, arg2), insertion-ordered and distinct:
    # two edges at one vertex both ask for its type atom.  A Thing vertex
    # gets none (documented deviation), so its variable is first assigned
    # by an edge's own atom.
    triples: Dict[Tuple, None] = {}
    covered = set()

    for edge_key in edge_keys:
        edge = graph.edge(edge_key)
        kind = edge.kind
        source_key = edge.source_key
        target_key = edge.target_key
        source = vertex_of(source_key)
        target = vertex_of(target_key)
        covered.add(source_key)
        covered.add(target_key)

        if kind is SummaryEdgeKind.SUBCLASS:
            if source.term is None or target.term is None:
                raise QueryMappingError("subclass edge with Thing endpoint")
            triples[(subclass_predicate, source.term, target.term)] = None
            continue
        if source.kind is CLASS:
            subject = _variable(variables, source_key)
            triples[(type_predicate, subject, source.term)] = None
        if kind is SummaryEdgeKind.ATTRIBUTE:
            subject = _variable(variables, source_key)
            if target.kind is VALUE:
                if not isinstance(target.term, Literal):  # pragma: no cover
                    raise QueryMappingError(f"value vertex without literal: {target!r}")
                triples[(edge.label, subject, target.term)] = None
            elif target.kind is ARTIFICIAL:
                triples[(edge.label, subject, _variable(variables, target_key))] = None
            else:
                raise QueryMappingError(
                    f"attribute edge into non-value vertex: {edge!r}"
                )
        elif kind is SummaryEdgeKind.RELATION:
            if source_key == target_key:
                # A class-level self-loop stands for instance pairs *within*
                # one class (a publication citing another publication), not
                # self-relations — give the target a fresh variable
                # (a documented deviation, docs/architecture.md).
                target_key = ("loop-target", edge_key)
            if target.kind is CLASS:
                obj = _variable(variables, target_key)
                triples[(type_predicate, obj, target.term)] = None
            subject = _variable(variables, source_key)
            triples[(edge.label, subject, _variable(variables, target_key))] = None
        else:  # pragma: no cover - enum is closed
            raise QueryMappingError(f"unknown edge kind {kind!r}")

    # Vertices not covered by any edge (single-element or degenerate
    # subgraphs) still need an anchoring atom.
    for vertex_key in vertex_keys:
        if vertex_key in covered:
            continue
        vertex = vertex_of(vertex_key)
        if vertex.kind is CLASS:
            subject = _variable(variables, vertex_key)
            triples[(type_predicate, subject, vertex.term)] = None
        elif vertex.kind is VALUE or vertex.kind is ARTIFICIAL:
            _anchor_value_vertex(vertex, graph, variables, triples, type_predicate)
        elif vertex.kind is SummaryVertexKind.THING:
            raise QueryMappingError(
                "subgraph consists only of the Thing vertex; no query derivable"
            )

    if not triples:
        raise QueryMappingError("subgraph produced no atoms")
    atoms = tuple([Atom(*triple) for triple in triples])
    if distinguished is not None:
        return ConjunctiveQuery(atoms, distinguished=distinguished)
    return ConjunctiveQuery.from_parts(atoms, tuple(variables.values()))


def _anchor_value_vertex(vertex, graph, variables, triples, type_predicate) -> None:
    """Anchor an isolated value vertex through its cheapest incident A-edge.

    Happens when every keyword maps to the same V-vertex: the subgraph is a
    single vertex, but a query needs the attribute and class context, which
    augmentation recorded as incident edges.
    """
    incident = graph.incident_edges(vertex.key)
    if not incident:
        raise QueryMappingError(f"value vertex {vertex!r} has no incident edges")
    edge = graph.edge(min(incident, key=repr))
    source = graph.vertex(edge.source_key)
    subject = _variable(variables, edge.source_key)
    if source.kind is SummaryVertexKind.CLASS:
        triples[(type_predicate, subject, source.term)] = None
    if vertex.kind is SummaryVertexKind.VALUE:
        triples[(edge.label, subject, vertex.term)] = None
    else:
        triples[(edge.label, subject, _variable(variables, vertex.key))] = None
