"""Flat query mapping == the closure-based reference, subgraph by subgraph.

``repro.core.query_mapping.map_to_query`` orders edges from the subgraph's
one canonical element order, hands out variables from a preallocated
tuple, deduplicates atoms as bare triples and builds the query through a
trusted constructor.  ``tests/reference_query_mapping.py`` is the mapper it
replaced.  Responses are byte-compared against a parent commit only while
that commit is at hand; this suite keeps the comparison in the repository:
the same atoms in the same order, the same distinguished tuple (variable
*names* included — they reach the payload), or the same exception type.

Two sources of subgraphs: everything ``explore_top_k`` hands to Task 5 on
the shipped workloads of all four datasets under every cost model, and
arbitrary element subsets of the unit suite's all-edge-kinds graph, which
reach what exploration never produces (disconnected sets, a lone Thing
vertex, a dangling value).
"""

import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_query_mapping import map_to_query as reference_map_to_query

from repro.core import engine as engine_module
from repro.core.engine import KeywordSearchEngine
from repro.core.query_mapping import map_to_query
from repro.core.subgraph import MatchingSubgraph
from repro.datasets.workloads import (
    dblp_effectiveness_workload,
    dblp_performance_queries,
    example_effectiveness_workload,
    lubm_effectiveness_workload,
    tap_effectiveness_workload,
)
from repro.rdf.graph import DataGraph
from repro.rdf.terms import Literal, URI
from repro.summary.overlay import OverlaySummaryGraph
from repro.summary.summary_graph import SummaryGraph

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "unit"))
from test_query_mapping import build_graph, chain_graph, chain_subgraph  # noqa: E402

WORKLOADS = {
    "example": example_effectiveness_workload,
    "dblp": lambda: dblp_effectiveness_workload() + dblp_performance_queries(),
    "lubm": lubm_effectiveness_workload,
    "tap": tap_effectiveness_workload,
}


def outcome(mapper, *args, **kwargs):
    """What a mapper did, in comparable form."""
    try:
        query = mapper(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return query.atoms, query.distinguished


@contextmanager
def checked_mapping(seen):
    """Every subgraph the engine maps inside the block goes through both
    mappers; ``seen`` counts them by outcome kind."""

    def both(subgraph, graph, **kwargs):
        expected = outcome(reference_map_to_query, subgraph, graph, **kwargs)
        assert outcome(map_to_query, subgraph, graph, **kwargs) == expected, subgraph
        seen["mapped" if isinstance(expected, tuple) else "refused"] += 1
        return map_to_query(subgraph, graph, **kwargs)

    production = engine_module.map_to_query
    engine_module.map_to_query = both
    try:
        yield
    finally:
        engine_module.map_to_query = production


@pytest.fixture(scope="module")
def graphs(example_graph, dblp_small, lubm_small, tap_small):
    return {
        "example": example_graph, "dblp": dblp_small,
        "lubm": lubm_small, "tap": tap_small,
    }


@pytest.mark.parametrize("cost_model", ["c1", "c2", "c3"])
@pytest.mark.parametrize("dataset", sorted(WORKLOADS))
def test_flat_mapper_equals_the_reference_on_every_explored_subgraph(
    dataset, cost_model, graphs
):
    engine = KeywordSearchEngine(
        DataGraph(graphs[dataset].triples), cost_model=cost_model,
        search_cache_size=0,
    )
    seen = {"mapped": 0, "refused": 0}
    with checked_mapping(seen):
        for workload_query in WORKLOADS[dataset]():
            for k in (1, 10, 50):
                engine.search(" ".join(workload_query.keywords), k=k)
    assert seen["mapped"] >= len(WORKLOADS[dataset]()), seen


GRAPH, KEYS = build_graph()
ELEMENTS = sorted(KEYS.values(), key=repr)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.sampled_from(ELEMENTS), min_size=1))
def test_flat_mapper_equals_the_reference_on_arbitrary_element_sets(elements):
    subgraph = MatchingSubgraph(min(elements, key=repr), [sorted(elements, key=repr)], 1.0)
    expected = outcome(reference_map_to_query, subgraph, GRAPH)
    assert outcome(map_to_query, subgraph, GRAPH) == expected
    if isinstance(expected, tuple) and expected[1]:
        # An explicit projection goes through the validating constructor.
        kept = expected[1][:1]
        assert outcome(map_to_query, subgraph, GRAPH, distinguished=kept) == outcome(
            reference_map_to_query, subgraph, GRAPH, distinguished=kept
        )


@pytest.mark.parametrize(
    "names",
    [
        ["pub", "loop"],  # self-loop: the target is the loop-target variable
        ["res", "subclass", "person"],
        ["res", "thing_rel", "thing"],
        ["pub"], ["value"], ["artificial"], ["thing"],  # isolated vertices
        ["pub", "value"],  # the anchor reuses the class vertex's variable
        ["loop", "author", "year", "name", "subclass", "thing_rel"],  # edges only
    ],
)
def test_flat_mapper_equals_the_reference_on_the_named_shapes(names):
    subgraph = MatchingSubgraph(KEYS[names[0]], [[KEYS[n] for n in names]], 1.0)
    expected = outcome(reference_map_to_query, subgraph, GRAPH)
    assert outcome(map_to_query, subgraph, GRAPH) == expected
    if names == ["pub", "loop"]:
        assert [v.name for v in expected[1]] == ["x", "y"]
    if names == ["thing"]:
        assert isinstance(expected, type)


def test_dangling_value_and_numbered_variables():
    orphaned = OverlaySummaryGraph(SummaryGraph())
    orphan = orphaned.add_value_vertex(Literal("x")).key
    lone = MatchingSubgraph(orphan, [[orphan]], 1.0)
    assert outcome(map_to_query, lone, orphaned) == outcome(
        reference_map_to_query, lone, orphaned
    )
    # Past the preallocated variables (x .. x32) the numbering continues.
    chain, vertices, edges = chain_graph(40)
    subgraph = chain_subgraph(vertices, edges)
    expected = outcome(reference_map_to_query, subgraph, chain, type_predicate=URI("u:t"))
    assert outcome(map_to_query, subgraph, chain, type_predicate=URI("u:t")) == expected
    assert [v.name for v in expected[1]][5:8] == ["w", "x7", "x8"]
    assert expected[1][-1].name == "x40"
