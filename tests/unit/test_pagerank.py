"""Unit tests for PageRank scoring over the summary graph."""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets.example import EX
from repro.query.isomorphism import canonical_form
from repro.rdf.graph import DataGraph
from repro.scoring.pagerank import PageRankCost, pagerank
from repro.summary.augmentation import augment
from repro.summary.summary_graph import SummaryGraph


@pytest.fixture(scope="module")
def summary(example_graph):
    return SummaryGraph.from_data_graph(example_graph)


def test_ranks_sum_to_one(summary):
    ranks = pagerank(summary)
    assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)


def test_all_vertices_ranked(summary):
    ranks = pagerank(summary)
    assert set(ranks) == {v.key for v in summary.vertices}


def test_sink_of_subclass_chain_ranks_high(summary):
    # Agent receives subclass edges from Institute and Person.
    ranks = pagerank(summary)
    assert ranks[("class", EX.Agent)] > ranks[("class", EX.Publication)]


def test_empty_graph():
    assert pagerank(SummaryGraph()) == {}


def test_cost_model_produces_positive_costs(summary):
    augmented = augment(summary, [])
    costs = PageRankCost().element_costs(augmented)
    assert len(costs) == len(summary)
    assert all(c > 0 for c in costs.values())


def test_highest_ranked_vertex_is_cheapest(summary):
    augmented = augment(summary, [])
    ranks = pagerank(summary)
    costs = PageRankCost().element_costs(augmented)
    best = max(ranks, key=ranks.get)
    vertex_costs = {v.key: costs[v.key] for v in summary.vertices}
    assert vertex_costs[best] == min(vertex_costs.values())


TAP_QUERIES = ("musician album", "city country", "person name", "company product")
DBLP_QUERIES = (
    "conference 2005", "article john", "proceedings title", "journal 2003 author"
)


@pytest.mark.parametrize(
    "fixture_name, queries",
    [("tap_small", TAP_QUERIES), ("dblp_small", DBLP_QUERIES)],
)
def test_costs_do_not_depend_on_how_the_summary_was_built(
    request, tmp_path, fixture_name, queries
):
    """Constructed, loaded and maintained engines over the same triples
    hold their summaries in different insertion orders; PageRank sums in
    canonical order, so every candidate costs the same bits on all three."""
    triples = request.getfixturevalue(fixture_name).triples
    constructed = KeywordSearchEngine(DataGraph(triples), cost_model="pagerank")
    constructed.save(tmp_path / "b.reprobundle")
    loaded = KeywordSearchEngine.load(tmp_path / "b.reprobundle", attach_wal=False)
    half = len(triples) // 2
    maintained = KeywordSearchEngine(DataGraph(triples[:half]), cost_model="pagerank")
    maintained.add_triples(triples[half:])

    def costs(engine, query):
        return [(canonical_form(c.query), c.cost) for c in engine.search(query).candidates]

    for query in queries:
        expected = costs(constructed, query)
        assert expected, query
        assert costs(loaded, query) == expected, query
        assert costs(maintained, query) == expected, query
