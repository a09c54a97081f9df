"""Unit tests for matching subgraphs."""

import pytest

from reference_exploration import Cursor, subgraph_from_cursors

from repro.core.subgraph import MatchingSubgraph


def test_from_cursors_merges_paths():
    c1 = Cursor.origin_cursor("k1", 0, 1.0).expand("e1", 1.0).expand("n", 1.0)
    c2 = Cursor.origin_cursor("k2", 1, 1.0).expand("e2", 1.0).expand("n", 1.0)
    sg = subgraph_from_cursors("n", [c1, c2])
    assert sg.connecting_element == "n"
    assert sg.elements == frozenset({"k1", "e1", "k2", "e2", "n"})


def test_cost_is_sum_of_path_costs():
    # Shared elements count once per path (Section V).
    c1 = Cursor.origin_cursor("k1", 0, 1.0).expand("n", 2.0)
    c2 = Cursor.origin_cursor("k2", 1, 0.5).expand("n", 2.0)
    sg = subgraph_from_cursors("n", [c1, c2])
    assert sg.cost == pytest.approx(3.0 + 2.5)


def test_requires_paths():
    with pytest.raises(ValueError):
        MatchingSubgraph("n", [], 0.0)


def test_canonical_key_is_element_set():
    sg1 = MatchingSubgraph("n", [["a", "n"], ["b", "n"]], 4.0)
    sg2 = MatchingSubgraph("b", [["n", "a"], ["b"]], 9.0)
    assert sg1.canonical_key == sg2.canonical_key


def test_translated():
    sg = MatchingSubgraph(1, [[0, 1], [2, 1]], 3.0)
    decoded = sg.translated(lambda i: f"el{i}")
    assert decoded.connecting_element == "el1"
    assert decoded.elements == frozenset({"el0", "el1", "el2"})
    assert decoded.cost == sg.cost
    assert decoded.paths == (("el0", "el1"), ("el2", "el1"))


def test_edge_and_vertex_keys():
    edge_key = ("edge", "label", ("class", "A"), ("class", "B"))
    sg = MatchingSubgraph(
        ("class", "A"), [[("class", "A"), edge_key, ("class", "B")]], 3.0
    )
    assert sg.edge_keys() == [edge_key]
    assert set(sg.vertex_keys()) == {("class", "A"), ("class", "B")}


def test_single_element_subgraph():
    sg = MatchingSubgraph("n", [["n"]], 1.0)
    assert sg.elements == frozenset({"n"})
    assert len(sg) == 1


def test_immutable():
    sg = MatchingSubgraph("n", [["n"]], 1.0)
    with pytest.raises(AttributeError):
        sg.cost = 0.0
