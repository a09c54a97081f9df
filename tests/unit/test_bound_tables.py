"""Unit tests for the bound tables of guided exploration.

The per-keyword Dijkstra in :mod:`repro.core.exploration` is the one
implementation of the tables.  Small cases are checked by hand.  Wide
ring views, the shape of a schema with hundreds of classes, are checked
against the equations the tables solve: with positive element costs
those have exactly one solution, so a table that satisfies them is the
right one.
"""

from array import array

import pytest

from repro.core import exploration, kernels
from repro.core.engine import KeywordSearchEngine
from repro.core.exploration import (
    _boxed_costs,
    _build_substrate_view,
    _completion_bounds,
    _dijkstra_rows,
    _view_row_of,
    explore_top_k,
)
from repro.datasets import running_example_graph
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF
from repro.rdf.terms import URI
from repro.rdf.triples import Triple
from repro.summary.augmentation import augment

_INF = float("inf")


def _rows(adjacency):
    return lambda element: adjacency[element]


#: The path 0-1-2-3, both directions, like the substrate's adjacency.
PATH = _rows([(1,), (0, 2), (1, 3), (2,)])


def test_a_path_from_one_seed():
    """Entering an element adds its cost; the seed's own cost is given."""
    assert _dijkstra_rows({0: 0.0}, PATH, [1.0] * 4, 4) == [0.0, 1.0, 2.0, 3.0]
    assert _dijkstra_rows({0: 1.0}, PATH, [1.0] * 4, 4) == [1.0, 2.0, 3.0, 4.0]


def test_the_cheapest_of_several_seeds_wins():
    costs = [1.0, 2.0, 3.0, 4.0]
    # 3 is seeded at 1; 2 = 1 + 3, 1 = 4 + 2; 0 keeps its own seed 5 < 6 + 1.
    assert _dijkstra_rows({0: 5.0, 3: 1.0}, PATH, costs, 4) == [5.0, 6.0, 4.0, 1.0]


def test_an_isolated_element_stays_unreached():
    """The star 0-2, 1-2 and an isolated last element (an empty last
    row, as a triple removal can leave): 2 is reached from its second
    source, and 3 from nothing."""
    star = _rows([(2,), (2,), (0, 1), ()])
    assert _dijkstra_rows({1: 0.0}, star, [1.0] * 4, 4) == [2.0, 0.0, 1.0, _INF]


def test_completion_bounds_on_a_path_by_hand():
    """Keyword 0 at one end, keyword 1 at the other: ``dist_1`` is the
    mirror of ``dist_0``, and the bound of a keyword-0 cursor at 0,
    ``cost + L_0(0) - cost(0)``, is the cost of the whole path: tight."""
    bounds, dists = _completion_bounds(2, [{0: 1.0}, {3: 1.0}], PATH, [1.0] * 4, 4)
    assert dists == [array("d", [1, 2, 3, 4]), array("d", [4, 3, 2, 1])]
    assert bounds == [[4.0, 3.0, 2.0, 1.0], [1.0, 2.0, 3.0, 4.0]]
    assert 1.0 + bounds[0][0] - 1.0 == 4.0


def test_one_keyword_has_nothing_to_complete():
    bounds, dists = _completion_bounds(1, [{0: 1.0}], PATH, [1.0] * 4, 4)
    assert bounds == [[0.0] * 4]
    assert dists == [array("d", [1, 2, 3, 4])]


def test_a_keyword_out_of_reach_bounds_the_other_at_infinity():
    """Two components, one keyword in each: no cursor can complete, so
    every bound where a cursor can stand is infinite."""
    split = _rows([(1,), (0,), (3,), (2,)])
    bounds, dists = _completion_bounds(2, [{0: 1.0}, {3: 1.0}], split, [1.0] * 4, 4)
    assert dists == [array("d", [1, 2, _INF, _INF]), array("d", [_INF, _INF, 2, 1])]
    assert bounds == [[_INF, _INF, 2.0, 1.0], [1.0, 2.0, _INF, _INF]]


# ----------------------------------------------------------------------
# Wide views: rings of typed entities, one class per entity
# ----------------------------------------------------------------------


def _ring_graph(n, chord_step):
    triples = []
    for i in range(n):
        ent = URI(f"http://t.repro/ent/{i:06d}")
        triples.append(Triple(ent, RDF.type, URI(f"http://t.repro/cls/w{i:06d}")))
        triples.append(
            Triple(
                ent,
                URI("http://t.repro/rel/next"),
                URI(f"http://t.repro/ent/{(i + 1) % n:06d}"),
            )
        )
    if chord_step:
        for i in range(0, n, chord_step):
            triples.append(
                Triple(
                    URI(f"http://t.repro/ent/{i:06d}"),
                    URI("http://t.repro/rel/chord"),
                    URI(f"http://t.repro/ent/{(i * 7 + 3) % n:06d}"),
                )
            )
    return DataGraph(triples)


#: (entities, chord step, elements in the query's view): views of about
#: 500, 1,334 and 3,534 elements, and a bare ring whose diameter is half
#: its size.
RINGS = [(215, 3, 502), (572, 3, 1335), (1515, 3, 3535), (400, 0, 800)]
RING_IDS = ["ring-215", "ring-572", "ring-1515", "bare-ring-400"]
QUERY = "w000002 w000005"


def _ring_problem(n, chord_step):
    engine = KeywordSearchEngine(_ring_graph(n, chord_step), guided=True)
    matches = [m for m in engine.keyword_index.lookup_all(QUERY.split()) if m]
    augmented = augment(engine.summary, matches)
    costs = engine.cost_model.element_costs(augmented)
    view = _build_substrate_view(augmented, costs)
    seed_costs = [
        {view.id_of(key): view.costs[view.id_of(key)] for key in elements}
        for elements in augmented.sorted_keyword_elements()
        if elements
    ]
    return augmented, costs, view, seed_costs


def _solves_the_equations(table, seeds, in_rows, costs):
    """``table[v] == min(seeds[v], min(table[u] + costs[v] for u -> v))``
    at every element: the Dijkstra's floats, so ``==``, not approx."""
    return all(
        table[v] == min([seeds.get(v, _INF)] + [table[u] + costs[v] for u in in_rows[v]])
        for v in range(len(table))
    )


@pytest.mark.parametrize("n, chord_step, total", RINGS, ids=RING_IDS)
def test_wide_view_tables_solve_their_equations(n, chord_step, total):
    _, _, view, seed_costs = _ring_problem(n, chord_step)
    assert view.total == total
    row_of = _view_row_of(view)
    costs = _boxed_costs(view)
    in_rows = [[] for _ in range(view.total)]
    for u in range(view.total):
        for v in row_of(u):
            in_rows[v].append(u)
    bounds, dists = _completion_bounds(2, seed_costs, row_of, costs, view.total)

    for seeds, dist in zip(seed_costs, dists):
        assert _INF not in dist  # a ring is connected
        assert _solves_the_equations(dist, seeds, in_rows, costs)
    for i, bound in enumerate(bounds):
        other = dists[1 - i]
        assert _solves_the_equations(bound, dict(enumerate(other)), in_rows, costs)


@pytest.mark.parametrize("n, chord_step, total", RINGS, ids=RING_IDS)
def test_wide_view_guided_answer_is_the_unguided_one(n, chord_step, total):
    augmented, costs, _, _ = _ring_problem(n, chord_step)
    guided = explore_top_k(augmented, costs, k=5)
    unguided = explore_top_k(augmented, costs, k=5, guided=False)
    assert guided.subgraphs
    assert [(sg.elements, sg.cost) for sg in guided.subgraphs] == [
        (sg.elements, sg.cost) for sg in unguided.subgraphs
    ]


def test_tables_are_computed_once_and_kept_on_the_plans_view(monkeypatch):
    """With the engine's memoized costs, the first guided run keeps its
    tables on the view; a later run, at another ``k``, reads them."""
    engine = KeywordSearchEngine(running_example_graph(), guided=True)
    matches = [m for m in engine.keyword_index.lookup_all(["cimiano", "aifb"]) if m]
    augmented = augment(engine.summary, matches)
    costs = engine.cost_model.element_costs(augmented)
    assert augmented.cost_memo

    calls = []
    original = exploration._completion_bounds

    def spying(m, *rest):
        calls.append(m)
        return original(m, *rest)

    monkeypatch.setattr(exploration, "_completion_bounds", spying)
    first = explore_top_k(augmented, costs, k=5)
    view = _build_substrate_view(augmented, costs)
    kept = view.tables
    assert calls == [2] and kept is not None
    again = explore_top_k(augmented, costs, k=3)
    assert calls == [2] and view.tables is kept
    assert [sg.elements for sg in again.subgraphs] == [
        sg.elements for sg in first.subgraphs[:3]
    ]


def test_kernels_is_one_constant_status_line():
    """What is left of the removed numpy kernel: the line the benchmark
    harness records in its environment block, and nothing to call."""
    assert kernels.status_line() == "kernels: none (bound tables by Dijkstra)"
    assert [name for name in vars(kernels) if not name.startswith("_")] == [
        "status_line"
    ]
