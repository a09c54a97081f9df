"""Unit tests for the Algorithm 1 exploration."""

import pytest

from reference_exploration import Cursor, _best_combinations

from repro.core import exploration
from repro.core.exploration import explore_top_k, iter_combinations
from repro.rdf.terms import URI
from repro.summary.augmentation import AugmentedSummaryGraph
from repro.summary.elements import SummaryEdgeKind
from repro.summary.summary_graph import SummaryGraph


def build_line_graph(n=4, label="p"):
    """Class vertices C0 — C1 — … — C(n-1) joined by relation edges."""
    graph = SummaryGraph()
    keys = []
    for i in range(n):
        vertex = graph.add_class_vertex(URI(f"c:{i}"), agg_count=1)
        keys.append(vertex.key)
    edges = []
    for i in range(n - 1):
        edge = graph.add_edge(
            URI(f"e:{label}{i}"), SummaryEdgeKind.RELATION, keys[i], keys[i + 1]
        )
        edges.append(edge.key)
    return graph, keys, edges


def augmented_for(graph, keyword_elements, scores=None):
    return AugmentedSummaryGraph(
        graph, [set(ks) for ks in keyword_elements], scores or {}
    )


def uniform_costs(graph, cost=1.0):
    out = {v.key: cost for v in graph.vertices}
    out.update({e.key: cost for e in graph.edges})
    return out


class TestBasics:
    def test_two_keywords_on_line(self):
        graph, keys, edges = build_line_graph(3)
        augmented = augmented_for(graph, [[keys[0]], [keys[2]]])
        result = explore_top_k(augmented, uniform_costs(graph), k=1)
        assert len(result.subgraphs) == 1
        sg = result.subgraphs[0]
        # The unique connecting structure is the whole line.
        assert sg.elements == frozenset(keys) | frozenset(edges)
        assert sg.cost == pytest.approx(3.0 + 3.0)  # two paths meeting mid

    def test_single_keyword_returns_cheapest_elements(self):
        graph, keys, _ = build_line_graph(3)
        costs = uniform_costs(graph)
        costs[keys[1]] = 0.5
        augmented = augmented_for(graph, [[keys[0], keys[1]]])
        result = explore_top_k(augmented, costs, k=1)
        assert result.subgraphs[0].elements == frozenset({keys[1]})

    def test_no_keywords(self):
        graph, _, _ = build_line_graph(2)
        result = explore_top_k(augmented_for(graph, []), uniform_costs(graph), k=3)
        assert result.subgraphs == []
        assert result.terminated_by == "no-keywords"

    def test_empty_keyword_sets_skipped(self):
        graph, keys, _ = build_line_graph(3)
        augmented = augmented_for(graph, [[], [keys[0]]])
        result = explore_top_k(augmented, uniform_costs(graph), k=1)
        assert len(result.subgraphs) == 1

    def test_unreachable_keywords_yield_nothing(self):
        graph = SummaryGraph()
        a = graph.add_class_vertex(URI("c:a")).key
        b = graph.add_class_vertex(URI("c:b")).key  # no edges at all
        augmented = augmented_for(graph, [[a], [b]])
        result = explore_top_k(augmented, uniform_costs(graph), k=2)
        assert result.subgraphs == []
        assert result.terminated_by == "exhausted"

    def test_overlapping_keyword_elements(self):
        graph, keys, _ = build_line_graph(2)
        augmented = augmented_for(graph, [[keys[0]], [keys[0]]])
        result = explore_top_k(augmented, uniform_costs(graph), k=1)
        assert result.subgraphs[0].elements == frozenset({keys[0]})

    @pytest.mark.parametrize("pinned", [True, False, 0])
    def test_use_vectorized_accepts_none_only(self, pinned):
        """One implementation computes bound tables; the keyword is left
        for an old caller that passes ``None``, and nothing else."""
        graph, keys, _ = build_line_graph(3)
        augmented = augmented_for(graph, [[keys[0]], [keys[2]]])
        costs = uniform_costs(graph)
        default = explore_top_k(augmented, costs, k=1)
        passed = explore_top_k(augmented, costs, k=1, use_vectorized=None)
        assert [sg.elements for sg in passed.subgraphs] == [
            sg.elements for sg in default.subgraphs
        ]
        with pytest.raises(TypeError, match="use_vectorized"):
            explore_top_k(augmented, costs, k=1, use_vectorized=pinned)


class TestOrderingAndK:
    def test_results_ascending_cost(self):
        graph, keys, _ = build_line_graph(6)
        augmented = augmented_for(graph, [[keys[0]], [keys[5], keys[2]]])
        result = explore_top_k(augmented, uniform_costs(graph), k=5)
        costs = [sg.cost for sg in result.subgraphs]
        assert costs == sorted(costs)

    def test_k_bounds_results(self):
        graph, keys, _ = build_line_graph(6)
        augmented = augmented_for(graph, [[keys[0]], [keys[5]]])
        result = explore_top_k(augmented, uniform_costs(graph), k=3)
        assert len(result.subgraphs) <= 3

    def test_cheaper_costs_win(self):
        # Diamond: two routes from A to C; one strictly cheaper.
        graph = SummaryGraph()
        a = graph.add_class_vertex(URI("c:a")).key
        b1 = graph.add_class_vertex(URI("c:b1")).key
        b2 = graph.add_class_vertex(URI("c:b2")).key
        c = graph.add_class_vertex(URI("c:c")).key
        e1 = graph.add_edge(URI("e:1"), SummaryEdgeKind.RELATION, a, b1).key
        e2 = graph.add_edge(URI("e:2"), SummaryEdgeKind.RELATION, b1, c).key
        e3 = graph.add_edge(URI("e:3"), SummaryEdgeKind.RELATION, a, b2).key
        e4 = graph.add_edge(URI("e:4"), SummaryEdgeKind.RELATION, b2, c).key
        costs = uniform_costs(graph)
        costs[b2] = 5.0  # route through b2 is expensive
        augmented = augmented_for(graph, [[a], [c]])
        result = explore_top_k(augmented, costs, k=1)
        assert b1 in result.subgraphs[0].elements
        assert b2 not in result.subgraphs[0].elements


class TestDmax:
    def test_dmax_limits_path_length(self):
        graph, keys, _ = build_line_graph(6)
        augmented = augmented_for(graph, [[keys[0]], [keys[5]]])
        # Connecting needs paths of up to 10 elements; dmax=3 forbids it.
        result = explore_top_k(augmented, uniform_costs(graph), k=1, dmax=3)
        assert result.subgraphs == []

    def test_dmax_allows_exact_boundary(self):
        graph, keys, _ = build_line_graph(3)  # 5 elements end to end
        augmented = augmented_for(graph, [[keys[0]], [keys[2]]])
        # Paths meet at the middle vertex: each path has distance 2.
        result = explore_top_k(augmented, uniform_costs(graph), k=1, dmax=2)
        assert len(result.subgraphs) == 1


class TestTermination:
    def test_threshold_termination(self):
        graph, keys, _ = build_line_graph(8)
        augmented = augmented_for(graph, [[keys[0]], [keys[1]]])
        result = explore_top_k(augmented, uniform_costs(graph), k=1)
        assert result.terminated_by == "threshold"

    def test_missing_cost_raises(self):
        graph, keys, _ = build_line_graph(2)
        augmented = augmented_for(graph, [[keys[0]]])
        with pytest.raises(KeyError):
            explore_top_k(augmented, {}, k=1)

    def test_non_positive_cost_rejected(self):
        graph, keys, _ = build_line_graph(2)
        augmented = augmented_for(graph, [[keys[0]]])
        costs = uniform_costs(graph)
        costs[keys[0]] = 0.0
        with pytest.raises(ValueError):
            explore_top_k(augmented, costs, k=1)


class TestCyclicGraphs:
    def test_cycle_explored_without_hanging(self):
        graph = SummaryGraph()
        keys = [graph.add_class_vertex(URI(f"c:{i}")).key for i in range(4)]
        for i in range(4):
            graph.add_edge(
                URI(f"e:{i}"), SummaryEdgeKind.RELATION, keys[i], keys[(i + 1) % 4]
            )
        augmented = augmented_for(graph, [[keys[0]], [keys[2]]])
        result = explore_top_k(augmented, uniform_costs(graph), k=4)
        assert result.subgraphs
        # Two shortest routes around the cycle tie.
        assert result.subgraphs[0].cost == result.subgraphs[1].cost

    def test_self_loop_edge(self):
        graph = SummaryGraph()
        a = graph.add_class_vertex(URI("c:a")).key
        loop = graph.add_edge(URI("e:loop"), SummaryEdgeKind.RELATION, a, a).key
        augmented = augmented_for(graph, [[loop], [a]])
        result = explore_top_k(augmented, uniform_costs(graph), k=1)
        assert result.subgraphs
        assert loop in result.subgraphs[0].elements


class TestBestCombinations:
    """The reference enumerator (``tests/reference_exploration.py``) that
    ``TestIterCombinations`` and the identity suites compare against."""

    def cursors(self, costs, keyword=0):
        return [Cursor.origin_cursor(f"n{i}", keyword, c) for i, c in enumerate(costs)]

    def test_yields_ascending_costs(self):
        lists = [self.cursors([1.0, 2.0, 5.0]), self.cursors([1.0, 3.0], 1)]
        combos = list(_best_combinations(lists))
        costs = [c for c, _ in combos]
        assert costs == sorted(costs)
        assert len(combos) == 6

    def test_exhaustive_over_all_tuples(self):
        lists = [self.cursors([1.0, 2.0, 3.0]), self.cursors([1.0, 2.0, 3.0], 1)]
        assert len(list(_best_combinations(lists))) == 9

    def test_first_combo_is_cheapest(self):
        lists = [self.cursors([2.0, 1.5]), self.cursors([4.0, 0.5], 1)]
        # Lists are expected ascending; emulate registration order.
        lists = [sorted(l, key=lambda c: c.cost) for l in lists]
        cost, combo = next(_best_combinations(lists))
        assert cost == pytest.approx(2.0)

    def test_empty_list_yields_nothing(self):
        assert list(_best_combinations([[], self.cursors([1.0])])) == []

    def test_cutoff_yields_every_combination_below_it(self):
        """With a cut-off, the generator still enumerates every combination
        cheaper than the bound, in ascending order — pruning only trims
        frontier state the caller could never consume."""
        lists = [self.cursors([1.0, 2.0, 5.0]), self.cursors([1.0, 3.0, 4.0], 1)]
        unbounded = [(c, tuple(t)) for c, t in _best_combinations(lists)]
        bound = 6.0
        bounded = [(c, tuple(t)) for c, t in _best_combinations(lists, lambda: bound)]
        expected = [entry for entry in unbounded if entry[0] < bound]
        # The first combination is always yielded (pruning applies to
        # successors); beyond that, exactly the below-bound prefix.
        assert bounded[0] == unbounded[0]
        assert [e for e in bounded if e[0] < bound] == expected

    def test_cutoff_bounds_frontier_allocation(self):
        """Long per-keyword lists must not allocate a quadratic frontier
        when the cut-off is already tight."""
        import heapq as heapq_module

        lists = [self.cursors([float(i + 1) for i in range(60)]),
                 self.cursors([float(i + 1) for i in range(60)], 1)]
        pushes = 0
        original = heapq_module.heappush

        def counting_push(heap, item):
            nonlocal pushes
            pushes += 1
            return original(heap, item)

        heapq_module.heappush = counting_push
        try:
            consumed = 0
            for cost, _ in _best_combinations(lists, lambda: 5.0):
                if cost >= 5.0:
                    break
                consumed += 1
            bounded_pushes = pushes

            pushes = 0
            for cost, _ in _best_combinations(lists):
                if cost >= 5.0:
                    break
            unbounded_pushes = pushes
        finally:
            heapq_module.heappush = original

        assert consumed > 0
        # Without the bound the consumer's early break still leaves a
        # frontier proportional to what was pushed; the bound keeps pushes
        # to the few below-cut-off successors.
        assert bounded_pushes < unbounded_pushes
        assert bounded_pushes <= 2 * consumed + 2


def _indexed(cost_lists):
    """``(lists, w)`` in ``iter_combinations``' shape: cursor indices per
    keyword over one flat cost list."""
    w = [cost for costs in cost_lists for cost in costs]
    lists, start = [], 0
    for costs in cost_lists:
        lists.append(list(range(start, start + len(costs))))
        start += len(costs)
    return lists, w


def _unbounded():
    return float("inf")


class TestIterCombinations:
    """The enumerator that ships, in its three shapes: no wide list (one
    tuple), one wide list (an ascending scan), two or more (the frontier
    heap)."""

    def test_yields_ascending_costs(self):
        lists, w = _indexed([[1.0, 2.0, 5.0], [1.0, 3.0]])
        combos = list(iter_combinations(lists, w, _unbounded))
        costs = [c for c, _ in combos]
        assert costs == sorted(costs)
        assert len(set(t for _, t in combos)) == 6

    def test_exhaustive_over_all_tuples(self):
        lists, w = _indexed([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert len(list(iter_combinations(lists, w, _unbounded))) == 9

    def test_first_combo_is_cheapest(self):
        lists, w = _indexed([[1.5, 2.0], [0.5, 4.0]])
        cost, combo = next(iter_combinations(lists, w, _unbounded))
        assert cost == pytest.approx(2.0)
        assert combo == (0, 2)

    def test_no_wide_list_is_one_tuple(self):
        lists, w = _indexed([[1.0], [2.0], [4.0]])
        assert list(iter_combinations(lists, w, _unbounded)) == [(7.0, (0, 1, 2))]

    def test_one_wide_list_is_an_ascending_scan(self):
        lists, w = _indexed([[1.0], [2.0, 3.0, 7.0], [4.0]])
        # The scan ignores the cut-off: its consumer breaks on it.
        assert list(iter_combinations(lists, w, lambda: 0.0)) == [
            (7.0, (0, 1, 4)),
            (8.0, (0, 2, 4)),
            (12.0, (0, 3, 4)),
        ]

    def test_cutoff_yields_every_combination_below_it(self):
        lists, w = _indexed([[1.0, 2.0, 5.0], [1.0, 3.0, 4.0]])
        unbounded = list(iter_combinations(lists, w, _unbounded))
        bound = 6.0
        bounded = list(iter_combinations(lists, w, lambda: bound))
        # The first combination is always yielded (pruning applies to
        # successors); beyond that, exactly the below-bound prefix.
        assert bounded[0] == unbounded[0]
        assert [e for e in bounded if e[0] < bound] == [
            e for e in unbounded if e[0] < bound
        ]

    def test_cutoff_bounds_frontier_allocation(self, monkeypatch):
        """Long per-keyword lists must not allocate a quadratic frontier
        when the cut-off is already tight."""
        lists, w = _indexed([[float(i + 1) for i in range(60)]] * 2)
        pushes = []
        original = exploration.heappush

        def counting_push(heap, item):
            pushes.append(item)
            return original(heap, item)

        monkeypatch.setattr(exploration, "heappush", counting_push)

        def consume(cutoff):
            del pushes[:]
            consumed = 0
            for cost, _ in iter_combinations(lists, w, cutoff):
                if cost >= 5.0:
                    break
                consumed += 1
            return consumed, len(pushes)

        consumed, bounded_pushes = consume(lambda: 5.0)
        _, unbounded_pushes = consume(_unbounded)
        assert consumed > 0
        assert bounded_pushes < unbounded_pushes
        assert bounded_pushes <= 2 * consumed + 2

    @pytest.mark.parametrize(
        "cost_lists",
        [
            # Chained successor sums differ from fresh sums in the last ulp
            # on 43 of these 48 combinations.
            [
                [0.8, 1.0, 1.3499999999999999, 4.199999999999999],
                [0.7000000000000001, 1.4, 1.8, 5.6],
                [0.6, 0.7, 1.2],
            ],
            [[0.1], [0.2, 0.30000000000000004, 0.7], [0.6]],
            [[0.1], [0.7]],
        ],
        ids=["heap", "scan", "single"],
    )
    def test_stream_equals_the_reference_value_for_value(self, cost_lists):
        """Same costs — ``==`` on floats, not approx — and the same
        tuples in the same order as ``_best_combinations``."""
        lists, w = _indexed(cost_lists)
        cursor_lists = [
            [Cursor.origin_cursor(ix, kw, w[ix]) for ix in lst]
            for kw, lst in enumerate(lists)
        ]
        for bound in (float("inf"), 3.0):
            expected = [
                (cost, tuple(c.element for c in combo))
                for cost, combo in _best_combinations(cursor_lists, lambda: bound)
            ]
            assert list(iter_combinations(lists, w, lambda: bound)) == expected
        if len(cost_lists) == 3 and len(cost_lists[0]) > 1:
            fresh = [sum(w[ix] for ix in combo) for _, combo in expected]
            assert fresh != [cost for cost, _ in expected]


class TestDiagnostics:
    def test_counters_populated(self):
        graph, keys, _ = build_line_graph(5)
        augmented = augmented_for(graph, [[keys[0]], [keys[4]]])
        result = explore_top_k(augmented, uniform_costs(graph), k=2)
        assert result.cursors_created > 0
        assert result.cursors_popped > 0
        assert result.max_queue_size > 0
        assert "ExplorationResult" in repr(result)
