"""Unit tests for the numpy bound-table kernel (``repro.core.kernels``).

The kernel is an optional accelerator with a bit-identity contract: its
tables equal the Dijkstra's float for float, or it declines and the
Dijkstra runs.  These tests pin the contract at the kernel boundary and
the rule that selects it (numpy importable and the view large enough);
``tests/property/test_vectorized_identity.py`` pins it end-to-end through
the engine.  Only the tests that run the kernel need numpy.
"""

import builtins
import logging
import threading

import pytest

from repro.core import kernels
from repro.core.engine import KeywordSearchEngine
from repro.core.exploration import (
    _build_substrate_view,
    _completion_bounds,
    _view_row_of,
    explore_top_k,
)
from repro.datasets import running_example_graph
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF
from repro.rdf.terms import URI
from repro.rdf.triples import Triple
from repro.summary.augmentation import augment

try:
    import numpy as np
except ImportError:
    np = None

needs_numpy = pytest.mark.skipif(np is None, reason="runs the numpy kernel")


def _ring_graph(n, chord_step=3):
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


def _augmented(engine, query):
    matches = [m for m in engine.keyword_index.lookup_all(query.split()) if m]
    augmented = augment(engine.summary, matches)
    return augmented, engine.cost_model.element_costs(augmented)


def _bound_problem(engine, query):
    """``(m, seed_costs, view)`` — the inputs of both bound-table
    implementations — for one query, via the real stages."""
    augmented, costs = _augmented(engine, query)
    view = _build_substrate_view(augmented, costs)
    seed_costs = [
        {view.id_of(key): view.costs[view.id_of(key)] for key in elements}
        for elements in augmented.sorted_keyword_elements()
        if elements
    ]
    return len(seed_costs), seed_costs, view


def _dijkstra_bounds(m, seed_costs, view):
    return _completion_bounds(
        m, seed_costs, _view_row_of(view), view.costs, view.total
    )


def _ranking(result):
    return [(c.cost, str(c.query)) for c in result.candidates]


# ----------------------------------------------------------------------
# Status, with and without numpy
# ----------------------------------------------------------------------


@needs_numpy
def test_status_with_and_without_numpy(monkeypatch):
    loaded = kernels._np is not None  # whether an earlier test ran the kernel
    assert kernels.kernels_enabled()
    assert kernels.kernel_status() == {
        "numpy": np.__version__, "active": True, "loaded": loaded,
    }
    assert kernels.status_line() == f"kernels: numpy {np.__version__} (active)"

    monkeypatch.setattr(kernels, "_available", False)
    assert not kernels.kernels_enabled()
    assert kernels.kernel_status() == {
        "numpy": None, "active": False, "loaded": loaded,
    }
    assert "off" in kernels.status_line()


def test_numpy_version_is_read_off_the_dist_info_directory_name(monkeypatch, tmp_path):
    """The version in ``/stats`` and ``repro --version`` comes from one
    ``os.listdir`` beside the package: no numpy import, no
    ``importlib.metadata``; an install without the directory reads
    ``unknown``."""
    from importlib.machinery import ModuleSpec

    package = tmp_path / "site" / "numpy"
    package.mkdir(parents=True)
    spec = ModuleSpec("numpy", None, origin=str(package / "__init__.py"))
    monkeypatch.setattr(kernels, "find_spec", lambda name: spec)
    monkeypatch.setattr(kernels, "_available", True)

    monkeypatch.setattr(kernels, "_version", None)
    assert kernels._numpy_version() == "unknown"
    assert kernels.status_line() == "kernels: numpy unknown (active)"

    (tmp_path / "site" / "numpy-9.8.7rc1.dist-info").mkdir()
    (tmp_path / "site" / "numpy_quaternion-1.0.dist-info").mkdir()
    monkeypatch.setattr(kernels, "_version", None)
    assert kernels._numpy_version() == "9.8.7rc1"
    assert kernels.status_line() == "kernels: numpy 9.8.7rc1 (active)"


def test_disabled_kernels_still_explore_identically(monkeypatch, caplog):
    """The loop never needed numpy: with it unimportable the same search
    gives the same result, and nothing announces a "fallback"."""
    engine = KeywordSearchEngine(running_example_graph(), guided=True)
    reference = engine.search("cimiano 2006")
    monkeypatch.setattr(kernels, "_available", False)
    engine.summary.exploration_substrate().plans.clear()
    with caplog.at_level(logging.DEBUG):
        disabled = engine.search("cimiano 2006")
    assert _ranking(disabled) == _ranking(reference)
    assert not hasattr(kernels, "_log_fallback")
    assert not [r for r in caplog.records if "falling back" in r.getMessage()]


def test_small_view_never_touches_numpy(monkeypatch):
    """Below ``MIN_BOUNDS_TOTAL`` the size alone selects the Dijkstra:
    ``explore_top_k`` must not so much as look at the numpy module, so a
    poisoned one goes unnoticed."""

    class Poisoned:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} touched for a small view")

    engine = KeywordSearchEngine(running_example_graph(), guided=True)
    augmented, costs = _augmented(engine, "cimiano aifb")
    assert _build_substrate_view(augmented, costs).total < kernels.MIN_BOUNDS_TOTAL
    expected = explore_top_k(augmented, costs, k=5, use_vectorized=False)
    monkeypatch.setattr(kernels, "_np", Poisoned())
    monkeypatch.setattr(
        kernels, "_numpy", lambda: pytest.fail("numpy asked for on a small view")
    )
    got = explore_top_k(augmented, costs, k=5)
    assert [(sg.elements, sg.cost) for sg in got.subgraphs] == [
        (sg.elements, sg.cost) for sg in expected.subgraphs
    ]


def test_forcing_the_kernel_without_numpy_is_an_error(monkeypatch):
    engine = KeywordSearchEngine(running_example_graph(), guided=True)
    augmented, costs = _augmented(engine, "cimiano aifb")
    monkeypatch.setattr(kernels, "_available", False)
    with pytest.raises(ValueError, match="requires numpy"):
        explore_top_k(augmented, costs, use_vectorized=True)


# ----------------------------------------------------------------------
# The import happens on the first kernel use
# ----------------------------------------------------------------------
#
# `sys.modules` is process state and this file imports numpy itself, so
# "numpy is not loaded until ..." is asserted in fresh interpreters
# (tests/integration/test_import_budget.py).  What can be pinned here is
# the accessor: reset to "not imported yet", it imports once, says so
# once, and a failing import is one warning and the Dijkstra.


def _import_records(caplog):
    return [
        r for r in caplog.records
        if r.name == kernels.log.name and "numpy" in r.getMessage()
    ]


@needs_numpy
def test_eight_threads_crossing_the_threshold_import_once_and_agree(
    monkeypatch, caplog
):
    engine = KeywordSearchEngine(_ring_graph(300), guided=True)
    problem = _bound_problem(engine, "w000002 w000009")
    assert problem[2].total >= kernels.MIN_BOUNDS_TOTAL
    expected = _dijkstra_bounds(*problem)

    monkeypatch.setattr(kernels, "_np", None)  # as in a fresh process
    barrier = threading.Barrier(8)
    tables = [None] * 8

    def cross(i):
        barrier.wait()
        tables[i] = kernels.completion_bounds(*problem)

    with caplog.at_level(logging.INFO, logger=kernels.log.name):
        threads = [threading.Thread(target=cross, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert kernels._np is np
    assert all(table == expected for table in tables)
    (record,) = _import_records(caplog)
    assert record.levelno == logging.INFO and " ms" in record.getMessage()


def test_numpy_found_but_unimportable_is_one_warning_and_the_dijkstra(
    monkeypatch, caplog
):
    """A broken install: ``find_spec`` finds numpy, importing it raises."""
    real_import = builtins.__import__

    def broken(name, *args, **kwargs):
        if name == "numpy":
            raise ImportError("numpy: undefined symbol (simulated)")
        return real_import(name, *args, **kwargs)

    engine = KeywordSearchEngine(running_example_graph(), guided=True)
    augmented, costs = _augmented(engine, "cimiano aifb")
    costs = dict(costs)
    monkeypatch.setattr(kernels, "_available", False)
    without = explore_top_k(augmented, dict(costs), k=5)

    monkeypatch.setattr(kernels, "_available", True)
    monkeypatch.setattr(kernels, "_np", None)
    monkeypatch.setattr(builtins, "__import__", broken)
    with caplog.at_level(logging.INFO, logger=kernels.log.name):
        got = explore_top_k(augmented, costs, k=5, use_vectorized=True)
        assert not kernels.kernels_enabled()
        assert kernels.kernel_status() == {
            "numpy": None, "active": False, "loaded": False,
        }
        # From here on the install behaves as one without numpy.
        again = explore_top_k(augmented, dict(costs), k=5)
    (record,) = _import_records(caplog)
    assert record.levelno == logging.WARNING
    assert "undefined symbol" in record.getMessage()
    for result in (got, again):
        assert [(sg.elements, sg.cost) for sg in result.subgraphs] == [
            (sg.elements, sg.cost) for sg in without.subgraphs
        ]
        assert result.cursors_created == without.cursors_created


# ----------------------------------------------------------------------
# Zero-copy CSR views
# ----------------------------------------------------------------------


@needs_numpy
def test_csr_ndarrays_values_and_caching():
    engine = KeywordSearchEngine(_ring_graph(40), guided=True)
    substrate = engine.summary.exploration_substrate()
    offsets, targets = kernels.csr_ndarrays(substrate)
    assert offsets.dtype == np.int64 and targets.dtype == np.int64
    assert offsets.tolist() == list(substrate.offsets)
    assert targets.tolist() == list(substrate.targets)
    # Cached on the substrate: the views are built once.
    again = kernels.csr_ndarrays(substrate)
    assert again[0] is offsets and again[1] is targets


@needs_numpy
def test_csr_ndarrays_share_the_backing_buffer():
    engine = KeywordSearchEngine(_ring_graph(40), guided=True)
    substrate = engine.summary.exploration_substrate()
    offsets, _ = kernels.csr_ndarrays(substrate)
    if substrate.offsets.itemsize == 8:  # LP64: zero-copy view
        assert offsets.base is not None


# ----------------------------------------------------------------------
# Relaxation vs the Dijkstra oracle
# ----------------------------------------------------------------------


@needs_numpy
def test_completion_bounds_batch_matches_scalar_oracle():
    """Four queries on one substrate, one table set each: every keyword
    row of every table is the Dijkstra's, bit for bit."""
    engine = KeywordSearchEngine(_ring_graph(80), guided=True)
    for j in range(4):
        query = f"w{7 * j % 80:06d} w{(7 * j + 2) % 80:06d}"
        problem = _bound_problem(engine, query)
        table = kernels.completion_bounds(*problem)
        assert table is not None
        assert table == _dijkstra_bounds(*problem)  # bit-identical, not approx


@needs_numpy
def test_single_query_bounds_match_scalar_oracle():
    engine = KeywordSearchEngine(_ring_graph(60), guided=True)
    problem = _bound_problem(engine, "w000007 w000011")
    assert kernels.completion_bounds(*problem) == _dijkstra_bounds(*problem)


@needs_numpy
def test_nonconvergence_falls_back_to_scalar(monkeypatch):
    """A bare ring's diameter exceeds the sweep budget: the kernel must
    decline (None) rather than return a non-fixpoint table, and the
    engine — its view is above the threshold, so the kernel is tried —
    must still answer identically through the Dijkstra."""
    engine = KeywordSearchEngine(_ring_graph(400, chord_step=0), guided=True)
    m, seed_costs, view = _bound_problem(engine, "w000001 w000003")
    assert view.total >= kernels.MIN_BOUNDS_TOTAL
    assert kernels._max_sweeps(view.total) < view.total  # budget genuinely short
    assert kernels.completion_bounds(m, seed_costs, view) is None

    declined = engine.search("w000001 w000003")
    with monkeypatch.context() as without_numpy:
        without_numpy.setattr(kernels, "_available", False)
        engine.summary.exploration_substrate().plans.clear()
        dijkstra = engine.search("w000001 w000003")
    assert _ranking(declined) == _ranking(dijkstra)


@needs_numpy
def test_size_selects_the_kernel(monkeypatch):
    """The one rule: a table for a view of at least ``MIN_BOUNDS_TOTAL``
    elements comes from the kernel, a smaller one from the Dijkstra."""
    calls = []
    original = kernels.completion_bounds

    def recording(m, seed_costs, view):
        calls.append(view.total)
        return original(m, seed_costs, view)

    monkeypatch.setattr(kernels, "completion_bounds", recording)
    large = KeywordSearchEngine(_ring_graph(300), guided=True)
    large.search("w000002 w000009")
    assert calls and min(calls) >= kernels.MIN_BOUNDS_TOTAL
    del calls[:]
    KeywordSearchEngine(running_example_graph(), guided=True).search("cimiano 2006")
    assert calls == []


@needs_numpy
def test_relax_to_fixpoint_on_a_path_graph():
    """Hand-checkable case: a 4-element path with unit entry costs.  Both
    the sparse frontier path (one seeded row) and the dense sweep path
    (fully seeded row at its fixpoint) must land on the same answer."""
    # CSR for path 0-1-2-3 (symmetric, like the substrate's adjacency).
    offsets = np.array([0, 1, 3, 5, 6], dtype=np.int64)
    targets = np.array([1, 0, 2, 1, 3, 2], dtype=np.int64)
    n = 4
    cost_rows = np.ones((2, n))
    dist = np.full((2, n), np.inf)
    dist[0, 0] = 0.0  # sparse: a single seed
    dist[1] = [0.0, 1.0, 2.0, 3.0]  # dense: already the fixpoint
    out, ok = kernels._relax_to_fixpoint(
        dist, offsets, targets, cost_rows, n, None, kernels._max_sweeps(n)
    )
    assert ok
    assert out[0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert out[1].tolist() == [0.0, 1.0, 2.0, 3.0]


@needs_numpy
def test_relax_to_fixpoint_with_trailing_empty_row():
    """Regression: a trailing empty CSR row (an isolated element, e.g.
    left behind by a triple removal) must not truncate the *previous*
    row's reduceat segment in the dense sweep.  Star 0-2, 1-2 plus
    isolated element 3: the last non-empty row (2) has two sources, and
    a start index merely clipped in-bounds would silently drop the
    second one — leaving 2 (and everything behind it) at infinity."""
    offsets = np.array([0, 1, 2, 4, 4], dtype=np.int64)
    targets = np.array([2, 2, 0, 1], dtype=np.int64)
    n = 4
    cost_rows = np.ones((2, n))
    dist = np.full((2, n), np.inf)
    dist[0, 1] = 0.0  # only 2's *second* source is seeded
    dist[1] = [0.0, 4.0, np.inf, np.inf]
    out, ok = kernels._relax_to_fixpoint(
        dist, offsets, targets, cost_rows, n, None, kernels._max_sweeps(n)
    )
    assert ok
    assert out[0].tolist() == [2.0, 0.0, 1.0, np.inf]
    assert out[1].tolist() == [0.0, 2.0, 1.0, np.inf]


# ----------------------------------------------------------------------
# Forcing the kernel below the threshold
# ----------------------------------------------------------------------


@needs_numpy
def test_forced_vectorized_explores_identically_below_threshold():
    """``use_vectorized=True`` overrides MIN_BOUNDS_TOTAL: even on a tiny
    graph, exploring on the kernel's tables must match exploring on the
    Dijkstra's exactly."""
    engine = KeywordSearchEngine(running_example_graph(), guided=True)
    augmented, costs = _augmented(engine, "cimiano aifb")
    costs = dict(costs)
    assert len(engine.summary) < kernels.MIN_BOUNDS_TOTAL
    vec = explore_top_k(augmented, costs, k=5, guided=True, use_vectorized=True)
    ref = explore_top_k(augmented, costs, k=5, guided=True, use_vectorized=False)
    assert [sg.elements for sg in vec.subgraphs] == [sg.elements for sg in ref.subgraphs]
    assert [sg.cost for sg in vec.subgraphs] == [sg.cost for sg in ref.subgraphs]
    assert vec.cursors_created == ref.cursors_created
    assert vec.cursors_popped == ref.cursors_popped
    assert vec.cursors_pruned == ref.cursors_pruned
    assert vec.candidates_offered == ref.candidates_offered
    assert vec.terminated_by == ref.terminated_by
    assert vec.max_queue_size == ref.max_queue_size


@needs_numpy
def test_pinned_call_computes_its_own_tables(monkeypatch):
    """A pinned call neither reads nor stores the plan's tables: with the
    engine's own costs, after a default call has kept the Dijkstra's
    tables on the plan, ``use_vectorized=True`` still runs the kernel,
    and the plan keeps the tables it had."""
    engine = KeywordSearchEngine(running_example_graph(), guided=True)
    augmented, costs = _augmented(engine, "cimiano aifb")
    assert augmented.cost_memo  # the engine-shaped, memoized costs
    default = explore_top_k(augmented, costs, k=5)
    view = _build_substrate_view(augmented, costs)
    kept = view.tables
    assert kept is not None

    calls = []
    original = kernels.completion_bounds

    def spying(m, seed_costs, view):
        calls.append(view.total)
        return original(m, seed_costs, view)

    monkeypatch.setattr(kernels, "completion_bounds", spying)
    pinned = explore_top_k(augmented, costs, k=5, use_vectorized=True)
    assert len(calls) == 1
    assert view.tables is kept
    assert [sg.elements for sg in pinned.subgraphs] == [
        sg.elements for sg in default.subgraphs
    ]
    assert pinned.cursors_created == default.cursors_created
