"""Unit tests for the numpy exploration kernels (``repro.core.kernels``).

The kernels are an optional accelerator with a byte-identity contract:
every vectorized path must produce exactly what the pure-Python reference
produces — same bound tables, same subgraphs, same diagnostics — or
decline and fall back.  These tests pin the contract at the kernel
boundary; ``tests/property/test_vectorized_identity.py`` pins it
end-to-end through the engine.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core import kernels
from repro.core.engine import KeywordSearchEngine
from repro.core.exploration import (
    _completion_bounds,
    _view_row_of,
    explore_top_k,
    prepare_guided_request,
    prefuse_guided_bounds,
)
from repro.datasets import running_example_graph
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF
from repro.rdf.terms import URI
from repro.rdf.triples import Triple
from repro.summary.augmentation import augment


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


def _guided_requests(engine, queries):
    """(m, seed_costs, view, cache_key) per query, via the real stages."""
    prepared = []
    for query in queries:
        matches = [m for m in engine.keyword_index.lookup_all(query.split()) if m]
        augmented = augment(engine.summary, matches)
        costs = engine.cost_model.element_costs(augmented)
        request = prepare_guided_request(augmented, costs)
        assert request is not None
        prepared.append(request)
    return prepared


# ----------------------------------------------------------------------
# Status, with and without numpy
# ----------------------------------------------------------------------


def test_status_with_and_without_numpy(monkeypatch):
    assert kernels.kernels_enabled()
    assert kernels.kernel_status() == {"numpy": np.__version__, "active": True}
    assert "active" in kernels.status_line()

    monkeypatch.setattr(kernels, "_np", None)
    assert not kernels.kernels_enabled()
    assert kernels.kernel_status() == {"numpy": None, "active": False}
    assert "off" in kernels.status_line()


def test_disabled_kernels_still_explore_identically(monkeypatch):
    engine = KeywordSearchEngine(running_example_graph(), guided=True)
    reference = engine.search("cimiano 2006")
    monkeypatch.setattr(kernels, "_np", None)
    disabled = engine.search("cimiano 2006")
    assert [(c.cost, str(c.query)) for c in disabled.candidates] == [
        (c.cost, str(c.query)) for c in reference.candidates
    ]


# ----------------------------------------------------------------------
# Zero-copy CSR views
# ----------------------------------------------------------------------


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


def test_csr_ndarrays_share_the_backing_buffer():
    engine = KeywordSearchEngine(_ring_graph(40), guided=True)
    substrate = engine.summary.exploration_substrate()
    offsets, _ = kernels.csr_ndarrays(substrate)
    if substrate.offsets.itemsize == 8:  # LP64: zero-copy view
        assert offsets.base is not None


# ----------------------------------------------------------------------
# Fused relaxation vs the scalar oracle
# ----------------------------------------------------------------------


def test_completion_bounds_batch_matches_scalar_oracle():
    engine = KeywordSearchEngine(_ring_graph(80), guided=True)
    queries = [f"w{7 * j % 80:06d} w{(7 * j + 2) % 80:06d}" for j in range(4)]
    prepared = _guided_requests(engine, queries)
    batch = kernels.completion_bounds_batch([p[:3] for p in prepared])
    assert len(batch) == len(prepared)
    for (m, seed_costs, view, _), fused in zip(prepared, batch):
        assert fused is not None
        oracle = _completion_bounds(
            m, seed_costs, _view_row_of(view), view.costs, view.total
        )
        assert fused == oracle  # bit-identical, not approx


def test_single_query_bounds_match_scalar_oracle():
    engine = KeywordSearchEngine(_ring_graph(60), guided=True)
    (m, seed_costs, view, _), = _guided_requests(engine, ["w000007 w000011"])
    [fused] = kernels.completion_bounds_batch([(m, seed_costs, view)])
    assert fused == _completion_bounds(
        m, seed_costs, _view_row_of(view), view.costs, view.total
    )


def test_nonconvergence_falls_back_to_scalar(monkeypatch):
    """A bare ring's diameter exceeds the sweep budget: the kernel must
    decline (None) rather than return a non-fixpoint table, and the
    engine must still answer identically through the scalar fallback."""
    engine = KeywordSearchEngine(_ring_graph(400, chord_step=0), guided=True)
    (m, seed_costs, view, _), = _guided_requests(engine, ["w000001 w000003"])
    assert kernels._max_sweeps(view.total) < view.total  # budget genuinely short
    [fused] = kernels.completion_bounds_batch([(m, seed_costs, view)])
    assert fused is None

    vectorized = engine.search("w000001 w000003")
    with monkeypatch.context() as without_numpy:
        without_numpy.setattr(kernels, "_np", None)
        scalar = engine.search("w000001 w000003")
    assert [(c.cost, str(c.query)) for c in vectorized.candidates] == [
        (c.cost, str(c.query)) for c in scalar.candidates
    ]


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
# Prefusing through the exploration/engine layer
# ----------------------------------------------------------------------


def test_prefuse_populates_the_bounds_cache_once():
    engine = KeywordSearchEngine(_ring_graph(60), guided=True)
    substrate = engine.summary.exploration_substrate()
    queries = ["w000002 w000004", "w000009 w000011"]

    def requests():
        out = []
        for query in queries:
            matches = [m for m in engine.keyword_index.lookup_all(query.split()) if m]
            augmented = augment(engine.summary, matches)
            out.append((augmented, engine.cost_model.element_costs(augmented)))
        return out

    assert prefuse_guided_bounds(requests()) == 2
    # Second pass: every table is already cached.
    assert prefuse_guided_bounds(requests()) == 0
    substrate.clear_bounds()
    assert prefuse_guided_bounds(requests()) == 2


def test_prefuse_dedups_identical_queries():
    engine = KeywordSearchEngine(_ring_graph(60), guided=True)

    def requests():
        out = []
        for query in ["w000002 w000004"] * 3:
            matches = [m for m in engine.keyword_index.lookup_all(query.split()) if m]
            augmented = augment(engine.summary, matches)
            out.append((augmented, engine.cost_model.element_costs(augmented)))
        return out

    engine.summary.exploration_substrate().clear_bounds()
    assert prefuse_guided_bounds(requests()) == 1


def test_prefuse_on_snapshot_requires_guided():
    engine = KeywordSearchEngine(_ring_graph(60), guided=False)
    snapshot = engine.snapshot()
    assert engine.prefuse_bounds_on_snapshot(snapshot, ["w000002 w000004"]) == 0


def test_prefuse_on_snapshot_skips_malformed_queries():
    engine = KeywordSearchEngine(_ring_graph(60), guided=True)
    snapshot = engine.snapshot()
    count = engine.prefuse_bounds_on_snapshot(
        snapshot, ["", "   ", "zzz-no-such-keyword", "w000002 w000004"]
    )
    assert count == 1


def test_forced_vectorized_explores_identically_below_threshold():
    """``use_vectorized=True`` overrides MIN_BOUNDS_TOTAL: even on a tiny
    graph the kernel path must match the scalar reference exactly."""
    engine = KeywordSearchEngine(running_example_graph(), guided=True)
    matches = [m for m in engine.keyword_index.lookup_all(["cimiano", "aifb"]) if m]
    augmented = augment(engine.summary, matches)
    costs = engine.cost_model.element_costs(augmented)
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
