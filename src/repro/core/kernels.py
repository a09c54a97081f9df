"""The numpy relaxation kernel for guided bound tables.

This module is what numpy buys :mod:`repro.core.exploration`, and it is
one thing: the per-keyword completion-bound tables of a large view are
computed by batched relaxation sweeps instead of per-keyword Dijkstras.
The exploration loop itself is pure Python and lives in
:mod:`repro.core.exploration`; it runs the same on every install.  The
contract here is **bit-identical tables**: :func:`completion_bounds`
returns exactly the floats ``exploration._completion_bounds`` returns,
or declines (``None``) and the caller runs the Dijkstra.

* **CSR ndarray views** (:func:`csr_ndarrays`): ``numpy.frombuffer`` over
  the substrate's flat ``array('l')`` rows.  No copy, no translation:
  the kernel reads the exact bytes the Dijkstra reads.
* **Relaxation sweeps** (:func:`completion_bounds`): the per-keyword
  Dijkstra sweeps become Bellman-style relaxation over all of a query's
  seed rows at once — a row gather ``dist[:, targets]``, an
  ``np.minimum.reduceat`` per-row merge, and a broadcast cost add,
  iterated to fixpoint.  This is bit-identical to Dijkstra because (1)
  Dijkstra's output is the least fixpoint of
  ``dist[v] = min(seed[v], min_{u in row(v)} fl(dist[u] + cost[v]))``,
  (2) IEEE-754 round-to-nearest addition is monotone in each argument,
  so ``min_u fl(dist[u] + c) == fl((min_u dist[u]) + c)`` exactly —
  min-then-add equals add-then-min — and (3) the sweep iteration starts
  above the fixpoint and decreases monotonically onto it.

Which implementation computes a table is decided in
``exploration._bounds_for`` from what the code can observe: numpy
importable and the view at least :data:`MIN_BOUNDS_TOTAL` elements.

**numpy is imported on the first kernel use, not with this module.**  No
shipped dataset has a view that wide, so a process that builds, serves or
works the benchmark never runs the kernel — and should not pay numpy's
import (~0.15 s, 9-16 MB) to find that out.  Importing this module only
asks ``importlib.util.find_spec`` whether numpy is installed (and the
status helpers read its version off a directory name); the first
:func:`completion_bounds` / :func:`csr_ndarrays` call of a process — the
first wide view, or a test's ``use_vectorized=True`` — imports it through
:func:`_numpy`, once, and logs how long that took.  An install where
numpy is found but does not import (a broken binary wheel) logs one
warning, reports ``kernels_enabled() == False`` from then on and keeps the
Dijkstra tables, exactly as when the kernel declines a graph.  Apart
from the three status helpers, nothing here runs without numpy
(``pip install repro[fast]``).
"""

from __future__ import annotations

import logging
import os
import threading
from array import array
from importlib.util import find_spec
from typing import Dict, List, Optional

from repro.util import now

log = logging.getLogger(__name__)

#: Can the kernel run: numpy is installed (asked without importing it),
#: and — once tried — its import did not fail.
_available = find_spec("numpy") is not None
#: The numpy module, from the first :func:`_numpy` call on — the module
#: object itself, bound to a local by each function that sweeps with it;
#: no proxy stands in for it.
_np = None
_version: Optional[str] = None
_import_lock = threading.Lock()

_INF = float("inf")

#: Bound tables go through the relaxation kernel when the per-query id
#: space has at least this many elements.  The value is conservative, not
#: a measured break-even: on synthetic summaries (3 keywords, random
#: relations) the kernel is 3.4x ahead of the Dijkstra at 484 elements and
#: 4.4x / 5.3x / 5.9x at 1,334 / 3,534 / 11,034; on the shipped data it is
#: ~1.3x ahead on DBLP-8000's 28-87-element views and ties on TAP's
#: 124-138 (per-table-set medians, table in CHANGES.md under PR 20).  No
#: benchmark workload has a summary this large, so moving the value is a
#: perf change that needs its own workload (see ROADMAP.md).  The first
#: view this wide in a process also pays numpy's import, once (~0.15 s).
#: ``explore_top_k`` can be told to ignore the value, which is how the
#: tests run the kernel on small graphs.
MIN_BOUNDS_TOTAL = 512


def _numpy():
    """The numpy module, imported on the first call of the process;
    ``None`` when the install has none or its import raised."""
    global _np, _available
    if _np is None and _available:
        with _import_lock:
            if _np is None and _available:
                started = now()
                try:
                    import numpy
                except Exception as exc:  # ImportError, or a broken binary
                    _available = False
                    log.warning(
                        "numpy is installed but its import failed (%s: %s); "
                        "bound tables stay with the scalar Dijkstra",
                        type(exc).__name__, exc,
                    )
                else:
                    _np = numpy
                    log.info(
                        "imported numpy %s for the bound-table kernel in %.0f ms",
                        numpy.__version__,
                        1000 * (now() - started),
                    )
    return _np


def _numpy_version() -> Optional[str]:
    """The installed numpy's version, read off the name of the
    ``numpy-<version>.dist-info`` directory beside the package — asking
    the module would import it, and ``importlib.metadata`` would import
    ``email.parser`` (2.4 MB) into a worker to parse a file whose one
    needed field is already in that name.  ``"unknown"`` for an install
    without the directory (a source checkout on ``sys.path``)."""
    global _version
    if not _available:
        return None
    if _version is None:
        version = "unknown"
        spec = find_spec("numpy")
        if spec is not None and spec.origin:
            site = os.path.dirname(os.path.dirname(spec.origin))
            try:
                names = os.listdir(site)
            except OSError:
                names = []
            for name in names:
                if name.startswith("numpy-") and name.endswith(".dist-info"):
                    version = name[len("numpy-") : -len(".dist-info")]
                    break
        _version = version
    return _version


def kernels_enabled() -> bool:
    """True when the bound-table kernel can run: the optional numpy
    extra is importable."""
    return _available


def kernel_status() -> Dict[str, object]:
    """Machine-readable kernel state for ``/stats`` and diagnostics:
    the installed numpy, whether the kernel can run, and whether this
    process has had a view wide enough to import it."""
    return {
        "numpy": _numpy_version(),
        "active": _available,
        "loaded": _np is not None,
    }


def status_line() -> str:
    """One-line kernel state for ``repro --version`` and the benchmark
    harness's run header."""
    if not _available:
        return "kernels: off (numpy not installed; pip install repro[fast])"
    return f"kernels: numpy {_numpy_version()} (active)"


# ----------------------------------------------------------------------
# Zero-copy CSR ndarray views
# ----------------------------------------------------------------------


def _as_int64(buf):
    """An int64 ndarray over an ``array('l')`` — zero-copy on LP64, where
    its items are 8 bytes, an explicit copy otherwise."""
    if buf.itemsize == 8:
        return _np.frombuffer(buf, dtype=_np.int64)
    return _np.array(buf, dtype=_np.int64)  # pragma: no cover - ILP32 only


def _as_float64(buf):
    """A float64 ndarray over ``buf`` (``array('d')`` is always 8 bytes)."""
    try:
        return _np.frombuffer(buf, dtype=_np.float64)
    except (ValueError, BufferError):  # pragma: no cover - odd buffers
        return _np.array(buf, dtype=_np.float64)


def csr_ndarrays(substrate):
    """``(offsets, targets)`` int64 views of a substrate's CSR arrays.

    Cached on the substrate (its arrays are immutable once built); both
    views share the underlying buffer.
    """
    if _numpy() is None:
        raise RuntimeError("numpy is not available")
    cached = substrate.ndarray_views()
    if cached is None:
        cached = (_as_int64(substrate.offsets), _as_int64(substrate.targets))
        substrate.adopt_ndarray_views(cached)
    return cached


# ----------------------------------------------------------------------
# Batched relaxation sweeps (guided bound tables)
# ----------------------------------------------------------------------


def _max_sweeps(width: int) -> int:
    """Sweep budget before declaring non-convergence.  Each sweep extends
    every shortest path by one hop, so the budget is a diameter bound; a
    graph deeper than this (a bare ring, say) falls back to the
    Dijkstra rather than sweeping forever — the "high diameter" row of
    the fallback matrix."""
    return 64 + 2 * int(width ** 0.5)


def _relax_to_fixpoint(dist, offsets, targets, cost_rows, n, patches, max_sweeps):
    """Iterate ``dist[v] = min(dist[v], min_{u in row(v)} dist[u] + cost[v])``
    to its least fixpoint, all rows at once.

    ``dist`` is ``R x width`` (one row per seed set); ``cost_rows`` is
    ``R x n`` (the per-element costs, one copy per row).  ``patches`` applies the overlay's extra
    edges — ``(prow, psrc, pdst, pcost)`` parallel arrays meaning "row
    ``prow`` may enter ``pdst`` from ``psrc`` at ``pcost``" — alongside
    the base CSR adjacency.  Returns ``(dist, converged)``.

    Each iteration is either a **dense sweep** (row gather +
    ``np.minimum.reduceat`` over every element, right when most of the
    matrix is in motion — e.g. the phase-2 pass, whose seeds are already
    near their fixpoint everywhere) or a **sparse frontier push** (relax
    only the out-edges of elements whose distance changed last iteration
    — the few-seeds phase-1 regime, where a dense sweep would redo the
    whole graph ``diameter`` times over).  The push direction uses the
    same CSR rows as the pull: summary-graph adjacency is symmetric
    (exploration is undirected), and the overlay patch generator emits
    both directions of every extra edge.  Either step applies the same
    monotone relaxation equation, so the least fixpoint — the value
    Dijkstra computes, see the module docstring — is reached bit-exactly
    regardless of which steps ran; only the iteration count differs.
    """
    np = _numpy()
    n_rows, width = dist.shape
    n_edges = int(targets.shape[0])
    if n_edges:
        starts = offsets[:-1]
        empty = starts == offsets[1:]
        any_empty = bool(empty.any())
        if any_empty:
            # reduceat over only the non-empty rows: their starts are
            # strictly increasing and in-bounds, and because empty rows
            # contribute no positions, each surviving segment spans
            # exactly its own edges.  (Clipping a trailing empty row's
            # start to n_edges-1 instead would silently truncate the
            # last non-empty row's segment.)
            nonempty = ~empty
            ne_starts = starts[nonempty]
    if patches is not None:
        prow, psrc, pdst, pcost = patches
        pflat = prow * width + psrc
    flat = dist.reshape(-1)
    cflat = cost_rows.reshape(-1)
    # The frontier is a flat-index array (touched this iteration) plus a
    # mirror boolean for O(1) patch-source membership; iteration cost
    # scales with the frontier, never with R x width.
    infront = flat < _INF
    fidx = np.flatnonzero(infront)
    # A sparse push costs ~frontier_bits x avg_degree scattered relaxations
    # vs the dense sweep's R x E contiguous ones; the scatter's per-element
    # overhead is roughly an order of magnitude higher, hence the /8.
    dense_cutoff = max(1, (n_rows * max(n, 1)) // 8)
    for _ in range(max_sweeps):
        if fidx.size == 0:
            return dist, True
        if fidx.size >= dense_cutoff:
            new = dist.copy()
            if n_edges:
                if any_empty:
                    seg = np.full((n_rows, n), _INF)
                    seg[:, nonempty] = np.minimum.reduceat(
                        dist[:, targets], ne_starts, axis=1
                    )
                else:
                    seg = np.minimum.reduceat(dist[:, targets], starts, axis=1)
                np.minimum(dist[:, :n], seg + cost_rows, out=new[:, :n])
            if patches is not None:
                np.minimum.at(new, (prow, pdst), dist[prow, psrc] + pcost)
            infront = (new != dist).reshape(-1)
            fidx = np.flatnonzero(infront)
            dist = new
            flat = dist.reshape(-1)
            continue
        # Sparse push: candidates from the base rows of frontier sources
        # < n, plus every patch edge whose source is in the frontier.
        if patches is not None:
            psel = infront[pflat]
        infront[fidx] = False
        moved = []
        if n_edges:
            fu = fidx % width
            if width == n:
                # No overlay extras: flat dist and flat cost coincide and
                # every frontier source has a base CSR row.
                fidx_b = fidx
            else:
                base = fu < n
                if not base.all():
                    fu = fu[base]
                    fidx_b = fidx[base]
                else:
                    fidx_b = fidx
            lens = offsets[fu + 1] - offsets[fu]
            total = int(lens.sum())
            if total:
                within = np.arange(total) - np.repeat(
                    np.cumsum(lens) - lens, lens
                )
                pos = np.repeat(offsets[fu], lens) + within
                # flat destination = row_base + target element; cost row
                # base = r * n — both derived per-source, then repeated.
                row_base = fidx_b - fu
                ev = targets[pos]
                edst = np.repeat(row_base, lens) + ev
                if width == n:
                    cand = flat[np.repeat(fidx_b, lens)] + cflat[edst]
                else:
                    cand = flat[np.repeat(fidx_b, lens)] + cflat[
                        np.repeat(row_base // width * n, lens) + ev
                    ]
                improving = cand < flat[edst]
                if improving.any():
                    edst, cand = edst[improving], cand[improving]
                    np.minimum.at(flat, edst, cand)
                    moved.append(edst)
        if patches is not None and psel.any():
            ps, pd, pc = pflat[psel], prow[psel] * width + pdst[psel], pcost[psel]
            cand = flat[ps] + pc
            improving = cand < flat[pd]
            if improving.any():
                pd, cand = pd[improving], cand[improving]
                np.minimum.at(flat, pd, cand)
                moved.append(pd)
        if moved:
            # Sort+diff dedup: numpy's hash-based `unique` has ~200us of
            # per-call overhead on integer dtypes, dwarfing these arrays.
            touched = np.sort(
                moved[0] if len(moved) == 1 else np.concatenate(moved)
            )
            if touched.size > 1:
                keep = np.empty(touched.shape, dtype=bool)
                keep[0] = True
                np.not_equal(touched[1:], touched[:-1], out=keep[1:])
                touched = touched[keep]
            fidx = touched
            infront[fidx] = True
        else:
            fidx = fidx[:0]
    return dist, fidx.size == 0


def overlay_patch_arrays(view):
    """The overlay's extra adjacency as relaxation patch edges.

    ``view.rows`` holds the merged replacement rows: the full row of every
    overlay extra, and base rows extended with overlay edge ids (always
    ``>= n`` — `_build_substrate_view` only ever appends extras to base
    rows).  A patch edge ``(src, dst, cost)`` relaxes entry into ``dst``
    at ``cost == costs[dst]``; base-to-base adjacency stays with the CSR
    sweep.  Cached on the view (and the view is itself cached per overlay
    signature on the substrate).
    """
    cached = view.np_patches
    if cached is not False:
        return cached
    n = view.substrate.n
    costs = view.costs
    src: List[int] = []
    dst: List[int] = []
    pc: List[float] = []
    for v, row in view.rows.items():
        cost_v = costs[v]
        if v >= n:
            for u in row:
                src.append(u)
                dst.append(v)
                pc.append(cost_v)
        else:
            for u in row:
                if u >= n:
                    src.append(u)
                    dst.append(v)
                    pc.append(cost_v)
    if src:
        cached = (
            _np.array(src, dtype=_np.int64),
            _np.array(dst, dtype=_np.int64),
            _np.array(pc, dtype=_np.float64),
        )
    else:
        cached = None
    view.np_patches = cached
    return cached


def completion_bounds(m, seed_costs, view):
    """One query's guided completion-bound tables by relaxation.

    Takes exactly the inputs ``exploration._completion_bounds`` takes and
    returns the same ``(bounds, dists)`` pair (m per-element lists and
    the m phase-1 distance tables as ``array('d')``, bit-identical to the
    Dijkstra's), or ``None`` when the sweeps did not converge within
    the budget, or numpy turned out not to import — the caller
    recomputes with the Dijkstra.
    """
    np = _numpy()
    if np is None:
        return None
    substrate = view.substrate
    offsets, targets = csr_ndarrays(substrate)
    n = substrate.n
    width = view.total
    max_sweeps = _max_sweeps(width)

    dist = np.full((m, width), _INF)
    for kw in range(m):
        row = dist[kw]
        for node, cost in seed_costs[kw].items():
            row[node] = cost
    cost_rows = np.tile(_as_float64(view.costs)[:n], (m, 1))
    patches = None
    patch = overlay_patch_arrays(view)
    if patch is not None:
        src, dst, pc = patch
        patches = (
            np.repeat(np.arange(m, dtype=np.int64), src.shape[0]),
            np.tile(src, m),
            np.tile(dst, m),
            np.tile(pc, m),
        )

    dist1, ok = _relax_to_fixpoint(
        dist, offsets, targets, cost_rows, n, patches, max_sweeps
    )
    if not ok:
        _log_nonconvergence(width)
        return None

    # Phase 2 seeds: S_i(v) = fold-left sum over j != i of dist_j(v), in
    # ascending j — replicated elementwise, NOT as sum-minus-self, which
    # is neither associativity-safe nor inf-safe in floating point.
    dist2 = np.empty_like(dist1)
    for kw in range(m):
        acc = None
        for j in range(m):
            if j == kw:
                continue
            dj = dist1[j]
            acc = dj.copy() if acc is None else acc + dj
        # m == 1: the Dijkstra seeds every element at 0.0.
        dist2[kw] = np.zeros(width) if acc is None else acc

    dist2, ok = _relax_to_fixpoint(
        dist2, offsets, targets, cost_rows, n, patches, max_sweeps
    )
    if not ok:
        _log_nonconvergence(width)
        return None
    return (
        [dist2[kw].tolist() for kw in range(m)],
        [array("d", dist1[kw].tobytes()) for kw in range(m)],
    )


_nonconvergence_logged = False


def _log_nonconvergence(width: int) -> None:
    global _nonconvergence_logged
    if not _nonconvergence_logged:
        _nonconvergence_logged = True
        log.warning(
            "relaxation kernel hit the sweep budget on a %d-element graph "
            "(very high diameter); using the scalar Dijkstra for its bound "
            "tables", width,
        )
