"""A constant status line: all that is left of the numpy bound-table kernel.

Bound tables have one implementation, the per-keyword Dijkstra in
:mod:`repro.core.exploration`.  The frozen benchmark harness
(``perf/run.py``) still records :func:`status_line` in its environment
block; it is this module's one reader, and the module goes with it
(ROADMAP item 5(b)).
"""


def status_line() -> str:
    return "kernels: none (bound tables by Dijkstra)"
