"""Shared fixtures and reporting for the paper-reproduction benchmarks.

Each ``test_fig*`` module regenerates one table/figure of the paper's
Section VII.  Paper-style result tables are accumulated via the
``report`` fixture and written to ``benchmarks/results/*.txt`` as well as
echoed into the pytest terminal summary, so ``pytest benchmarks/
--benchmark-only`` leaves both the pytest-benchmark timing table and the
figure-shaped outputs behind.
"""

import os
import sys
from collections import defaultdict

import pytest

from repro.baselines import EntityGraphView
from repro.core.engine import KeywordSearchEngine
from repro.datasets import (
    DblpConfig,
    LubmConfig,
    TapConfig,
    generate_dblp,
    generate_lubm,
    generate_tap,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# The reference loops live in tests/ (the Section VI-C ablation truncates
# the reference exploration); `pytest benchmarks/` alone would not put
# that directory on the path.
_TESTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"
)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)

_REPORTS = defaultdict(list)


class Report:
    """Accumulates printable rows for one figure reproduction."""

    def __init__(self, name: str):
        self.name = name

    def line(self, text: str = "") -> None:
        _REPORTS[self.name].append(text)

    def table(self, headers, rows) -> None:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)
        ]
        self.line("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
        self.line("  ".join("-" * w for w in widths))
        for row in rows:
            self.line("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


@pytest.fixture(scope="session")
def report():
    """Factory for named figure reports."""
    return Report


def _benchmarks_named(config) -> bool:
    """True when a command-line path argument lies inside ``benchmarks/``."""
    here = os.path.dirname(os.path.abspath(__file__))
    invoked_from = str(config.invocation_params.dir)
    for arg in config.args:
        path = os.path.abspath(os.path.join(invoked_from, str(arg).split("::", 1)[0]))
        if path == here or path.startswith(here + os.sep):
            return True
    return False


def pytest_sessionfinish(session):
    # The result files are tracked; rewrite them only for a run that named
    # benchmarks/ (or a file in it) on the command line.  A root-level
    # tier-1 `pytest` still runs every benchmark and prints the tables
    # below, but leaves `git status` clean.
    if not _benchmarks_named(session.config):
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    for name, lines in _REPORTS.items():
        with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")


def pytest_terminal_summary(terminalreporter):
    for name, lines in sorted(_REPORTS.items()):
        terminalreporter.write_sep("=", f"reproduction output: {name}")
        for line in lines:
            terminalreporter.write_line(line)


# ----------------------------------------------------------------------
# Datasets and engines at benchmark scale
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def dblp_effectiveness_graph():
    """Scale used for the Fig. 4 effectiveness study."""
    return generate_dblp(DblpConfig(publications=800))


@pytest.fixture(scope="session")
def dblp_performance_graph():
    """Scale used for the Fig. 5 / Fig. 6a performance studies.

    ≈64k triples: large enough that data-graph search (the baselines)
    visibly diverges from summary-graph exploration (ours), small enough
    for the whole benchmark suite to finish in about a minute.
    """
    return generate_dblp(DblpConfig(publications=8000))


@pytest.fixture(scope="session")
def lubm_graph():
    return generate_lubm(LubmConfig(universities=2))


@pytest.fixture(scope="session")
def tap_graph():
    return generate_tap(TapConfig(instances_per_class=8))


@pytest.fixture(scope="session")
def performance_engine(dblp_performance_graph):
    return KeywordSearchEngine(dblp_performance_graph, cost_model="c3", k=10)


@pytest.fixture(scope="session")
def performance_view(dblp_performance_graph):
    return EntityGraphView(dblp_performance_graph)
