"""Dataset generators and evaluation workloads.

The paper evaluates on DBLP (26M triples), TAP (220k triples), and
LUBM(50,0).  None of those dumps is available offline, so this package
generates structurally equivalent data at configurable scale — see
docs/architecture.md "Documented deviations" for the substitution
argument — plus the keyword-query
workloads with ground-truth intent used by the Fig. 4/5/6 benchmarks.
"""

from repro.datasets.example import running_example_graph, running_example_triples
from repro.datasets.dblp import generate_dblp, dblp_triples, DblpConfig, DBLP
from repro.datasets.lubm import generate_lubm, iter_lubm_triples, LubmConfig, UB
from repro.datasets.tap import generate_tap, tap_triples, TapConfig, TAP
from repro.rdf.graph import DataGraph
from repro.datasets.workloads import (
    WorkloadQuery,
    IntentSpec,
    Contains,
    OneOf,
    dblp_effectiveness_workload,
    tap_effectiveness_workload,
    example_effectiveness_workload,
    lubm_effectiveness_workload,
    effectiveness_workload,
    dblp_performance_queries,
)

#: Datasets the CLI and the quality harness can generate by name.
DATASET_NAMES = ("example", "dblp", "lubm", "tap")


def triples_for(dataset: str, scale: int = 1000):
    """Lazily yield the named dataset's triples at ``scale`` — the single
    source of truth for how a dataset name maps to generator
    configuration.  ``repro build`` streams it into the bundle builder
    and :func:`graph_for` (``repro search``, the quality harness) wraps it
    in a :class:`DataGraph`, so a bundle built via the CLI and a fresh
    eval build describe the same graph by construction.  Nothing is
    generated before the first ``next()``; LUBM never holds more than one
    department."""
    if dataset == "example":
        yield from running_example_triples()
    elif dataset == "dblp":
        yield from dblp_triples(DblpConfig(publications=scale))
    elif dataset == "lubm":
        yield from iter_lubm_triples(LubmConfig(universities=max(1, scale // 1000)))
    elif dataset == "tap":
        yield from tap_triples(TapConfig())
    else:
        raise ValueError(f"unknown dataset {dataset!r} (have: {DATASET_NAMES})")


def graph_for(dataset: str, scale: int = 1000) -> DataGraph:
    """The named dataset at ``scale`` as a graph (see :func:`triples_for`)."""
    return DataGraph(triples_for(dataset, scale))


__all__ = [
    "DATASET_NAMES",
    "graph_for",
    "triples_for",
    "running_example_graph",
    "generate_dblp",
    "DblpConfig",
    "DBLP",
    "generate_lubm",
    "iter_lubm_triples",
    "LubmConfig",
    "UB",
    "generate_tap",
    "TapConfig",
    "TAP",
    "WorkloadQuery",
    "IntentSpec",
    "Contains",
    "OneOf",
    "dblp_effectiveness_workload",
    "tap_effectiveness_workload",
    "example_effectiveness_workload",
    "lubm_effectiveness_workload",
    "effectiveness_workload",
    "dblp_performance_queries",
]
