"""Effectiveness metrics: reciprocal rank and the Fig. 4 MRR study.

``RR = 1/r`` where ``r`` is the rank of the first generated query matching
the workload entry's intent; 0 if none of the top-k queries match — exactly
the paper's Section VII-A protocol.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Union

from repro.core.engine import KeywordSearchEngine
from repro.datasets.workloads import WorkloadQuery
from repro.query.conjunctive import ConjunctiveQuery


def reciprocal_rank(
    queries: Sequence[ConjunctiveQuery], workload_query: WorkloadQuery
) -> float:
    """1/rank of the first query matching the entry's intent, else 0.0."""
    intent = workload_query.intent
    if intent is None:
        raise ValueError(f"{workload_query.qid} carries no intent spec")
    for rank, query in enumerate(queries, start=1):
        if intent.matches(query):
            return 1.0 / rank
    return 0.0


class EffectivenessReport:
    """Per-query RR values and their mean, for one cost model."""

    def __init__(self, cost_model: str, per_query: Dict[str, float]):
        self.cost_model = cost_model
        self.per_query = per_query

    @property
    def mrr(self) -> float:
        if not self.per_query:
            return 0.0
        return sum(self.per_query.values()) / len(self.per_query)

    def rr(self, qid: str) -> float:
        return self.per_query[qid]

    def __repr__(self):
        return f"EffectivenessReport({self.cost_model}, MRR={self.mrr:.3f})"


def evaluate_effectiveness(
    engine: Union[KeywordSearchEngine, str, "os.PathLike"],
    workload: Sequence[WorkloadQuery],
    k: int = 10,
    dmax: Optional[int] = None,
    cost_model: Optional[str] = None,
) -> EffectivenessReport:
    """Run a workload through an engine and score every query's RR.

    ``engine`` may be a live :class:`KeywordSearchEngine` or a path to a
    ``.reprobundle`` — the bundle is then loaded read-only with
    ``cost_model`` optionally overriding the one it was built with, so
    the MRR study can score exactly the artifact a deployment serves.
    """
    if isinstance(engine, (str, os.PathLike)):
        engine = KeywordSearchEngine.load(
            engine,
            attach_wal=False,
            cost_model=cost_model,
            k=k,
        )
    per_query: Dict[str, float] = {}
    for entry in workload:
        result = engine.search(entry.keywords, k=k, dmax=dmax)
        per_query[entry.qid] = reciprocal_rank(result.queries, entry)
    return EffectivenessReport(engine.cost_model.name, per_query)
