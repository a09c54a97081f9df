"""The ranking, pinned byte for byte: candidates in rank order, ties and all.

Every DBLP performance and effectiveness query on ``dblp_small``, every
LUBM effectiveness query on ``lubm_small``, every running-example
effectiveness query on the Fig. 1a graph and every TAP effectiveness
query on ``tap_small`` is searched at k=10, and each
query's record — every candidate's signature and ``repr(cost)`` in rank
order, plus the exploration's ``cursors_created`` / ``popped`` /
``pruned`` — must equal ``ranking_golden.json`` byte for byte.  A
signature runs to ~2 KB, so the file holds its SHA-256 instead.

The identity suites compare the exploration against an oracle run in the
same process; this file compares it against a ranking written down once.
Equal-cost candidates are common here (several per DBLP query), and their
order is decided by how exploration numbers the elements of a plan's
view, so a change to that numbering shows up here even when it is applied
to the exploration and its oracle alike.  The running example and TAP are
where such ties set a base summary element against an overlay element
(one the query's keyword matches added), so a numbering that orders the
two parts differently moves their rankings while DBLP's and LUBM's stay
put.

To rewrite the file after a change that is meant to move the ranking::

    PYTHONPATH=src python tests/integration/test_ranking_golden.py
"""

import hashlib
import json
import os

from repro.core.engine import KeywordSearchEngine
from repro.datasets import (
    DblpConfig,
    LubmConfig,
    TapConfig,
    generate_dblp,
    generate_lubm,
    generate_tap,
)
from repro.datasets.example import running_example_graph
from repro.datasets.workloads import (
    dblp_effectiveness_workload,
    dblp_performance_queries,
    example_effectiveness_workload,
    lubm_effectiveness_workload,
    tap_effectiveness_workload,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "ranking_golden.json")
K = 10


def _digest(signature: str) -> str:
    return hashlib.sha256(signature.encode("utf-8")).hexdigest()


def _records(graph, queries):
    """One record per query, searched in workload order on one engine
    (no kept results: a repeated query explores again, on its cached plan)."""
    engine = KeywordSearchEngine(graph)
    records = []
    for query in queries:
        result = engine.search(query.keywords, k=K)
        explored = result.exploration
        records.append(
            {
                "qid": query.qid,
                "keywords": query.keywords,
                "cursors": [
                    explored.cursors_created,
                    explored.cursors_popped,
                    explored.cursors_pruned,
                ]
                if explored is not None
                else None,
                "candidates": [[_digest(c.signature), repr(c.cost)] for c in result],
            }
        )
    return records


DATASETS = ("dblp", "lubm", "example", "tap")


def ranking_text(dblp_graph, lubm_graph, example_graph, tap_graph) -> str:
    """The golden file's exact contents for these four graphs."""
    golden = {
        "k": K,
        "dblp": _records(
            dblp_graph, dblp_performance_queries() + dblp_effectiveness_workload()
        ),
        "lubm": _records(lubm_graph, lubm_effectiveness_workload()),
        "example": _records(example_graph, example_effectiveness_workload()),
        "tap": _records(tap_graph, tap_effectiveness_workload()),
    }
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def test_ranking_matches_the_golden_byte_for_byte(
    dblp_small, lubm_small, example_graph, tap_small
):
    got = ranking_text(dblp_small, lubm_small, example_graph, tap_small)
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = handle.read()
    if got != expected:
        got_data, expected_data = json.loads(got), json.loads(expected)
        for dataset in DATASETS:
            for mine, theirs in zip(got_data[dataset], expected_data[dataset]):
                assert mine == theirs, f"{dataset} {theirs['qid']} diverges"
    assert got == expected


if __name__ == "__main__":
    text = ranking_text(
        generate_dblp(DblpConfig(publications=300)),
        generate_lubm(LubmConfig(universities=1)),
        running_example_graph(),
        generate_tap(TapConfig(instances_per_class=4)),
    )
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {GOLDEN} ({len(text)} bytes)")
