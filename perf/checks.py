"""The correctness gate: what the server answers must be what an
in-process engine answers.

The reference is loaded from the *same bundle* with the *same tier and
configuration* the server was started with (`Workload.engine_config`):
at a truncating ``limit`` the memory and mmap tiers may return different
(equally valid) subsets of a large answer set, so a cross-tier reference
would report differences that are not defects.  After `update_mix` the
comparison is against an engine built from scratch over the base triples
plus the batches still live, with no ``limit``, where the answer *set*
must agree regardless of tier or history.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.core.engine import KeywordSearchEngine
from repro.rdf.graph import DataGraph
from repro.rdf.ntriples import parse_ntriples
from repro.rdf.triples import Triple
from repro.service.http import answers_to_json, candidate_to_json, result_to_json

from workloads import Request, Workload


def load_reference(workload: Workload, bundle: str) -> KeywordSearchEngine:
    """A read-only engine over ``bundle``, configured like the server."""
    return KeywordSearchEngine.load(
        bundle, attach_wal=False, replay_wal=False, **workload.engine_config
    )


def scratch_engine(
    data_path: str, added: Sequence[Triple], like: KeywordSearchEngine
) -> KeywordSearchEngine:
    """An engine built from nothing over base + net-added triples."""
    with open(data_path) as fh:
        triples = list(parse_ntriples(fh))
    triples.extend(added)
    return KeywordSearchEngine(
        DataGraph(triples), cost_model=like.cost_model.name, k=like.k,
        dmax=like.dmax, guided=like.guided,
    )


def reference_payload(engine: KeywordSearchEngine, request: Request,
                      limit: Optional[int]) -> Dict[str, object]:
    """What the HTTP layer would send for ``request``, minus timings."""
    result = engine.search(request.key)
    if request.kind == "search":
        payload = result_to_json(result)
        payload.pop("timings_ms")
    else:
        best = result.candidates[0]
        payload = {
            "candidate": candidate_to_json(best),
            "answers": answers_to_json(engine.execute(best, limit=limit)),
        }
    # Through JSON and back: tuples become lists, as on the wire.
    return json.loads(json.dumps(payload))


def compare_payloads(
    engine: KeywordSearchEngine,
    requests: Sequence[Request],
    bodies: Dict[str, bytes],
    limit: Optional[int],
    label: str,
) -> List[str]:
    """Differences between HTTP bodies and the reference, one line each."""
    problems = []
    for request in requests:
        got = json.loads(bodies[request.key])
        got.pop("timings_ms", None)
        want = reference_payload(engine, request, limit)
        if got != want:
            problems.append(
                f"{label}: {request.kind} {request.key!r} differs from the "
                f"reference: {_first_difference(got, want)}"
            )
    return problems


def _first_difference(got, want, path: str = "") -> str:
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                return _first_difference(got.get(key), want.get(key), f"{path}.{key}")
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} items, reference has {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return _first_difference(a, b, f"{path}[{i}]")
    return f"{path}: {str(got)[:80]!r} != {str(want)[:80]!r}"
