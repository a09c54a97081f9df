"""Semi-automatic golden seeding: propose cases, let a human bless them.

Hand-writing canonical signatures is hopeless, so seeding runs each
workload query against a *trusted* engine — either in-process or a live
``/search``+``/execute`` endpoint — and records what came back as the
proposed expectation, with provenance.  Grades encode the trust
gradient:

* **queries** — a candidate matching the workload's paper-protocol
  intent gets grade 3 (independently verified ground truth); the
  top-ranked candidate gets 2; every other returned candidate gets 1.
  Endpoint seeding cannot re-run intent matching on JSON payloads, so
  its ceiling is grade 2 — provenance says so.
* **answers** — answers of the top-ranked interpretation get grade 2,
  answers appearing only under lower-ranked interpretations get 1.

Proposals carry ``provenance.blessed = false``.  Blessing — a human (or
an explicitly trusted workflow via ``repro eval seed --bless``) flipping
the flag after review — is what turns a snapshot of current behavior
into ground truth; ``repro eval check`` refuses unblessed cases.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence
from urllib.error import HTTPError
from urllib.parse import quote

from repro.quality.goldens import GoldenCase
from repro.quality.signatures import (
    answer_json_signature,
    answer_signature,
    candidate_signatures,
    sort_answers,
)

DEFAULT_SEED_K = 10
DEFAULT_ANSWER_DEPTH = 20
#: ``None`` = full enumeration — same rationale as the runner's default:
#: a truncated answer set is truncated in hash-iteration order, which no
#: canonical sort can repair, and goldens must not depend on it.
DEFAULT_EXECUTE_LIMIT: Optional[int] = None


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _graded_entries(grades: Dict[str, float]) -> List[Dict[str, object]]:
    return [
        {"signature": sig, "relevance": grade} for sig, grade in grades.items()
    ]


def _answer_case_grades(
    ranked_answer_lists: Sequence[Sequence[str]], answer_depth: int
) -> Dict[str, float]:
    """Merge per-candidate (already canonical) answer signature lists."""
    grades: Dict[str, float] = {}
    for rank, signatures in enumerate(ranked_answer_lists, start=1):
        for sig in signatures:
            if sig not in grades:
                grades[sig] = 2.0 if rank == 1 else 1.0
        if len(grades) >= answer_depth:
            break
    return dict(list(grades.items())[:answer_depth])


def seed_cases_in_process(
    engine,
    workload,
    eval_k: int = DEFAULT_SEED_K,
    answer_depth: int = DEFAULT_ANSWER_DEPTH,
    execute_limit: Optional[int] = DEFAULT_EXECUTE_LIMIT,
    blessed: bool = False,
    engine_config: Optional[dict] = None,
) -> List[GoldenCase]:
    """Propose one golden case per workload query from a local engine."""
    cases: List[GoldenCase] = []
    for wq in workload:
        result = engine.search(wq.keywords, k=eval_k)
        query_grades: Dict[str, float] = {}
        intent_matched = False
        for rank, (candidate, sig) in enumerate(
            zip(result.candidates, candidate_signatures(result.candidates)),
            start=1,
        ):
            if sig in query_grades:
                continue
            if wq.intent is not None and wq.intent.matches(candidate.query):
                query_grades[sig] = 3.0
                intent_matched = True
            else:
                query_grades[sig] = 2.0 if rank == 1 else 1.0
        answer_lists = []
        for candidate in result.candidates:
            answers = engine.execute(candidate, limit=execute_limit)
            answer_lists.append(
                [answer_signature(a) for a in sort_answers(answers)]
            )
        answer_grades = _answer_case_grades(answer_lists, answer_depth)
        cases.append(
            GoldenCase(
                qid=wq.qid,
                keywords=wq.keywords,
                description=wq.description,
                intent_qid=wq.qid if wq.intent is not None else None,
                expected_queries=_graded_entries(query_grades),
                expected_answers=_graded_entries(answer_grades),
                provenance={
                    "seeded_from": "in-process",
                    "seeded_at": _now(),
                    "engine": engine_config or {},
                    "intent_matched": intent_matched,
                    "blessed": blessed,
                },
            )
        )
    return cases


def _http_json(url: str, body: Optional[dict] = None, timeout: float = 60.0):
    # The one HTTP client in the package: imported by the call that needs
    # it, so `repro eval check` / `run` never load urllib.request and ssl.
    from urllib.request import Request, urlopen

    if body is None:
        request = Request(url)
    else:
        request = Request(
            url,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
    with urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def seed_cases_from_endpoint(
    base_url: str,
    workload,
    eval_k: int = DEFAULT_SEED_K,
    answer_depth: int = DEFAULT_ANSWER_DEPTH,
    execute_limit: Optional[int] = DEFAULT_EXECUTE_LIMIT,
    blessed: bool = False,
    timeout: float = 60.0,
) -> List[GoldenCase]:
    """Propose golden cases from a live ``repro serve`` endpoint.

    Uses ``GET /search`` for the candidate signatures the payloads now
    carry, then ``POST /execute`` rank by rank for canonical answers.
    Intent matching needs query objects, which JSON does not round-trip,
    so query grades top out at 2 (rank 1) — the in-process path is the
    one that certifies intent.
    """
    base = base_url.rstrip("/")
    cases: List[GoldenCase] = []
    for wq in workload:
        q = " ".join(wq.keywords)
        result = _http_json(
            f"{base}/search?q={quote(q)}&k={eval_k}", timeout=timeout
        )
        candidates = result.get("candidates", [])
        query_grades: Dict[str, float] = {}
        for rank, candidate in enumerate(candidates, start=1):
            sig = candidate["signature"]
            if sig not in query_grades:
                query_grades[sig] = 2.0 if rank == 1 else 1.0
        answer_lists = []
        for rank in range(1, len(candidates) + 1):
            try:
                payload = _http_json(
                    f"{base}/execute",
                    body={"q": q, "rank": rank, "limit": execute_limit},
                    timeout=timeout,
                )
            except HTTPError as exc:
                if exc.code == 404:
                    # /execute re-searches with the *server's* configured
                    # top-k, which may be shallower than eval_k — ranks
                    # beyond it simply do not exist there.  Grade what
                    # the endpoint can actually execute.
                    break
                raise
            # answers_to_json already emits canonical (sorted) order.
            answer_lists.append(
                [answer_json_signature(a) for a in payload.get("answers", [])]
            )
        answer_grades = _answer_case_grades(answer_lists, answer_depth)
        cases.append(
            GoldenCase(
                qid=wq.qid,
                keywords=wq.keywords,
                description=wq.description,
                intent_qid=wq.qid if wq.intent is not None else None,
                expected_queries=_graded_entries(query_grades),
                expected_answers=_graded_entries(answer_grades),
                provenance={
                    "seeded_from": base,
                    "seeded_at": _now(),
                    "engine": {},
                    "intent_matched": False,
                    "blessed": blessed,
                },
            )
        )
    return cases
