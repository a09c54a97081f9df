"""Engine construction for evaluation, and the evaluation loop itself.

:func:`build_eval_engine` turns an *eval configuration* — dataset name,
optional bundle path, cost model, ``k`` and ``dmax`` — into a
ready engine, the same way for every entry point (CLI, CI gate, tests).
Unlike ``repro search``, an eval run needs **both** a dataset name (it
selects the golden file and the intent workload) and, optionally, a
bundle (it supplies the offline structures); the two are not mutually
exclusive here.

:func:`evaluate_quality` runs every golden case through the engine and
scores Recall@k / MRR / nDCG@k on two levels:

* **query** — the ranked candidate list against the expected query
  signatures (plus ``intent_mrr``, the paper's Section VII-A protocol:
  :func:`~repro.quality.metrics.intent_reciprocal_rank`, the function
  the Fig. 4 study averages too);
* **answer** — the executed answers, canonically ordered, against the
  expected answer signatures.

:class:`PerturbedCostModel` deliberately inverts a cost model's ranking;
it exists so the regression gate can prove it fires (a gate nobody has
seen fail is a gate nobody should trust).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.engine import ENGINE_DEFAULTS, KeywordSearchEngine
from repro.datasets import DATASET_NAMES, effectiveness_workload, graph_for
from repro.quality.goldens import GoldenCase, GoldenFile
from repro.quality.metrics import (
    dedupe_ranked,
    intent_reciprocal_rank,
    mean_of,
    ndcg_at_k,
    recall_at_k,
    reciprocal_rank_graded,
)
from repro.quality.signatures import (
    answer_signature,
    candidate_signatures,
    sort_answers,
)
from repro.scoring.cost import CostModel

#: Candidate depth for the query-level metrics (the paper's top-k).
DEFAULT_EVAL_K = 10
#: How many canonical answers per case enter the answer-level ranking.
DEFAULT_ANSWER_DEPTH = 20
#: Per-candidate evaluation cap.  ``None`` = full enumeration, and that
#: default is deliberate: a *truncated* answer set keeps whichever
#: answers hash-set iteration yielded first, which differs across
#: processes and seeds — canonical sorting can only make enumeration
#: order deterministic, not the choice of what got enumerated.  Eval
#: datasets are small enough (worst case ~2k answers per candidate)
#: that enumerating everything costs well under a second per workload.
DEFAULT_EXECUTE_LIMIT: Optional[int] = None


class PerturbedCostModel(CostModel):
    """Wraps a cost model and inverts its ranking (cheap becomes dear).

    ``1 / (cost + eps)`` maps low-cost (good) elements to high cost and
    vice versa, so top-ranked interpretations sink.  It recomputes every
    element of a new plan: the perturbation is a diagnostic, not a model
    worth caching base costs for.
    """

    def __init__(self, base: CostModel):
        self._base = base

    def compute_costs(self, augmented) -> Dict:
        base_costs = self._base.element_costs(augmented)
        return {key: 1.0 / (base_costs[key] + 0.01) for key in base_costs}

    def __repr__(self):
        return f"PerturbedCostModel({self._base!r})"


def build_eval_engine(
    dataset: str,
    bundle: Optional[str] = None,
    cost_model: Optional[str] = None,
    k: Optional[int] = None,
    dmax: Optional[int] = None,
    scale: int = 1000,
    perturb_costs: bool = False,
):
    """Build the engine a configuration describes; returns ``(engine, config)``.

    ``config`` is the JSON-safe record of what actually ran — it goes
    into report provenance so two reports can be compared knowing whether
    they measured the same serving configuration.
    """
    if dataset not in DATASET_NAMES:
        raise ValueError(f"unknown dataset {dataset!r} (have: {DATASET_NAMES})")
    if bundle:
        engine = KeywordSearchEngine.load(
            bundle,
            attach_wal=False,
            cost_model=cost_model,
            k=k,
            dmax=dmax,
        )
    else:
        # The one table of entry-point defaults, so a fresh eval build
        # and a `repro build` bundle describe the same engine — the gate
        # must not drift just because the offline layer came from a
        # different entry point.
        given = {"cost_model": cost_model, "k": k, "dmax": dmax}
        given = {name: value for name, value in given.items() if value is not None}
        engine = KeywordSearchEngine(
            graph_for(dataset, scale=scale),
            **{**ENGINE_DEFAULTS, **given},
        )
    if perturb_costs:
        engine.cost_model = PerturbedCostModel(engine.cost_model)
    config = {
        "dataset": dataset,
        "bundle": bundle,
        "index_tier": engine.index_tier if bundle else "in-process",
        "cost_model": type(engine.cost_model).__name__,
        "k": engine.k,
        "dmax": engine.dmax,
        "scale": None if bundle else scale,
        "perturb_costs": perturb_costs,
    }
    return engine, config


def ranked_answer_signatures(
    engine: KeywordSearchEngine,
    candidates,
    answer_depth: int = DEFAULT_ANSWER_DEPTH,
    execute_limit: Optional[int] = DEFAULT_EXECUTE_LIMIT,
) -> List[str]:
    """Execute candidates best-first and rank their canonical answers.

    Candidate order carries the ranking signal; *within* one candidate
    the evaluator's answer order reflects store internals (insertion
    order, sorted runs), so each candidate's answers are canonically sorted
    before concatenation, then deduplicated at best rank and capped at
    ``answer_depth``.  The result is identical for every store that
    serves the same data (the constructors' hash nests, a loaded bundle).
    """
    ranked: List[str] = []
    for candidate in candidates:
        answers = engine.execute(candidate, limit=execute_limit)
        ranked.extend(answer_signature(a) for a in sort_answers(answers))
        if len(dedupe_ranked(ranked)) >= answer_depth:
            break
    return dedupe_ranked(ranked)[:answer_depth]


def evaluate_case(
    engine: KeywordSearchEngine,
    case: GoldenCase,
    intent=None,
    eval_k: int = DEFAULT_EVAL_K,
    answer_depth: int = DEFAULT_ANSWER_DEPTH,
    execute_limit: Optional[int] = DEFAULT_EXECUTE_LIMIT,
) -> Dict[str, object]:
    """Run one golden case; returns its per-metric record."""
    result = engine.search(case.keywords, k=max(eval_k, engine.k))
    ranked_queries = candidate_signatures(result.candidates)
    query_rel = case.query_relevance()
    answer_rel = case.answer_relevance()

    ranked_answers: List[str] = []
    if answer_rel:
        ranked_answers = ranked_answer_signatures(
            engine,
            result.candidates,
            answer_depth=answer_depth,
            execute_limit=execute_limit,
        )

    return {
        "qid": case.qid,
        "keywords": case.keywords,
        "candidates": len(result.candidates),
        "metrics": {
            f"query_recall@{eval_k}": recall_at_k(ranked_queries, query_rel, eval_k),
            "query_mrr": reciprocal_rank_graded(ranked_queries, query_rel),
            f"query_ndcg@{eval_k}": ndcg_at_k(ranked_queries, query_rel, eval_k),
            f"answer_recall@{answer_depth}": recall_at_k(
                ranked_answers, answer_rel, answer_depth
            ),
            "answer_mrr": reciprocal_rank_graded(ranked_answers, answer_rel),
            f"answer_ndcg@{answer_depth}": ndcg_at_k(
                ranked_answers, answer_rel, answer_depth
            ),
            "intent_mrr": intent_reciprocal_rank(result.queries, intent),
        },
    }


def evaluate_quality(
    engine: KeywordSearchEngine,
    goldens: GoldenFile,
    eval_k: int = DEFAULT_EVAL_K,
    answer_depth: int = DEFAULT_ANSWER_DEPTH,
    execute_limit: Optional[int] = DEFAULT_EXECUTE_LIMIT,
) -> Dict[str, object]:
    """Evaluate every golden case; returns per-case records + aggregates.

    Aggregates are means over the cases where each metric is *defined*
    (see :mod:`repro.quality.metrics`); ``counts`` records how many cases
    contributed to each mean so a regression in coverage (a metric
    silently going undefined) is visible, not averaged away.
    """
    intents = {
        wq.qid: wq.intent
        for wq in effectiveness_workload(goldens.dataset)
        if wq.intent is not None
    }
    cases = []
    for case in goldens.cases:
        intent = intents.get(case.intent_qid) if case.intent_qid else None
        cases.append(
            evaluate_case(
                engine,
                case,
                intent=intent,
                eval_k=eval_k,
                answer_depth=answer_depth,
                execute_limit=execute_limit,
            )
        )
    metric_names = list(cases[0]["metrics"]) if cases else []
    aggregates = {}
    counts = {}
    for name in metric_names:
        values = [c["metrics"][name] for c in cases]
        aggregates[name] = mean_of(values)
        counts[name] = sum(1 for v in values if v is not None)
    return {
        "dataset": goldens.dataset,
        "eval_k": eval_k,
        "answer_depth": answer_depth,
        "cases": cases,
        "aggregates": aggregates,
        "counts": counts,
        "num_cases": len(cases),
    }
