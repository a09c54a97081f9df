"""Retrieval-quality harness: golden cases, graded metrics, regression gates.

The paper's Section VII-A measures answer quality as MRR over
intent-annotated workloads; the speed/scale layers of this repo
(substrate, kernels, bundles, the mmap tier) are property-tested for
*identity*, but identity tests cannot catch a ranking change that is
internally consistent yet worse.  This package is the safety net: golden
query→expected-result files per dataset (``eval/goldens/*.jsonl``), a
metrics core (Recall@k / MRR / nDCG@k at the query-candidate and the
executed-answer level), a runner that evaluates any engine configuration
against the goldens, versioned JSON reports with per-metric deltas, and a
baseline gate (``repro eval check``) CI fails on.

Layout
------

``signatures``
    Canonical, JSON-storable ids for query candidates and answers —
    stable across index tiers, worker processes, and hash seeds.
``metrics``
    Pure ranking metrics over signature lists and graded relevance, and
    the paper's intent reciprocal rank (Fig. 4's MRR is its mean).
``goldens``
    The versioned golden-case JSONL format (load/save/validate).
``runner``
    Engine construction from an eval configuration (fresh build, bundle,
    perturbed cost model) and case/workload evaluation.
``reports``
    Timestamped report files, delta computation, baseline compare.
``seeding``
    Semi-automatic golden proposals from an in-process engine or a live
    ``/search``+``/execute`` HTTP endpoint.
"""

from repro.quality.goldens import (
    GOLDEN_FORMAT,
    GoldenCase,
    GoldenFile,
    GoldenFormatError,
    load_goldens,
    save_goldens,
)
from repro.quality.metrics import (
    intent_reciprocal_rank,
    mean_of,
    ndcg_at_k,
    recall_at_k,
    reciprocal_rank_graded,
)
from repro.quality.reports import (
    compare_to_baseline,
    diff_reports,
    load_baseline,
    load_report,
    metric_deltas,
    save_baseline,
    write_report,
)
from repro.quality.runner import (
    PerturbedCostModel,
    build_eval_engine,
    evaluate_quality,
)
from repro.quality.seeding import (
    seed_cases_from_endpoint,
    seed_cases_in_process,
)
from repro.quality.signatures import (
    answer_json_signature,
    answer_signature,
    query_signature,
    sort_answers,
)

__all__ = [
    "GOLDEN_FORMAT",
    "GoldenCase",
    "GoldenFile",
    "GoldenFormatError",
    "PerturbedCostModel",
    "answer_json_signature",
    "answer_signature",
    "build_eval_engine",
    "compare_to_baseline",
    "diff_reports",
    "evaluate_quality",
    "intent_reciprocal_rank",
    "load_baseline",
    "load_goldens",
    "load_report",
    "mean_of",
    "metric_deltas",
    "ndcg_at_k",
    "query_signature",
    "recall_at_k",
    "reciprocal_rank_graded",
    "save_baseline",
    "save_goldens",
    "seed_cases_from_endpoint",
    "seed_cases_in_process",
    "sort_answers",
    "write_report",
]
