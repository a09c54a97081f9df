"""Ranking metrics over signature lists with graded relevance.

The graded functions take a ranked list of item signatures and a
relevance mapping ``{signature: grade}`` with grades > 0 (a grade of 0
is treated as "not relevant" and dropped); :func:`intent_reciprocal_rank`
is the paper's own RR, over ranked queries and an intent spec.  Three
conventions, chosen so the aggregate never silently averages apples
with absences:

* **Missing goldens** (no relevant items for a case) make every metric
  *undefined* — the functions return ``None`` and :func:`mean_of`
  excludes them, rather than crediting a vacuous 1.0 or punishing with
  a 0.0 the engine could never avoid.
* **Empty result lists** against a non-empty golden set score 0.0 — the
  engine had something to find and found nothing.
* **Duplicates** in the ranked list count once, at their best rank
  (candidates are deduplicated upstream; executed answers can repeat
  across candidates).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence


def _relevant(relevance: Mapping[str, float]) -> Dict[str, float]:
    return {sig: grade for sig, grade in relevance.items() if grade > 0}


def dedupe_ranked(ranked: Sequence[str]) -> List[str]:
    """First occurrence of each signature, order preserved."""
    return list(dict.fromkeys(ranked))


def recall_at_k(
    ranked: Sequence[str], relevance: Mapping[str, float], k: int
) -> Optional[float]:
    """Fraction of relevant signatures present in the top ``k``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    relevant = _relevant(relevance)
    if not relevant:
        return None
    top = set(dedupe_ranked(ranked)[:k])
    return len(top & set(relevant)) / len(relevant)


def reciprocal_rank_graded(
    ranked: Sequence[str], relevance: Mapping[str, float]
) -> Optional[float]:
    """1/rank of the first relevant signature; 0.0 if none appears.

    The graded counterpart of the paper's RR: any grade > 0 counts as a
    hit (MRR is a binary-relevance metric; grades matter to nDCG).
    """
    relevant = _relevant(relevance)
    if not relevant:
        return None
    for rank, sig in enumerate(dedupe_ranked(ranked), start=1):
        if sig in relevant:
            return 1.0 / rank
    return 0.0


def intent_reciprocal_rank(queries: Sequence, intent) -> Optional[float]:
    """The paper's RR (Section VII-A): 1/rank of the first query the
    workload entry's intent spec matches; 0.0 if none of them does.

    ``intent`` is an :class:`~repro.datasets.workloads.IntentSpec`, or
    ``None`` for an entry without one — the metric is then undefined,
    like any metric of a case without goldens.  Fig. 4's MRR and the
    gated ``intent_mrr`` are both means of this function.
    """
    if intent is None:
        return None
    for rank, query in enumerate(queries, start=1):
        if intent.matches(query):
            return 1.0 / rank
    return 0.0


def dcg_at_k(gains: Sequence[float], k: int) -> float:
    """Discounted cumulative gain with the ``2^g - 1`` gain shape."""
    return sum(
        (2.0**gain - 1.0) / math.log2(position + 2)
        for position, gain in enumerate(gains[:k])
    )


def ndcg_at_k(
    ranked: Sequence[str], relevance: Mapping[str, float], k: int
) -> Optional[float]:
    """Normalized DCG@k under graded relevance.

    The ideal ordering sorts the golden grades descending; ties between
    equal grades cost nothing (any order of equal grades has equal DCG).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    relevant = _relevant(relevance)
    if not relevant:
        return None
    gains = [relevant.get(sig, 0.0) for sig in dedupe_ranked(ranked)]
    ideal = sorted(relevant.values(), reverse=True)
    ideal_dcg = dcg_at_k(ideal, k)
    if ideal_dcg == 0.0:  # pragma: no cover - grades > 0 make this unreachable
        return None
    return dcg_at_k(gains, k) / ideal_dcg


def mean_of(values: Sequence[Optional[float]]) -> Optional[float]:
    """Mean over the defined values; ``None`` when every case was undefined."""
    defined = [v for v in values if v is not None]
    if not defined:
        return None
    return sum(defined) / len(defined)
