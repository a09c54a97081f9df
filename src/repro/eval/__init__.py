"""Evaluation harness: effectiveness (MRR) and index statistics."""

from repro.eval.effectiveness import (
    reciprocal_rank,
    evaluate_effectiveness,
    EffectivenessReport,
)
from repro.eval.index_stats import collect_index_stats, IndexStatsRow

__all__ = [
    "reciprocal_rank",
    "evaluate_effectiveness",
    "EffectivenessReport",
    "collect_index_stats",
    "IndexStatsRow",
]
