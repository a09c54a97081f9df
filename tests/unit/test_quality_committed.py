"""The committed eval artifacts must stay loadable and internally sound.

A golden file that no longer parses, or a baseline whose metrics the
format cannot read, would disable the CI quality gate silently — these
tests make that a tier-1 failure instead.
"""

import json
import os

import pytest

from reference_exploration import reference_loop

from repro.datasets import DATASET_NAMES, effectiveness_workload
from repro.quality import load_baseline, load_goldens

EVAL_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "eval")
DATASETS = sorted(DATASET_NAMES)


@pytest.mark.parametrize("dataset", DATASETS)
def test_committed_goldens_parse_and_are_blessed(dataset):
    goldens = load_goldens(os.path.join(EVAL_DIR, "goldens", f"{dataset}.jsonl"))
    assert goldens.dataset == dataset
    assert len(goldens) > 0
    assert all(c.provenance.get("blessed") for c in goldens)


@pytest.mark.parametrize("dataset", DATASETS)
def test_committed_goldens_reference_real_workload_queries(dataset):
    goldens = load_goldens(os.path.join(EVAL_DIR, "goldens", f"{dataset}.jsonl"))
    workload_qids = {wq.qid for wq in effectiveness_workload(dataset)}
    for case in goldens:
        if case.intent_qid is not None:
            assert case.intent_qid in workload_qids, case.qid


@pytest.mark.parametrize("dataset", DATASETS)
def test_committed_baselines_load(dataset):
    baseline = load_baseline(
        os.path.join(EVAL_DIR, "baselines", f"{dataset}.json")
    )
    assert baseline["dataset"] == dataset
    defined = {
        name: value
        for name, value in baseline["aggregates"].items()
        if value is not None
    }
    assert defined, "a baseline with no defined metrics gates nothing"
    for name, value in defined.items():
        assert 0.0 <= value <= 1.0, (name, value)
        assert baseline["counts"][name] > 0, name


@pytest.mark.parametrize("dataset", DATASETS)
def test_goldens_and_baseline_case_counts_agree(dataset):
    goldens = load_goldens(os.path.join(EVAL_DIR, "goldens", f"{dataset}.jsonl"))
    baseline = load_baseline(
        os.path.join(EVAL_DIR, "baselines", f"{dataset}.json")
    )
    assert baseline["num_cases"] == len(goldens)


@pytest.mark.parametrize(
    "dataset, bundled",
    [("example", False), ("tap", False), ("example", True)],
    ids=["example", "tap", "example-bundle"],
)
def test_baseline_metrics_do_not_depend_on_the_bounds(dataset, bundled, tmp_path):
    """The bounded exploration every entry point runs and the unbounded
    reference loop (``tests/reference_exploration.py``, substituted at
    the engine's call) score the committed goldens to the same
    aggregates, bit for bit, and those are the committed baseline's —
    on a fresh build and, for the example, on an engine loaded from the
    bundle `repro build` writes."""
    from repro.cli import main
    from repro.quality import build_eval_engine, evaluate_quality

    bundle = None
    if bundled:
        bundle = str(tmp_path / f"{dataset}.reprobundle")
        assert main(["build", "--dataset", dataset, "-o", bundle]) == 0
    goldens = load_goldens(os.path.join(EVAL_DIR, "goldens", f"{dataset}.jsonl"))
    baseline = load_baseline(os.path.join(EVAL_DIR, "baselines", f"{dataset}.json"))
    engine, config = build_eval_engine(dataset, bundle=bundle)
    assert config["index_tier"] == ("mmap" if bundled else "in-process")
    bounded = evaluate_quality(engine, goldens)
    assert engine.exploration_stats()["seed_fallbacks"] == 0
    engine, _ = build_eval_engine(dataset, bundle=bundle)
    with reference_loop(guided=False):
        unbounded = evaluate_quality(engine, goldens)
    assert engine.exploration_stats()["seeded"] == 0
    assert bounded["aggregates"] == unbounded["aggregates"] == baseline["aggregates"]
    assert bounded["counts"] == unbounded["counts"] == baseline["counts"]
