"""Unit tests for the Algorithm 2 candidate list."""

import pytest

from repro.core.subgraph import MatchingSubgraph
from repro.core.topk import CandidateList


def subgraph(elements, cost, connecting=None):
    """A single-path subgraph over the given elements with a fixed cost."""
    return MatchingSubgraph(connecting or elements[0], [list(elements)], cost)


def test_requires_positive_k():
    with pytest.raises(ValueError):
        CandidateList(0)


def test_offer_and_best_sorted():
    lst = CandidateList(3)
    lst.offer(subgraph(["b"], 2.0))
    lst.offer(subgraph(["a"], 1.0))
    lst.offer(subgraph(["c"], 3.0))
    assert [sg.cost for sg in lst.best()] == [1.0, 2.0, 3.0]


def test_kth_cost_infinite_until_k_candidates():
    lst = CandidateList(2)
    assert lst.kth_cost() == float("inf")
    lst.offer(subgraph(["a"], 1.0))
    assert lst.kth_cost() == float("inf")
    lst.offer(subgraph(["b"], 2.0))
    assert lst.kth_cost() == 2.0


def test_trim_to_k():
    lst = CandidateList(2)
    for i, name in enumerate(["a", "b", "c", "d"]):
        lst.offer(subgraph([name], float(i)))
    assert len(lst) == 2
    assert [sg.cost for sg in lst.best()] == [0.0, 1.0]


def test_duplicate_element_set_keeps_cheapest():
    lst = CandidateList(3)
    lst.offer(subgraph(["a", "b"], 5.0))
    assert lst.offer(subgraph(["a", "b"], 3.0)) is True
    assert len(lst) == 1
    assert lst.best()[0].cost == 3.0


def test_worse_duplicate_rejected():
    lst = CandidateList(3)
    lst.offer(subgraph(["a", "b"], 3.0))
    assert lst.offer(subgraph(["a", "b"], 5.0)) is False
    assert lst.best()[0].cost == 3.0


def test_equal_cost_duplicate_rejected():
    lst = CandidateList(3)
    first = subgraph(["a", "b"], 3.0)
    lst.offer(first)
    assert lst.offer(subgraph(["b", "a"], 3.0)) is False
    assert lst.best() == [first]
    assert (lst.offered, lst.accepted) == (2, 1)


def test_offer_agrees_with_the_inline_accept_path():
    """The exploration loop pre-checks duplicates itself and calls
    ``accept``; the oracle calls ``offer``.  Both build the same list."""
    offers = [
        subgraph(["a"], 4.0),
        subgraph(["b"], 2.0),
        subgraph(["a"], 1.0),  # cheaper duplicate replaces
        subgraph(["b"], 2.0),  # equal duplicate rejected
        subgraph(["c"], 3.0),
        subgraph(["d"], 0.5),  # pushes the costliest out of the top 3
    ]
    via_offer, via_accept = CandidateList(3), CandidateList(3)
    for sg in offers:
        via_offer.offer(sg)
        key = sg.canonical_key
        existing = via_accept._by_key.get(key)
        if existing is not None and sg.cost >= existing.cost:
            via_accept.offered += 1
        else:
            via_accept.accept(key, existing, sg)
    assert [sg.cost for sg in via_offer.best()] == [0.5, 1.0, 2.0]
    assert via_offer.best() == via_accept.best()
    assert (via_offer.offered, via_offer.accepted) == (
        via_accept.offered,
        via_accept.accepted,
    )


def test_should_terminate_strict():
    lst = CandidateList(1)
    lst.offer(subgraph(["a"], 2.0))
    assert not lst.should_terminate(2.0)  # strict comparison (Alg 2 line 11)
    assert lst.should_terminate(2.5)


def test_should_terminate_never_before_k():
    lst = CandidateList(5)
    lst.offer(subgraph(["a"], 1.0))
    assert not lst.should_terminate(float("inf")) or len(lst) >= 5


def test_rank_never_improves_for_survivors():
    # Trimmed-away candidates must not resurface above retained ones.
    lst = CandidateList(2)
    lst.offer(subgraph(["a"], 1.0))
    lst.offer(subgraph(["b"], 2.0))
    lst.offer(subgraph(["c"], 3.0))  # trimmed immediately
    lst.offer(subgraph(["c"], 3.0))  # re-offered; still outside top-2
    assert {tuple(sg.elements) for sg in lst.best()} == {("a",), ("b",)}


def test_offered_accepted_counters():
    lst = CandidateList(2)
    lst.offer(subgraph(["a"], 1.0))
    lst.offer(subgraph(["a"], 2.0))  # duplicate, worse
    assert lst.offered == 2
    assert lst.accepted == 1


def test_best_with_count():
    lst = CandidateList(5)
    for i, name in enumerate("abcde"):
        lst.offer(subgraph([name], float(i)))
    assert len(lst.best(2)) == 2
