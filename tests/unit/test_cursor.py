"""Unit tests for the cursor of the reference exploration
(``tests/reference_exploration.py``)."""

import pytest

from reference_exploration import Cursor


def test_origin_cursor():
    c = Cursor.origin_cursor("A", keyword=0, cost=0.5)
    assert c.element == "A"
    assert c.keyword == 0
    assert c.origin == "A"
    assert c.parent is None
    assert c.distance == 0
    assert c.cost == 0.5


def test_expand_accumulates_cost_and_distance():
    origin = Cursor.origin_cursor("A", 0, 1.0)
    child = origin.expand("B", 0.25)
    assert child.element == "B"
    assert child.parent is origin
    assert child.distance == 1
    assert child.cost == 1.25
    assert child.origin == "A"
    assert child.keyword == 0


def test_path_in_origin_first_order():
    c = Cursor.origin_cursor("A", 0, 1.0).expand("e1", 1.0).expand("B", 1.0)
    assert c.path() == ["A", "e1", "B"]


def test_visits():
    c = Cursor.origin_cursor("A", 0, 1.0).expand("e1", 1.0).expand("B", 1.0)
    assert c.visits("A")
    assert c.visits("e1")
    assert c.visits("B")
    assert not c.visits("C")


def test_path_elements_set():
    c = Cursor.origin_cursor("A", 0, 1.0).expand("e1", 1.0)
    assert c.path_elements() == frozenset({"A", "e1"})


def test_parent_element():
    origin = Cursor.origin_cursor("A", 0, 1.0)
    assert origin.parent_element is None
    assert origin.expand("B", 1.0).parent_element == "A"


def test_len_counts_elements():
    c = Cursor.origin_cursor("A", 0, 1.0).expand("B", 1.0)
    assert len(c) == 2


def test_immutable():
    c = Cursor.origin_cursor("A", 0, 1.0)
    with pytest.raises(AttributeError):
        c.cost = 0.0


def test_shared_parent_not_copied():
    origin = Cursor.origin_cursor("A", 0, 1.0)
    c1 = origin.expand("B", 1.0)
    c2 = origin.expand("C", 1.0)
    assert c1.parent is c2.parent is origin
