"""Unit tests for the generic inverted index."""

from repro.keyword.inverted_index import InvertedIndex, Posting


def make_index():
    index = InvertedIndex()
    index.index("doc1", ["graph", "search", "graph"])
    index.index("doc2", ["graph", "database"])
    index.index("doc3", ["ranking"])
    return index


def test_lookup_returns_postings():
    index = make_index()
    postings = {p.element: p for p in index.lookup("graph")}
    assert set(postings) == {"doc1", "doc2"}
    assert postings["doc1"].term_frequency == 2
    assert postings["doc1"].label_terms == 3


def test_lookup_missing_term():
    assert make_index().lookup("nope") == []


def test_contains():
    index = make_index()
    assert "graph" in index
    assert "nope" not in index


def test_document_frequency():
    index = make_index()
    assert index.document_frequency("graph") == 2
    assert index.document_frequency("ranking") == 1
    assert index.document_frequency("nope") == 0


def test_counts():
    index = make_index()
    assert index.element_count == 3
    assert index.term_count == 4
    assert index.posting_count == 5


def test_empty_label_ignored():
    index = InvertedIndex()
    index.index("doc", [])
    assert index.element_count == 0


def test_reindexing_same_element_accumulates():
    index = InvertedIndex()
    index.index("doc", ["a"])
    index.index("doc", ["a", "b"])
    posting = index.lookup("a")[0]
    assert posting.term_frequency == 2
    assert index.element_count == 1


def test_estimated_bytes_positive():
    assert make_index().estimated_bytes() > 0


def test_vocabulary():
    assert set(make_index().vocabulary) == {"graph", "search", "database", "ranking"}
