"""Unit tests for the out-of-core build primitives (storage.segments).

The streamed bundle build stands on three small disk-backed structures:
segment files of int64 values, a budgeted external sorter, and a spool
that streams a grouping's offsets and values as the mmap tier's run
layout, held to the codec's in-memory grouping value for value.
"""

import os
import random

import pytest

from repro.storage.codec import decode_raw_ids, encode_grouping, encode_ids
from repro.storage.mmap_tier import grouping_views
from repro.storage.segments import (
    ExternalSorter,
    GroupingSpool,
    SegmentWriter,
    iter_rows,
    iter_value_chunks,
    write_ids_from_segment,
)
from repro.keyword.inverted_index import InvertedIndex, SpillingPostingsBuilder


class _Section:
    """Collects bytes like BundleWriter's section sink."""

    def __init__(self):
        self.chunks = []

    def write(self, data):
        self.chunks.append(bytes(data))

    @property
    def data(self):
        return b"".join(self.chunks)


# ----------------------------------------------------------------------
# SegmentWriter / iterators
# ----------------------------------------------------------------------


def test_segment_roundtrip(tmp_path):
    path = tmp_path / "rows.seg"
    rows = [(i, i * 7 % 13, i * i) for i in range(1000)]
    with SegmentWriter(path, arity=3, buffer_rows=32) as seg:
        for row in rows:
            seg.append(row)
    assert seg.rows == 1000
    assert seg.values == 3000
    assert list(iter_rows(path, 3, chunk_rows=17)) == rows


def test_segment_value_chunks(tmp_path):
    path = tmp_path / "vals.seg"
    values = list(range(257))
    with SegmentWriter(path, arity=1, buffer_rows=8) as seg:
        for v in values:
            seg.append_value(v)
    flat = [v for chunk in iter_value_chunks(path, chunk_values=100) for v in chunk]
    assert flat == values


def test_segment_negative_and_large_values(tmp_path):
    path = tmp_path / "edge.seg"
    values = [-1, 0, 2**62, -(2**62), 42]
    with SegmentWriter(path, arity=1) as seg:
        for v in values:
            seg.append_value(v)
    assert [v for c in iter_value_chunks(path) for v in c] == values


def test_write_ids_from_segment_matches_encode_ids(tmp_path):
    path = tmp_path / "ids.seg"
    values = [random.Random(7).randrange(0, 2**40) for _ in range(513)]
    with SegmentWriter(path, arity=1) as seg:
        for v in values:
            seg.append_value(v)
    section = _Section()
    write_ids_from_segment(section, seg)
    assert section.data == encode_ids(values)


def test_segment_unlink(tmp_path):
    path = tmp_path / "gone.seg"
    with SegmentWriter(path, arity=1) as seg:
        seg.append_value(1)
    assert path.exists()
    seg.unlink()
    assert not path.exists()


# ----------------------------------------------------------------------
# ExternalSorter
# ----------------------------------------------------------------------


def test_external_sorter_matches_sorted(tmp_path):
    rng = random.Random(11)
    rows = [(rng.randrange(100), rng.randrange(100), i) for i in range(2000)]
    sorter = ExternalSorter(tmp_path, arity=3, budget_rows=128)
    for row in rows:
        sorter.add(row)
    assert sorter.runs_spilled >= 2  # the budget actually forced disk runs
    assert list(sorter.sorted_rows()) == sorted(rows)
    sorter.cleanup()


def test_external_sorter_no_spill_when_under_budget(tmp_path):
    rows = [(3, 1), (1, 2), (2, 0)]
    sorter = ExternalSorter(tmp_path, arity=2, budget_rows=100)
    for row in rows:
        sorter.add(row)
    assert sorter.runs_spilled == 0
    assert list(sorter.sorted_rows()) == sorted(rows)
    sorter.cleanup()


def test_external_sorter_is_stable_on_total_order(tmp_path):
    # Rows carry a unique sequence column, so sorted() order is total —
    # the merge must reproduce it exactly even across run boundaries.
    rows = [(i % 5, i) for i in range(100)]
    sorter = ExternalSorter(tmp_path, arity=2, budget_rows=7)
    for row in reversed(rows):
        sorter.add(row)
    assert list(sorter.sorted_rows()) == sorted(rows)
    sorter.cleanup()


def test_external_sorter_empty(tmp_path):
    sorter = ExternalSorter(tmp_path, arity=2, budget_rows=4)
    assert list(sorter.sorted_rows()) == []
    sorter.cleanup()


# ----------------------------------------------------------------------
# GroupingSpool — the run layout, value for value the codec's grouping
# ----------------------------------------------------------------------


def _spooled_runs(tmp_path, groups):
    """``(offsets, values)`` as the two raw sections the spool streams."""
    spool = GroupingSpool(tmp_path, "g")
    for values in groups:
        spool.add(values)
    offsets, values = _Section(), _Section()
    spool.write_raw_offsets(offsets)
    spool.write_raw_values(values)
    spool.cleanup()
    assert not any(name.startswith("g.") for name in os.listdir(tmp_path))
    return decode_raw_ids(offsets.data).tolist(), decode_raw_ids(values.data).tolist()


def test_grouping_spool_matches_encode_grouping(tmp_path):
    groups = [[1, 2, 3], [], [7], list(range(50))]
    _, offsets, values = map(list, grouping_views(encode_grouping(enumerate(groups))))
    assert _spooled_runs(tmp_path, groups) == (list(offsets), list(values))


def test_grouping_spool_empty(tmp_path):
    assert _spooled_runs(tmp_path, []) == ([0], [])


# ----------------------------------------------------------------------
# SpillingPostingsBuilder — parity with the in-memory inverted index
# ----------------------------------------------------------------------


def test_spilling_postings_matches_inverted_index(tmp_path):
    rng = random.Random(5)
    index = InvertedIndex()
    builder = SpillingPostingsBuilder(tmp_path, budget_rows=16)
    for element_id in range(120):
        terms = [f"t{rng.randrange(12)}" for _ in range(rng.randrange(1, 5))]
        index.index(element_id, terms)
    # Feed the spilling builder the same (vocab, element, tf, total) rows
    # the streamed build produces, with vocab ids in first-seen order.
    postings = {
        term: {p.element: (p.term_frequency, p.label_terms) for p in index.lookup(term)}
        for term in index.iter_terms()
    }
    vocab = {term: vid for vid, term in enumerate(postings)}
    for term, bucket in postings.items():
        for element_id, (tf, total) in bucket.items():
            builder.add(vocab[term], element_id, tf, total)
    assert builder.runs_spilled >= 2
    merged = {vid: flat for vid, flat in builder.merged_groups()}
    builder.cleanup()
    for term, bucket in postings.items():
        flat = merged[vocab[term]]
        got = {
            flat[i]: (flat[i + 1], flat[i + 2]) for i in range(0, len(flat), 3)
        }
        assert got == bucket
