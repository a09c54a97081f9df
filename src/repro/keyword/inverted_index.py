"""A generic inverted index: analyzed term → postings with TF weights.

Elements are opaque hashable keys; the keyword-element map layers RDF
semantics on top.  Document frequencies and IDF are exposed so callers can
apply TF/IDF weighting to multi-term labels, as the paper suggests for
improving the keyword-to-element mapping.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Tuple


class Posting(NamedTuple):
    """One indexed occurrence list entry; ``element`` is a handle, which
    the index's ``element()`` resolves to the element key."""

    element: Hashable
    term_frequency: int
    label_terms: int  # total analyzed terms in the element's label


class InvertedIndex:
    """term → postings, with document-frequency bookkeeping."""

    #: Which serving tier the index lives in; the mmap-resident reader
    #: (:class:`repro.storage.mmap_tier.MmapInvertedIndex`) overrides
    #: this so stats endpoints can report the active tier.
    tier = "memory"

    def __init__(self):
        self._postings: Dict[str, Dict[Hashable, List[int]]] = {}
        self._indexed_elements: set = set()
        # element -> terms it is posted under, for O(|label|) unindexing.
        self._element_terms: Dict[Hashable, set] = {}
        #: No term the index holds is longer (a high-water mark: an
        #: unindex leaves it).
        self.max_term_length = 0

    def index(self, element: Hashable, terms: Iterable[str]) -> None:
        """Index an element under its analyzed label terms."""
        terms = list(terms)
        total = len(terms)
        if total == 0:
            return
        counts: Dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        for term, tf in counts.items():
            bucket = self._postings.setdefault(term, {})
            entry = bucket.get(element)
            if entry is None:
                bucket[element] = [tf, total]
            else:
                entry[0] += tf
                entry[1] = max(entry[1], total)
        self._indexed_elements.add(element)
        self._element_terms.setdefault(element, set()).update(counts)
        self.max_term_length = max(self.max_term_length, *map(len, counts))

    def unindex(self, element: Hashable) -> bool:
        """Remove an element's postings; returns False if never indexed."""
        terms = self._element_terms.pop(element, None)
        if terms is None:
            return False
        for term in terms:
            bucket = self._postings.get(term)
            if bucket is None:
                continue
            bucket.pop(element, None)
            if not bucket:
                del self._postings[term]
        self._indexed_elements.discard(element)
        return True

    def posted_counts(self, element: Hashable) -> Dict[str, int]:
        """term → TF the element is posted under (empty if not indexed);
        O(|label|) from the element's own record."""
        postings = self._postings
        return {
            term: postings[term][element][0]
            for term in self._element_terms.get(element, ())
        }

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, term: str) -> List[Posting]:
        """All postings for an exact (already analyzed) term."""
        bucket = self._postings.get(term)
        if not bucket:
            return []
        return [Posting(el, tf, total) for el, (tf, total) in bucket.items()]

    def element(self, handle: Hashable) -> Hashable:
        """The element a posting's handle names: here the handle is the
        key (the mmap tier hands base elements out by id)."""
        return handle

    #: Resolving without a memo: the same thing where nothing is decoded.
    peek_element = element

    def __contains__(self, term: str) -> bool:
        return term in self._postings

    def iter_terms(self) -> Iterator[str]:
        return iter(self._postings.keys())

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, ()))

    @property
    def element_count(self) -> int:
        return len(self._indexed_elements)

    @property
    def term_count(self) -> int:
        return len(self._postings)

    @property
    def posting_count(self) -> int:
        return sum(len(bucket) for bucket in self._postings.values())

    def estimated_bytes(self) -> int:
        """A rough, deterministic size estimate for Fig. 6b-style reporting:
        term text plus a fixed 16 bytes per posting."""
        return sum(
            len(term.encode()) + 16 * len(bucket)
            for term, bucket in self._postings.items()
        )

    def __len__(self) -> int:
        return self.term_count


class SpillingPostingsBuilder:
    """Out-of-core posting-list accumulator for the streaming build.

    Accepts ``(vocab_id, element_id, tf, total)`` rows in element
    processing order, keeping at most ``budget_rows`` resident; past the
    budget a sorted run spills to ``directory`` and the runs are k-way
    merged on read-back.  :meth:`merged_groups` yields per-term posting
    lists in ascending vocab-id order — element order *within* a term is
    ascending element id, which equals first-indexed order because the
    streamed build assigns element ids sequentially.  That matches the
    in-memory :class:`InvertedIndex`, whose per-term dict buckets also
    record elements in first-indexed order.

    Mirrors :meth:`InvertedIndex.index` semantics for the build-only
    case: every element is indexed exactly once, so the ``tf`` merge
    (``+=``) and ``total`` merge (``max``) paths never trigger.
    """

    def __init__(self, directory, budget_rows: int):
        from repro.storage.segments import ExternalSorter

        self._sorter = ExternalSorter(directory, 4, budget_rows, prefix="postings")
        self.posting_rows = 0

    @property
    def runs_spilled(self) -> int:
        return self._sorter.runs_spilled

    def add(self, vocab_id: int, element_id: int, tf: int, total: int) -> None:
        self._sorter.add((vocab_id, element_id, tf, total))
        self.posting_rows += 1

    def merged_groups(self) -> Iterator[Tuple[int, List[int]]]:
        """Yield ``(vocab_id, flat [element_id, tf, total, ...])`` groups."""
        from itertools import groupby

        for vocab_id, rows in groupby(
            self._sorter.sorted_rows(), key=lambda row: row[0]
        ):
            flat: List[int] = []
            for _, element_id, tf, total in rows:
                flat.append(element_id)
                flat.append(tf)
                flat.append(total)
            yield vocab_id, flat

    def cleanup(self) -> None:
        self._sorter.cleanup()
