"""What a loaded bundle is: binary-searchable readers over the mmap.

PR 8 made *building* a million-triple bundle possible in bounded memory;
this module is the serving half, and the only reader
:func:`repro.storage.load_bundle` has.  A bundle stores its keyword
index and triple indexes as *queryable* layouts: byte-offset tables over
the term table and the keyword vocabulary, order-preserving sorted
permutations for binary search, posting lists as contiguous ``(element,
tf, total)`` int64 runs, and the full triple set as SPO/POS/OSP-sorted
flat runs.  The classes here serve the exact same interfaces the
in-process structures expose — ``InvertedIndex``'s lookup/maintenance surface,
``TripleStore``'s pattern matching — by
binary search over ``memoryview('q')`` casts of the mmap-ed sections,
so cold start is O(metadata) and resident memory is O(touched data):
the page cache faults in only the runs a query's keywords and join
atoms actually address (EMBANKS's disk-resident-search-structure
argument, see PAPERS.md).

Updates never mutate the read-only file.  Each reader pairs the base
sections with a small in-memory **overlay** — a delta
:class:`~repro.keyword.inverted_index.InvertedIndex` plus element
tombstones, a delta :class:`~repro.store.triple_store.TripleStore` plus
id-triple tombstones, promoted-on-write refcount groups — maintained by
the same incremental-maintenance calls the in-memory structures
receive.  The overlay semantics are chosen so that a WAL-tail replay or
a live ``/update`` epoch leaves lookup results *identical* to those of
the structures the constructors build (property-tested in
``tests/property/test_mmap_tier_identity.py``); the ordering argument
rests on the maintenance invariant that an element is always unindexed
before it is re-indexed, so base postings and delta postings never
overlap for a live element.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain, filterfalse
from operator import sub
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.rdf.terms import BNode, Literal, Term, URI
from repro.rdf.triples import Triple
from repro.store.triple_store import TripleStore, ill_typed_pattern

from repro.storage.codec import (
    ELEMENT_CODE,
    ELEMENT_KINDS,
    decode_raw_ids,
    term_order_key,
)
from repro.storage.errors import BundleFormatError
from repro.keyword.inverted_index import InvertedIndex, Posting

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: How many terms the table does not hold it remembers: room for the new
#: terms of a few dozen typical update batches.
ABSENT_TERMS_MEMO = 1024


def grouping_views(buf) -> Tuple:
    """Zero-copy ``(keys, offsets, values)`` int64 views of one grouping
    section (the ``encode_grouping`` wire shape: three count-prefixed
    id blobs back to back)."""
    pos = 0
    views = []
    for part in ("keys", "offsets", "values"):
        if pos + 8 > len(buf):
            raise BundleFormatError(f"grouping truncated before {part}")
        (count,) = _U64.unpack_from(buf, pos)
        end = pos + 8 + 8 * count
        if end > len(buf):
            raise BundleFormatError(f"grouping truncated inside {part}")
        views.append(decode_raw_ids(buf[pos + 8 : end]))
        pos = end
    keys, offsets, values = views
    if len(offsets) != len(keys) + 1:
        raise BundleFormatError(
            f"grouping offsets mismatch: {len(keys)} keys, {len(offsets)} offsets"
        )
    return keys, offsets, values


def _find_sorted(permutation, key_of, probe) -> Optional[int]:
    """The member of ``permutation`` — ids in ascending order of
    ``key_of(id)`` — whose key is ``probe``, or None: the one binary
    search behind every reverse lookup of this module."""
    lo, hi = 0, len(permutation)
    while lo < hi:
        mid = (lo + hi) // 2
        member = permutation[mid]
        key = key_of(member)
        if key < probe:
            lo = mid + 1
        elif key > probe:
            hi = mid
        else:
            return member
    return None


class _AbsentTerm(Exception):
    """Internal: a probe term references a datatype the table lacks."""


class MmapTermTable:
    """The interned term table, decoded per record on demand.

    A drop-in for the eagerly decoded ``List[Term]``: every load-time
    consumer only *indexes* the table, so ``__getitem__`` (memoized —
    each term is constructed at most once, preserving the shared-object
    identity the caches rely on) is the whole read surface.  ``id_of``
    adds the reverse mapping by binary search over the sorted
    permutation, comparing :func:`repro.storage.codec.term_order_key`
    probes against keys parsed straight out of the encoded records.
    """

    __slots__ = ("_records", "_offsets", "_sorted", "_terms", "_ids", "_absent")

    def __init__(self, records, offsets, sorted_ids):
        self._records = records
        self._offsets = offsets
        self._sorted = sorted_ids
        if len(offsets) != len(sorted_ids) + 1:
            raise BundleFormatError(
                f"term offset table has {len(offsets)} entries for "
                f"{len(sorted_ids)} sorted ids"
            )
        self._terms: Dict[int, Term] = {}
        self._ids: Dict[Term, int] = {}  # found ids: the table bounds them
        # Misses (a bisect each, ~26 us), emptied when full: an update
        # batch probes each of its new terms many times over.
        self._absent: Dict[Term, None] = {}

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index: int) -> Term:
        term = self._terms.get(index)
        if term is not None:
            return term
        term = self.peek(index)
        self._terms[index] = term
        return term

    def peek(self, index: int) -> Term:
        """The term at ``index``, decoded without memoizing it: for a
        caller that only compares it (the keyword lookup's tie-break reads
        thousands of elements to keep eight).  A typed literal's datatype
        still goes through the memo; there are a handful of them."""
        term = self._terms.get(index)
        if term is not None:
            return term
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._decode(index)

    def _text_at(self, pos: int) -> Tuple[str, int]:
        (length,) = _U32.unpack_from(self._records, pos)
        end = pos + 4 + length
        return bytes(self._records[pos + 4 : end]).decode("utf-8"), end

    def _decode(self, index: int) -> Term:
        buf = self._records
        start = self._offsets[index]
        kind = buf[start]
        text, pos = self._text_at(start + 1)
        if kind == 0:
            return URI(text)
        if kind == 1:
            return BNode(text)
        if kind == 2:
            return Literal(text)
        if kind == 3:
            (dt_id,) = _U64.unpack_from(buf, pos)
            datatype = self[dt_id]
            if not isinstance(datatype, URI):
                raise BundleFormatError(
                    f"term {index}: datatype id {dt_id} is not a URI"
                )
            return Literal(text, datatype=datatype)
        if kind == 4:
            lang, _ = self._text_at(pos)
            return Literal(text, language=lang)
        raise BundleFormatError(f"unknown term kind {kind} at term {index}")

    def _record_key(self, index: int) -> Tuple[int, str, object]:
        """The record's :func:`term_order_key` without building a Term."""
        buf = self._records
        start = self._offsets[index]
        kind = buf[start]
        text, pos = self._text_at(start + 1)
        if kind == 3:
            (dt_id,) = _U64.unpack_from(buf, pos)
            return (kind, text, dt_id)
        if kind == 4:
            lang, _ = self._text_at(pos)
            return (kind, text, lang)
        return (kind, text, 0)

    def _datatype_id(self, datatype: URI) -> int:
        dt_id = self.id_of(datatype)
        if dt_id is None:
            raise _AbsentTerm
        return dt_id

    def id_of(self, term: Term) -> Optional[int]:
        """The term's table id, or None when it is not interned."""
        found = self._ids.get(term)
        if found is not None or term in self._absent:
            return found
        try:
            found = _find_sorted(
                self._sorted, self._record_key, term_order_key(term, self._datatype_id)
            )
        except _AbsentTerm:
            pass
        if found is not None:
            self._ids[term] = found
        else:
            if len(self._absent) >= ABSENT_TERMS_MEMO:
                self._absent.clear()
            self._absent[term] = None
        return found


class MmapTermDictionary:
    """The keyword vocabulary: id ↔ analyzed-term text over the mmap.

    ``text`` decodes one length-prefixed string by offset (memoized),
    ``peek`` without memoizing it; ``id_of`` binary-searches the
    lexicographic permutation on the raw UTF-8 bytes, decoding nothing:
    the builder sorts the vocabulary by ``str``, and code-point order is
    UTF-8 byte order.  Ids are in the insertion order the
    materialized postings dict iterates in, so walking them
    (:meth:`MmapInvertedIndex.iter_terms`) enumerates the vocabulary as
    the constructors' index does.
    """

    __slots__ = ("_strings", "_offsets", "_sorted", "_texts", "_ids")

    def __init__(self, strings, offsets, sorted_ids):
        self._strings = strings
        self._offsets = offsets
        self._sorted = sorted_ids
        if len(offsets) != len(sorted_ids) + 1:
            raise BundleFormatError(
                f"vocab offset table has {len(offsets)} entries for "
                f"{len(sorted_ids)} sorted ids"
            )
        self._texts: Dict[int, str] = {}
        # As in the term table: found ids only; a miss — any word a
        # client cares to send — is one bisect (~7 us) and not remembered.
        self._ids: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def text(self, vid: int) -> str:
        text = self._texts.get(vid)
        if text is None:
            text = self._texts[vid] = self.peek(vid)
        return text

    def peek(self, vid: int) -> str:
        """The text of ``vid``, decoded without memoizing it."""
        return self._raw(vid).decode("utf-8")

    def _raw(self, vid: int) -> bytes:
        start = self._offsets[vid]
        (length,) = _U32.unpack_from(self._strings, start)
        return bytes(self._strings[start + 4 : start + 4 + length])

    def id_of(self, text: str) -> Optional[int]:
        found = self._ids.get(text)
        if found is not None:
            return found
        # A lone surrogate (no stored term holds one) still encodes, in
        # code-point order, so such a probe misses like any other.
        probe = text.encode("utf-8", "surrogatepass")
        found = _find_sorted(self._sorted, self._raw, probe)
        if found is not None:
            self._ids[text] = found
        return found


class MmapPostingsReader:
    """Posting lists as contiguous ``(element id, tf, total)`` int64 runs.

    ``postings(vid)`` slices the run for one vocabulary id out of the
    mmap and hands its rows out by element id: one ``tolist()`` of the
    slice, no element decoded and nothing kept.  Which element an id
    names is the caller's question (:meth:`MmapInvertedIndex.element`),
    asked only for what it keeps.
    """

    __slots__ = ("_offsets", "_runs", "_eids")

    def __init__(self, offsets, runs):
        self._offsets = offsets
        self._runs = runs
        self._eids = runs[0::3]  # the element-id column, still a view

    def df(self, vid: int) -> int:
        return self._offsets[vid + 1] - self._offsets[vid]

    def tf(self, vid: int, eid: int) -> int:
        """The TF of one element under one term: a run is in ascending
        element id, so this is a bisect on its id column, not a decode."""
        row = bisect_left(self._eids, eid, self._offsets[vid], self._offsets[vid + 1])
        return self._runs[3 * row + 1]

    def postings(self, vid: int) -> List[Posting]:
        flat = self._runs[3 * self._offsets[vid] : 3 * self._offsets[vid + 1]].tolist()
        return list(map(Posting, flat[0::3], flat[1::3], flat[2::3]))


class MmapInvertedIndex:
    """The inverted index served from the file, updatable via overlay.

    Behavior-compatible with
    :class:`~repro.keyword.inverted_index.InvertedIndex`:

    * **reads** combine the base runs (filtered through element
      tombstones) with a delta ``InvertedIndex`` holding everything
      indexed since load — appended after the base postings, which is
      exactly where a re-inserted dict key would sit in the
      constructors' index.  A posting's ``element`` is a **handle**: a
      base element's id, or a delta element's key; :meth:`element`
      resolves one to its key, so a lookup decodes only the elements
      its caller keeps;
    * **unindex** of a base element records a tombstone and bumps
      per-term dead counters (via the element→terms runs), keeping
      ``document_frequency`` / ``term_count`` / ``posting_count`` O(1)
      to O(delta) instead of O(scan);
    * **index** always lands in the delta — safe because maintenance
      unindexes an element before ever re-indexing it, so a live base
      element never receives delta postings under the same term.
    """

    tier = "mmap"

    def __init__(
        self,
        dictionary: MmapTermDictionary,
        postings_offsets,
        postings_runs,
        elements,
        elements_sorted,
        element_terms_offsets,
        element_terms_runs,
        term_table: MmapTermTable,
    ):
        self._dict = dictionary
        self._elements = elements  # flat (code, term-id) pairs
        self._elements_sorted = elements_sorted
        self._eterm_offsets = element_terms_offsets
        self._eterm_runs = element_terms_runs
        self._terms = term_table
        self._n_elements = len(elements) // 2
        if len(element_terms_offsets) != self._n_elements + 1:
            raise BundleFormatError(
                f"element-terms offset table has {len(element_terms_offsets)} "
                f"entries for {self._n_elements} elements"
            )
        if len(postings_offsets) != len(dictionary) + 1:
            raise BundleFormatError(
                f"postings offset table has {len(postings_offsets)} entries "
                f"for a vocabulary of {len(dictionary)}"
            )
        self._base_rows = len(postings_runs) // 3
        self._postings = MmapPostingsReader(postings_offsets, postings_runs)
        # Update overlay.
        self._delta = InvertedIndex()
        self._tombstones: set = set()
        self._dead_eids: set = set()  # the tombstones' element ids
        self._dead_df: Dict[int, int] = {}
        self._dead_vids: set = set()
        self._dead_rows = 0

    # -- element identity ----------------------------------------------

    def element(self, handle: Hashable) -> Hashable:
        """The element key a posting's handle names; a base element's
        term is decoded through the term table's memo."""
        return self._resolve(handle, self._terms.__getitem__)

    def peek_element(self, handle: Hashable) -> Hashable:
        """:meth:`element`, decoded without memoizing the term."""
        return self._resolve(handle, self._terms.peek)

    def _resolve(self, handle: Hashable, term_at: Callable[[int], Term]) -> Hashable:
        if not isinstance(handle, int):
            return handle  # a delta element's key
        elements = self._elements
        return (ELEMENT_KINDS[elements[2 * handle]], term_at(elements[2 * handle + 1]))

    def _base_eid(self, element: Hashable) -> Optional[int]:
        kind, term = element
        code = ELEMENT_CODE.get(kind)
        if code is None:
            return None
        tid = self._terms.id_of(term)
        if tid is None:
            return None
        elements = self._elements
        return _find_sorted(
            self._elements_sorted,
            lambda eid: (elements[2 * eid], elements[2 * eid + 1]),
            (code, tid),
        )

    # -- maintenance (InvertedIndex surface) ---------------------------

    def index(self, element: Hashable, terms: Iterable[str]) -> None:
        self._delta.index(element, terms)

    def unindex(self, element: Hashable) -> bool:
        if self._delta.unindex(element):
            return True
        if element in self._tombstones:
            return False
        eid = self._base_eid(element)
        if eid is None:
            return False
        self._tombstones.add(element)
        self._dead_eids.add(eid)
        runs = self._eterm_runs
        df = self._postings.df
        for i in range(self._eterm_offsets[eid], self._eterm_offsets[eid + 1]):
            vid = runs[i]
            dead = self._dead_df.get(vid, 0) + 1
            self._dead_df[vid] = dead
            self._dead_rows += 1
            if dead == df(vid):
                self._dead_vids.add(vid)
        return True

    def posted_counts(self, element: Hashable) -> Dict[str, int]:
        counts = self._delta.posted_counts(element)
        if counts or element in self._tombstones:
            return counts
        eid = self._base_eid(element)
        if eid is None:
            return counts
        runs = self._eterm_runs
        return {
            self._dict.text(runs[i]): self._postings.tf(runs[i], eid)
            for i in range(self._eterm_offsets[eid], self._eterm_offsets[eid + 1])
        }

    # -- lookup --------------------------------------------------------

    def lookup(self, term: str) -> List[Posting]:
        """The term's postings by handle: live base rows by element id,
        then the delta's by key."""
        out: List[Posting] = []
        vid = self._dict.id_of(term)
        if vid is not None and vid not in self._dead_vids:
            out = self._postings.postings(vid)
            if self._dead_df.get(vid):
                dead = self._dead_eids
                out = [posting for posting in out if posting.element not in dead]
        out.extend(self._delta.lookup(term))
        return out

    def __contains__(self, term: str) -> bool:
        if term in self._delta:
            return True
        vid = self._dict.id_of(term)
        return vid is not None and vid not in self._dead_vids

    @cached_property
    def _base_max_length(self) -> int:
        offsets = self._dict._offsets  # the longest encoding: no text decoded
        return max(map(sub, offsets[1:], offsets[:-1]), default=4) - 4

    @property
    def max_term_length(self) -> int:
        """No live term is longer: the base vocabulary's longest, or the
        delta's high-water mark."""
        return max(self._base_max_length, self._delta.max_term_length)

    def _base_live(self, term: str) -> bool:
        vid = self._dict.id_of(term)
        return vid is not None and vid not in self._dead_vids

    def iter_terms(self) -> Iterator[str]:
        # Base vocabulary in id (= materialized insertion) order, minus
        # fully-dead terms; delta-only terms append, matching a dict
        # whose deleted key was re-inserted at the end.
        dead = self._dead_vids
        for vid in range(len(self._dict)):
            if vid not in dead:
                yield self._dict.peek(vid)
        for term in self._delta.iter_terms():
            if not self._base_live(term):
                yield term

    # -- statistics ----------------------------------------------------

    def document_frequency(self, term: str) -> int:
        df = self._delta.document_frequency(term)
        vid = self._dict.id_of(term)
        if vid is not None:
            df += self._postings.df(vid) - self._dead_df.get(vid, 0)
        return df

    @property
    def element_count(self) -> int:
        return self._n_elements - len(self._tombstones) + self._delta.element_count

    @property
    def term_count(self) -> int:
        count = len(self._dict) - len(self._dead_vids)
        for term in self._delta.iter_terms():
            if not self._base_live(term):
                count += 1
        return count

    @property
    def posting_count(self) -> int:
        return self._base_rows - self._dead_rows + self._delta.posting_count

    def estimated_bytes(self) -> int:
        """Same estimate as the materialized index (term text + 16 bytes
        per live posting) — an O(vocabulary) scan, computed on demand;
        the serving loop never calls it."""
        total = 0
        dictionary = self._dict
        df = self._postings.df
        dead_df = self._dead_df
        for vid in range(len(dictionary)):
            live = df(vid) - dead_df.get(vid, 0)
            if live > 0:
                total += len(dictionary.peek(vid).encode()) + 16 * live
        for term in self._delta.iter_terms():
            delta_df = self._delta.document_frequency(term)
            if self._base_live(term):
                total += 16 * delta_df
            else:
                total += len(term.encode()) + 16 * delta_df
        return total

    def __len__(self) -> int:
        return self.term_count


def attr_refs_decoder(term_table: MmapTermTable):
    """Group decoder for ``kindex2.attr_refs``: flat ``(class|-1, count)``
    pairs → ``{class-or-None: count}``."""

    def decode(values, start: int, end: int) -> Dict:
        return {
            (None if values[i] < 0 else term_table[values[i]]): values[i + 1]
            for i in range(start, end, 2)
        }

    return decode


def value_refs_decoder(term_table: MmapTermTable):
    """Group decoder for ``kindex2.value_refs``: flat ``(label, class|-1,
    count)`` triples → ``{(label, class-or-None): count}``."""

    def decode(values, start: int, end: int) -> Dict:
        return {
            (
                term_table[values[i]],
                None if values[i + 1] < 0 else term_table[values[i + 1]],
            ): values[i + 2]
            for i in range(start, end, 3)
        }

    return decode


class LazyRefMap:
    """A dict-compatible refcount map over a term-id-sorted grouping.

    Backs ``KeywordIndex``'s ``_attribute_class_refs`` /
    ``_value_occurrence_refs`` without decoding them: membership is a
    binary search on the sorted key ids, and a group decodes on first
    read — at which point it is **promoted** into the overlay dict, so
    the in-place refcount mutations the maintenance path performs stick.
    Deletions tombstone base keys; a re-added key lives in the overlay.

    Iteration order is base (key-id) order then overlay-only keys —
    *not* the materialized insertion order; every consumer builds sets
    from it (``attribute_labels``, match classes), so ordering is
    immaterial to identity.
    """

    __slots__ = ("_keys", "_offsets", "_values", "_resolve", "_key_id",
                 "_decode", "_overlay", "_deleted")

    def __init__(self, keys, offsets, values, term_table: MmapTermTable, decode_group):
        self._keys = keys
        self._offsets = offsets
        self._values = values
        self._resolve = term_table.__getitem__
        self._key_id = term_table.id_of
        self._decode = decode_group
        self._overlay: Dict = {}
        self._deleted: set = set()

    def _base_index(self, key) -> Optional[int]:
        tid = self._key_id(key)
        if tid is None:
            return None
        keys = self._keys
        return _find_sorted(range(len(keys)), keys.__getitem__, tid)

    def __contains__(self, key) -> bool:
        if key in self._overlay:
            return True
        if key in self._deleted:
            return False
        return self._base_index(key) is not None

    def __getitem__(self, key) -> Dict:
        group = self._overlay.get(key)
        if group is not None:
            return group
        if key in self._deleted:
            raise KeyError(key)
        index = self._base_index(key)
        if index is None:
            raise KeyError(key)
        group = self._decode(
            self._values, self._offsets[index], self._offsets[index + 1]
        )
        self._overlay[key] = group
        return group

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def setdefault(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            self._deleted.discard(key)
            self._overlay[key] = default
            return default

    def __setitem__(self, key, value) -> None:
        self._deleted.discard(key)
        self._overlay[key] = value

    def __delitem__(self, key) -> None:
        existed = self._overlay.pop(key, None) is not None
        if self._base_index(key) is not None and key not in self._deleted:
            self._deleted.add(key)
            existed = True
        if not existed:
            raise KeyError(key)

    def __iter__(self):
        deleted = self._deleted
        resolve = self._resolve
        for i in range(len(self._keys)):
            key = resolve(self._keys[i])
            if key not in deleted:
                yield key
        for key in self._overlay:
            if self._base_index(key) is None:
                yield key

    def __len__(self) -> int:
        extra = sum(1 for key in self._overlay if self._base_index(key) is None)
        return len(self._keys) - len(self._deleted) + extra

    def keys(self):
        return iter(self)

    def items(self):
        for key in self:
            yield key, self[key]


#: Triple position (0 = subject, 1 = predicate, 2 = object) held by each
#: column of the three runs.
_RUN_ORDERS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # spo, pos, osp

#: Every set of bound positions is a prefix of one run's order.  Indexed
#: by ``s bound + 2 * (p bound) + 4 * (o bound)``: (run, bound prefix).
_PREFIX_RUN = (
    (0, ()), (0, (0,)), (1, (1,)), (0, (0, 1)),
    (2, (2,)), (2, (2, 0)), (1, (1, 2)), (0, (0, 1, 2)),
)

#: Rows decoded per slice of a column: a scan never turns more than this
#: many rows into Python objects at once, however large its range.
SCAN_CHUNK = 1024


def _equal_range(column, key, lo: int, hi: int) -> Tuple[int, int]:
    """The rows of sorted ``column[lo:hi]`` equal to ``key``; none for a
    term that is its own key (it has no base rows)."""
    if type(key) is not int:
        return lo, lo
    lo = bisect_left(column, key, lo, hi)
    return lo, bisect_right(column, key, lo, hi)


def _decoded(column, lo: int, hi: int) -> Iterable[int]:
    """``column[lo:hi]`` as ints: one list up to ``SCAN_CHUNK`` rows,
    else decoded a chunk at a time."""
    if hi - lo <= SCAN_CHUNK:
        return column[lo:hi].tolist()
    return chain.from_iterable(
        column[a : min(a + SCAN_CHUNK, hi)].tolist()
        for a in range(lo, hi, SCAN_CHUNK)
    )


def _overlaid(rows: Iterable, is_dead, delta_rows) -> Iterable:
    """Base ``rows`` minus the tombstoned ones, then the delta's: the
    order of every enumerating read of the tier."""
    if is_dead:
        rows = filterfalse(is_dead, rows)
    return chain(rows, delta_rows) if delta_rows else rows


class _RunAccess:
    """One query atom's access path over the sorted runs
    (:meth:`MmapTripleTier.access`).

    What the atom's constants determine is narrowed here, once: the
    ``(s, p)`` range of SPO when the subject is a constant, else the
    ``(p, o)`` range of POS when the object is, else the predicate's
    range of POS.  A probe passes the same constants again and pays only
    for the positions they left open: ``has`` is one ``bisect_left`` on
    the remaining sorted column plus an equality check (after narrowing
    the object when neither end is a constant), ``objects`` /
    ``subjects`` decode the free position's column slice and nothing
    else.  Every probe is base rows in run order minus the predicate's
    tombstones, then the delta's rows; the delta is probed by term, never
    by ``Triple``, so a literal probed as a subject finds nothing.
    """

    __slots__ = ("_tier", "_p", "_fixed_s", "_fixed_o", "_subjects",
                 "_objects", "_lo", "_hi", "_dead", "_delta")

    def __init__(self, tier: "MmapTripleTier", p, s, o):
        self._tier = tier
        self._p = p
        self._fixed_s = s is not None
        self._fixed_o = o is not None
        if tier._all_ids(s, p, o):
            columns, self._lo, self._hi = tier._rows(s, p, None if self._fixed_s else o)
        else:  # a constant that is its own key: no base rows
            columns, self._lo, self._hi = tier._runs[1][1], 0, 0
        self._subjects, _, self._objects = columns
        self._dead = tier._tombstones.get(p, ())
        delta = tier._delta
        self._delta = delta.access(tier.term_of(p)) if len(delta) else None

    def has(self, s, o) -> bool:
        lo, hi = self._lo, self._hi
        if self._fixed_s:
            column, key = self._objects, o
        else:
            column, key = self._subjects, s
            if not self._fixed_o:
                lo, hi = _equal_range(self._objects, o, lo, hi)
        if lo < hi and type(key) is int:
            i = bisect_left(column, key, lo, hi)
            if i < hi and column[i] == key and (s, o) not in self._dead:
                return True
        if self._delta is None:
            return False
        term_of = self._tier.term_of
        return self._delta.has(term_of(s), term_of(o))

    def objects(self, s) -> Iterable[Hashable]:
        column, lo, hi = self._objects, self._lo, self._hi
        if lo < hi and not self._fixed_s:
            # The predicate's POS range does not help: (s, p) of SPO.
            subjects, predicates, column = self._tier._runs[0][0]
            lo, hi = _equal_range(subjects, s, 0, len(subjects))
            lo, hi = _equal_range(predicates, self._p, lo, hi)
        tier, dead, delta = self._tier, self._dead, self._delta
        return _overlaid(
            _decoded(column, lo, hi),
            dead and (lambda o: (s, o) in dead),
            delta and map(tier.key_of, delta.objects(tier.term_of(s))),
        )

    def subjects(self, o) -> Iterable[Hashable]:
        lo, hi = self._lo, self._hi
        if not self._fixed_o:
            lo, hi = _equal_range(self._objects, o, lo, hi)
        tier, dead, delta = self._tier, self._dead, self._delta
        return _overlaid(
            _decoded(self._subjects, lo, hi),
            dead and (lambda s: (s, o) in dead),
            delta and map(tier.key_of, delta.subjects(tier.term_of(o))),
        )

    def pairs(self) -> Iterable[Tuple[Hashable, Hashable]]:
        lo, hi, key_of = self._lo, self._hi, self._tier.key_of
        return _overlaid(
            zip(_decoded(self._subjects, lo, hi), _decoded(self._objects, lo, hi)),
            self._dead and self._dead.__contains__,
            self._delta and ((key_of(s), key_of(o)) for s, o in self._delta.pairs()),
        )


class MmapTripleTier:
    """A ``TripleStore``-compatible tier over SPO/POS/OSP-sorted runs.

    A run is a flat int64 view of ``(a, b, c)`` rows; ``view[c::3]`` is
    one of its columns, still a view.  Every pattern binds a prefix of
    one run's sort order, and :meth:`_rows` narrows that prefix one
    column at a time with ``bisect`` — in C, over the mmap.  ``match`` /
    ``count`` / ``__contains__`` / ``add`` / ``remove`` are that range
    plus the overlay: tombstoned base rows are skipped, then comes the
    delta store's answer for the same pattern.  Adds and removes go to
    the overlay; the base file is never written.

    The query evaluator works in this tier's *key space*
    (:meth:`key_of` / :meth:`term_of` / :meth:`count_keys` /
    :meth:`access`): a key is the term-table id, and a term that
    exists only in the delta overlay is its own key, so a key identifies
    one term across base rows and overlay.
    """

    def __init__(self, spo, pos, osp, size: int, term_table: MmapTermTable):
        for name, view in (("spo", spo), ("pos", pos), ("osp", osp)):
            if len(view) != 3 * size:
                raise BundleFormatError(
                    f"store2.{name} holds {len(view)} values, expected "
                    f"{3 * size} for {size} triples"
                )
        #: Per run: its columns in sort order, and again by triple position.
        self._runs = []
        for view, order in zip((spo, pos, osp), _RUN_ORDERS):
            columns = tuple(view[c::3] for c in range(3))
            self._runs.append(
                (columns, tuple(columns[order.index(p)] for p in range(3)))
            )
        self._n = size
        self._terms = term_table
        self._delta = TripleStore()
        #: Removed base rows: predicate id -> {(subject id, object id)}.
        self._tombstones: Dict[int, set] = {}
        self._n_dead = 0

    # -- the range function --------------------------------------------

    def _rows(self, sid, pid, oid):
        """The base rows matching an id pattern (None = wildcard), as
        ``(subject column, predicate column, object column), lo, hi`` of
        the run the pattern is a prefix of, narrowed a column at a time."""
        ids = (sid, pid, oid)
        run, prefix = _PREFIX_RUN[
            (sid is not None) + 2 * (pid is not None) + 4 * (oid is not None)
        ]
        columns, by_position = self._runs[run]
        lo, hi = 0, self._n
        for column, position in zip(columns, prefix):
            lo, hi = _equal_range(column, ids[position], lo, hi)
        return by_position, lo, hi

    def _ids(self, s, p, o) -> Optional[Tuple]:
        """A term pattern (None = wildcard) as ids, or None when a bound
        term is not in the table: no base row can match it."""
        id_of = self._terms.id_of
        pattern = (s, p, o)
        ids = tuple(None if t is None else id_of(t) for t in pattern)
        return ids if ids.count(None) == pattern.count(None) else None

    def _dead_matching(self, sid, pid, oid) -> int:
        """Tombstones matching an id pattern (None = wildcard): O(1) for
        a predicate alone, otherwise a scan of one predicate's set."""
        if pid is None:
            if sid is None and oid is None:
                return self._n_dead
            return sum(
                self._dead_matching(sid, p, oid) for p in self._tombstones
            )
        dead = self._tombstones.get(pid)
        if not dead:
            return 0
        if sid is None and oid is None:
            return len(dead)
        if sid is not None and oid is not None:
            return int((sid, oid) in dead)
        return sum(
            1 for s, o in dead if (s == sid if oid is None else o == oid)
        )

    def _is_dead(self, sid, pid, oid) -> bool:
        return (sid, oid) in self._tombstones.get(pid, ())

    def _in_base(self, sid, pid, oid) -> bool:
        """True when the base runs hold the row (tombstoned or not)."""
        _, lo, hi = self._rows(sid, pid, oid)
        return lo < hi

    def _live_base(self, sid, pid, oid) -> int:
        """Base rows matching an id pattern, minus the tombstoned ones."""
        _, lo, hi = self._rows(sid, pid, oid)
        live = hi - lo
        if live and self._n_dead:
            live -= self._dead_matching(sid, pid, oid)
        return live

    # -- mutation (overlay) --------------------------------------------

    def add(self, triple: Triple) -> bool:
        ids = self._ids(*triple)
        if ids is not None:
            sid, pid, oid = ids
            if self._is_dead(sid, pid, oid):
                dead = self._tombstones[pid]
                dead.discard((sid, oid))
                if not dead:
                    del self._tombstones[pid]
                self._n_dead -= 1
                return True
            if self._in_base(sid, pid, oid):
                return False
        return self._delta.add(triple)

    def add_all(self, triples: Iterable[Triple]) -> int:
        return sum(1 for t in triples if self.add(t))

    def remove(self, triple: Triple) -> bool:
        if self._delta.remove(triple):
            return True
        ids = self._ids(*triple)
        if ids is None or self._is_dead(*ids) or not self._in_base(*ids):
            return False
        sid, pid, oid = ids
        self._tombstones.setdefault(pid, set()).add((sid, oid))
        self._n_dead += 1
        return True

    def remove_all(self, triples: Iterable[Triple]) -> int:
        return sum(1 for t in triples if self.remove(t))

    # -- lookup by term ------------------------------------------------

    def __len__(self) -> int:
        return self._n - self._n_dead + len(self._delta)

    def __contains__(self, triple: Triple) -> bool:
        if triple in self._delta:
            return True
        ids = self._ids(*triple)
        return ids is not None and not self._is_dead(*ids) and self._in_base(*ids)

    def match(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        if ill_typed_pattern(subject, predicate):
            return
        ids = self._ids(subject, predicate, obj)
        if ids is not None:
            terms = self._terms
            tombstones = self._tombstones
            columns, lo, hi = self._rows(*ids)
            for sid, pid, oid in zip(*[_decoded(c, lo, hi) for c in columns]):
                if tombstones and self._is_dead(sid, pid, oid):
                    continue
                yield Triple(terms[sid], terms[pid], terms[oid])
        yield from self._delta.match(subject, predicate, obj)

    def count(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> int:
        if ill_typed_pattern(subject, predicate):
            return 0
        total = self._delta.count(subject, predicate, obj)
        ids = self._ids(subject, predicate, obj)
        if ids is not None:
            total += self._live_base(*ids)
        return total

    def predicates(self) -> Iterator[Term]:
        terms = self._terms
        column = self._runs[1][0][0]  # the predicate column of POS
        i = 0
        while i < self._n:
            pid = column[i]
            hi = bisect_right(column, pid, i, self._n)
            if hi - i > self._dead_matching(None, pid, None):
                yield terms[pid]
            i = hi
        for pred in self._delta.predicates():
            ids = self._ids(None, pred, None)
            if ids is None or not self._live_base(*ids):
                yield pred  # not among the base predicates above

    def predicate_cardinality(self, predicate: Term) -> int:
        return self.count(None, predicate, None)

    # -- lookup by key (the query evaluator's access path) --------------

    def key_of(self, term: Term) -> Hashable:
        """The term's table id; a term the table lacks is its own key."""
        tid = self._terms.id_of(term)
        return term if tid is None else tid

    def term_of(self, key: Hashable) -> Term:
        return self._terms[key] if type(key) is int else key

    def is_literal_key(self, key: Hashable) -> bool:
        """Whether the key's term is a literal, without decoding it (a
        table record's kind byte is 2-4)."""
        if type(key) is int:
            return self._terms._records[self._terms._offsets[key]] >= 2
        return isinstance(key, Literal)

    @staticmethod
    def _all_ids(s, p, o) -> bool:
        """True when every bound key is a table id (a term that is its
        own key has no base rows)."""
        return (
            (p is None or type(p) is int)
            and (s is None or type(s) is int)
            and (o is None or type(o) is int)
        )

    def count_keys(self, s, p, o) -> int:
        """Live triples with the given subject / predicate / object keys
        (None = any)."""
        total = 0
        if len(self._delta):
            term_of = self.term_of  # None -> None
            total = self._delta.count(term_of(s), term_of(p), term_of(o))
        if self._all_ids(s, p, o):
            total += self._live_base(s, p, o)
        return total

    def access(self, p, s=None, o=None) -> "_RunAccess":
        """The access path of one query atom: predicate key ``p`` and the
        keys of the atom's constant ends (None = a variable), narrowed
        once for every probe the query will make of it."""
        return _RunAccess(self, p, s, o)

    def object_keys(self, p) -> Iterator[Hashable]:
        """The object key of every live row with predicate key ``p``, read
        one row at a time (an early exit decodes nothing more)."""
        if type(p) is int:
            (subjects, _, objects), lo, hi = self._rows(None, p, None)
            dead = self._tombstones.get(p, ())
            for i in range(lo, hi):
                if not dead or (subjects[i], objects[i]) not in dead:
                    yield objects[i]
        if len(self._delta):
            delta_rows = self._delta.access(self.term_of(p)).pairs()
            yield from (self.key_of(o) for _, o in delta_rows)

    def base_rows(self, run: int) -> Iterator[Tuple[int, int, int]]:
        """Every row of one run (0 SPO, 1 POS, 2 OSP), tombstoned or not,
        as ``(s, p, o)`` ids."""
        columns = self._runs[run][1]
        return zip(*[_decoded(c, 0, self._n) for c in columns])

    def overlay_stats(self) -> Dict[str, int]:
        """The size of the in-memory overlay over the mapped runs."""
        return {"delta_triples": len(self._delta), "tombstones": self._n_dead}

    def __repr__(self):
        return (
            f"MmapTripleTier(base={self._n}, "
            f"tombstones={self._n_dead}, delta={len(self._delta)})"
        )
