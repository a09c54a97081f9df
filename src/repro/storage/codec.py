"""Binary primitives of the bundle format: terms, id blobs, groupings.

The bundle is pickle-free by design — loading an artifact must never
execute data-controlled code — so every structure is reduced to three
primitive shapes with explicit little-endian encodings:

* a **term table**: each distinct RDF term encoded once, addressed by its
  position, with datatype URIs interned *before* the literals that carry
  them so a literal's record only ever points backwards;
* **id blobs**: ``int64`` arrays (term ids, triple indices, counts),
  viewed in place (:func:`decode_raw_ids`) or decoded wholesale via
  :meth:`array.array.frombytes`;
* **groupings**: a ``keys / offsets / flat values`` triple of id blobs
  encoding one mapping ``key -> [values]``.

Strings (analyzed index terms) travel in **string streams** with the
same count-prefixed framing.  This module holds the encoders and the
readers of the plain id blobs; the readers of the term table, the string
streams and the groupings are the disk-resident structures of
:mod:`repro.storage.mmap_tier`.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.rdf.derivation import ATTRIBUTE, CLASS, RELATION, VALUE
from repro.rdf.terms import BNode, Literal, Term, URI

from repro.storage.errors import BundleFormatError


def fsync_directory(file_path) -> None:
    """Flush the directory entry of a just created/renamed file.

    ``fsync`` on the file alone does not make its *name* durable; after
    an ``os.replace`` or first creation, a power loss can still lose the
    directory entry.  Best-effort: platforms or filesystems that cannot
    open/fsync a directory are silently tolerated.
    """
    directory = os.path.dirname(os.path.abspath(os.fspath(file_path))) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_LITTLE_ENDIAN = sys.byteorder == "little"

# Term record kinds (one byte each).
_TERM_URI = 0
_TERM_BNODE = 1
_TERM_LITERAL = 2
_TERM_LITERAL_DT = 3
_TERM_LITERAL_LANG = 4

#: Keyword-index element kinds in wire-code order: an element reference is
#: encoded as ``(code, term-id)``, and ``ELEMENT_KINDS[code]`` restores the
#: kind string of the element key.
ELEMENT_KINDS = (CLASS, RELATION, ATTRIBUTE, VALUE)
ELEMENT_CODE = {kind: code for code, kind in enumerate(ELEMENT_KINDS)}


class Interner:
    """Dense get-or-assign id table, first-seen order.

    ``id(item)`` is stable for the lifetime of the interner; iterating
    :attr:`items` yields the table in id order — the order the encoders
    write and the decoders rebuild.
    """

    __slots__ = ("_ids", "items")

    def __init__(self):
        self._ids: Dict = {}
        self.items: List = []

    def id(self, item) -> int:
        existing = self._ids.get(item)
        if existing is not None:
            return existing
        return self._assign(item)

    def _assign(self, item) -> int:
        index = len(self.items)
        self._ids[item] = index
        self.items.append(item)
        return index

    def __len__(self) -> int:
        return len(self.items)


class TermInterner(Interner):
    """Term interner that orders datatype URIs before their literals, so
    decoding the term table is one forward pass."""

    __slots__ = ()

    def id(self, term: Term) -> int:
        existing = self._ids.get(term)
        if existing is not None:
            return existing
        if isinstance(term, Literal) and term.datatype is not None:
            super().id(term.datatype)
        return self._assign(term)

    @property
    def terms(self) -> List[Term]:
        return self.items


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    return _U32.pack(len(data)) + data


class Reader:
    """Forward-only reader over one section's bytes."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def _take(self, n: int):
        end = self.pos + n
        if end > len(self.buf):
            raise BundleFormatError(
                f"section truncated: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        chunk = self.buf[self.pos : end]
        self.pos = end
        return chunk

    def u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def ids(self) -> List[int]:
        """One count-prefixed int64 blob, as a plain list of ints."""
        count = self.u64()
        raw = self._take(8 * count)
        a = array("q")
        a.frombytes(raw)
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
            a.byteswap()
        return a.tolist()


def encode_ids(seq: Iterable[int]) -> bytes:
    """Count-prefixed ``int64`` little-endian blob."""
    a = array("q", seq)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
        a = array("q", a)
        a.byteswap()
    return _U64.pack(len(a)) + a.tobytes()


def encode_raw_ids(seq) -> bytes:
    """A bare ``int64`` little-endian blob — no framing, so a reader can
    hand the bytes straight to ``mmap``-backed views (the offsets of the
    term table and of the keyword index's runs)."""
    if isinstance(seq, array) and seq.itemsize == 8:
        a = seq
    else:
        a = array("q", seq)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
        a = array("q", a)
        a.byteswap()
    return a.tobytes()


def decode_raw_ids(buf) -> Sequence[int]:
    """View a bare int64 blob without copying when the host allows it.

    On little-endian hosts the returned object is a ``memoryview`` cast
    to 8-byte ints directly over the (typically mmap-backed) buffer —
    indexing, slicing, and iteration all read through to the file pages.
    Elsewhere it falls back to a byteswapped in-memory ``array``.
    """
    if len(buf) % 8:
        raise BundleFormatError(
            f"raw int64 section length {len(buf)} is not a multiple of 8"
        )
    if _LITTLE_ENDIAN:
        return memoryview(buf).cast("q")
    a = array("q")  # pragma: no cover - big-endian hosts
    a.frombytes(buf)
    a.byteswap()
    return a


# ----------------------------------------------------------------------
# Term table
# ----------------------------------------------------------------------


def encode_term_record(term: Term, term_id) -> bytes:
    """Encode one term-table record (kind byte + payload).

    The streamed bundle builder writes the table through this in bounded
    chunks; :class:`repro.storage.mmap_tier.MmapTermTable` decodes a
    record on demand.  ``term_id`` resolves datatype URIs, which the
    :class:`TermInterner` guarantees were assigned before their literals.
    """
    if isinstance(term, URI):
        return bytes([_TERM_URI]) + _pack_str(term.value)
    if isinstance(term, BNode):
        return bytes([_TERM_BNODE]) + _pack_str(term.label)
    if isinstance(term, Literal):
        if term.datatype is not None:
            return (
                bytes([_TERM_LITERAL_DT])
                + _pack_str(term.lexical)
                + _U64.pack(term_id(term.datatype))
            )
        if term.language is not None:
            return (
                bytes([_TERM_LITERAL_LANG])
                + _pack_str(term.lexical)
                + _pack_str(term.language)
            )
        return bytes([_TERM_LITERAL]) + _pack_str(term.lexical)
    # pragma: no cover - the graph never stores Variables
    raise BundleFormatError(f"cannot encode term type {type(term).__name__}")


def term_order_key(term: Term, term_id) -> Tuple[int, str, object]:
    """Total order over terms used by the sorted-permutation sections.

    The leading code matches the wire kind byte, so a reader probing an
    encoded record can build the same key without constructing a
    :class:`Term`.  The third component is only compared within one kind
    (an ``int`` datatype id for typed literals, a language ``str`` for
    tagged ones), keeping the mixed types safe; ``term_id`` resolves the
    datatype URI exactly as :func:`encode_term_record` does, so the key
    is injective over any interned table.
    """
    if isinstance(term, URI):
        return (_TERM_URI, term.value, 0)
    if isinstance(term, BNode):
        return (_TERM_BNODE, term.label, 0)
    if isinstance(term, Literal):
        if term.datatype is not None:
            return (_TERM_LITERAL_DT, term.lexical, term_id(term.datatype))
        if term.language is not None:
            return (_TERM_LITERAL_LANG, term.lexical, term.language)
        return (_TERM_LITERAL, term.lexical, 0)
    raise BundleFormatError(f"cannot order term type {type(term).__name__}")


# ----------------------------------------------------------------------
# Groupings: one mapping `key -> [v1, v2, ...]` as three id blobs
# ----------------------------------------------------------------------


def encode_grouping(items: Iterable[Tuple[int, Iterable[int]]]) -> bytes:
    """``(key_id, value_ids)`` pairs → keys / offsets / flat-values blobs.

    Iteration order is preserved exactly, both across keys and within one
    key's values — restored dicts therefore carry the same insertion
    order as the live structures they were exported from.
    """
    keys: List[int] = []
    offsets: List[int] = [0]
    values: List[int] = []
    for key_id, value_ids in items:
        keys.append(key_id)
        values.extend(value_ids)
        offsets.append(len(values))
    return encode_ids(keys) + encode_ids(offsets) + encode_ids(values)
