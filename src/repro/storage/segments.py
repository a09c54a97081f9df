"""On-disk int64 row spools and external sorting for out-of-core builds.

The streaming build path (:mod:`repro.storage.stream_build`) never holds
the corpus in memory: classified triples are appended to *segment files*
— flat little-endian ``int64`` streams, ``arity`` values per row — and
re-read per bundle section at write time.  Structures that must be
read in an order other than arrival order (the SPO/POS/OSP indexes,
the per-predicate edge scans, posting lists) go through
:class:`ExternalSorter`, which keeps at most ``budget_rows`` rows
resident, spills sorted runs to disk past that, and k-way merges the
runs on read-back.

The segment byte layout deliberately matches the bundle codec's id
blobs (:func:`repro.storage.codec.encode_ids` without the count prefix),
so a finished segment can be streamed straight into a section by
prefixing its value count — no re-encode pass.
"""

from __future__ import annotations

import heapq
import os
import struct
import sys
from array import array
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Tuple

_U64 = struct.Struct("<Q")
_LITTLE_ENDIAN = sys.byteorder == "little"

#: Rows buffered in memory per segment writer / read chunk.
DEFAULT_BUFFER_ROWS = 16384

_COPY_CHUNK = 1 << 20


def _pack_values(values: Iterable[int]) -> bytes:
    out = array("q", values)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
        out.byteswap()
    return out.tobytes()


class SegmentWriter:
    """Append-only spool of fixed-arity ``int64`` rows.

    Rows are buffered and flushed in batches; :attr:`rows` and
    :attr:`values` stay valid while open.  Close before reading the file
    back (``iter_rows``) or streaming it into a section
    (:func:`write_ids_from_segment`).
    """

    __slots__ = ("path", "arity", "rows", "_buffer", "_flush_at", "_fh")

    def __init__(self, path, arity: int, buffer_rows: int = DEFAULT_BUFFER_ROWS):
        self.path = os.fspath(path)
        self.arity = arity
        self.rows = 0
        self._buffer: List[int] = []
        self._flush_at = arity * max(1, buffer_rows)
        self._fh: Optional[IO[bytes]] = open(self.path, "wb")

    @property
    def values(self) -> int:
        """Total flat int64 values written (``rows * arity``)."""
        return self.rows * self.arity

    def append(self, row: Sequence[int]) -> None:
        self._buffer.extend(row)
        self.rows += 1
        if len(self._buffer) >= self._flush_at:
            self._fh.write(_pack_values(self._buffer))
            self._buffer.clear()

    def append_value(self, value: int) -> None:
        """Arity-1 fast path."""
        self._buffer.append(value)
        self.rows += 1
        if len(self._buffer) >= self._flush_at:
            self._fh.write(_pack_values(self._buffer))
            self._buffer.clear()

    def close(self) -> None:
        if self._fh is not None:
            if self._buffer:
                self._fh.write(_pack_values(self._buffer))
                self._buffer.clear()
            self._fh.close()
            self._fh = None

    def unlink(self) -> None:
        self.close()
        if os.path.exists(self.path):
            os.unlink(self.path)

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_value_chunks(
    path, chunk_values: int = DEFAULT_BUFFER_ROWS
) -> Iterator[array]:
    """Yield ``array('q')`` chunks of a segment file's flat values."""
    with open(path, "rb") as fh:
        while True:
            data = fh.read(8 * chunk_values)
            if not data:
                return
            chunk = array("q")
            chunk.frombytes(data)
            if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
                chunk.byteswap()
            yield chunk


def iter_rows(
    path, arity: int, chunk_rows: int = DEFAULT_BUFFER_ROWS
) -> Iterator[Tuple[int, ...]]:
    """Yield rows of a closed segment file as tuples, in file order."""
    for chunk in iter_value_chunks(path, chunk_values=arity * chunk_rows):
        it = iter(chunk)
        yield from zip(*([it] * arity))


def write_ids_from_segment(section, segment: SegmentWriter) -> None:
    """Stream a closed segment into a section as a count-prefixed id blob.

    Produces exactly the bytes ``encode_ids`` would for the same flat
    value sequence, without materializing them.
    """
    section.write(_U64.pack(segment.values))
    with open(segment.path, "rb") as fh:
        while True:
            chunk = fh.read(_COPY_CHUNK)
            if not chunk:
                return
            section.write(chunk)


def write_raw_from_segment(section, segment: SegmentWriter) -> None:
    """Stream a closed segment into a section as a bare int64 blob.

    A segment file's bytes already *are* ``encode_raw_ids`` of its flat
    values, so this is a straight copy — the mmap-tier sections
    (offset tables, posting runs, sorted triple runs) use it to avoid
    a count prefix that raw ``memoryview`` casts would have to skip.
    """
    with open(segment.path, "rb") as fh:
        while True:
            chunk = fh.read(_COPY_CHUNK)
            if not chunk:
                return
            section.write(chunk)


class ExternalSorter:
    """Budget-bounded sorter over fixed-arity ``int64`` row tuples.

    Rows accumulate in memory until ``budget_rows``, then spill as one
    sorted run file; :meth:`sorted_rows` k-way merges every run with the
    final resident batch.  :attr:`runs_spilled` counts on-disk runs —
    the streamed-vs-in-memory identity property test asserts it to prove
    the merge path really executed.
    """

    def __init__(self, directory, arity: int, budget_rows: int, prefix: str = "run"):
        self._directory = os.fspath(directory)
        self._arity = arity
        self._budget_rows = max(1, budget_rows)
        self._prefix = prefix
        self._rows: List[Tuple[int, ...]] = []
        self._run_paths: List[str] = []

    @property
    def runs_spilled(self) -> int:
        return len(self._run_paths)

    def add(self, row: Tuple[int, ...]) -> None:
        self._rows.append(row)
        if len(self._rows) >= self._budget_rows:
            self._spill()

    def _spill(self) -> None:
        if not self._rows:
            return
        self._rows.sort()
        path = os.path.join(
            self._directory, f"{self._prefix}.{len(self._run_paths)}.run"
        )
        with SegmentWriter(path, self._arity) as run:
            for row in self._rows:
                run.append(row)
        self._run_paths.append(path)
        self._rows = []

    def sorted_rows(self) -> Iterator[Tuple[int, ...]]:
        """Merge-iterate every row in ascending tuple order."""
        self._rows.sort()
        if not self._run_paths:
            return iter(self._rows)
        streams = [iter_rows(path, self._arity) for path in self._run_paths]
        streams.append(iter(self._rows))
        return heapq.merge(*streams)

    def cleanup(self) -> None:
        self._rows = []
        for path in self._run_paths:
            if os.path.exists(path):
                os.unlink(path)
        self._run_paths = []


class GroupingSpool:
    """A spooled sequence of id groups in the mmap tier's run layout.

    Group ``i`` is the ``i``-th :meth:`add` (the builder's one use keys
    the element→terms map by dense element id), so the offsets and flat
    values spools *are* the stored sections: each streams out as a bare
    int64 blob, and a grouping of unbounded size never materializes in
    memory.
    """

    def __init__(self, directory, name: str):
        directory = os.fspath(directory)
        self._offsets = SegmentWriter(os.path.join(directory, f"{name}.offs.seg"), 1)
        self._values = SegmentWriter(os.path.join(directory, f"{name}.vals.seg"), 1)
        self._offsets.append_value(0)

    def add(self, value_ids: Iterable[int]) -> None:
        append_value = self._values.append_value
        for value in value_ids:
            append_value(value)
        self._offsets.append_value(self._values.rows)

    def write_raw_offsets(self, section) -> None:
        """Stream the offsets spool (``groups + 1`` entries)."""
        self._offsets.close()
        write_raw_from_segment(section, self._offsets)

    def write_raw_values(self, section) -> None:
        """Stream the flat values spool."""
        self._values.close()
        write_raw_from_segment(section, self._values)

    def cleanup(self) -> None:
        for spool in (self._offsets, self._values):
            spool.unlink()
