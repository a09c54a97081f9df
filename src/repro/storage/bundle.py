"""The versioned on-disk index bundle: the format, its container, its loader.

A ``.reprobundle`` file is the whole offline layer of one engine —
triple store, keyword index and summary graph — as one self-describing
artifact::

    magic "RPROBNDL" | format version u32 | header length u32
    header JSON  (snapshot-key pair, engine config, section table)
    sections     (8-aligned binary payloads, one CRC32 each)

The header carries the formal ``(SummaryGraph.snapshot_key,
KeywordIndex.snapshot_key)`` pair and the update epoch, so a bundle *is*
one engine state in the same sense an
:class:`~repro.core.snapshot.EngineSnapshot` is.  Every section is
checksummed; a version mismatch raises
:class:`~repro.storage.errors.BundleFormatError` and a checksum mismatch
:class:`~repro.storage.errors.BundleChecksumError` — a reader never
produces an engine it cannot prove equivalent to the one saved.

A loaded bundle is served in place:

* the summary graph (schema-sized) is decoded through C-speed blob
  reads plus slice comprehensions — no re-projection;
* the keyword index and the triple indexes are the readers of
  :mod:`repro.storage.mmap_tier` over the ``mmap``-ed sorted runs —
  nothing is decoded at load, lookups bisect the file, updates land in
  the readers' in-memory overlays;
* the exploration substrate is *not* a stored structure: it is
  derived from the decoded summary graph (schema-sized, well under a
  millisecond) on the first ``snapshot()``, the way every other summary
  gets one;
* the data graph is *not* a stored structure: its triples are the
  triple store's runs, and the graph is a view over them
  (:mod:`repro.storage.graph_view`) that only the update path asks.

Reading in place means a load does not pull the big sections through
their checksums; :func:`verify_bundle` does, with buffered reads, for
the callers that own the artifact (``repro serve --bundle`` once per
start, ``repro compact`` before it folds anything).

The loaded engine is **equivalent by construction and identical by
test**: ``tests/property/test_persistence_identity.py`` asserts
``load(save(engine))`` reproduces a freshly built engine's ``search()``
output byte for byte, including after a WAL tail replay.

This module *reads* the format; the one piece of code that writes it is
:func:`repro.storage.stream_build.build_bundle_streaming`, which fills
the :class:`BundleWriter` container defined here section by section.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from typing import Dict, List, Optional, Tuple, Union

from repro.keyword.keyword_index import KeywordIndex
from repro.rdf.namespace import SUBCLASS_PREDICATES, TYPE_PREDICATES
from repro.scoring.cost import COST_MODELS, CostModel, make_cost_model
from repro.summary.elements import (
    THING_KEY,
    SummaryEdgeKind,
    SummaryVertex,
    SummaryVertexKind,
)
from repro.summary.summary_graph import SummaryGraph

from repro.storage import mmap_tier as mt
from repro.storage.codec import Reader, decode_raw_ids, fsync_directory
from repro.storage.errors import (
    BundleChecksumError,
    BundleExistsError,
    BundleFormatError,
    UnsupportedEngineError,
    WalError,
)
from repro.storage.graph_view import MmapDataGraph
from repro.util import now

MAGIC = b"RPROBNDL"
#: Bump on any change to the section layout, the encodings or what the
#: header records.  The one version this release writes is the one
#: version it reads: version 7 stores the triple set and the keyword
#: index once, as the sorted runs (``store2.*``, ``kindex2.*``) the
#: mapped readers binary-search in place, nothing that is derived from
#: another section, and in its header only the configuration a caller
#: varies — ``engine: {cost_model, k, dmax, search_cache_size}`` and
#: ``kindex: {version, build_seconds}`` (version 6 also recorded
#: ``strict_keywords`` and three keyword-index settings, version 5 the
#: triples in arrival order, version 4 the substrate's CSR rows).
#: Anything else is refused with a rebuild hint.
FORMAT_VERSION = 7

#: Conventional file extension (the CLI and docs use it; the reader only
#: trusts the magic).
BUNDLE_SUFFIX = ".reprobundle"

_U32 = struct.Struct("<I")

# Stable wire codes for the edge/vertex kinds (the element codes live in
# the codec, beside the readers that decode against them).
_VERTEX_KINDS = (
    SummaryVertexKind.CLASS,
    SummaryVertexKind.THING,
    SummaryVertexKind.VALUE,
    SummaryVertexKind.ARTIFICIAL,
)
_VERTEX_CODE = {kind: code for code, kind in enumerate(_VERTEX_KINDS)}
_EDGE_KINDS = (
    SummaryEdgeKind.RELATION,
    SummaryEdgeKind.ATTRIBUTE,
    SummaryEdgeKind.SUBCLASS,
)
_EDGE_CODE = {kind: code for code, kind in enumerate(_EDGE_KINDS)}


# ----------------------------------------------------------------------
# Cost-model persistability
# ----------------------------------------------------------------------


def persistable_cost_model_name(model: Union[str, CostModel]) -> str:
    """The factory name that reproduces ``model``, or a loud refusal.

    The bundle stores a *name*, not code: ``model`` is a stock name, or
    an instance whose class is exactly the class that name makes.  A
    bespoke subclass or a wrapping model would come back as the stock
    model and silently rank differently — exactly the failure mode the
    format forbids.
    """
    name = model if isinstance(model, str) else getattr(model, "name", None)
    if name in COST_MODELS and (
        isinstance(model, str) or type(model) is type(make_cost_model(name))
    ):
        return name
    raise UnsupportedEngineError(
        f"cost model {model!r} is not a stock model {sorted(COST_MODELS)}; "
        "bundles store the model by name, so anything else cannot be "
        "persisted faithfully"
    )


# ----------------------------------------------------------------------
# Decoding helpers over interned ids
# ----------------------------------------------------------------------


def _decode_count_pairs(reader: Reader, terms) -> Dict:
    flat = reader.ids()
    it = iter(flat)
    return {terms[k]: c for k, c in zip(it, it)}


# ----------------------------------------------------------------------
# The container writer
# ----------------------------------------------------------------------


class _SectionWriter:
    """One open section of a :class:`BundleWriter`: accumulates bytes,
    length, and a running CRC32 without retaining the data."""

    __slots__ = ("_writer", "name", "length", "crc32")

    def __init__(self, writer: "BundleWriter", name: str):
        self._writer = writer
        self.name = name
        self.length = 0
        self.crc32 = 0

    def write(self, data) -> None:
        if not data:
            return
        self._writer._fh.write(data)
        self.crc32 = zlib.crc32(data, self.crc32)
        self.length += len(data)

    def __enter__(self) -> "_SectionWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._writer._end_section(self)


class BundleWriter:
    """Streamed section-by-section bundle writer with running CRC32s.

    Sections are appended to a same-directory payload spool as they are
    produced — each framed 8-aligned with its checksum computed on the
    fly — and :meth:`finish` prepends the prelude + header, copies the
    spool across in bounded chunks, and atomically publishes the bundle
    via ``os.replace``, so the concatenated payload is never held in
    memory.  Its one caller is the streaming builder.

    ``finish`` also supersedes any delta log sitting next to the target
    path (see the comment inside).
    """

    def __init__(self, path, force: bool = False):
        self.path = os.fspath(path)
        if os.path.exists(self.path) and not force:
            raise BundleExistsError(
                f"refusing to overwrite existing bundle {self.path!r} "
                "(pass force=True / --force)"
            )
        self._payload_path = f"{self.path}.payload.{os.getpid()}"
        self._fh = open(self._payload_path, "wb")
        self._table: List[Dict[str, object]] = []
        self._offset = 0
        self._open_section: Optional[_SectionWriter] = None

    def section(self, name: str) -> _SectionWriter:
        """Open the next section as a context manager with ``write()``."""
        if self._fh is None:
            raise ValueError("bundle writer is closed")
        if self._open_section is not None:
            raise ValueError(
                f"section {self._open_section.name!r} is still open"
            )
        self._open_section = _SectionWriter(self, name)
        return self._open_section

    def add_section(self, name: str, payload: bytes) -> None:
        """Append one fully-encoded section."""
        with self.section(name) as sec:
            sec.write(payload)

    def _end_section(self, sec: _SectionWriter) -> None:
        padding = -sec.length % 8
        if padding:
            self._fh.write(b"\x00" * padding)
        self._table.append(
            {
                "name": sec.name,
                "offset": self._offset,
                "length": sec.length,
                "crc32": sec.crc32,
            }
        )
        self._offset += sec.length + padding
        self._open_section = None

    def finish(self, meta: Dict[str, object], engine_log=None) -> Dict[str, object]:
        """Write the final bundle and publish it atomically.

        ``meta`` is the header dict *without* the section table (added
        here).  ``engine_log`` is the saving engine's attached delta log,
        if any — used for the post-replace WAL truncation instead of the
        sibling-lock guard when it is live and co-located.
        """
        if self._open_section is not None:
            raise ValueError(f"section {self._open_section.name!r} is still open")
        self._fh.close()
        self._fh = None

        meta = dict(meta)
        meta["sections"] = self._table
        header = json.dumps(meta, separators=(",", ":"), sort_keys=True).encode(
            "utf-8"
        )

        # A new bundle supersedes whatever delta log sits next to the
        # target path: the saved state already contains every epoch it
        # applied, and a stale log from a *previous* bundle would
        # otherwise be replayed into this one whenever the epoch numbers
        # happen to line up.  Lock the sibling log up front (refusing if
        # another engine is attached), truncate it only after the bundle
        # is durably in place.
        from repro.storage.wal import DeltaLog

        wal_path = f"{self.path}.wal"
        own_log = engine_log
        if own_log is not None and (
            own_log._retired
            or os.path.abspath(own_log.path) != os.path.abspath(wal_path)
        ):
            # A retired (handed-over) log is no longer the caller's to
            # truncate through; fall back to the guard path, which locks
            # up front and fails *before* the bundle is replaced.
            own_log = None
        wal_guard = None
        if own_log is None and os.path.exists(wal_path):
            wal_guard = DeltaLog(wal_path)
            wal_guard._lock_exclusively()

        tmp_path = f"{self.path}.tmp.{os.getpid()}"
        header_padding = -(len(MAGIC) + 8 + len(header)) % 8
        try:
            with open(tmp_path, "wb") as fh:
                fh.write(MAGIC)
                fh.write(_U32.pack(FORMAT_VERSION))
                fh.write(_U32.pack(len(header)))
                fh.write(header)
                fh.write(b"\x00" * header_padding)
                with open(self._payload_path, "rb") as payload:
                    while True:
                        chunk = payload.read(1 << 20)
                        if not chunk:
                            break
                        fh.write(chunk)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self.path)
            fsync_directory(self.path)
            if own_log is not None:
                own_log.reset()
            elif wal_guard is not None:
                wal_guard.reset()
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        finally:
            if wal_guard is not None:
                wal_guard.close()
            if os.path.exists(self._payload_path):
                os.unlink(self._payload_path)

        return {
            "path": self.path,
            "bytes": len(MAGIC) + 8 + len(header) + header_padding + self._offset,
            "sections": len(self._table),
            "format_version": FORMAT_VERSION,
            "epoch": meta.get("snapshot", {}).get("epoch", 0),
        }

    def abort(self) -> None:
        """Discard the partial payload spool (safe to call repeatedly)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if os.path.exists(self._payload_path):
            os.unlink(self._payload_path)


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------


class LoadedBundle:
    """The decoded parts of one bundle, before engine assembly."""

    __slots__ = (
        "graph",
        "keyword_index",
        "summary",
        "meta",
        "path",
    )


def _read_header(fh, path: str) -> Tuple[Dict[str, object], int]:
    """``(header dict, file offset of the first section)`` of an open
    bundle, or :class:`BundleFormatError` for anything that is not a
    bundle of exactly :data:`FORMAT_VERSION`."""
    prelude = fh.read(16)
    if len(prelude) < 16:
        raise BundleFormatError(
            f"{path}: not a repro bundle (only {len(prelude)} bytes, prelude needs 16)"
        )
    if prelude[: len(MAGIC)] != MAGIC:
        raise BundleFormatError(f"{path}: not a repro bundle (bad magic)")
    (format_version,) = _U32.unpack_from(prelude, 8)
    if format_version != FORMAT_VERSION:
        raise BundleFormatError(
            f"{path}: bundle format version {format_version} is not the "
            f"supported version ({FORMAT_VERSION}); rebuild the bundle with "
            "`repro build` (or read it with the matching release)"
        )
    (header_length,) = _U32.unpack_from(prelude, 12)
    header = fh.read(header_length)
    if len(header) < header_length:
        raise BundleFormatError(f"{path}: truncated header")
    try:
        meta = json.loads(header.decode("utf-8"))
    except ValueError as exc:
        raise BundleFormatError(f"{path}: unreadable header ({exc})") from exc
    header_end = 16 + header_length
    return meta, header_end + (-header_end % 8)


def _checksum_error(path: str, name: str) -> BundleChecksumError:
    return BundleChecksumError(
        f"{path}: checksum mismatch in section {name!r} — "
        "the bundle is corrupted; rebuild it with `repro build`"
    )


def verify_bundle(path) -> None:
    """Check every section of a bundle against its recorded CRC32.

    :func:`load_bundle` serves the sorted runs in place and never reads
    them end to end, so a flipped byte there would be served — and
    folded into a fresh bundle with valid checksums by the next compact.
    This is the full check, for the process that owns the artifact
    (``repro serve --bundle`` once per start, :func:`compact_bundle`
    before it folds anything; workers and one-shot commands skip it).
    It goes through buffered ``read()``s, not the map, so the file does
    not become resident in the caller: ~0.7 ms per MB.

    Then, mapping the file for the length of the call, it holds the runs
    against each other and the header against the runs, without
    rebuilding the graph: the POS and OSP runs must hold the SPO run's
    rows (the same sum of row hashes, columns put back in ``(s, p, o)``
    order) and each header type / subclass predicate count its POS
    range's rows to non-literals, else :class:`BundleFormatError`.

    Raises :class:`BundleChecksumError` naming the first bad section.
    """
    path = os.fspath(path)
    buffer = memoryview(bytearray(1 << 16))  # one, reused: nothing to retain
    with open(path, "rb") as fh:
        meta, data_start = _read_header(fh, path)
        for entry in meta.get("sections", ()):
            fh.seek(data_start + entry["offset"])
            crc, left = 0, entry["length"]
            while left:
                got = fh.readinto(buffer[: min(left, len(buffer))])
                if not got:
                    raise BundleFormatError(
                        f"{path}: section {entry['name']!r} is truncated"
                    )
                crc = zlib.crc32(buffer[:got], crc)
                left -= got
            if crc != entry["crc32"]:
                raise _checksum_error(path, entry["name"])

    _, graph = _graph_parts(path, *_map_sections(path))  # no index
    store = graph.store

    def edges(predicates) -> Dict:
        counts = {
            p: sum(not store.is_literal_key(o) for o in store.object_keys(store.key_of(p)))
            for p in predicates
        }
        return {p: count for p, count in counts.items() if count}

    spo, pos, osp = (sum(map(hash, store.base_rows(run))) for run in range(3))
    for what, stored, runs in (
        ("store2.pos rows", pos, spo),
        ("store2.osp rows", osp, spo),
        ("type predicate counts", graph._type_pred_counts, edges(TYPE_PREDICATES)),
        ("subclass predicate counts", graph._subclass_pred_counts,
         edges(SUBCLASS_PREDICATES)),
    ):
        if stored != runs:
            raise BundleFormatError(
                f"{path}: the {what} disagree with the runs ({stored!r} != {runs!r})"
            )


def _map_sections(path: str):
    """``(header, raw, section)`` of a mapped bundle: ``raw(name)`` is a
    section's bytes unchecked (the runs, so cold start never reads them
    end to end), ``section(name)`` the same CRC-verified on first access,
    so a corrupted section fails before any of its data is used."""
    with open(path, "rb") as fh:
        meta, data_start = _read_header(fh, path)
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    view = memoryview(mapped)

    section_views: Dict[str, memoryview] = {}
    for entry in meta.get("sections", ()):
        begin = data_start + entry["offset"]
        end = begin + entry["length"]
        if end > len(view):
            raise BundleFormatError(f"{path}: section {entry['name']!r} is truncated")
        section_views[entry["name"]] = view[begin:end]
    checked: set = set()

    def raw(name: str) -> memoryview:
        try:
            return section_views[name]
        except KeyError:
            raise BundleFormatError(f"{path}: missing section {name!r}") from None

    def section(name: str) -> memoryview:
        payload = raw(name)
        if name not in checked:
            entry = next(e for e in meta["sections"] if e["name"] == name)
            if zlib.crc32(payload) != entry["crc32"]:
                raise _checksum_error(path, name)
            checked.add(name)
        return payload

    return meta, raw, section


def _graph_parts(path: str, meta, raw, section):
    """The term table, and the data graph as a view over the triple tier
    of the sorted runs (``graph.store``)."""
    terms = mt.MmapTermTable(
        raw("terms"), decode_raw_ids(raw("terms.offsets")),
        decode_raw_ids(raw("terms.sorted")),
    )
    counts = meta.get("counts", {})
    if counts.get("terms") is not None and counts["terms"] != len(terms):
        raise BundleFormatError(
            f"{path}: term table has {len(terms)} entries, header says "
            f"{counts['terms']}"
        )
    meta_graph = meta["graph"]
    store = mt.MmapTripleTier(
        *(decode_raw_ids(raw(f"store2.{run}")) for run in ("spo", "pos", "osp")),
        meta_graph["stats"]["triples"],
        terms,
    )
    graph = MmapDataGraph(
        store,
        meta_graph,
        *(
            _decode_count_pairs(Reader(section(f"graph.{name}_pred_counts")), terms)
            for name in ("type", "subclass")
        ),
    )
    return terms, graph


def load_bundle(path) -> LoadedBundle:
    """Open a bundle file as engine parts.

    The keyword index and the triple store come back as the
    disk-resident readers of :mod:`repro.storage.mmap_tier` over the
    mapped sorted runs: neither postings nor triples are materialized,
    so cold start is O(metadata) and resident memory O(touched data).
    The data graph is a view over that triple store, which it holds as
    ``graph.store`` (:mod:`repro.storage.graph_view`).  The runs are
    *not* CRC-verified here (checksumming them would read every byte;
    :func:`verify_bundle` is that pass); the metadata and summary
    sections are, when they are decoded.

    Raises :class:`BundleFormatError` on anything that is not a repro
    bundle of exactly :data:`FORMAT_VERSION` (an older or newer layout
    is rebuilt, never half-read) and :class:`BundleChecksumError` when a
    verified section's bytes do not match its recorded CRC — the
    artifact is then unusable by definition and no partial engine is
    produced.
    """
    path = os.fspath(path)
    meta, section_raw, section = _map_sections(path)
    terms, graph = _graph_parts(path, meta, section_raw, section)

    def ids(name: str):
        return decode_raw_ids(section_raw(name))

    # -- keyword index -------------------------------------------------
    inverted = mt.MmapInvertedIndex(
        mt.MmapTermDictionary(
            section_raw("kindex.vocab"),
            ids("kindex2.vocab.offsets"),
            ids("kindex2.vocab.sorted"),
        ),
        ids("kindex2.postings.offsets"),
        ids("kindex2.postings.runs"),
        decode_raw_ids(section_raw("kindex.elements")[8:]),
        ids("kindex2.elements.sorted"),
        ids("kindex2.element_terms.offsets"),
        ids("kindex2.element_terms.runs"),
        terms,
    )
    attr_class_refs = mt.LazyRefMap(
        *mt.grouping_views(section_raw("kindex2.attr_refs")),
        terms,
        mt.attr_refs_decoder(terms),
    )
    value_occ_refs = mt.LazyRefMap(
        *mt.grouping_views(section_raw("kindex2.value_refs")),
        terms,
        mt.value_refs_decoder(terms),
    )
    kindex_meta = meta["kindex"]
    keyword_index = KeywordIndex.from_state(
        graph,
        inverted,
        attr_class_refs,
        value_occ_refs,
        version=kindex_meta["version"],
        build_seconds=kindex_meta["build_seconds"],
    )

    # -- summary graph -------------------------------------------------
    vertex_flat = Reader(section("summary.vertices")).ids()
    it = iter(vertex_flat)
    vertices: List[SummaryVertex] = []
    for code, t, agg in zip(it, it, it):
        kind = _VERTEX_KINDS[code]
        if kind is SummaryVertexKind.THING:
            vertices.append(SummaryVertex(THING_KEY, kind, None, agg))
        elif kind is SummaryVertexKind.ARTIFICIAL:
            vertices.append(SummaryVertex(("avalue", terms[t]), kind, None, agg))
        else:
            key_tag = "class" if kind is SummaryVertexKind.CLASS else "value"
            vertices.append(SummaryVertex((key_tag, terms[t]), kind, terms[t], agg))
    edge_flat = Reader(section("summary.edges")).ids()
    it = iter(edge_flat)
    edges = [
        (terms[label], _EDGE_KINDS[code], vertices[si].key, vertices[ti].key, agg)
        for label, code, si, ti, agg in zip(it, it, it, it, it)
    ]
    summary_meta = meta["summary"]
    summary = SummaryGraph.from_state(
        vertices,
        edges,
        total_entities=summary_meta["total_entities"],
        total_relation_edges=summary_meta["total_relation_edges"],
        total_attribute_edges=summary_meta["total_attribute_edges"],
        build_seconds=summary_meta["build_seconds"],
        version=summary_meta["version"],
    )
    counts = meta.get("counts", {})
    if counts.get("summary_vertices") is not None and counts["summary_vertices"] != len(
        vertices
    ):
        raise BundleFormatError(f"{path}: summary vertex count mismatch")

    loaded = LoadedBundle()
    loaded.graph = graph
    loaded.keyword_index = keyword_index
    loaded.summary = summary
    loaded.meta = meta
    loaded.path = path
    return loaded


# ----------------------------------------------------------------------
# Engine lifecycle: load / compact
# ----------------------------------------------------------------------


def load_engine(
    path,
    *,
    replay_wal: bool = True,
    attach_wal: bool = True,
    wal_path=None,
    index_tier: Optional[str] = None,
    **overrides,
):
    """Reconstitute a :class:`~repro.core.engine.KeywordSearchEngine`.

    The engine is assembled from the bundle's decoded parts with the
    engine configuration saved in the header; keyword arguments
    (``cost_model``, ``k``, ``dmax``, ``search_cache_size``) override
    it, and anything else is a ``TypeError``.

    When a delta log exists next to
    the bundle (``<path>.wal`` unless ``wal_path`` says otherwise), its
    committed epochs past the bundle's epoch are replayed through the
    incremental maintenance path, and — with ``attach_wal`` — the log is
    then hooked into the engine's :class:`~repro.maintenance.IndexManager`
    so every future update epoch is appended durably.

    The keyword index and the triple store are *never* materialized:
    lookups binary-search the bundle's queryable sections through the
    mmap, updates land in small in-memory overlays, and serving RSS
    stays O(touched data) (see :mod:`repro.storage.mmap_tier`).  The data
    graph is a view over the same triple store (see
    :mod:`repro.storage.graph_view`): an update probes the runs for the
    terms it touches and decodes nothing else, so the returned engine
    serves queries after O(metadata) work and stays O(touched data)
    under writes.  Nothing
    here reads the sorted runs end to end: :func:`verify_bundle` is the
    integrity pass, and the caller that owns the artifact runs it.

    The bundle + log pair is a **single-writer artifact**: attaching
    takes an exclusive lock on the log (released by
    ``engine.delta_log.close()``, or implicitly when the process dies),
    and a second attach — from this or any other process — fails with
    :class:`WalError` instead of interleaving epochs that would brick
    the pair.  Concurrent read-only loads use ``attach_wal=False``.
    """
    from repro.core.engine import KeywordSearchEngine
    from repro.storage.wal import DeltaLog

    # A loaded bundle has one index tier.  The keyword is still accepted,
    # checked and ignored for one reader: the frozen perf/workloads.py
    # passes it through its `engine_config`; ROADMAP item 2(a) removes it
    # from both places.
    if index_tier not in (None, "memory", "mmap"):
        raise ValueError(
            f"unknown index_tier {index_tier!r} (expected 'memory' or 'mmap')"
        )
    started = now()
    loaded = load_bundle(path)
    meta = loaded.meta
    engine_meta = dict(meta["engine"])
    unknown = set(overrides) - set(engine_meta)
    if unknown:
        raise TypeError(f"unknown load() overrides: {sorted(unknown)}")
    engine_meta.update({k: v for k, v in overrides.items() if v is not None})

    engine = KeywordSearchEngine(
        loaded.graph,
        cost_model=engine_meta["cost_model"],
        k=engine_meta["k"],
        dmax=engine_meta["dmax"],
        keyword_index=loaded.keyword_index,
        summary=loaded.summary,
        search_cache_size=engine_meta["search_cache_size"],
    )
    engine.index_manager.epoch = meta["snapshot"]["epoch"]

    wal_path = os.fspath(wal_path) if wal_path is not None else loaded.path + ".wal"
    wal = DeltaLog(wal_path)
    replayed = 0
    try:
        if attach_wal:
            # Lock *before* reading the tail: a still-attached writer
            # could otherwise commit an epoch between our replay and our
            # attach, and our next update would append a duplicate of it.
            wal._lock_exclusively()
        if replay_wal:
            replayed = wal.replay_into(engine)
        if attach_wal:
            if not replay_wal and any(
                epoch >= meta["snapshot"]["epoch"]
                for epoch, _, _ in wal.committed_entries()
            ):
                # Appending new epochs after an unreplayed committed tail
                # would interleave out-of-order epochs in the log: the
                # engine has silently diverged from the artifact pair, and
                # the next load would (rightly) refuse the gap.  Refuse up
                # front.
                raise WalError(
                    f"{wal_path}: refusing attach_wal with replay_wal=False "
                    "while the log holds a committed tail past the bundle's "
                    "epoch — replay it, or load with attach_wal=False"
                )
            wal.attach(engine.index_manager)
            engine.delta_log = wal
    except BaseException:
        wal.close()
        raise

    engine.artifact = {
        "path": os.path.abspath(loaded.path),
        "format_version": FORMAT_VERSION,
        "index_tier": engine.index_tier,
        "epoch_at_save": meta["snapshot"]["epoch"],
        "summary_version_at_save": meta["snapshot"]["summary_version"],
        "index_version_at_save": meta["snapshot"]["index_version"],
        "wal_path": os.path.abspath(wal_path) if (replay_wal or attach_wal) else None,
        "wal_epochs_replayed": replayed,
        "load_seconds": now() - started,
        "writer": meta.get("writer"),
    }
    return engine


def compact_bundle(path, wal_path=None) -> Dict[str, object]:
    """Fold the delta log into a fresh bundle and truncate the log.

    Verifies every section's checksum first (:func:`verify_bundle`: a
    corrupted run must not be laundered into a fresh bundle with valid
    CRCs — on a mismatch neither the bundle nor the log is touched),
    then loads bundle + committed WAL tail, saves the caught-up engine as
    a new bundle (:meth:`KeywordSearchEngine.save`: a streamed rebuild from
    its current triples, atomic same-directory replace), then resets the
    log — the epochs it held are now part of the bundle itself.  Returns
    an info dict including how many logged epochs were folded in.
    """
    from repro.storage.wal import DeltaLog

    path = os.fspath(path)
    if not os.path.exists(path):
        # Checked before the lock below, which would otherwise create a
        # stray (empty) delta log next to a bundle that never existed.
        raise FileNotFoundError(f"no such bundle: {path}")
    verify_bundle(path)
    log = DeltaLog(wal_path if wal_path is not None else path + ".wal")
    # Take the single-writer lock *before* touching the bundle: an engine
    # attached to the log would keep appending epochs the fresh bundle
    # does not contain, so compacting under it must fail — and fail
    # before the bundle file is replaced, not after.
    log._lock_exclusively()
    try:
        engine = load_engine(
            path, replay_wal=True, attach_wal=False, wal_path=log.path
        )
        folded = engine.artifact["wal_epochs_replayed"]
        tmp_path = f"{path}.compact.{os.getpid()}"
        try:
            info = engine.save(tmp_path, force=True)
            os.replace(tmp_path, path)
            fsync_directory(path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        log.reset()
    finally:
        log.close()
    info["path"] = path
    info["wal_epochs_folded"] = folded
    return info
