"""Unit tests for the persistence layer: codec, bundle container, WAL."""

import json
import os
import struct

import pytest
from bundle_layout import (
    EXPECTED_SECTIONS,
    flip_byte_in_section as _flip_byte_in_section,
    read_header as _read_header,
    section_entry as _section_entry,
)

from repro.core.engine import KeywordSearchEngine
from repro.quality.runner import PerturbedCostModel
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF, RDFS, XSD
from repro.rdf.terms import BNode, Literal, URI
from repro.rdf.triples import Triple
from repro.scoring.cost import KeywordMatchCost, make_cost_model
from repro.storage import (
    BundleChecksumError,
    BundleExistsError,
    BundleFormatError,
    DeltaLog,
    FORMAT_VERSION,
    MAGIC,
    UnsupportedEngineError,
    WalError,
    compact_bundle,
    load_bundle,
    verify_bundle,
)
from repro.storage.codec import (
    Reader,
    TermInterner,
    _pack_str,
    decode_raw_ids,
    encode_grouping,
    encode_ids,
    encode_raw_ids,
    encode_term_record,
    term_order_key,
)
from repro.storage.mmap_tier import MmapTermDictionary, MmapTermTable, grouping_views


# ----------------------------------------------------------------------
# Codec primitives
# ----------------------------------------------------------------------


def test_ids_round_trip():
    values = [0, 1, -1, 2**62, -(2**62), 42]
    assert Reader(encode_ids(values)).ids() == values


def test_raw_ids_round_trip_and_alignment():
    values = [3, 1, 4, 1, 5, -9]
    blob = encode_raw_ids(values)
    assert len(blob) == 8 * len(values)
    assert list(decode_raw_ids(blob)) == values
    with pytest.raises(BundleFormatError):
        decode_raw_ids(blob[:-3])


def _records_blob(records):
    """A count-prefixed stream of encoded records, plus the byte-offset
    table (one past the end last) the builder writes beside it."""
    offsets = [8]
    for record in records:
        offsets.append(offsets[-1] + len(record))
    return struct.pack("<Q", len(records)) + b"".join(records), offsets


def test_strings_round_trip():
    """The builder's string stream, read back by the reader a bundle's
    vocabulary is served by."""
    strings = ["", "plain", "ünï¢ode 🚀", "tab\tand\nnewline"]
    blob, offsets = _records_blob([_pack_str(s) for s in strings])
    order = sorted(range(len(strings)), key=strings.__getitem__)
    dictionary = MmapTermDictionary(blob, offsets, order)
    assert [dictionary.text(i) for i in range(len(dictionary))] == strings
    assert [dictionary.id_of(s) for s in strings] == list(range(len(strings)))
    assert dictionary.id_of("absent") is None


def test_grouping_round_trip_preserves_order():
    items = [(5, [1, 2, 3]), (2, []), (9, [7])]
    keys, offsets, values = map(list, grouping_views(encode_grouping(iter(items))))
    assert keys == [5, 2, 9]
    assert [values[offsets[i] : offsets[i + 1]] for i in range(len(keys))] == [
        [1, 2, 3],
        [],
        [7],
    ]


def _term_table(terms, term_id):
    blob, offsets = _records_blob([encode_term_record(t, term_id) for t in terms])
    order = sorted(range(len(terms)), key=lambda i: term_order_key(terms[i], term_id))
    return MmapTermTable(blob, offsets, order)


def test_term_table_round_trip():
    terms = [
        URI("http://example.org/a"),
        BNode("b42"),
        Literal("plain"),
        Literal("2006", datatype=XSD.integer if hasattr(XSD, "integer") else URI("http://www.w3.org/2001/XMLSchema#integer")),
        Literal("héllo 🌍", language="en-GB"),
        Literal(""),
    ]
    interner = TermInterner()
    for term in terms:
        interner.id(term)
    table = _term_table(interner.terms, interner.id)
    decoded = [table[i] for i in range(len(table))]
    assert decoded == interner.terms
    assert [table.id_of(t) for t in decoded] == list(range(len(decoded)))
    # Datatype URIs are interned before their literals (a record only
    # ever points backwards).
    for index, term in enumerate(decoded):
        if isinstance(term, Literal) and term.datatype is not None:
            assert decoded.index(term.datatype) < index


def test_term_table_tells_apart_literals_sharing_their_text():
    """Literals that differ only in datatype or language, or share a
    prefix, are distinct records; a term the table lacks is absent,
    whatever its text (a lone surrogate included)."""
    integer = URI("http://www.w3.org/2001/XMLSchema#integer")
    decimal = URI("http://www.w3.org/2001/XMLSchema#decimal")
    terms = [
        Literal("1"), Literal("1", datatype=integer), Literal("1", datatype=decimal),
        Literal("1", language="en"), Literal("1", language="de"), URI("1"),
        Literal("10"), Literal("ü"), Literal("z"),
    ]
    interner = TermInterner()
    for term in terms:
        interner.id(term)
    table = _term_table(interner.terms, interner.id)
    assert [table.id_of(t) for t in interner.terms] == list(range(len(interner.terms)))
    for absent in (
        Literal("1", language="fr"), Literal("2"), BNode("1"), Literal("y"), Literal("\ud800"),
    ):
        assert table.id_of(absent) is None


def test_term_table_resolves_a_miss_once_within_a_bound(monkeypatch):
    """An update batch probes each of its new terms many times: a miss
    is one bisect, remembered — in a memo the table keeps bounded."""
    from repro.storage import mmap_tier

    interner = TermInterner()
    for term in (URI("http://example.org/a"), Literal("b")):
        interner.id(term)
    table = _term_table(interner.terms, interner.id)
    bisects = []
    find = mmap_tier._find_sorted
    monkeypatch.setattr(
        mmap_tier, "_find_sorted", lambda *a: bisects.append(a) or find(*a)
    )
    absent = URI("http://example.org/absent")
    assert [table.id_of(absent) for _ in range(3)] == [None] * 3
    assert len(bisects) == 1
    monkeypatch.setattr(mmap_tier, "ABSENT_TERMS_MEMO", 4)
    for i in range(10):
        table.id_of(URI(f"http://example.org/new{i}"))
        assert len(table._absent) <= 4
    assert table.id_of(URI("http://example.org/a")) == 0


def test_term_table_rejects_unknown_kind():
    blob, offsets = _records_blob([bytes([99]) + _pack_str("x")])
    with pytest.raises(BundleFormatError, match="unknown term kind 99"):
        MmapTermTable(blob, offsets, [0])[0]


# ----------------------------------------------------------------------
# Bundle container
# ----------------------------------------------------------------------


@pytest.fixture()
def small_engine(example_graph):
    return KeywordSearchEngine(DataGraph(example_graph.triples))


def test_save_refuses_overwrite(small_engine, tmp_path):
    path = tmp_path / "a.reprobundle"
    small_engine.save(path)
    with pytest.raises(BundleExistsError):
        small_engine.save(path)
    small_engine.save(path, force=True)  # explicit force succeeds


def test_save_is_atomic_no_tmp_left_behind(small_engine, tmp_path):
    path = tmp_path / "a.reprobundle"
    small_engine.save(path)
    assert os.listdir(tmp_path) == ["a.reprobundle"]


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.reprobundle"
    path.write_bytes(b"NOTABNDL" + b"\x00" * 64)
    with pytest.raises(BundleFormatError):
        load_bundle(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.reprobundle"
    path.write_bytes(b"")
    with pytest.raises(BundleFormatError):
        load_bundle(path)


def test_load_rejects_future_format_version(small_engine, tmp_path):
    path = tmp_path / "a.reprobundle"
    small_engine.save(path)
    data = bytearray(path.read_bytes())
    data[8:12] = struct.pack("<I", FORMAT_VERSION + 1)
    path.write_bytes(bytes(data))
    with pytest.raises(BundleFormatError) as excinfo:
        load_bundle(path)
    assert "format version" in str(excinfo.value)


def _assert_version_refused(engine, path, version):
    engine.save(path)
    data = bytearray(path.read_bytes())
    data[8:12] = struct.pack("<I", version)
    path.write_bytes(bytes(data))
    with pytest.raises(BundleFormatError, match="rebuild the bundle with `repro build`"):
        KeywordSearchEngine.load(path, attach_wal=False)
    with pytest.raises(BundleFormatError, match="rebuild the bundle with `repro build`"):
        verify_bundle(path)


def test_load_rejects_format_version_1(small_engine, tmp_path):
    """Format v1 went with its only writer: a prelude that says version 1
    is refused with the rebuild hint, not half-read."""
    _assert_version_refused(small_engine, tmp_path / "a.reprobundle", 1)


def test_load_rejects_format_version_2(small_engine, tmp_path):
    """So did v2, which stored the indexes twice (``store.*`` and four
    ``kindex.*`` sections next to the runs): those sections are gone from
    the reader, so it is refused rather than half-read."""
    _assert_version_refused(small_engine, tmp_path / "a.reprobundle", 2)


def test_load_rejects_format_version_3(small_engine, tmp_path):
    """And v3, which stored the data graph a second time as ten derived
    ``graph.*`` sections: their decoders are gone, so a prelude that says
    version 3 is refused with the rebuild hint."""
    _assert_version_refused(small_engine, tmp_path / "a.reprobundle", 3)


def test_load_rejects_format_version_4(small_engine, tmp_path):
    """And v4, which stored the CSR substrate beside the summary graph
    it is derived from: a v4 file carries two sections this release
    would ignore, so it is refused rather than half-read."""
    _assert_version_refused(small_engine, tmp_path / "a.reprobundle", 4)


def test_load_rejects_format_version_5(small_engine, tmp_path):
    """And v5, which stored the triple set a fourth time, as a
    ``triples`` section in arrival order beside the three sorted runs:
    its loader read that section, so a v5 file is rebuilt, not read."""
    _assert_version_refused(small_engine, tmp_path / "a.reprobundle", 5)


def test_load_rejects_format_version_6(small_engine, tmp_path):
    """And v6, whose header also recorded ``strict_keywords`` and three
    keyword-index settings: a v6 file can carry a value this release
    would silently drop, so it is rebuilt, not read."""
    assert FORMAT_VERSION == 7
    _assert_version_refused(small_engine, tmp_path / "a.reprobundle", 6)


def test_load_rejects_corrupted_section(small_engine, tmp_path):
    """A load serves the posting runs in place and does not read them
    end to end; the full pass (``verify_bundle``, which ``repro serve``
    and ``repro compact`` run) fails on a flipped byte with the
    dedicated exception, naming the section."""
    path = tmp_path / "a.reprobundle"
    small_engine.save(path)
    assert path.read_bytes()[:8] == MAGIC
    verify_bundle(path)  # a fresh bundle passes
    _flip_byte_in_section(path, "kindex2.postings.runs")
    with pytest.raises(BundleChecksumError, match="'kindex2.postings.runs'"):
        verify_bundle(path)


@pytest.mark.parametrize("name", EXPECTED_SECTIONS)
def test_verify_checksums_every_section(small_engine, tmp_path, name):
    """One flipped byte in any of the 21 sections — the runs a load reads
    in place included — fails the full pass, naming the section."""
    path = tmp_path / "a.reprobundle"
    small_engine.save(path)
    _flip_byte_in_section(path, name)
    with pytest.raises(BundleChecksumError, match=repr(name)):
        verify_bundle(path)


def test_verify_rejects_a_torn_tail(small_engine, tmp_path):
    path = tmp_path / "a.reprobundle"
    small_engine.save(path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(BundleFormatError, match="truncated"):
        verify_bundle(path)


def test_compact_refuses_a_corrupted_bundle(small_engine, tmp_path):
    """A flipped byte in a run must not be laundered into a fresh bundle
    with valid CRCs: compact fails before it folds anything, and leaves
    bundle and WAL byte for byte as they were."""
    path = tmp_path / "a.reprobundle"
    wal = tmp_path / "a.reprobundle.wal"
    small_engine.save(path)
    live = KeywordSearchEngine.load(path)
    live.add_triples([_T3])
    live.delta_log.close()
    _flip_byte_in_section(path, "store2.pos")
    before = path.read_bytes(), wal.read_bytes()
    with pytest.raises(BundleChecksumError, match="'store2.pos'"):
        compact_bundle(path)
    assert (path.read_bytes(), wal.read_bytes()) == before
    assert sorted(os.listdir(tmp_path)) == ["a.reprobundle", "a.reprobundle.wal"]


def test_bundle_holds_exactly_the_expected_sections(small_engine, tmp_path):
    """One stored copy of everything: the 21 sections — the runs are the
    triple set and the indexes — and nothing derived: no ``triples`` copy
    of the runs in arrival order, no ``graph.*`` structure beside the two
    predicate-count maps, no ``substrate.*`` rows beside the summary
    graph they come from."""
    path = tmp_path / "a.reprobundle"
    info = small_engine.save(path)
    header, _ = _read_header(path.read_bytes())
    names = [e["name"] for e in header["sections"]]
    assert names == EXPECTED_SECTIONS and "triples" not in names
    assert info["sections"] == len(EXPECTED_SECTIONS) == 21


def _rewrite_bundle(path, data, header, payload):
    """Write ``payload`` back under a re-encoded (patched) header."""
    encoded = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    path.write_bytes(
        data[:12]
        + struct.pack("<I", len(encoded))
        + encoded
        + b"\x00" * (-(16 + len(encoded)) % 8)
        + payload
    )


def _patch_section(path, name, patch):
    """Rewrite one section's bytes in place (same length) and its CRC, so
    only a check of what the bytes say can tell."""
    import zlib

    data = path.read_bytes()
    header, data_start = _read_header(data)
    payload = bytearray(data[data_start:])
    entry = _section_entry(header, name)
    begin, end = entry["offset"], entry["offset"] + entry["length"]
    section = bytearray(payload[begin:end])
    patch(section)
    payload[begin:end] = section
    entry["crc32"] = zlib.crc32(section)
    _rewrite_bundle(path, data, header, bytes(payload))


def _repeat_first_row(section):
    section[-24:] = section[:24]  # a run is bare (a, b, c) int64 rows


def _one_more_type_edge(section):
    count = struct.unpack_from("<q", section, 16)[0]  # (pid, count) after the prefix
    struct.pack_into("<q", section, 16, count + 1)


@pytest.mark.parametrize(
    "name, patch, what",
    [
        ("store2.pos", _repeat_first_row, "store2.pos rows"),
        ("store2.osp", _repeat_first_row, "store2.osp rows"),
        ("graph.type_pred_counts", _one_more_type_edge, "type predicate counts"),
    ],
)
def test_graph_that_disagrees_with_the_runs_fails_verification(
    small_engine, tmp_path, name, patch, what
):
    """The runs are held against each other, and the header's graph
    counts against the runs, by ``verify_bundle``, which nothing serves
    past: a POS or OSP run whose last row repeats the first, or one type
    edge too many in the header's predicate counts — same length, CRC
    patched, so every checksum holds — fails it, without a graph being
    rebuilt.  A load does not check, and still serves a search."""
    path = tmp_path / "a.reprobundle"
    small_engine.save(path)
    _patch_section(path, name, patch)
    with pytest.raises(BundleFormatError, match=f"the {what} disagree"):
        verify_bundle(path)
    loaded = KeywordSearchEngine.load(path, attach_wal=False)
    assert loaded.search("cimiano 2006").candidates


def test_shortened_triple_run_fails_store_materialisation(small_engine, tmp_path):
    """A ``store2.pos`` entry one row short — length and CRC patched, so
    the checksum passes — must fail the mapped tier's own length check
    against the header's triple count, in ``verify_bundle`` and at load,
    not serve an index missing a triple."""
    import zlib

    path = tmp_path / "a.reprobundle"
    small_engine.save(path)
    data = path.read_bytes()
    header, data_start = _read_header(data)
    payload = data[data_start:]
    entry = _section_entry(header, "store2.pos")
    entry["length"] -= 24
    entry["crc32"] = zlib.crc32(
        payload[entry["offset"] : entry["offset"] + entry["length"]]
    )
    _rewrite_bundle(path, data, header, payload)
    size = len(small_engine.store)
    for step in (verify_bundle, lambda p: KeywordSearchEngine.load(p, attach_wal=False)):
        with pytest.raises(
            BundleFormatError,
            match=f"store2.pos holds {3 * size - 3} values, expected {3 * size}",
        ):
            step(path)


class _TunedC3(KeywordMatchCost):
    """Carries C3's name, but is not C3."""

    def vertex_cost(self, vertex, augmented) -> float:
        return 2 * super().vertex_cost(vertex, augmented)


@pytest.mark.parametrize(
    "model",
    [_TunedC3(), PerturbedCostModel(make_cost_model("c3"))],
    ids=["c3-subclass", "perturbed"],
)
def test_save_refuses_custom_cost_model(example_graph, tmp_path, model):
    engine = KeywordSearchEngine(DataGraph(example_graph.triples), cost_model=model)
    with pytest.raises(UnsupportedEngineError):
        engine.save(tmp_path / "a.reprobundle")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["c1", "c2", "c3", "pagerank"])
def test_save_accepts_every_stock_cost_model(example_graph, tmp_path, name):
    engine = KeywordSearchEngine(
        DataGraph(example_graph.triples), cost_model=make_cost_model(name)
    )
    path = tmp_path / f"{name}.reprobundle"
    engine.save(path)
    loaded = KeywordSearchEngine.load(path)
    assert loaded.cost_model.name == name
    assert type(loaded.cost_model) is type(make_cost_model(name))


def test_load_overrides_engine_config(small_engine, tmp_path):
    path = tmp_path / "a.reprobundle"
    small_engine.save(path)
    loaded = KeywordSearchEngine.load(path, k=3, cost_model="c1")
    assert (loaded.k, loaded.cost_model.name) == (3, "c1")
    # Retired options are unknown ones: there is no eager load to ask
    # for, and no entry point chooses the loop or a strict keyword mode.
    for unknown in (
        {"no_such_option": 1}, {"use_vectorized": False}, {"lazy": False},
        {"guided": False}, {"strict_keywords": True},
    ):
        with pytest.raises(TypeError, match="unknown load"):
            KeywordSearchEngine.load(path, **unknown)


@pytest.mark.parametrize(
    "setting, message",
    [({"k": 0}, "k must be >= 1"), ({"dmax": -1}, "dmax must be >= 0")],
    ids=["k", "dmax"],
)
def test_builder_refuses_a_configuration_no_search_can_serve(
    example_graph, tmp_path, setting, message
):
    """The one writer refuses ``k < 1`` and ``dmax < 0`` by name, so
    neither ``repro build`` nor ``engine.save`` can persist a bundle
    whose every search would fail; nothing is left at the path."""
    from repro.storage import build_bundle_streaming

    path = tmp_path / "bad.reprobundle"
    with pytest.raises(ValueError, match=message):
        build_bundle_streaming(iter(example_graph.triples), path, **setting)
    engine = KeywordSearchEngine(DataGraph(example_graph.triples), **setting)
    with pytest.raises(ValueError, match=message):
        engine.save(path)
    assert not path.exists()


def test_engine_config_round_trips(example_graph, tmp_path):
    engine = KeywordSearchEngine(
        DataGraph(example_graph.triples),
        cost_model="c2",
        k=7,
        dmax=6,
        search_cache_size=32,
    )
    path = tmp_path / "a.reprobundle"
    engine.save(path)
    loaded = KeywordSearchEngine.load(path)
    assert loaded.cost_model.name == "c2"
    assert (loaded.k, loaded.dmax) == (7, 6)
    assert loaded.cache_stats()["search_results"]["maxsize"] == 32


def test_strict_graph_round_trips_and_fails_a_violating_build(example_graph, tmp_path):
    """The builder carries the graph's Definition 1 mode into the header,
    and under it a violating triple fails the build instead of writing a
    bundle whose strict graph records conflicts."""
    from repro.rdf.graph import GraphIntegrityError
    from repro.storage import build_bundle_streaming

    path = tmp_path / "a.reprobundle"
    KeywordSearchEngine(DataGraph(example_graph.triples, strict=True)).save(path)
    assert KeywordSearchEngine.load(path, attach_wal=False).graph.strict is True
    bad = Triple(URI("ex:a"), RDF.type, Literal("not a class"))
    with pytest.raises(GraphIntegrityError):
        build_bundle_streaming(
            [*example_graph.triples, bad], tmp_path / "b.reprobundle", graph_strict=True
        )
    assert os.listdir(tmp_path) == ["a.reprobundle"]


def test_artifact_metadata(small_engine, tmp_path):
    assert small_engine.artifact is None
    path = tmp_path / "a.reprobundle"
    small_engine.save(path)
    loaded = KeywordSearchEngine.load(path)
    artifact = loaded.artifact
    assert artifact["format_version"] == FORMAT_VERSION
    assert artifact["path"] == str(path)
    assert artifact["epoch_at_save"] == 0
    assert artifact["wal_epochs_replayed"] == 0
    assert artifact["load_seconds"] >= 0


def test_update_decodes_only_what_it_touches(dblp_small, tmp_path, monkeypatch):
    """A loaded bundle's data graph is a view over its runs: applying an
    update batch after a search and an execution decodes the batch's own
    terms plus a schema-sized handful from the term table — not the
    table."""
    triples = list(dblp_small.triples)
    path = tmp_path / "a.reprobundle"
    KeywordSearchEngine(DataGraph(triples)).save(path)
    loaded = KeywordSearchEngine.load(path, attach_wal=False)
    decoded = []
    decode = MmapTermTable._decode
    monkeypatch.setattr(
        MmapTermTable, "_decode", lambda table, i: decoded.append(i) or decode(table, i)
    )
    loaded.execute(loaded.search("conference 2005").best())

    ns = "http://example.org/touched/"
    article = next(t.object for t in triples if t.predicate == RDF.type)
    author = next(
        t for t in triples
        if not t.object.is_literal and t.predicate not in (RDF.type, RDFS.subClassOf)
    )
    adds = [
        Triple(URI(ns + "p1"), RDF.type, article),
        Triple(URI(ns + "p1"), URI(ns + "title"), Literal("Touched Only")),
        Triple(URI(ns + "p1"), author.predicate, author.object),
    ]
    removes = [next(t for t in triples if t.object.is_literal)]
    before = len(decoded)
    loaded.index_manager.apply_batch(adds=adds, removes=removes)
    batch_terms = {term for t in adds + removes for term in t}
    assert len(decoded) - before <= len(batch_terms) + 5, len(decoded) - before
    table = loaded.store._terms
    assert len(table._terms) < len(table) // 10  # the memo of decoded terms

    reference = DataGraph(triples)
    reference.remove_all(removes)
    reference.add_all(adds)
    assert loaded.graph.stats() == reference.stats()
    assert loaded.data_stats() == {
        "triples": len(reference), "delta_triples": 3, "tombstones": 1
    }


@pytest.mark.parametrize(
    "dataset", ["example_graph", "dblp_small", "lubm_small", "tap_small"]
)
def test_loaded_substrate_equals_the_in_process_one(dataset, request, tmp_path):
    """The substrate is not stored: a loaded engine derives it from the
    decoded summary graph, and gets the rows an in-process engine gets."""
    engine = KeywordSearchEngine(DataGraph(request.getfixturevalue(dataset).triples))
    path = tmp_path / "a.reprobundle"
    engine.save(path)
    loaded = KeywordSearchEngine.load(path, attach_wal=False)
    substrate = loaded.snapshot().substrate
    fresh = engine.snapshot().substrate
    assert substrate.rows == fresh.rows
    assert substrate.keys == fresh.keys


def test_service_stats_expose_artifact(small_engine, tmp_path):
    from repro.service import EngineService

    path = tmp_path / "a.reprobundle"
    small_engine.save(path)
    loaded = KeywordSearchEngine.load(path)
    service = EngineService(loaded)
    try:
        stats = service.stats()
        assert stats["artifact"]["format_version"] == FORMAT_VERSION
        assert stats["artifact"]["epoch_at_save"] == 0
    finally:
        service.close()
    # A built engine reports no artifact.
    service = EngineService(small_engine)
    try:
        assert service.stats()["artifact"] is None
    finally:
        service.close()


# ----------------------------------------------------------------------
# Delta log
# ----------------------------------------------------------------------

_T1 = Triple(URI("ex:a"), URI("ex:p"), Literal("v\nwith newline"))
_T2 = Triple(URI("ex:a"), RDF.type, URI("ex:C"))
_T3 = Triple(URI("ex:b"), URI("ex:p"), Literal("2006"))


def test_wal_records_committed_entries(tmp_path):
    log = DeltaLog(tmp_path / "x.wal")
    log.record(0, [_T1, _T2], [])
    log.commit(1)
    log.record(1, [], [_T2])
    log.commit(2)
    log.close()
    entries = list(log.committed_entries())
    assert entries == [(0, [_T1, _T2], []), (1, [], [_T2])]


def test_wal_uncommitted_tail_is_ignored(tmp_path):
    log = DeltaLog(tmp_path / "x.wal")
    log.record(0, [_T1], [])
    log.commit(1)
    log.record(1, [_T3], [])  # crash before commit
    log.close()
    assert list(log.committed_entries()) == [(0, [_T1], [])]


def test_wal_failed_epoch_stays_uncommitted(tmp_path):
    log = DeltaLog(tmp_path / "x.wal")
    log.record(0, [_T1], [])
    log.commit(0)  # epoch did not advance: the batch failed
    log.close()
    assert list(log.committed_entries()) == []


def test_wal_torn_last_line_is_ignored(tmp_path):
    path = tmp_path / "x.wal"
    log = DeltaLog(path)
    log.record(0, [_T1], [])
    log.commit(1)
    log.close()
    with open(path, "a") as fh:
        fh.write(f"B 1\nA {_T3.n3()}")  # torn mid-entry, no C
    assert list(DeltaLog(path).committed_entries()) == [(0, [_T1], [])]


def test_wal_damaged_entry_is_uncommitted(tmp_path):
    """Body tampering breaks the entry's CRC: like a torn write, the
    entry is treated as never committed (classic WAL recovery)."""
    path = tmp_path / "x.wal"
    log = DeltaLog(path)
    log.record(0, [_T1], [])
    log.commit(1)
    log.close()
    text = path.read_text().replace(_T1.object.n3(), '"tampered"')
    path.write_text(text)
    assert list(DeltaLog(path).committed_entries()) == []


def test_wal_interior_damage_surfaces_as_epoch_gap(example_graph, tmp_path):
    """A damaged entry with intact successors is real history loss:
    replay must refuse with the gap error, never skip past it."""
    path = tmp_path / "a.reprobundle"
    engine = KeywordSearchEngine(DataGraph(example_graph.triples))
    engine.save(path)
    live = KeywordSearchEngine.load(path)
    live.add_triples([_T1])
    live.add_triples([_T3])
    live.delta_log.close()
    wal = tmp_path / "a.reprobundle.wal"
    wal.write_text(wal.read_text().replace(_T1.object.n3(), '"tampered"'))
    with pytest.raises(WalError) as excinfo:
        KeywordSearchEngine.load(path)
    assert "gap" in str(excinfo.value)


def test_wal_garbage_lines_void_entries_not_the_log(tmp_path):
    path = tmp_path / "x.wal"
    path.write_text("# repro-wal 1\nWHAT 0\n")
    assert list(DeltaLog(path).committed_entries()) == []


def test_wal_foreign_header_refused(tmp_path):
    path = tmp_path / "x.wal"
    path.write_text("# repro-wal 99\nB 0\nC 0 00000000\n")
    with pytest.raises(WalError) as excinfo:
        list(DeltaLog(path).committed_entries())
    assert "header" in str(excinfo.value)


# One table of damaged logs, each read by BOTH entry points — the
# loader's whole-file scan and a fresh follower cursor.  They must agree
# on where the log ends (a dispatcher restarts from the first, its
# workers replay through the second) and raise nothing but WalError.

_T4 = Triple(URI("ex:c"), URI("ex:p"), Literal("żółć 東京"))


def _log_bytes(tmp_path, *batches):
    """The bytes a writer leaves after committing ``batches`` in turn."""
    path = tmp_path / f"make-{len(batches)}.wal"
    log = DeltaLog(path)
    for epoch, adds in enumerate(batches):
        log.record(epoch, adds, [])
        log.commit(epoch + 1)
    log.close()
    return path.read_bytes()


def _read_both_ways(path):
    """``(loader entries, cursor entries)``, or WalError from both."""
    from repro.storage import WalCursor

    outcomes = []
    for read in (lambda: DeltaLog(path).committed_entries(), WalCursor(path).poll):
        try:
            outcomes.append(list(read()))
        except WalError as exc:
            outcomes.append(exc)
    return outcomes


def _log_parts(tmp_path):
    """A one-epoch log, the two-epoch log that extends it, and the
    second entry's pieces."""
    from types import SimpleNamespace

    one = _log_bytes(tmp_path, [_T4])
    two = _log_bytes(tmp_path, [_T4], [_T3])
    second = two[len(one):]  # b"\nB 1\nA ...\nC 1 <crc>\n"
    b_line, a_line, c_line = second[1:].splitlines(keepends=True)
    assert b_line == b"B 1\n" and c_line.startswith(b"C 1 ")
    return SimpleNamespace(
        one=one, two=two, second=second, b=b_line, a=a_line, c=c_line,
        torn=one + b'\nB 1\nA <ex:b> <ex:p> "z\xc3',
    )


#: row -> (log bytes from the parts, committed epochs | WalError)
_DAMAGED_LOGS = {
    "intact": (lambda p: p.two, [0, 1]),
    "append torn inside a multi-byte character": (lambda p: p.torn, [0]),
    "C without its newline": (lambda p: p.two[:-1], [0, 1]),
    "C torn inside its checksum": (lambda p: p.two[:-3], [0]),
    "torn B": (lambda p: p.one + b"\nB", [0]),
    "B without an epoch": (lambda p: p.one + b"\nB x\n" + p.a + p.c, [0]),
    "foreign line mid-entry": (
        lambda p: p.one + b"\n" + p.b + b"WHAT 1\n" + p.a + p.c, [0],
    ),
    "undecodable line mid-entry": (
        lambda p: p.one + b"\n" + p.b + b"\xff\xfe\n" + p.a + p.c, [0],
    ),
    "torn append, then a further epoch": (lambda p: p.torn + p.second, [0, 1]),
    "wrong CRC": (lambda p: p.two[:-9] + b"deadbeef\n", [0]),
    "CRLF line ends": (lambda p: p.two.replace(b"\n", b"\r\n"), [0, 1]),
    "torn header": (lambda p: p.one[:5], []),
    "future header": (
        lambda p: p.two.replace(b"repro-wal 1", b"repro-wal 2"), WalError,
    ),
    "foreign file": (lambda p: b"not a log", WalError),
}


@pytest.mark.parametrize("row", _DAMAGED_LOGS)
def test_wal_damage_reads_the_same_through_both_readers(tmp_path, row):
    build, expected = _DAMAGED_LOGS[row]
    path = tmp_path / "x.wal"
    path.write_bytes(build(_log_parts(tmp_path)))
    loader, cursor = _read_both_ways(path)
    if expected is WalError:
        assert isinstance(loader, WalError) and isinstance(cursor, WalError)
        return
    assert loader == cursor
    assert loader == [(0, [_T4], []), (1, [_T3], [])][: len(expected)]
    assert [epoch for epoch, _, _ in loader] == expected


def committed_log(*body_lines: str) -> bytes:
    """A log of one entry at epoch 0, committed with a valid CRC over
    ``body_lines`` (each an ``A``/``R`` line) whatever they hold."""
    import zlib

    body = "\n".join(body_lines)
    crc = zlib.crc32(body.encode("utf-8"))
    return f"# repro-wal 1\n\nB 0\n{body}\nC 0 {crc:08x}\n".encode("utf-8")


@pytest.mark.parametrize(
    "line", ['A <a:s> <a:p> "\\UFFFFFFFF" .', 'R <a:s> <a:p> "\\uD800" .',
             "A <a:s> <a:p> ."],
)
def test_wal_unparseable_committed_entry_is_a_wal_error(example_graph, tmp_path, line):
    """A CRC-valid entry whose triples do not parse is a writer bug:
    both readers and the load that replays it raise WalError naming it."""
    path = tmp_path / "a.reprobundle"
    KeywordSearchEngine(DataGraph(example_graph.triples)).save(path)
    wal = tmp_path / "a.reprobundle.wal"
    wal.write_bytes(committed_log('A <a:s> <a:p> "ok" .', line))
    loader, cursor = _read_both_ways(wal)
    for outcome in (loader, cursor):
        assert isinstance(outcome, WalError)
        assert "unparseable triple in committed entry" in str(outcome)
        assert "line 1:" in str(outcome)
    for attach_wal in (True, False):
        with pytest.raises(WalError):
            KeywordSearchEngine.load(path, attach_wal=attach_wal)


def test_wal_cursor_resumes_past_a_newline_less_commit(tmp_path):
    """A follower that consumed a ``C`` before its newline landed picks
    the next epoch up from there: once each, no epoch twice."""
    from repro.storage import WalCursor

    two = _log_bytes(tmp_path, [_T4], [_T3])
    one = _log_bytes(tmp_path, [_T4])
    path = tmp_path / "x.wal"
    path.write_bytes(one[:-1])
    cursor = WalCursor(path)
    assert cursor.poll() == [(0, [_T4], [])]
    assert cursor.offset == len(one) - 1
    assert cursor.poll() == []
    path.write_bytes(two)
    assert cursor.poll() == [(1, [_T3], [])]
    assert cursor.poll() == []


def test_wal_newline_less_commit_then_next_epoch_is_two_epochs(example_graph, tmp_path):
    """Crash shape: the ``C`` landed, its newline did not.  The restarted
    writer counts the epoch (it must: its next ``record()`` opens with
    the newline that would complete the marker anyway), so the log ends
    up with exactly one committed entry per epoch and the next load
    replays both — no duplicate, no gap."""
    path = tmp_path / "a.reprobundle"
    KeywordSearchEngine(DataGraph(example_graph.triples)).save(path)
    wal = tmp_path / "a.reprobundle.wal"
    live = KeywordSearchEngine.load(path)
    live.add_triples([_T4])
    live.delta_log.close()
    wal.write_bytes(wal.read_bytes()[:-1])
    restarted = KeywordSearchEngine.load(path)
    assert restarted.artifact["wal_epochs_replayed"] == 1
    assert restarted.add_triples([_T3]) == 1
    restarted.delta_log.close()
    loader, cursor = _read_both_ways(wal)
    assert loader == cursor == [(0, [_T4], []), (1, [_T3], [])]
    final = KeywordSearchEngine.load(path, attach_wal=False)
    assert final.artifact["wal_epochs_replayed"] == 2
    assert final.index_manager.epoch == 2
    assert {_T3, _T4} <= set(final.graph.triples)


def test_wal_torn_header_is_rewritten_by_the_next_writer(example_graph, tmp_path):
    """A crash between creating the log and flushing its header leaves a
    fragment both readers take for an empty log; the next writer must
    not append after it (the first line would then be refused)."""
    path = tmp_path / "a.reprobundle"
    KeywordSearchEngine(DataGraph(example_graph.triples)).save(path)
    wal = tmp_path / "a.reprobundle.wal"
    wal.write_bytes(b"# repro-w")
    live = KeywordSearchEngine.load(path)
    assert live.artifact["wal_epochs_replayed"] == 0
    live.add_triples([_T4])
    live.delta_log.close()
    assert wal.read_bytes().startswith(b"# repro-wal 1\n")
    assert KeywordSearchEngine.load(path, attach_wal=False).index_manager.epoch == 1


def test_wal_torn_commit_then_reattach_survives(example_graph, tmp_path):
    """Crash shape: a torn C line, then a new process appends the next
    epoch.  The torn entry is uncommitted; the appended one must still
    parse (the leading-newline guard keeps frames from fusing)."""
    path = tmp_path / "a.reprobundle"
    engine = KeywordSearchEngine(DataGraph(example_graph.triples))
    engine.save(path)
    live = KeywordSearchEngine.load(path)
    live.add_triples([_T1])
    live.delta_log.close()
    wal = tmp_path / "a.reprobundle.wal"
    # Tear the commit line mid-write (strip trailing newline + crc tail).
    wal.write_bytes(wal.read_bytes()[:-6])
    restarted = KeywordSearchEngine.load(path)
    assert restarted.artifact["wal_epochs_replayed"] == 0  # entry uncommitted
    assert restarted.add_triples([_T1]) == 1  # re-applies as epoch 0
    restarted.delta_log.close()
    final = KeywordSearchEngine.load(path, attach_wal=False)
    assert final.index_manager.epoch == 1
    assert _T1 in set(final.graph.triples)


def test_commit_hooks_run_despite_earlier_hook_failure(example_graph):
    """A failing commit hook (e.g. WAL ENOSPC) must not skip later
    hooks — the serving layer's lock release rides on them."""
    engine = KeywordSearchEngine(DataGraph(example_graph.triples))
    ran = []

    def bad_commit(epoch):
        ran.append("bad")
        raise OSError("disk full")

    def good_commit(epoch):
        ran.append("good")

    engine.index_manager.add_epoch_hooks(commit=bad_commit)
    engine.index_manager.add_epoch_hooks(commit=good_commit)
    with pytest.raises(OSError):
        engine.add_triples([_T3])
    assert ran == ["bad", "good"]
    assert _T3 in set(engine.graph.triples)  # the batch itself committed


def test_wal_epoch_gap_raises_on_replay(example_graph, tmp_path):
    path = tmp_path / "a.reprobundle"
    engine = KeywordSearchEngine(DataGraph(example_graph.triples))
    engine.save(path)
    # Forge a log whose first committed entry skips an epoch.
    log = DeltaLog(f"{path}.wal")
    log.record(5, [_T3], [])
    log.commit(6)
    log.close()
    with pytest.raises(WalError) as excinfo:
        KeywordSearchEngine.load(path)
    assert "gap" in str(excinfo.value)


def test_wal_round_trips_tricky_literals(example_graph, tmp_path):
    """The WAL depends on exact N-Triples round trips — exercise them."""
    path = tmp_path / "a.reprobundle"
    engine = KeywordSearchEngine(DataGraph(example_graph.triples))
    engine.save(path)
    tricky = [
        Triple(URI("ex:t"), URI("ex:p"), Literal('quote " backslash \\ tab\t')),
        Triple(URI("ex:t"), URI("ex:p"), Literal("line\nsep and")),
        Triple(URI("ex:t"), URI("ex:p"), Literal("héllo 🌍", language="en")),
        Triple(URI("ex:t"), URI("ex:p"), Literal("42", datatype=URI("ex:int"))),
    ]
    live = KeywordSearchEngine.load(path)
    live.add_triples(tricky)
    live.delta_log.close()  # release the single-writer lock
    reloaded = KeywordSearchEngine.load(path)
    assert set(tricky) <= set(reloaded.graph.triples)
    assert reloaded.index_manager.epoch == live.index_manager.epoch


def test_compact_folds_and_truncates(example_graph, tmp_path):
    path = tmp_path / "a.reprobundle"
    engine = KeywordSearchEngine(DataGraph(example_graph.triples))
    engine.save(path)
    live = KeywordSearchEngine.load(path)
    live.add_triples([_T2, _T3])
    live.remove_triples([_T3])
    live.delta_log.close()  # compact refuses while an engine holds the log
    info = compact_bundle(path)
    assert info["wal_epochs_folded"] == 2
    assert info["epoch"] == 2
    # The log is empty again and the bundle carries the updates itself.
    assert list(DeltaLog(f"{path}.wal").committed_entries()) == []
    reloaded = KeywordSearchEngine.load(path)
    assert reloaded.artifact["wal_epochs_replayed"] == 0
    assert reloaded.index_manager.epoch == 2
    assert _T2 in set(reloaded.graph.triples)
    assert _T3 not in set(reloaded.graph.triples)


def test_load_rejects_truncated_prelude(tmp_path):
    """A torn copy that keeps the magic but loses the prelude must raise
    the dedicated exception, not a raw struct.error."""
    path = tmp_path / "torn.reprobundle"
    path.write_bytes(MAGIC + b"\x01")
    with pytest.raises(BundleFormatError):
        load_bundle(path)


def test_attach_without_replay_refused_on_pending_tail(example_graph, tmp_path):
    path = tmp_path / "a.reprobundle"
    engine = KeywordSearchEngine(DataGraph(example_graph.triples))
    engine.save(path)
    live = KeywordSearchEngine.load(path)
    live.add_triples([_T3])
    live.delta_log.close()
    # Attaching while skipping the committed tail would diverge the pair.
    with pytest.raises(WalError):
        KeywordSearchEngine.load(path, replay_wal=False, attach_wal=True)
    # Read-only inspection of the frozen bundle state stays possible.
    frozen = KeywordSearchEngine.load(path, replay_wal=False, attach_wal=False)
    assert frozen.index_manager.epoch == 0


def test_save_cleans_up_tmp_file_on_failure(small_engine, tmp_path, monkeypatch):
    import repro.storage.bundle as bundle_module

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(bundle_module.os, "replace", boom)
    with pytest.raises(OSError):
        small_engine.save(tmp_path / "a.reprobundle")
    assert os.listdir(tmp_path) == []


def test_wal_single_writer_enforced(example_graph, tmp_path):
    """Two engines attached to one log would interleave duplicate epochs
    and brick the artifact; the second attach must fail instead."""
    path = tmp_path / "a.reprobundle"
    engine = KeywordSearchEngine(DataGraph(example_graph.triples))
    engine.save(path)
    first = KeywordSearchEngine.load(path)
    with pytest.raises(WalError) as excinfo:
        KeywordSearchEngine.load(path)
    assert "another engine" in str(excinfo.value)
    # Read-only loads coexist; releasing the lock frees the artifact.
    KeywordSearchEngine.load(path, attach_wal=False)
    first.delta_log.close()
    second = KeywordSearchEngine.load(path)
    assert second.delta_log is not None


def test_compact_refuses_while_attached(example_graph, tmp_path):
    path = tmp_path / "a.reprobundle"
    engine = KeywordSearchEngine(DataGraph(example_graph.triples))
    engine.save(path)
    live = KeywordSearchEngine.load(path)
    live.add_triples([_T3])
    with pytest.raises(WalError):
        compact_bundle(path)
    live.delta_log.close()
    assert compact_bundle(path)["wal_epochs_folded"] == 1


def test_retired_wal_refuses_to_record(example_graph, tmp_path):
    """After a close() handover the old engine's record hook must fail
    loudly instead of appending unlocked duplicate epochs."""
    path = tmp_path / "a.reprobundle"
    engine = KeywordSearchEngine(DataGraph(example_graph.triples))
    engine.save(path)
    old = KeywordSearchEngine.load(path)
    old.delta_log.close()
    new = KeywordSearchEngine.load(path)  # takes over the artifact
    with pytest.raises(WalError):
        old.add_triples([_T3])
    assert _T3 not in set(old.graph.triples)  # write-ahead: nothing mutated
    assert new.add_triples([_T3]) == 1  # the owner keeps working
    new.delta_log.close()
    reloaded = KeywordSearchEngine.load(path, attach_wal=False)
    assert reloaded.index_manager.epoch == 1


def test_rebuild_supersedes_stale_wal(example_graph, tmp_path):
    """`repro build --force` over an artifact must invalidate its old
    delta log — replaying another bundle's epochs would be the silently
    wrong engine the format forbids."""
    path = tmp_path / "a.reprobundle"
    graph_a = DataGraph(example_graph.triples)
    KeywordSearchEngine(graph_a).save(path)
    live = KeywordSearchEngine.load(path)
    live.add_triples([_T3])  # committed epoch 0 in the WAL
    live.delta_log.close()

    graph_b = DataGraph(list(example_graph.triples)[:10])
    KeywordSearchEngine(graph_b).save(path, force=True)
    reloaded = KeywordSearchEngine.load(path)
    assert reloaded.artifact["wal_epochs_replayed"] == 0
    assert _T3 not in set(reloaded.graph.triples)
    assert reloaded.index_manager.epoch == 0


def test_rebuild_refused_while_wal_attached(example_graph, tmp_path):
    path = tmp_path / "a.reprobundle"
    engine = KeywordSearchEngine(DataGraph(example_graph.triples))
    engine.save(path)
    live = KeywordSearchEngine.load(path)
    live.add_triples([_T3])
    other = KeywordSearchEngine(DataGraph(example_graph.triples))
    with pytest.raises(WalError):  # the artifact is in use
        other.save(path, force=True)
    live.delta_log.close()
    other.save(path, force=True)  # free again after the handover
