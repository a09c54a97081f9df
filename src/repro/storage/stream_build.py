"""The bundle builder: stream triples in, stream sections out.

:func:`build_bundle_streaming` is the one writer of the ``.reprobundle``
format — ``repro build``, :meth:`KeywordSearchEngine.save` and
``repro compact`` all end here.  It consumes a triple *iterator* — an
open N-Triples file handle through
:func:`repro.rdf.ntriples.parse_ntriples`, a generator like
:func:`repro.datasets.lubm.iter_lubm_triples`, or a live engine's
``graph.triples`` — and writes a bundle that loads into an engine
behaviorally identical to one constructed in process from the same
triples (property-tested in
``tests/property/test_stream_build_identity.py``).  The corpus is never
resident:

* **pass A** (the only pass over the input) interns terms, classifies
  and dedups each triple, appends its id row to an on-disk segment
  spool and maintains the *hot* aggregates: role refcounts, type/
  subclass pairs, display labels, predicate counts, conflicts;
* **pass B** re-reads the spool — with the full classification known —
  and feeds three external sorts, into the SPO/POS/OSP sections (the
  one stored form of the triple set, and so of the data graph); the
  same loop counts each R-edge's summary projections and each A-edge's
  keyword class contexts through :mod:`repro.rdf.derivation`, the one
  derivation the constructors and maintenance share, in arrival order
  (no reader depends on it); posting lists spill to sorted runs past
  the in-memory budget and k-way merge at finalize.

Peak RSS is ``O(hot structures + spill budgets)`` instead of
``O(corpus)``: what stays resident is exactly what the paper calls the
small structures (summary graph, keyword vocabulary, class contexts)
plus bounded sort buffers, while triple-shaped state lives in the
temporary segment files.
"""

from __future__ import annotations

import os
import struct
import tempfile
from array import array
from itertools import chain, islice
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro import __version__
from repro.core.exploration import DEFAULT_DMAX
from repro.keyword.analysis import DEFAULT_ANALYZER
from repro.keyword.inverted_index import SpillingPostingsBuilder
from repro.rdf.derivation import (
    adjust_contexts, count_projections, indexed_elements, label_key,
)
from repro.rdf.graph import GraphIntegrityError
from repro.rdf.namespace import SUBCLASS_PREDICATES, TYPE_PREDICATES
from repro.rdf.terms import Literal, Term
from repro.rdf.triples import Triple
from repro.scoring.cost import CostModel
from repro.summary.summary_graph import SummaryGraph

from repro.storage.bundle import (
    _EDGE_CODE,
    _VERTEX_CODE,
    BundleWriter,
    SummaryVertexKind,
    persistable_cost_model_name,
)
from repro.storage.codec import (
    ELEMENT_CODE,
    Interner,
    TermInterner,
    _pack_str,
    encode_grouping,
    encode_ids,
    encode_raw_ids,
    encode_term_record,
    term_order_key,
)
from repro.storage.segments import (
    DEFAULT_BUFFER_ROWS,
    ExternalSorter,
    GroupingSpool,
    SegmentWriter,
    iter_rows,
    write_ids_from_segment,
    write_raw_from_segment,
)
from repro.util import Laps, now

_U64 = struct.Struct("<Q")

#: Default in-memory budget per spilled structure (each of the external
#: sorters and the postings builder gets its own budget of this size).
DEFAULT_SPILL_BUDGET = 64 * 1024 * 1024

#: Rough resident bytes per buffered row tuple (Python tuple of small
#: ints); converts the byte budget into the sorters' row budgets.
_BYTES_PER_ROW = 96

# Row classification codes in the kind spool.  "Bad" rows are Definition
# 1 violations the in-memory DataGraph stores but excludes from every
# derived structure; they occupy a triple index (and appear in the
# store sections) without contributing refs or buckets.
_K_TYPE = 0
_K_SUBCLASS = 1
_K_ATTR = 2
_K_REL = 3
_K_TYPE_BAD = 4
_K_SUBCLASS_BAD = 5

# Ids fit three-per-word in the dedup key while the vocabulary is below
# 2^21 terms; wider corpora fall back to tuple keys (ints and tuples
# never compare equal, so mixing the two in one set is sound).
_PACK_LIMIT = 1 << 21


def _write_rows(section, rows: Iterable[Tuple[int, ...]]) -> None:
    """Stream row tuples into an open raw int64 section in bounded chunks."""
    rows = iter(rows)
    while True:
        chunk = array("q", chain.from_iterable(islice(rows, DEFAULT_BUFFER_ROWS)))
        if not chunk:
            return
        section.write(encode_raw_ids(chunk))


def build_bundle_streaming(
    triples: Iterable[Triple],
    path,
    *,
    force: bool = False,
    cost_model: Union[str, CostModel] = "c3",
    k: int = 10,
    dmax: int = DEFAULT_DMAX,
    search_cache_size: int = 0,
    graph_strict: bool = False,
    epoch: int = 0,
    delta_log=None,
    spill_budget_bytes: int = DEFAULT_SPILL_BUDGET,
    progress: Optional[Callable[[int, float], None]] = None,
    progress_every: int = 100_000,
) -> Dict[str, object]:
    """Build a bundle from a triple iterator without materializing it.

    ``cost_model``, ``k``, ``dmax`` and ``search_cache_size`` are the
    engine configuration the header records (its ``engine`` block), the
    one a load applies unless told otherwise.  ``cost_model`` is a stock
    model's name or an instance of exactly that model's class (bundles
    store the name, so anything else is refused).  ``graph_strict``, ``epoch`` and ``delta_log`` are
    what a live engine hands over when it saves itself: its graph's
    Definition 1 mode (a violation among the triples then fails the
    build), the update epoch its triples stand at, and its attached
    delta log, which :meth:`BundleWriter.finish` resets once the bundle
    is in place.  ``spill_budget_bytes`` bounds each external sort's
    resident buffer, ``progress(n_triples, elapsed_seconds)`` is invoked
    every ``progress_every`` input triples.  The spools live in a
    temporary directory beside ``path``, so they share its file system
    and never outlive the build.  Returns the
    :meth:`BundleWriter.finish` info dict extended with build statistics
    (triple/term counts, seconds, spill-run counts).  ``k < 1`` or
    ``dmax < 0`` is a ``ValueError``: no search could serve it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if dmax < 0:
        raise ValueError(f"dmax must be >= 0, got {dmax}")
    cost_model = persistable_cost_model_name(cost_model)
    path = os.fspath(path)
    budget_rows = max(4, spill_budget_bytes // _BYTES_PER_ROW)
    started = now()
    # The header's configuration blocks; `_build` adds what it measures.
    config = {
        "snapshot": {"index_version": 0, "epoch": epoch},
        "engine": {
            "cost_model": cost_model,
            "k": k,
            "dmax": dmax,
            "search_cache_size": search_cache_size,
        },
        "graph": {"strict": graph_strict},
        "kindex": {"version": 0},
    }

    writer = BundleWriter(path, force=force)
    try:
        with tempfile.TemporaryDirectory(
            prefix="repro-stream-", dir=os.path.dirname(os.path.abspath(path))
        ) as tmp:
            info = _build(
                triples,
                writer,
                tmp,
                config,
                delta_log,
                budget_rows=budget_rows,
                progress=progress,
                progress_every=max(1, progress_every),
                started=started,
            )
    except BaseException:
        writer.abort()
        raise
    info["build_seconds"] = now() - started
    return info


def _build(
    triples,
    writer: BundleWriter,
    tmp: str,
    meta: Dict[str, Dict[str, object]],
    delta_log,
    *,
    budget_rows: int,
    progress,
    progress_every: int,
    started: float,
) -> Dict[str, object]:
    interner = TermInterner()
    term_id = interner.id
    terms = interner.terms

    # ------------------------------------------------------------------
    # Pass A: one pass over the input.
    # ------------------------------------------------------------------
    rows_spool = SegmentWriter(os.path.join(tmp, "rows.seg"), 3)
    kind_spool = SegmentWriter(os.path.join(tmp, "kinds.seg"), 1)

    seen: Set = set()
    # Classification, id-keyed.  Classes and values are dicts used as
    # ordered sets, so the keyword elements and the summary vertices are
    # emitted in first-acquisition order and a bundle's bytes are a
    # function of its input.
    classes: Dict[int, None] = {}
    values: Dict[int, None] = {}
    entities: Set[int] = set()
    types_of: Dict[int, List[int]] = {}
    type_pairs: Dict[Tuple[int, int], int] = {}
    subclass_pairs: Dict[Tuple[int, int], int] = {}
    type_pred_counts: Dict[int, int] = {}
    subclass_pred_counts: Dict[int, int] = {}
    rel_pred_counts: Dict[int, int] = {}
    attr_pred_counts: Dict[int, int] = {}
    labels: Dict[int, Tuple[int, str]] = {}  # subject id -> its least label_key
    # Definition 1 conflict messages, each once, first occurrence first.
    conflicts: Dict[str, None] = {}
    n_rows = 0

    def acquire_entity(tid: int, term: Term) -> None:
        if tid in classes:
            conflicts[f"term used both as class and entity: {term}"] = None
            return
        entities.add(tid)

    def acquire_class(tid: int, term: Term) -> None:
        if tid in entities:
            conflicts[f"term used both as entity and class: {term}"] = None
            entities.discard(tid)
        classes[tid] = None

    for triple in triples:
        s, p, o = triple
        sid = term_id(s)
        pid = term_id(p)
        oid = term_id(o)
        if (sid | pid | oid) < _PACK_LIMIT:
            key = (sid << 42) | (pid << 21) | oid
        else:
            key = (sid, pid, oid)
        if key in seen:
            continue
        seen.add(key)

        if p in TYPE_PREDICATES:
            if isinstance(o, Literal):
                conflicts[f"type edge with literal object: {triple.n3()}"] = None
                kind = _K_TYPE_BAD
            else:
                acquire_entity(sid, s)
                acquire_class(oid, o)
                pair = (sid, oid)
                count = type_pairs.get(pair, 0) + 1
                type_pairs[pair] = count
                if count == 1:
                    types_of.setdefault(sid, []).append(oid)
                type_pred_counts[pid] = type_pred_counts.get(pid, 0) + 1
                kind = _K_TYPE
        elif p in SUBCLASS_PREDICATES:
            if isinstance(o, Literal):
                conflicts[f"subclass edge with literal endpoint: {triple.n3()}"] = None
                kind = _K_SUBCLASS_BAD
            else:
                acquire_class(sid, s)
                acquire_class(oid, o)
                pair = (sid, oid)
                subclass_pairs[pair] = subclass_pairs.get(pair, 0) + 1
                subclass_pred_counts[pid] = subclass_pred_counts.get(pid, 0) + 1
                kind = _K_SUBCLASS
        elif isinstance(o, Literal):
            acquire_entity(sid, s)
            values[oid] = None
            attr_pred_counts[pid] = attr_pred_counts.get(pid, 0) + 1
            label = label_key(p, o)
            if label is not None and (sid not in labels or label < labels[sid]):
                labels[sid] = label
            kind = _K_ATTR
        else:
            acquire_entity(sid, s)
            acquire_entity(oid, o)
            rel_pred_counts[pid] = rel_pred_counts.get(pid, 0) + 1
            kind = _K_REL

        rows_spool.append((sid, pid, oid))
        kind_spool.append_value(kind)
        n_rows += 1
        if progress is not None and n_rows % progress_every == 0:
            progress(n_rows, now() - started)

    rows_spool.close()
    kind_spool.close()
    del seen  # the largest pass-A structure; done deduping
    if meta["graph"]["strict"] and conflicts:
        raise GraphIntegrityError(next(iter(conflicts)))

    untyped_count = sum(1 for e in entities if e not in types_of)
    stats = {
        "triples": n_rows,
        "entities": len(entities),
        "classes": len(classes),
        "values": len(values),
        "relation_labels": len(rel_pred_counts),
        "attribute_labels": len(attr_pred_counts),
        "relation_edges": sum(rel_pred_counts.values()),
        "attribute_edges": sum(attr_pred_counts.values()),
        "untyped_entities": untyped_count,
    }

    # ------------------------------------------------------------------
    # The data graph is not stored: its triples are the sorted runs below,
    # and a loaded graph is a view over them, started from the header's
    # stats and conflicts and from the two predicate-count maps, which
    # `verify_bundle` holds against the runs.
    # ------------------------------------------------------------------
    def flat_pairs(mapping) -> Iterable[int]:
        for key, value in mapping.items():
            yield key
            yield value

    writer.add_section(
        "graph.type_pred_counts", encode_ids(flat_pairs(type_pred_counts))
    )
    writer.add_section(
        "graph.subclass_pred_counts", encode_ids(flat_pairs(subclass_pred_counts))
    )

    # ------------------------------------------------------------------
    # Pass B: one pass over the spool, with every type known, feeds the
    # three external sorts and counts what each R- and A-edge contributes
    # (repro.rdf.derivation, keyed by term id; an untyped entity's class
    # is Thing's id in the sections, -1).
    # ------------------------------------------------------------------
    sort_spo = ExternalSorter(tmp, 3, budget_rows, "spo")
    sort_pos = ExternalSorter(tmp, 3, budget_rows, "pos")
    sort_osp = ExternalSorter(tmp, 3, budget_rows, "osp")
    thing = (-1,)
    edge_counts: Dict[Tuple[int, int, int], int] = {}
    attr_class_refs: Dict[int, Dict[int, int]] = {}
    value_occ_refs: Dict[int, Dict[Tuple[int, int], int]] = {}
    kind_iter = iter_rows(kind_spool.path, 1)
    for sid, pid, oid in iter_rows(rows_spool.path, 3):
        (kind,) = next(kind_iter)
        sort_spo.add((sid, pid, oid))
        sort_pos.add((pid, oid, sid))
        sort_osp.add((oid, sid, pid))
        if kind == _K_REL:
            count_projections(
                edge_counts, pid, types_of.get(sid, thing), types_of.get(oid, thing)
            )
        elif kind == _K_ATTR:
            adjust_contexts(
                attr_class_refs, value_occ_refs, pid, oid, types_of.get(sid, thing), 1
            )

    # Triple store indexes: three external sorts, each streamed into its
    # flat sorted run — the one stored form of the indexes.
    for name, sorter in (
        ("store2.spo", sort_spo),
        ("store2.pos", sort_pos),
        ("store2.osp", sort_osp),
    ):
        with writer.section(name) as sec:
            _write_rows(sec, sorter.sorted_rows())
        sorter.cleanup()

    # ------------------------------------------------------------------
    # Keyword index: elements in indexed_elements() order, postings via
    # spill runs.
    # ------------------------------------------------------------------
    laps = Laps()
    analyze = DEFAULT_ANALYZER.analyze
    vocab = Interner()
    vocab_id = vocab.id
    postings = SpillingPostingsBuilder(tmp, budget_rows)
    elements_spool = SegmentWriter(os.path.join(tmp, "elements.seg"), 2)
    element_terms = GroupingSpool(tmp, "element_terms")
    element_count = 0

    def label_of(term: Term) -> Optional[str]:
        entry = labels.get(term_id(term))
        return None if entry is None else entry[1]

    for kind, term, text in indexed_elements(
        map(terms.__getitem__, classes),
        map(terms.__getitem__, rel_pred_counts),
        map(terms.__getitem__, attr_pred_counts),
        map(terms.__getitem__, values),
        label_of,
    ):
        analyzed = analyze(text)
        if not analyzed:
            continue
        counts: Dict[str, int] = {}
        for t in analyzed:
            counts[t] = counts.get(t, 0) + 1
        total = len(analyzed)
        eid = element_count
        element_count += 1
        elements_spool.append((ELEMENT_CODE[kind], term_id(term)))
        term_ids = []
        for text_term, tf in counts.items():
            vid = vocab_id(text_term)
            term_ids.append(vid)
            postings.add(vid, eid, tf, total)
        element_terms.add(term_ids)

    with writer.section("kindex.vocab") as sec:
        sec.write(_U64.pack(len(vocab.items)))
        vocab_offsets = array("q", [8])
        offset = 8
        for text in vocab.items:
            packed = _pack_str(text)
            offset += len(packed)
            vocab_offsets.append(offset)
            sec.write(packed)
    writer.add_section("kindex2.vocab.offsets", encode_raw_ids(vocab_offsets))
    writer.add_section(
        "kindex2.vocab.sorted",
        encode_raw_ids(
            sorted(range(len(vocab.items)), key=vocab.items.__getitem__)
        ),
    )
    elements_spool.close()
    with writer.section("kindex.elements") as sec:
        write_ids_from_segment(sec, elements_spool)
    # The sorted element permutation re-reads the closed spool: two
    # resident int64 arrays over the element set (vocabulary scale, not
    # corpus scale) are within the hot-structure budget.
    element_codes = array("q")
    element_tids = array("q")
    for code, tid in iter_rows(elements_spool.path, 2):
        element_codes.append(code)
        element_tids.append(tid)
    writer.add_section(
        "kindex2.elements.sorted",
        encode_raw_ids(
            sorted(
                range(element_count),
                key=lambda i: (element_codes[i], element_tids[i]),
            )
        ),
    )
    del element_codes, element_tids
    # Posting lists: the merged spill runs become the run layout
    # (per-vocab-id row offsets + flat rows).
    postings_runs_spool = SegmentWriter(os.path.join(tmp, "postings_runs.seg"), 3)
    run_offsets = array("q", [0])
    rows_so_far = 0
    for vid, flat in postings.merged_groups():
        while len(run_offsets) <= vid:
            run_offsets.append(rows_so_far)  # vocab id with no postings
        it = iter(flat)
        for row in zip(it, it, it):
            postings_runs_spool.append(row)
        rows_so_far += len(flat) // 3
        run_offsets.append(rows_so_far)
    while len(run_offsets) <= len(vocab.items):
        run_offsets.append(rows_so_far)
    postings_runs_spool.close()
    writer.add_section("kindex2.postings.offsets", encode_raw_ids(run_offsets))
    with writer.section("kindex2.postings.runs") as sec:
        write_raw_from_segment(sec, postings_runs_spool)
    postings_runs_spool.unlink()
    postings_runs = postings.runs_spilled
    postings.cleanup()
    with writer.section("kindex2.element_terms.offsets") as sec:
        element_terms.write_raw_offsets(sec)
    with writer.section("kindex2.element_terms.runs") as sec:
        element_terms.write_raw_values(sec)
    element_terms.cleanup()
    elements_spool.unlink()

    # The refcount groupings, keyed in ascending term-id order so the
    # mmap tier can bisect them without decoding.
    writer.add_section(
        "kindex2.attr_refs",
        encode_grouping(
            (pid, flat_pairs(attr_class_refs[pid]))
            for pid in sorted(attr_class_refs)
        ),
    )
    writer.add_section(
        "kindex2.value_refs",
        encode_grouping(
            (
                vid,
                (
                    value
                    for (label_id, cls), count in value_occ_refs[vid].items()
                    for value in (label_id, cls, count)
                ),
            )
            for vid in sorted(value_occ_refs)
        ),
    )
    laps.lap("kindex")

    # ------------------------------------------------------------------
    # Summary graph: Definition 4 replayed from pass A's and pass B's counts.
    # ------------------------------------------------------------------
    instance_counts: Dict[int, int] = {}
    for _, cls in type_pairs:
        instance_counts[cls] = instance_counts.get(cls, 0) + 1

    def term_or_thing(tid: int) -> Optional[Term]:
        return None if tid == -1 else terms[tid]

    summary = SummaryGraph.from_counts(
        ((terms[cid], instance_counts.get(cid, 0)) for cid in classes),
        untyped_count,
        {
            (terms[pid], term_or_thing(sc), term_or_thing(tc)): count
            for (pid, sc, tc), count in edge_counts.items()
        },
        ((terms[sub], terms[sup]) for sub, sup in subclass_pairs),
        (stats["entities"], stats["relation_edges"], stats["attribute_edges"]),
    )
    summary.build_seconds = laps.lap("summary")

    summary_state = summary.state_for_persistence()
    vertices = list(summary_state["vertices"].values())
    vertex_index = {v.key: i for i, v in enumerate(vertices)}

    def vertex_term_id(vertex) -> int:
        if vertex.kind is SummaryVertexKind.THING:
            return -1
        return term_id(vertex.key[1])

    writer.add_section(
        "summary.vertices",
        encode_ids(
            value
            for v in vertices
            for value in (_VERTEX_CODE[v.kind], vertex_term_id(v), v.agg_count)
        ),
    )
    writer.add_section(
        "summary.edges",
        encode_ids(
            value
            for e in summary_state["edges"].values()
            for value in (
                term_id(e.label),
                _EDGE_CODE[e.kind],
                vertex_index[e.source_key],
                vertex_index[e.target_key],
                e.agg_count,
            )
        ),
    )

    # Term table last: every id is assigned by now (the loader finds it
    # by name, not position).  The byte-offset table accumulates along
    # the way (8 bytes per term, marginal next to the resident interner)
    # and the order-key permutation makes the table binary-searchable.
    term_offsets = array("q", [8])
    with writer.section("terms") as sec:
        sec.write(_U64.pack(len(terms)))
        buffer: List[bytes] = []
        buffered = 0
        offset = 8
        for term in terms:
            record = encode_term_record(term, term_id)
            offset += len(record)
            term_offsets.append(offset)
            buffer.append(record)
            buffered += len(record)
            if buffered >= (1 << 20):
                sec.write(b"".join(buffer))
                buffer.clear()
                buffered = 0
        if buffer:
            sec.write(b"".join(buffer))
    writer.add_section("terms.offsets", encode_raw_ids(term_offsets))
    writer.add_section(
        "terms.sorted",
        encode_raw_ids(
            sorted(
                range(len(terms)),
                key=lambda i: term_order_key(terms[i], term_id),
            )
        ),
    )

    rows_spool.unlink()
    kind_spool.unlink()

    meta["writer"] = f"repro {__version__}"
    meta["snapshot"]["summary_version"] = summary.snapshot_key
    # The structural counts a loaded graph keeps by delta from here on.
    meta["graph"].update(conflicts=list(conflicts), stats=stats)
    meta["kindex"]["build_seconds"] = laps.seconds["kindex"]
    meta["summary"] = {
        key: summary_state[key]
        for key in (
            "version",
            "total_entities",
            "total_relation_edges",
            "total_attribute_edges",
            "build_seconds",
        )
    }
    meta["counts"] = {
        "terms": len(terms),
        "triples": n_rows,
        "summary_vertices": len(vertices),
        "summary_edges": len(summary_state["edges"]),
    }

    info = writer.finish(meta, engine_log=delta_log)
    info.update(
        {
            "triples": n_rows,
            "terms": len(terms),
            "elements": element_count,
            "posting_rows": postings.posting_rows,
            "postings_runs": postings_runs,
            "conflicts": len(conflicts),
        }
    )
    return info
