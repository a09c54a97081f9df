"""The section table of a format-v7 ``.reprobundle`` and the raw-file
helpers that damage one, shared by the suites that pin the format
(``test_storage``, ``test_cli``, ``test_stream_build_identity``)."""

import json
import struct

#: Format v7 (v6's sections, under a header that records less), in the
#: order the builder writes them: the ``store2.*`` runs are the one
#: stored form of the triple set (v5 also had a ``triples`` section, the
#: same rows in arrival order).
EXPECTED_SECTIONS = [
    "graph.type_pred_counts",
    "graph.subclass_pred_counts",
    "store2.spo",
    "store2.pos",
    "store2.osp",
    "kindex.vocab",
    "kindex2.vocab.offsets",
    "kindex2.vocab.sorted",
    "kindex.elements",
    "kindex2.elements.sorted",
    "kindex2.postings.offsets",
    "kindex2.postings.runs",
    "kindex2.element_terms.offsets",
    "kindex2.element_terms.runs",
    "kindex2.attr_refs",
    "kindex2.value_refs",
    "summary.vertices",
    "summary.edges",
    "terms",
    "terms.offsets",
    "terms.sorted",
]


def read_header(data):
    """``(header dict, offset of the first section)`` of raw bundle bytes."""
    (header_length,) = struct.unpack_from("<I", data, 12)
    header = json.loads(bytes(data[16 : 16 + header_length]))
    return header, 16 + header_length + (-(16 + header_length) % 8)


def section_entry(header, name):
    return next(e for e in header["sections"] if e["name"] == name)


def flip_byte_in_section(path, name):
    data = bytearray(path.read_bytes())
    header, data_start = read_header(data)
    entry = section_entry(header, name)
    data[data_start + entry["offset"] + entry["length"] // 2] ^= 0xFF
    path.write_bytes(bytes(data))
