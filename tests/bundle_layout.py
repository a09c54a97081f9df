"""The section table of a format-v4 ``.reprobundle``, shared by the suites
that pin it (``test_storage``, ``test_cli``, ``test_stream_build_identity``)."""

#: Format v4, in the order the builder writes them.
EXPECTED_SECTIONS = [
    "triples",
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
    "substrate.offsets",
    "substrate.targets",
    "terms",
    "terms.offsets",
    "terms.sorted",
]
