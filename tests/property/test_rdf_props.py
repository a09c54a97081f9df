"""Property tests for RDF term/serialization invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.graph import DataGraph
from repro.rdf.ntriples import parse_ntriples, serialize_ntriples
from repro.rdf.terms import BNode, Literal, URI
from repro.rdf.triples import Triple

# N-Triples-safe URI characters (no angle brackets, whitespace, quotes).
uri_strings = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789:/#._-", min_size=1, max_size=30
).filter(lambda s: not s.isspace())

literal_strings = st.text(max_size=40).filter(
    # Control chars other than the escapable set aren't round-trippable in
    # our line-oriented writer; real datasets never contain them.
    lambda s: all(ch >= " " or ch in "\t\n\r" for ch in s)
)

uris = st.builds(URI, uri_strings)
plain_literals = st.builds(Literal, literal_strings)
lang_literals = st.builds(
    lambda lex, lang: Literal(lex, language=lang),
    literal_strings,
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=5),
)
typed_literals = st.builds(
    lambda lex, dt: Literal(lex, datatype=dt), literal_strings, uris
)
bnodes = st.builds(BNode, st.text(alphabet="abcdef0123456789", min_size=1, max_size=8))

subjects = st.one_of(uris, bnodes)
objects = st.one_of(uris, bnodes, plain_literals, lang_literals, typed_literals)
triples = st.builds(Triple, subjects, uris, objects)


@given(st.lists(triples, max_size=20))
@settings(max_examples=150)
def test_ntriples_round_trip(items):
    document = serialize_ntriples(items)
    assert list(parse_ntriples(document)) == items


# ----------------------------------------------------------------------
# Exact round-trip identity over the full escapable value space.
#
# The write-ahead delta log (repro.storage.wal) persists update batches
# as N-Triples lines and replays them on restart; the engine it restores
# is only correct if parse ∘ serialize is the identity for *every* term
# the graph can hold — including control characters, Unicode line
# separators, quotes/backslashes, astral-plane text, and datatyped or
# language-tagged literals.
# ----------------------------------------------------------------------

# Everything except surrogates (not encodable to UTF-8); the serializer
# \uXXXX-escapes C0 controls and the Unicode line boundaries.
full_unicode = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60
)
full_literals = st.one_of(
    st.builds(Literal, full_unicode),
    st.builds(
        lambda lex, lang: Literal(lex, language=lang),
        full_unicode,
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=8),
    ),
    st.builds(lambda lex, dt: Literal(lex, datatype=dt), full_unicode, uris),
)
full_triples = st.builds(
    Triple, subjects, uris, st.one_of(uris, bnodes, full_literals)
)


@given(st.lists(full_triples, max_size=12))
@settings(max_examples=200)
def test_ntriples_parse_serialize_parse_identity(items):
    document = serialize_ntriples(items)
    parsed = list(parse_ntriples(document))
    assert parsed == items
    # Idempotence of the full composition: re-serializing what was parsed
    # reproduces the document byte for byte, so a WAL entry survives any
    # number of rewrite cycles unchanged.
    assert serialize_ntriples(parsed) == document
    assert list(parse_ntriples(serialize_ntriples(parsed))) == items


@pytest.mark.parametrize(
    "literal",
    [
        Literal('quote " and backslash \\'),
        Literal("tab\tnewline\ncarriage\rreturn"),
        Literal("null\x00bell\x07escape\x1b"),
        Literal("NEL\x85 LS  PS "),
        Literal("astral 🜁🚀 combining é"),
        Literal("héllo wörld", language="de-AT-1996"),
        Literal("0042", datatype=URI("http://www.w3.org/2001/XMLSchema#integer")),
        Literal("", language="x"),
        Literal(""),
    ],
)
def test_ntriples_tricky_literals_round_trip(literal):
    triple = Triple(URI("ex:s"), URI("ex:p"), literal)
    document = serialize_ntriples([triple])
    assert list(parse_ntriples(document)) == [triple]
    assert serialize_ntriples(list(parse_ntriples(document))) == document


@given(st.lists(triples, max_size=30))
@settings(max_examples=100)
def test_datagraph_vertex_sets_disjoint(items):
    graph = DataGraph(items)
    classes = graph.classes
    entities = graph.entities
    assert not (classes & entities)
    # Values are literals and can never collide with URI/BNode sets.
    assert all(v.is_literal for v in graph.values)


@given(st.lists(triples, max_size=30))
@settings(max_examples=100)
def test_datagraph_type_structure_consistent(items):
    graph = DataGraph(items)
    for cls in graph.classes:
        for entity in graph.instances_of(cls):
            assert cls in graph.types_of(entity)
    for entity in graph.entities:
        for cls in graph.types_of(entity):
            assert entity in graph.instances_of(cls)


@given(st.lists(triples, max_size=30))
@settings(max_examples=100)
def test_datagraph_add_idempotent(items):
    graph = DataGraph(items)
    size = len(graph)
    graph.add_all(items)
    assert len(graph) == size


@given(st.lists(triples, max_size=25))
@settings(max_examples=100)
def test_store_count_matches_match(items):
    from repro.store.triple_store import TripleStore

    store = TripleStore(items)
    for triple in items[:5]:
        patterns = [
            (triple.subject, None, None),
            (None, triple.predicate, None),
            (None, None, triple.object),
            (triple.subject, triple.predicate, None),
            (None, triple.predicate, triple.object),
            (triple.subject, None, triple.object),
        ]
        for s, p, o in patterns:
            assert store.count(s, p, o) == len(list(store.match(s, p, o)))
