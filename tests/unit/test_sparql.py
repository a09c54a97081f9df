"""Unit tests for SPARQL rendering and parsing."""

import pytest

from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.sparql import SparqlParseError, parse_sparql, to_sparql
from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal, URI, Variable

EX = Namespace("http://t/")
x, y = Variable("x"), Variable("y")


def test_render_compact():
    q = ConjunctiveQuery([Atom(EX.p, x, Literal("2006"))])
    assert to_sparql(q, pretty=False) == 'SELECT ?x WHERE { ?x <http://t/p> "2006" . }'


def test_render_pretty_multiline():
    q = ConjunctiveQuery([Atom(EX.p, x, y), Atom(EX.q, y, EX.c)])
    rendered = to_sparql(q)
    assert rendered.startswith("SELECT ?x ?y WHERE {")
    assert rendered.count(".") == 2


def test_parse_simple():
    q = parse_sparql('SELECT ?x WHERE { ?x <http://t/p> "v" . }')
    assert q.atoms == (Atom(URI("http://t/p"), x, Literal("v")),)
    assert q.distinguished == (x,)


def test_parse_star_selects_all(
):
    q = parse_sparql("SELECT * WHERE { ?x <http://t/p> ?y . }")
    assert q.distinguished == (x, y)


def test_parse_distinct_keyword_tolerated():
    q = parse_sparql("SELECT DISTINCT ?x WHERE { ?x <http://t/p> ?y . }")
    assert q.distinguished == (x,)


def test_parse_typed_literal():
    q = parse_sparql('SELECT ?x WHERE { ?x <p:a> "1"^^<x:int> . }')
    assert q.atoms[0].arg2 == Literal("1", datatype=URI("x:int"))


def test_parse_language_literal():
    q = parse_sparql('SELECT ?x WHERE { ?x <p:a> "chat"@fr . }')
    assert q.atoms[0].arg2 == Literal("chat", language="fr")


def test_parse_constant_subject():
    q = parse_sparql("SELECT ?y WHERE { <e:s> <p:a> ?y . }")
    assert q.atoms[0].arg1 == URI("e:s")


def test_round_trip(example_graph):
    from repro.rdf.namespace import RDF
    from repro.datasets.example import EX as AIFB

    original = ConjunctiveQuery(
        [
            Atom(RDF.type, x, AIFB.Publication),
            Atom(AIFB.year, x, Literal("2006")),
            Atom(AIFB.author, x, y),
        ],
        distinguished=[x],
    )
    parsed = parse_sparql(to_sparql(original))
    assert parsed == original


def test_variable_free_query_renders_as_ask():
    q = ConjunctiveQuery([Atom(EX.subClassOf, EX.Institute, EX.Agent)])
    compact = "ASK { <http://t/Institute> <http://t/subClassOf> <http://t/Agent> . }"
    assert to_sparql(q, pretty=False) == compact
    assert to_sparql(q) == (
        "ASK {\n  <http://t/Institute> <http://t/subClassOf> <http://t/Agent> .\n}"
    )
    for rendered in (to_sparql(q), compact, compact.replace("ASK", "ASK WHERE")):
        parsed = parse_sparql(rendered)
        assert parsed == q
        assert parsed.distinguished == ()


def test_empty_projection_round_trips_through_ask():
    q = ConjunctiveQuery([Atom(EX.p, x, y)], distinguished=[])
    assert to_sparql(q, pretty=False) == "ASK { ?x <http://t/p> ?y . }"
    parsed = parse_sparql(to_sparql(q))
    assert parsed == q and parsed.distinguished == ()


def test_search_result_without_variables_is_valid_sparql(example_graph):
    from repro.core.engine import KeywordSearchEngine
    from repro.rdf.graph import DataGraph

    top = KeywordSearchEngine(DataGraph(example_graph.triples), k=3).search(
        "institute agent"
    ).best()
    assert not top.query.variables
    assert top.to_sparql().startswith("ASK {")
    assert parse_sparql(top.to_sparql()) == top.query
    assert top.verbalize() == "Check that Institute is a kind of Agent."


@pytest.mark.parametrize(
    "text",
    [
        "WHERE { ?x <p:a> ?y . }",  # missing SELECT
        "ASK ?x { ?x <p:a> ?y . }",  # ASK projects nothing
        "ASK SELECT { ?x <p:a> ?y . }",
        "ASK { }",
        "SELECT ?x { ?x <p:a> ?y . }",  # missing WHERE
        "SELECT ?x WHERE { ?x <p:a> ?y . ",  # unterminated block
        "SELECT ?x WHERE { }",  # empty pattern
        'SELECT ?x WHERE { ?x "lit" ?y . }',  # literal predicate
        "SELECT ?x WHERE { ?x <p:a> ?y . } trailing",
        "SELECT ?x WHERE { ?x <p:a> }",  # incomplete triple
    ],
)
def test_parse_errors(text):
    with pytest.raises(SparqlParseError):
        parse_sparql(text)
