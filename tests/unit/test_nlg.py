"""Unit tests for natural-language verbalization."""

from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.nlg import verbalize
from repro.query.presentation import humanize as _humanize
from repro.rdf.namespace import Namespace, RDF, RDFS
from repro.rdf.terms import Literal, URI, Variable

EX = Namespace("http://t/")
x, y = Variable("x"), Variable("y")


def test_humanize_camel_case():
    assert _humanize("worksAt") == "works at"
    assert _humanize("hasProject") == "has project"
    assert _humanize("snake_case") == "snake case"


def test_type_and_attribute():
    q = ConjunctiveQuery(
        [
            Atom(RDF.type, x, EX.Publication),
            Atom(EX.year, x, Literal("2006")),
        ]
    )
    text = verbalize(q)
    assert "Find ?x" in text
    assert "Publication" in text
    assert "year is '2006'" in text


def test_relation_between_variables():
    q = ConjunctiveQuery(
        [
            Atom(RDF.type, x, EX.Publication),
            Atom(EX.author, x, y),
            Atom(EX.name, y, Literal("Ada")),
        ]
    )
    text = verbalize(q)
    assert "author is something (?y)" in text
    assert "name is 'Ada'" in text


def test_subclass_rendered_as_kind_of():
    q = ConjunctiveQuery(
        [Atom(EX.p, x, y), Atom(RDFS.subClassOf, x, EX.Agent)]
    )
    assert "kind of Agent" in verbalize(q)


def test_undistinguished_variable_phrase():
    q = ConjunctiveQuery(
        [Atom(EX.author, x, y), Atom(EX.name, y, Literal("Ada"))],
        distinguished=[x],
    )
    text = verbalize(q)
    assert "where ?y is" in text


def test_ends_with_period():
    q = ConjunctiveQuery([Atom(EX.year, x, Literal("2006"))])
    assert verbalize(q).endswith(".")


def test_variable_free_query_reads_as_a_check():
    ground = ConjunctiveQuery([Atom(RDFS.subClassOf, EX.Institute, EX.Agent)])
    assert verbalize(ground) == "Check that Institute is a kind of Agent."
    both = ConjunctiveQuery(
        [
            Atom(RDFS.subClassOf, EX.Institute, EX.Agent),
            Atom(EX.worksAt, EX.cimiano, EX.aifb),
        ]
    )
    assert verbalize(both) == (
        "Check that Institute is a kind of Agent"
        " and aifb is the works at of cimiano."
    )


def test_ground_atom_beside_variables_stays_unspoken():
    q = ConjunctiveQuery(
        [Atom(RDF.type, x, EX.Researcher), Atom(RDFS.subClassOf, EX.Researcher, EX.Person)]
    )
    assert verbalize(q) == "Find ?x, a Researcher."


def test_type_atoms_of_one_variable_share_its_sentence():
    q = ConjunctiveQuery(
        [
            Atom(EX.author, x, y),
            Atom(RDF.type, y, EX.Researcher),
            Atom(RDF.type, y, EX.Person),
            Atom(RDF.type, x, EX.Publication),
        ]
    )
    assert verbalize(q) == (
        "Find ?x, a Publication, whose author is something (?y). "
        "Find ?y, a Researcher and Person."
    )
