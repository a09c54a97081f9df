"""Unit tests for conjunctive-query evaluation (Definition 3)."""

import pytest

from repro.datasets.example import EX
from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.evaluator import QueryEvaluator
from repro.rdf.namespace import RDF
from repro.rdf.terms import Literal, Variable
from repro.store.triple_store import TripleStore

x, y, z = Variable("x"), Variable("y"), Variable("z")


@pytest.fixture(scope="module")
def evaluator(example_graph):
    return QueryEvaluator(TripleStore.from_graph(example_graph))


def fig1c_query():
    """The paper's example conjunctive query (Fig. 1c)."""
    return ConjunctiveQuery(
        [
            Atom(RDF.type, x, EX.Publication),
            Atom(EX.year, x, Literal("2006")),
            Atom(EX.author, x, y),
            Atom(EX.name, y, Literal("P. Cimiano")),
            Atom(EX.worksAt, y, z),
            Atom(EX.name, z, Literal("AIFB")),
        ]
    )


def test_fig1c_answer(evaluator):
    answers = evaluator.evaluate(fig1c_query())
    assert len(answers) == 1
    answer = answers[0]
    assert answer[x] == EX.pub1URI
    assert answer[y] == EX.re2URI
    assert answer[z] == EX.inst1URI


def test_projection(evaluator):
    query = fig1c_query().project([x])
    answers = evaluator.evaluate(query)
    assert [a.values for a in answers] == [(EX.pub1URI,)]


def test_unsatisfiable_constant(evaluator):
    query = ConjunctiveQuery([Atom(EX.year, x, Literal("1900"))])
    assert evaluator.evaluate(query) == []
    assert not evaluator.has_answer(query)


def test_limit(evaluator):
    query = ConjunctiveQuery([Atom(RDF.type, x, EX.Researcher)])
    assert len(evaluator.evaluate(query, limit=1)) == 1
    assert len(evaluator.evaluate(query)) == 2


def test_limit_zero_none_and_negative(evaluator):
    query = ConjunctiveQuery([Atom(RDF.type, x, EX.Researcher)])
    assert evaluator.evaluate(query, limit=0) == []
    assert len(evaluator.evaluate(query, limit=None)) == 2
    with pytest.raises(ValueError):
        evaluator.evaluate(query, limit=-1)


def test_count(evaluator):
    query = ConjunctiveQuery([Atom(RDF.type, x, EX.Publication)])
    assert evaluator.count(query) == 2


def test_distinct_answers(evaluator):
    # pub1 has two authors; asking only for x must not duplicate it.
    query = ConjunctiveQuery([Atom(EX.author, x, y)], distinguished=[x])
    answers = evaluator.evaluate(query)
    assert len(answers) == 1


def test_ground_query_has_empty_answer_tuple(evaluator):
    query = ConjunctiveQuery(
        [Atom(EX.name, EX.inst1URI, Literal("AIFB"))], distinguished=[]
    )
    answers = evaluator.evaluate(query)
    assert len(answers) == 1
    assert answers[0].values == ()


def test_ground_query_false(evaluator):
    query = ConjunctiveQuery(
        [Atom(EX.name, EX.inst1URI, Literal("WRONG"))], distinguished=[]
    )
    assert evaluator.evaluate(query) == []


def test_cyclic_join(evaluator):
    # x works at the same institute as y, and both author the same pub.
    query = ConjunctiveQuery(
        [
            Atom(EX.author, z, x),
            Atom(EX.author, z, y),
            Atom(EX.worksAt, x, Variable("i")),
            Atom(EX.worksAt, y, Variable("i")),
        ]
    )
    answers = evaluator.evaluate(query)
    pairs = {(a[x], a[y]) for a in answers}
    assert (EX.re1URI, EX.re2URI) in pairs
    assert (EX.re2URI, EX.re1URI) in pairs


def test_answer_repr_and_dict(evaluator):
    query = ConjunctiveQuery([Atom(RDF.type, x, EX.Project)])
    answer = evaluator.evaluate(query)[0]
    assert answer.as_dict() == {x: answer[x]}
    assert "Answer(" in repr(answer)


def test_answer_keyerror(evaluator):
    query = ConjunctiveQuery([Atom(RDF.type, x, EX.Project)])
    answer = evaluator.evaluate(query)[0]
    with pytest.raises(KeyError):
        answer[Variable("nope")]
