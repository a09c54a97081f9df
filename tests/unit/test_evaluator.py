"""Unit tests for conjunctive-query evaluation (Definition 3)."""

from collections import Counter

import pytest

from repro.datasets.example import EX
from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.evaluator import QueryEvaluator
from repro.rdf.namespace import RDF
from repro.rdf.terms import Literal, Variable
from repro.rdf.triples import Triple
from repro.store.triple_store import TripleStore

x, y, z = Variable("x"), Variable("y"), Variable("z")


@pytest.fixture(scope="module")
def evaluator(example_graph):
    return QueryEvaluator(example_graph.store)


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


# ----------------------------------------------------------------------
# What a join costs, by count: probes of access paths, not scans
# ----------------------------------------------------------------------


class CountingStore:
    """A store that counts what the evaluator asks of it."""

    def __init__(self, store):
        self._store = store
        self.resolved = Counter()  # term -> key_of calls
        self.paths = []  # (p, s, o) of every access path handed out
        self.probes = Counter()  # ((p, s, o), probe name) -> calls

    def __getattr__(self, name):
        return getattr(self._store, name)

    def __len__(self):
        return len(self._store)

    def key_of(self, term):
        self.resolved[term] += 1
        return self._store.key_of(term)

    def access(self, p, s=None, o=None):
        self.paths.append((p, s, o))
        return CountingAccess(self._store.access(p, s, o), (p, s, o), self.probes)


class CountingAccess:
    def __init__(self, access, path, probes):
        self._access, self._path, self._probes = access, path, probes

    def __getattr__(self, probe):
        def counted(*keys):
            self._probes[self._path, probe] += 1
            return getattr(self._access, probe)(*keys)

        return counted


def test_a_fully_bound_atom_is_one_membership_test_per_binding():
    """``type(?x, A) ∧ type(?y, B) ∧ r(?x, ?y)``: once ?x and ?y are
    bound, the remaining type atom is a filter — one ``has`` per binding
    and nothing that enumerates — and an atom's constants are resolved
    once per query, not once per binding."""
    A, B, r = EX.A, EX.B, EX.r
    xs = [EX[f"x{i}"] for i in range(3)]  # fewer As than Bs: ?x is bound first
    ys = [EX[f"y{i}"] for i in range(6)]
    targets = ys + [EX.other0, EX.other1]
    edges = [(s, t) for i, s in enumerate(xs) for j, t in enumerate(targets) if (i + j) % 2]
    edges += [(EX.stranger, ys[0])]  # an r-row whose subject is no A
    store = CountingStore(TripleStore(
        [Triple(s, RDF.type, A) for s in xs]
        + [Triple(o, RDF.type, B) for o in ys]
        + [Triple(s, r, o) for s, o in edges]
    ))
    query = ConjunctiveQuery(
        [Atom(RDF.type, x, A), Atom(RDF.type, y, B), Atom(r, x, y)]
    )
    answers = QueryEvaluator(store).evaluate(query)
    joined = [(s, o) for s, o in edges if s in xs]
    assert {a.values for a in answers} == {(s, o) for s, o in joined if o in ys}
    assert 0 < len(answers) < len(joined)  # the filter rejects some bindings

    # One access path per atom, asked for once, with the atom's constants.
    assert sorted(store.paths, key=repr) == sorted(
        [(RDF.type, None, A), (RDF.type, None, B), (r, None, None)], key=repr
    )
    assert store.resolved == {RDF.type: 2, A: 1, B: 1, r: 1}
    # type(?x, A) is enumerated once, r(?x, ?y) once per ?x, and
    # type(?y, B) — fully bound by then — is tested once per (?x, ?y).
    assert store.probes == {
        ((RDF.type, None, A), "subjects"): 1,
        ((r, None, None), "objects"): len(xs),
        ((RDF.type, None, B), "has"): len(joined),
    }
