"""Unit tests for the conjunctive-query model (Definition 2)."""

import pytest

from repro.query.conjunctive import Atom, ConjunctiveQuery, QueryValidationError
from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal, URI, Variable

EX = Namespace("http://t/")
x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestAtom:
    def test_variables_in_order(self):
        atom = Atom(EX.p, x, y)
        assert atom.variables == (x, y)

    def test_constant_args_have_no_variables(self):
        atom = Atom(EX.p, x, Literal("v"))
        assert atom.variables == (x,)

    def test_literal_subject_rejected(self):
        with pytest.raises(QueryValidationError):
            Atom(EX.p, Literal("v"), x)

    def test_non_uri_predicate_rejected(self):
        with pytest.raises(QueryValidationError):
            Atom("p", x, y)

    def test_str(self):
        assert str(Atom(EX.p, x, Literal("v"))) == "p(?x, 'v')"


class TestConjunctiveQuery:
    def test_requires_atoms(self):
        with pytest.raises(QueryValidationError):
            ConjunctiveQuery([])

    def test_all_variables_distinguished_by_default(self):
        q = ConjunctiveQuery([Atom(EX.p, x, y), Atom(EX.q, y, z)])
        assert q.distinguished == (x, y, z)

    def test_explicit_projection(self):
        q = ConjunctiveQuery([Atom(EX.p, x, y)], distinguished=[x])
        assert q.distinguished == (x,)

    def test_unknown_distinguished_rejected(self):
        with pytest.raises(QueryValidationError):
            ConjunctiveQuery([Atom(EX.p, x, y)], distinguished=[z])

    def test_duplicate_distinguished_rejected(self):
        with pytest.raises(QueryValidationError):
            ConjunctiveQuery([Atom(EX.p, x, y)], distinguished=[x, x])

    def test_constants(self):
        q = ConjunctiveQuery([Atom(EX.p, x, Literal("v")), Atom(EX.q, x, EX.c)])
        assert q.constants == {Literal("v"), EX.c}

    def test_predicates(self):
        q = ConjunctiveQuery([Atom(EX.p, x, y), Atom(EX.q, y, z)])
        assert q.predicates == {EX.p, EX.q}

    def test_is_connected_true(self):
        q = ConjunctiveQuery([Atom(EX.p, x, y), Atom(EX.q, y, z)])
        assert q.is_connected()

    def test_is_connected_false(self):
        q = ConjunctiveQuery([Atom(EX.p, x, x), Atom(EX.q, y, y)])
        assert not q.is_connected()

    def test_single_atom_connected(self):
        assert ConjunctiveQuery([Atom(EX.p, x, y)]).is_connected()

    def test_equality_ignores_atom_order(self):
        q1 = ConjunctiveQuery([Atom(EX.p, x, y), Atom(EX.q, y, z)])
        q2 = ConjunctiveQuery([Atom(EX.q, y, z), Atom(EX.p, x, y)])
        assert q1 == q2
        assert hash(q1) == hash(q2)

    def test_equality_respects_projection(self):
        q1 = ConjunctiveQuery([Atom(EX.p, x, y)], distinguished=[x])
        q2 = ConjunctiveQuery([Atom(EX.p, x, y)], distinguished=[y])
        assert q1 != q2

    def test_project_creates_new_query(self):
        q = ConjunctiveQuery([Atom(EX.p, x, y)])
        projected = q.project([y])
        assert projected.distinguished == (y,)
        assert q.distinguished == (x, y)

    def test_str_shows_existentials(self):
        q = ConjunctiveQuery([Atom(EX.p, x, y)], distinguished=[x])
        assert "∃" in str(q)
        assert "?y" in str(q)

    def test_iter_and_len(self):
        atoms = [Atom(EX.p, x, y), Atom(EX.q, y, z)]
        q = ConjunctiveQuery(atoms)
        assert list(q) == atoms
        assert len(q) == 2
