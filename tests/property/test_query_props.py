"""Property tests for query-layer invariants."""

from hypothesis import given, settings, strategies as st

from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.isomorphism import canonical_form, queries_isomorphic
from repro.query.sparql import parse_sparql, to_sparql
from repro.rdf.terms import Literal, URI, Variable

PREDICATES = [URI(f"p:{i}") for i in range(3)]
CONSTANT_URIS = [URI(f"e:{i}") for i in range(3)]
LITERALS = [Literal(v) for v in ("a", "b")]
VARIABLES = [Variable(n) for n in ("x", "y", "z", "u")]

atom_subjects = st.one_of(st.sampled_from(VARIABLES), st.sampled_from(CONSTANT_URIS))
atom_objects = st.one_of(
    st.sampled_from(VARIABLES),
    st.sampled_from(CONSTANT_URIS),
    st.sampled_from(LITERALS),
)
atoms = st.builds(Atom, st.sampled_from(PREDICATES), atom_subjects, atom_objects)
queries = st.builds(ConjunctiveQuery, st.lists(atoms, min_size=1, max_size=4))


def rename(query: ConjunctiveQuery, suffix: str) -> ConjunctiveQuery:
    mapping = {v: Variable(v.name + suffix) for v in query.variables}
    new_atoms = [
        Atom(a.predicate, mapping.get(a.arg1, a.arg1), mapping.get(a.arg2, a.arg2))
        for a in query.atoms
    ]
    return ConjunctiveQuery(
        new_atoms, distinguished=[mapping[v] for v in query.distinguished]
    )


@given(queries)
@settings(max_examples=150)
def test_isomorphic_to_renamed_self(query):
    renamed = rename(query, "_r")
    assert queries_isomorphic(query, renamed)
    assert queries_isomorphic(query, renamed, check_distinguished=True)


@given(queries)
@settings(max_examples=150)
def test_canonical_form_invariant_under_renaming(query):
    assert canonical_form(query) == canonical_form(rename(query, "_r"))


@given(queries, queries)
@settings(max_examples=150)
def test_isomorphism_symmetric(q1, q2):
    assert queries_isomorphic(q1, q2) == queries_isomorphic(q2, q1)


@given(queries, queries)
@settings(max_examples=150)
def test_canonical_form_necessary_for_isomorphism(q1, q2):
    # iso ⇒ equal canonical forms (the converse may fail on symmetric queries).
    if queries_isomorphic(q1, q2):
        assert canonical_form(q1) == canonical_form(q2)


@given(queries)
@settings(max_examples=150)
def test_sparql_round_trip_isomorphic(query):
    parsed = parse_sparql(to_sparql(query))
    # Round-trip preserves the query exactly (same variable names).
    assert parsed == query


@given(queries)
@settings(max_examples=100)
def test_variables_superset_of_distinguished(query):
    assert set(query.distinguished) <= set(query.variables)
