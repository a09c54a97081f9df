"""Differential property test: the optimized evaluator vs. the single-table
oracle (the Fig. 1b/1c execution model).

Random small graphs and random conjunctive queries built over their
vocabulary must produce identical answer sets through both engines — the
selectivity-ordered index-nested-loop join in key space is equivalent to the
brute-force self-join.
"""

from hypothesis import given, settings, strategies as st

from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.evaluator import QueryEvaluator
from repro.query.sql import to_table_patterns
from repro.rdf.terms import Literal, URI, Variable
from repro.rdf.triples import Triple
from repro.store.single_table import SingleTableStore
from repro.store.triple_store import TripleStore

ENTITIES = [URI(f"e:{i}") for i in range(5)]
PREDICATES = [URI(f"p:{i}") for i in range(3)]
LITERALS = [Literal(v) for v in ("a", "b")]
VARIABLES = [Variable(n) for n in ("x", "y", "z")]

data_triples = st.lists(
    st.builds(
        Triple,
        st.sampled_from(ENTITIES),
        st.sampled_from(PREDICATES),
        st.one_of(st.sampled_from(ENTITIES), st.sampled_from(LITERALS)),
    ),
    min_size=1,
    max_size=15,
)

atom_subjects = st.one_of(st.sampled_from(VARIABLES), st.sampled_from(ENTITIES))
atom_objects = st.one_of(
    st.sampled_from(VARIABLES), st.sampled_from(ENTITIES), st.sampled_from(LITERALS)
)
atoms = st.builds(Atom, st.sampled_from(PREDICATES), atom_subjects, atom_objects)
queries = st.builds(ConjunctiveQuery, st.lists(atoms, min_size=1, max_size=3))


@given(data_triples, queries)
@settings(max_examples=150, deadline=None)
def test_evaluator_agrees_with_single_table_oracle(triples, query):
    evaluator = QueryEvaluator(TripleStore(triples))
    answers = {a.values for a in evaluator.evaluate(query)}

    table = SingleTableStore(triples)
    patterns, projection = to_table_patterns(query)
    oracle = {tuple(row) for row in table.evaluate_self_join(patterns, projection)}

    assert answers == oracle


@given(data_triples, queries)
@settings(max_examples=80, deadline=None)
def test_limit_is_prefix_of_full_evaluation(triples, query):
    evaluator = QueryEvaluator(TripleStore(triples))
    full = evaluator.evaluate(query)
    limited = evaluator.evaluate(query, limit=2)
    assert len(limited) == min(2, len(full))
    assert set(limited) <= set(full)


@given(data_triples, queries)
@settings(max_examples=80, deadline=None)
def test_answers_satisfy_query(triples, query):
    """Definition 3 soundness: substituting an answer (plus some extension)
    into the pattern yields triples of the graph."""
    store = TripleStore(triples)
    evaluator = QueryEvaluator(store)
    for answer in evaluator.evaluate(query):
        binding = answer.as_dict()
        # All variables are distinguished by default, so the substitution
        # must be fully ground and every atom present in the store.
        for atom in query.atoms:
            subject, obj = (binding.get(arg, arg) for arg in (atom.arg1, atom.arg2))
            assert Triple(subject, atom.predicate, obj) in store
