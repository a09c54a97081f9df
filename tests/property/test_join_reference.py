"""The key-space join against brute force, on both store tiers.

``QueryEvaluator`` compiles a query once and joins in the store's key
space (term-table ids on the mmap tier, the terms themselves on
``TripleStore``).  The ground truth is ``reference_evaluator``: every
assignment of atoms to ``store.match()`` rows.  Answer *sets* must be
equal — on random small graphs and queries, after every step of a random
add/remove history (which on the mmap tier walks the overlay states:
tombstoned base rows, delta-only terms, revived rows), and on a list of
named cases that each pin one hazard of joining in key space.

Pure Python on purpose: this suite must run, not skip, where numpy does
not exist.
"""

import pytest
from hypothesis import given, settings, strategies as st

from reference_evaluator import reference_answers

from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.evaluator import QueryEvaluator
from repro.rdf.terms import Literal, URI, Variable
from repro.rdf.triples import Triple
from repro.storage import MmapTripleTier, build_bundle_streaming, load_bundle
from repro.store.triple_store import TripleStore

E = [URI(f"e:{i}") for i in range(5)]
P = [URI(f"p:{i}") for i in range(3)]
LIT = [Literal("a"), Literal("b")]
ABSENT = URI("e:absent")  # a constant no triple ever mentions
X, Y, Z = Variable("x"), Variable("y"), Variable("z")

triple = st.builds(
    Triple, st.sampled_from(E), st.sampled_from(P), st.sampled_from(E + LIT)
)
atom = st.builds(
    Atom,
    st.sampled_from(P),
    st.sampled_from([X, Y, Z] + E + [ABSENT]),
    st.sampled_from([X, Y, Z] + E + LIT + [ABSENT]),
)


@st.composite
def query(draw):
    full = ConjunctiveQuery(draw(st.lists(atom, min_size=1, max_size=3)))
    if not full.variables or draw(st.booleans()):
        return full
    return full.project(draw(st.lists(st.sampled_from(full.variables), unique=True)))


@st.composite
def base_and_history(draw):
    """A base graph and add/remove steps that keep returning to its
    triples: removing one tombstones it, re-adding one revives it."""
    base = draw(st.lists(triple, max_size=12))
    touched = st.one_of(triple, st.sampled_from(base)) if base else triple
    return base, draw(st.lists(st.tuples(st.booleans(), touched), max_size=5))


def triple_store(base, tmp_path_factory):
    return TripleStore(base)


def mmap_tier(base, tmp_path_factory):
    path = tmp_path_factory.mktemp("join-ref") / "g.reprobundle"
    build_bundle_streaming(iter(base), path)
    tier = load_bundle(path).store
    assert isinstance(tier, MmapTripleTier)
    return tier


STORES = pytest.mark.parametrize("make_store", [triple_store, mmap_tier])


def check(store, live, queries):
    """The store holds exactly ``live``, and on it the join agrees with
    brute force on every query — completely, and under a limit."""
    assert set(store.match()) == live
    assert len(store) == len(live)
    evaluator = QueryEvaluator(store)
    for q in queries:
        expected = reference_answers(store, q)
        answers = evaluator.evaluate(q)
        assert len(answers) == len(set(answers)), q  # distinct
        assert {a.values for a in answers} == expected, q
        assert all(a.variables == q.distinguished for a in answers)
        limited = evaluator.evaluate(q, limit=2)
        assert len(limited) == min(2, len(expected)), q
        assert {a.values for a in limited} <= expected, q
        assert evaluator.evaluate(q, limit=0) == []
        assert evaluator.count(q) == len(expected)
        assert evaluator.has_answer(q) == bool(expected)


def run_history(store, base, history, queries):
    live = set(base)
    check(store, live, queries)
    for add, t in history:
        if add:
            assert store.add(t) == (t not in live)
            live.add(t)
        else:
            assert store.remove(t) == (t in live)
            live.discard(t)
        check(store, live, queries)


@STORES
@given(graph=base_and_history(), queries=st.lists(query(), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_join_equals_brute_force(tmp_path_factory, make_store, graph, queries):
    base, history = graph
    run_history(make_store(base, tmp_path_factory), base, history, queries)


# ----------------------------------------------------------------------
# Named cases: one hazard each
# ----------------------------------------------------------------------

BASE = [
    Triple(E[0], P[0], E[0]),  # a self-loop, for P(x, x)
    Triple(E[0], P[0], E[1]),
    Triple(E[1], P[0], E[2]),
    Triple(E[2], P[0], E[0]),  # ... closing a 3-cycle
    Triple(E[0], P[1], LIT[0]),
    Triple(E[1], P[1], LIT[0]),
    Triple(E[2], P[1], LIT[1]),
    Triple(E[3], P[2], E[4]),
]
NEW_ENTITY, NEW_LITERAL = URI("e:new"), Literal("new")  # never in a base run

QUERIES = {
    "repeated variable in one atom": ConjunctiveQuery([Atom(P[0], X, X)]),
    "repeated variable, already bound": ConjunctiveQuery(
        [Atom(P[1], X, LIT[0]), Atom(P[0], X, X)]
    ),
    "constant absent from the store": ConjunctiveQuery(
        [Atom(P[0], X, Y), Atom(P[0], Y, ABSENT)]
    ),
    "absent constant alone": ConjunctiveQuery([Atom(P[1], ABSENT, X)]),
    # y is bound to literals by the first atom and then probed as a
    # subject: it must match nothing, never raise.
    "literal probed as a subject": ConjunctiveQuery(
        [Atom(P[1], X, Y), Atom(P[0], Y, Z)]
    ),
    "cycle": ConjunctiveQuery([Atom(P[0], X, Y), Atom(P[0], Y, Z), Atom(P[0], Z, X)]),
    "disconnected (cross product)": ConjunctiveQuery(
        [Atom(P[1], X, LIT[0]), Atom(P[2], Y, Z)]
    ),
    "cross product with an empty side": ConjunctiveQuery(
        [Atom(P[1], X, LIT[0]), Atom(P[2], Y, ABSENT)]
    ),
    "existential variables project to duplicates": ConjunctiveQuery(
        [Atom(P[1], X, Y), Atom(P[0], X, Z)], distinguished=[Y]
    ),
    "boolean query": ConjunctiveQuery([Atom(P[0], X, Y)], distinguished=[]),
    "ground atom": ConjunctiveQuery([Atom(P[0], E[0], E[1])], distinguished=[]),
    "delta-only terms": ConjunctiveQuery(
        [Atom(P[0], X, Y), Atom(P[1], Y, NEW_LITERAL)]
    ),
    "delta-only constant subject": ConjunctiveQuery([Atom(P[0], NEW_ENTITY, X)]),
}

#: Overlay states of the mmap tier, in one history: a tombstoned base
#: row, a delta-only term joined to base rows, an un-tombstone, and
#: delete-then-re-add of both a base row and a delta row.
HISTORY = [
    (False, BASE[1]),  # tombstone a base row
    (True, Triple(E[1], P[0], NEW_ENTITY)),  # delta row, delta-only object
    (True, Triple(NEW_ENTITY, P[1], NEW_LITERAL)),  # delta-only subject + literal
    (True, Triple(NEW_ENTITY, P[0], E[0])),
    (True, BASE[1]),  # un-tombstone
    (False, BASE[0]),
    (True, BASE[0]),  # delete, then re-add, a base row
    (False, Triple(E[1], P[0], NEW_ENTITY)),
    (True, Triple(E[1], P[0], NEW_ENTITY)),  # ... and a delta row
    (False, BASE[4]),
    (False, BASE[5]),  # every base row of (p1, "a") tombstoned
]


@STORES
def test_named_cases(tmp_path_factory, make_store):
    run_history(
        make_store(BASE, tmp_path_factory), BASE, HISTORY, list(QUERIES.values())
    )


@STORES
def test_empty_store(tmp_path_factory, make_store):
    store = make_store([], tmp_path_factory)
    run_history(store, [], [(True, BASE[0]), (False, BASE[0])], list(QUERIES.values()))
