"""The key-space join against brute force, on both store tiers.

``QueryEvaluator`` compiles a query once and joins in the store's key
space (term-table ids on the mmap tier, the terms themselves on
``TripleStore``).  The ground truth is ``reference_evaluator``: every
assignment of atoms to ``store.match()`` rows.  Answer *sets* must be
equal — on random small graphs and queries, after every step of a random
add/remove history (which on the mmap tier walks the overlay states:
tombstoned base rows, delta-only terms, revived rows), and on a list of
named cases that each pin one hazard of joining in key space.  Below
the join, every state is also checked probe by probe: the four probes of
an atom's access path (``store.access(p, s, o)``), for every way the
atom's ends can be constants, against ``store.match()``.

Pure Python on purpose: this suite must run, not skip, where numpy does
not exist.
"""

from itertools import product

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
    tier = load_bundle(path).graph.store
    assert isinstance(tier, MmapTripleTier)
    return tier


STORES = pytest.mark.parametrize("make_store", [triple_store, mmap_tier])


def check(store, live, queries):
    """The store holds exactly ``live``, and on it the join agrees with
    brute force on every query — completely, and under a limit."""
    assert set(store.match()) == live
    assert len(store) == len(live)
    check_probes(store)
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
        assert limited == answers[:2], q  # lazy: a prefix of the enumeration
        assert evaluator.evaluate(q, limit=0) == []
        assert evaluator.count(q) == len(expected)


#: Every key a probe can be handed: stored terms, literals (ill-typed
#: as subjects), a constant no triple mentions, terms only a delta holds.
PROBE_TERMS = E + LIT + [ABSENT, URI("e:new"), Literal("new")]
PROBES = ("has", "objects", "subjects", "pairs")


def _ordered(items):
    return sorted(items, key=repr)  # terms are not orderable; lists keep duplicates


def check_probes(store, probes=PROBES, predicates=P + [ABSENT]):
    """Each probe of each access path equals brute force over ``match()``.

    An access path is asked for with any subset of the atom's ends as
    constants (the evaluator passes those same keys to every probe again)
    and must answer alike however much it narrowed up front.  Probes that
    enumerate return no row twice."""
    key, term = store.key_of, store.term_of
    for p in predicates:
        rows = _ordered((t.subject, t.object) for t in store.match(None, p, None))
        for s_const, o_const in product([None] + PROBE_TERMS, repeat=2):
            access = store.access(
                key(p),
                None if s_const is None else key(s_const),
                None if o_const is None else key(o_const),
            )
            subjects = PROBE_TERMS if s_const is None else [s_const]
            objects = PROBE_TERMS if o_const is None else [o_const]
            shape = (p, s_const, o_const)
            if "has" in probes:
                for s, o in product(subjects, objects):
                    assert access.has(key(s), key(o)) == ((s, o) in rows), (shape, s, o)
            if "objects" in probes and o_const is None:
                for s in subjects:
                    got = _ordered(term(k) for k in access.objects(key(s)))
                    assert got == _ordered(o for s2, o in rows if s2 == s), (shape, s)
            if "subjects" in probes and s_const is None:
                for o in objects:
                    got = _ordered(term(k) for k in access.subjects(key(o)))
                    assert got == _ordered(s for s, o2 in rows if o2 == o), (shape, o)
            if "pairs" in probes and s_const is None and o_const is None:
                got = _ordered((term(s), term(o)) for s, o in access.pairs())
                assert got == rows, shape


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
NEW_ENTITY, NEW_LITERAL = PROBE_TERMS[-2:]  # never in a base run

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
    (True, Triple(NEW_ENTITY, P[0], NEW_ENTITY)),  # a loop on a delta-only term
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


# ----------------------------------------------------------------------
# Named cases per probe: one row in one overlay state
# ----------------------------------------------------------------------

DELTA_ROW = Triple(E[3], P[0], E[4])  # both ends in the term table, the row is not
DELTA_TERMS = Triple(NEW_ENTITY, P[1], NEW_LITERAL)

#: name -> (steps applied to BASE, (subject, predicate, object), is it live)
PROBE_CASES = {
    "base row": ([], BASE[1], True),
    "tombstoned base row": ([(False, BASE[1])], BASE[1], False),
    "revived row": ([(False, BASE[1]), (True, BASE[1])], BASE[1], True),
    "delta-only row": ([(True, DELTA_ROW)], DELTA_ROW, True),
    "removed delta row": ([(True, DELTA_ROW), (False, DELTA_ROW)], DELTA_ROW, False),
    "delta-only term as its own key": ([(True, DELTA_TERMS)], DELTA_TERMS, True),
    "constant absent from the table": ([], (ABSENT, P[0], E[0]), False),
    "predicate absent from the table": ([], (E[0], ABSENT, E[1]), False),
    # Not a Triple: the stores must answer it by key, never construct one.
    "literal in subject position": ([(True, DELTA_TERMS)], (LIT[0], P[1], LIT[0]), False),
    "delta-only literal in subject position": (
        [(True, DELTA_TERMS)], (NEW_LITERAL, P[1], NEW_LITERAL), False,
    ),
}


@STORES
@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("case", PROBE_CASES)
def test_named_probe_cases(tmp_path_factory, make_store, case, probe):
    steps, (s, p, o), live = PROBE_CASES[case]
    store = make_store(BASE, tmp_path_factory)
    for add, t in steps:
        assert (store.add if add else store.remove)(t)
    key = store.key_of
    # The row itself, through the probe under test, however the access
    # path was narrowed ...
    for s_const, o_const in product((None, key(s)), (None, key(o))):
        access = store.access(key(p), s_const, o_const)
        if probe == "has":
            assert access.has(key(s), key(o)) == live
        elif probe == "objects" and o_const is None:
            assert (key(o) in list(access.objects(key(s)))) == live
        elif probe == "subjects" and s_const is None:
            assert (key(s) in list(access.subjects(key(o)))) == live
        elif probe == "pairs" and s_const is None and o_const is None:
            assert ((key(s), key(o)) in list(access.pairs())) == live
    # ... and everything else that probe can be asked in this state.
    check_probes(store, probes=(probe,))


@pytest.mark.parametrize("name", QUERIES)
def test_a_limit_keeps_the_first_answers_of_an_epoch_0_bundle(tmp_path_factory, name):
    """On the runs alone (no tombstone, no delta) enumeration order is
    the sorted runs': ``limit`` n is the first n of the full list, and
    the full list is the same on a second load of the same bytes."""
    evaluator = QueryEvaluator(mmap_tier(BASE, tmp_path_factory))
    again = QueryEvaluator(mmap_tier(BASE, tmp_path_factory))
    full = evaluator.evaluate(QUERIES[name])
    assert again.evaluate(QUERIES[name]) == full
    for n in range(len(full) + 2):
        assert evaluator.evaluate(QUERIES[name], limit=n) == full[:n]
