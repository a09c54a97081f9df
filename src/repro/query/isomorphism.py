"""Query isomorphism: equality of conjunctive queries up to variable renaming.

The effectiveness study (Fig. 4) scores a generated query as *correct* when
it matches the intended query of the workload's NL description.  Two queries
express the same intent iff one can be mapped onto the other by a bijective
renaming of variables that preserves every atom — which is what
:func:`queries_isomorphic` decides (exactly, by backtracking; queries here
are small).  :func:`canonical_form` gives a renaming-invariant key usable for
hashing/deduplication.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.presentation import term_text
from repro.rdf.terms import Variable


def queries_isomorphic(
    a: ConjunctiveQuery,
    b: ConjunctiveQuery,
    check_distinguished: bool = False,
) -> bool:
    """True iff the queries are equal up to a bijective variable renaming.

    With ``check_distinguished`` the renaming must also map a's distinguished
    tuple onto b's (position-wise); by default only the atom sets matter,
    matching the paper's default of treating all variables as distinguished.
    """
    atoms_a = list(dict.fromkeys(a.atoms))
    atoms_b = list(dict.fromkeys(b.atoms))
    if len(atoms_a) != len(atoms_b):
        return False
    if len(a.variables) != len(b.variables):
        return False
    if check_distinguished and len(a.distinguished) != len(b.distinguished):
        return False

    seed: Dict[Variable, Variable] = {}
    if check_distinguished:
        for va, vb in zip(a.distinguished, b.distinguished):
            if seed.setdefault(va, vb) != vb:
                return False
        if len(set(seed.values())) != len(seed):
            return False

    return _match(atoms_a, atoms_b, seed)


def _match(
    remaining: List[Atom],
    candidates: List[Atom],
    mapping: Dict[Variable, Variable],
) -> bool:
    if not remaining:
        return True
    atom = remaining[0]
    rest = remaining[1:]
    for i, candidate in enumerate(candidates):
        extension = _unify_atoms(atom, candidate, mapping)
        if extension is None:
            continue
        if _match(rest, candidates[:i] + candidates[i + 1 :], extension):
            return True
    return False


def _unify_atoms(
    a: Atom, b: Atom, mapping: Dict[Variable, Variable]
) -> Optional[Dict[Variable, Variable]]:
    if a.predicate != b.predicate:
        return None
    extension = dict(mapping)
    used = set(extension.values())
    for arg_a, arg_b in ((a.arg1, b.arg1), (a.arg2, b.arg2)):
        if isinstance(arg_a, Variable) != isinstance(arg_b, Variable):
            return None
        if isinstance(arg_a, Variable):
            bound = extension.get(arg_a)
            if bound is None:
                if arg_b in used:
                    return None  # must stay injective
                extension[arg_a] = arg_b
                used.add(arg_b)
            elif bound != arg_b:
                return None
        elif arg_a != arg_b:
            return None
    return extension


def canonical_form(query: ConjunctiveQuery) -> FrozenSet[Tuple]:
    """A renaming-invariant fingerprint of the query's atom set.

    Variables are replaced by their *signature*: the multiset of
    (predicate, position, other-argument-if-constant) contexts they occur in.
    Queries with equal canonical forms are usually isomorphic; the exact
    check remains :func:`queries_isomorphic` (signatures can collide on
    highly symmetric queries).
    """
    # One pass over the atoms collects each variable's contexts; a
    # variable's key exists only once every atom has been seen, so the
    # atoms are keyed last.
    contexts: Dict[str, List[Tuple]] = {}
    rows = []
    for atom in query.atoms:
        predicate, arg1, arg2 = atom.predicate.value, atom.arg1, atom.arg2
        name1 = arg1.name if type(arg1) is Variable else None
        name2 = arg2.name if type(arg2) is Variable else None
        if name1 is not None:
            # n3 gives a sortable, injective string key for constants.
            other = ("const", term_text(arg2)[1]) if name2 is None else ("var",)
            contexts.setdefault(name1, []).append((predicate, 0, other))
        if name2 is not None:
            other = ("const", term_text(arg1)[1]) if name1 is None else ("var",)
            contexts.setdefault(name2, []).append((predicate, 1, other))
        rows.append((predicate, name1, name2, arg1, arg2))
    keys = {name: ("var", tuple(sorted(ctx))) for name, ctx in contexts.items()}
    return frozenset(
        [
            (
                predicate,
                ("const", arg1) if name1 is None else keys[name1],
                ("const", arg2) if name2 is None else keys[name2],
            )
            for predicate, name1, name2, arg1, arg2 in rows
        ]
    )
