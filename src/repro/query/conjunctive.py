"""Conjunctive queries per Definition 2 of the paper.

A query is ``(x_1..x_k). ∃ x_{k+1}..x_m . A_1 ∧ … ∧ A_r`` where each atom is
``P(v_1, v_2)`` with ``P`` a predicate (an edge label of the data graph) and
``v_1, v_2`` variables or constants.  Distinguished variables are those bound
to produce answers; the rest are existential.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.query.presentation import render, term_text
from repro.rdf.terms import Literal, Term, URI, Variable

AtomArg = Union[Variable, Term]


class QueryValidationError(ValueError):
    """Raised when a query violates Definition 2's well-formedness rules."""


class Atom:
    """A query atom ``P(v1, v2)`` — one triple pattern.

    ``predicate`` is always a constant URI (Definition 2 has no predicate
    variables); the two arguments may each be a variable or a constant.
    """

    __slots__ = ("predicate", "arg1", "arg2", "_hash")

    def __init__(self, predicate: URI, arg1: AtomArg, arg2: AtomArg):
        if not isinstance(predicate, URI):
            raise QueryValidationError(
                f"atom predicate must be a URI, got {type(predicate).__name__}"
            )
        if isinstance(arg1, Literal):
            raise QueryValidationError("atom subject cannot be a literal")
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "arg1", arg1)
        object.__setattr__(self, "arg2", arg2)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Atom is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Atom)
            and other.predicate == self.predicate
            and other.arg1 == self.arg1
            and other.arg2 == self.arg2
        )

    def __hash__(self):
        # On first use, not at construction: a mapped query's atoms are
        # deduplicated before they are built and most are never hashed.
        value = self._hash
        if value is None:
            value = hash((self.predicate, self.arg1, self.arg2))
            object.__setattr__(self, "_hash", value)
        return value

    def __repr__(self):
        return f"Atom({self.predicate!r}, {self.arg1!r}, {self.arg2!r})"

    def __str__(self):
        name, arg1, arg2 = (
            term_text(term)[0] for term in (self.predicate, self.arg1, self.arg2)
        )
        return f"{name}({arg1}, {arg2})"

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """The variables occurring in this atom, in position order."""
        out = []
        if isinstance(self.arg1, Variable):
            out.append(self.arg1)
        if isinstance(self.arg2, Variable):
            out.append(self.arg2)
        return tuple(out)


class ConjunctiveQuery:
    """A conjunctive query: atoms plus the distinguished-variable tuple.

    If ``distinguished`` is omitted, *all* variables are distinguished — the
    paper's default when nothing but keywords is known (Section VI-D).
    """

    __slots__ = ("atoms", "distinguished")

    def __init__(
        self,
        atoms: Iterable[Atom],
        distinguished: Optional[Sequence[Variable]] = None,
    ):
        # Duplicate atoms are logically redundant in a conjunction; drop
        # them (first occurrence kept) so equality, isomorphism and
        # canonical forms all see the same atom multiset.
        atoms = tuple(dict.fromkeys(atoms))
        if not atoms:
            raise QueryValidationError("a conjunctive query needs at least one atom")
        all_vars = _ordered_variables(atoms)
        if distinguished is None:
            distinguished = all_vars
        else:
            distinguished = tuple(distinguished)
            known = set(all_vars)
            unknown = [v for v in distinguished if v not in known]
            if unknown:
                raise QueryValidationError(
                    f"distinguished variables not in query: {unknown}"
                )
            if len(set(distinguished)) != len(distinguished):
                raise QueryValidationError("duplicate distinguished variable")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "distinguished", tuple(distinguished))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ConjunctiveQuery is immutable")

    @classmethod
    def from_parts(
        cls, atoms: Tuple[Atom, ...], variables: Tuple[Variable, ...]
    ) -> "ConjunctiveQuery":
        """Trusted constructor for a caller that built the atoms one by
        one and kept them distinct (query mapping): skips deduplicating
        them again and collecting the variables a second time.  The
        caller guarantees ``atoms`` is non-empty and duplicate-free and
        ``variables`` is all its variables in first-occurrence order;
        every one of them is distinguished."""
        self = cls.__new__(cls)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "distinguished", variables)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """All variables, in first-occurrence order."""
        return _ordered_variables(self.atoms)

    @property
    def constants(self) -> FrozenSet[Term]:
        """All constant arguments (URIs and literals)."""
        out: Set[Term] = set()
        for atom in self.atoms:
            if not isinstance(atom.arg1, Variable):
                out.add(atom.arg1)
            if not isinstance(atom.arg2, Variable):
                out.add(atom.arg2)
        return frozenset(out)

    @property
    def predicates(self) -> FrozenSet[URI]:
        return frozenset(a.predicate for a in self.atoms)

    def is_connected(self) -> bool:
        """True if the query's join graph is connected.

        Atoms are nodes; two atoms are adjacent when they share a variable.
        Matching subgraphs are connected by construction (Definition 6), so
        queries derived from them must pass this check.
        """
        if len(self.atoms) <= 1:
            return True
        var_to_atoms = {}
        for i, atom in enumerate(self.atoms):
            for v in atom.variables:
                var_to_atoms.setdefault(v, []).append(i)
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for v in self.atoms[i].variables:
                for j in var_to_atoms[v]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
        return len(seen) == len(self.atoms)

    def project(self, variables: Sequence[Variable]) -> "ConjunctiveQuery":
        """A copy with a different distinguished-variable tuple."""
        return ConjunctiveQuery(self.atoms, distinguished=variables)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other):
        """Syntactic equality: same atom *set* and same projection *set*.

        Tuple order is presentation, not identity — the default
        distinguished tuple derives from atom order, and answers carry
        their own variable order.
        """
        return (
            isinstance(other, ConjunctiveQuery)
            and frozenset(other.atoms) == frozenset(self.atoms)
            and frozenset(other.distinguished) == frozenset(self.distinguished)
        )

    def __hash__(self):
        return hash((frozenset(self.atoms), frozenset(self.distinguished)))

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __repr__(self):
        return f"ConjunctiveQuery({list(self.atoms)!r}, distinguished={list(self.distinguished)!r})"

    def __str__(self):
        return render(self)[0]


def _ordered_variables(atoms: Iterable[Atom]) -> Tuple[Variable, ...]:
    seen: List[Variable] = []
    seen_set: Set[Variable] = set()
    for atom in atoms:
        for v in atom.variables:
            if v not in seen_set:
                seen_set.add(v)
                seen.append(v)
    return tuple(seen)
