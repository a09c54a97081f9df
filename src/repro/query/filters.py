"""FILTER support: the query-operator extension of the paper's Section IX.

The conclusions name one concrete piece of future work: "the current
indices and algorithms can be extended to recognize keywords that
correspond to special query operators such as filters".  This module
implements that extension end to end:

* :class:`Filter` — a comparison constraint over one query variable
  (``<``, ``≤``, ``>``, ``≥``, ``≠``, range), with numeric-aware ordering;
* :class:`FilteredQuery` — a conjunctive query plus filters, renderable as
  SPARQL ``FILTER`` clauses and evaluable on the store;
* the keyword-side grammar: :func:`parse_filter_keyword` recognizes
  ``before 2005``, ``after 2000``, ``2000-2005``, ``under 300`` as filter
  operators instead of plain value keywords, and
  :func:`split_filter_keywords` first merges a bare comparison word with
  the keyword after it, then separates plain keywords from operators;
* :func:`bind_filters` — attaching the operators to a computed query's
  attribute variables.

What needs the data (which attributes an operand constrains) and the
search itself stay in ``KeywordSearchEngine.search_with_filters``.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import List, Optional, Sequence, Tuple

from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.evaluator import Answer, QueryEvaluator
from repro.query.sparql import to_sparql
from repro.rdf.terms import Literal, Term, Variable


def _comparable(term: Term):
    """A sortable value for a term: numbers compare numerically, everything
    else by lexical form (numbers sort before strings deterministically)."""
    if isinstance(term, Literal):
        text = term.lexical.strip()
        try:
            return (0, float(text))
        except ValueError:
            return (1, text)
    return (1, str(term))


class Filter:
    """A comparison constraint ``variable OP value`` (or a closed range)."""

    OPS = ("<", "<=", ">", ">=", "!=", "range")

    __slots__ = ("variable", "op", "value", "upper")

    def __init__(
        self,
        variable: Variable,
        op: str,
        value: Literal,
        upper: Optional[Literal] = None,
    ):
        if op not in self.OPS:
            raise ValueError(f"unknown filter operator {op!r}")
        if op == "range" and upper is None:
            raise ValueError("range filter needs an upper bound")
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "upper", upper)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Filter is immutable")

    def accepts(self, term: Term) -> bool:
        """Does a bound term satisfy the constraint?"""
        actual = _comparable(term)
        bound = _comparable(self.value)
        if self.op == "<":
            return actual < bound
        if self.op == "<=":
            return actual <= bound
        if self.op == ">":
            return actual > bound
        if self.op == ">=":
            return actual >= bound
        if self.op == "!=":
            return actual != bound
        return bound <= actual <= _comparable(self.upper)

    def to_sparql(self) -> str:
        if self.op == "range":
            return (
                f"FILTER({self.variable} >= {self.value.n3()} && "
                f"{self.variable} <= {self.upper.n3()})"
            )
        return f"FILTER({self.variable} {self.op} {self.value.n3()})"

    def __eq__(self, other):
        return (
            isinstance(other, Filter)
            and (other.variable, other.op, other.value, other.upper)
            == (self.variable, self.op, self.value, self.upper)
        )

    def __hash__(self):
        return hash((self.variable, self.op, self.value, self.upper))

    def __repr__(self):
        if self.op == "range":
            return f"Filter({self.variable} in [{self.value.lexical}, {self.upper.lexical}])"
        return f"Filter({self.variable} {self.op} {self.value.lexical})"


class FilteredQuery:
    """A conjunctive query with attached filters."""

    __slots__ = ("query", "filters")

    def __init__(self, query: ConjunctiveQuery, filters: Sequence[Filter]):
        known = set(query.variables)
        for f in filters:
            if f.variable not in known:
                raise ValueError(f"filter variable {f.variable} not in query")
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "filters", tuple(filters))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("FilteredQuery is immutable")

    def to_sparql(self) -> str:
        base = to_sparql(self.query)
        if not self.filters:
            return base
        clauses = "\n  ".join(f.to_sparql() for f in self.filters)
        return base.replace("\n}", f"\n  {clauses}\n}}")

    def evaluate(
        self, evaluator: QueryEvaluator, limit: Optional[int] = None
    ) -> List[Answer]:
        """All (or the first ``limit``) answers satisfying every filter."""
        accepted = (
            answer
            for answer in evaluator.iter_answers(self.query)
            if all(f.accepts(answer[f.variable]) for f in self.filters)
        )
        return list(islice(accepted, limit))

    def __repr__(self):
        return f"FilteredQuery({self.query}, filters={list(self.filters)})"


# ----------------------------------------------------------------------
# Keyword-side recognition
# ----------------------------------------------------------------------

#: Recognized comparison words and the operator they carry.
_COMPARISON_WORDS = {
    "before": "<",
    "until": "<=",
    "after": ">",
    "since": ">=",
    "under": "<",
    "below": "<",
    "over": ">",
    "above": ">",
    "not": "!=",
    "except": "!=",
}

# Both match case-insensitively; the operand keeps its text as typed.
_RANGE_RE = re.compile(r"^(\d{1,9})\s*(?:-|–|\.\.|to)\s*(\d{1,9})$", re.IGNORECASE)
_COMPARISON_RE = re.compile(r"^([a-z]+)\s+(\S.*)$", re.IGNORECASE)


class FilterKeyword:
    """A recognized filter operator, before it is bound to a variable."""

    __slots__ = ("op", "value", "upper", "source")

    def __init__(self, op: str, value: Literal, upper: Optional[Literal], source: str):
        self.op = op
        self.value = value
        self.upper = upper
        self.source = source

    def bind(self, variable: Variable) -> Filter:
        return Filter(variable, self.op, self.value, self.upper)

    def __repr__(self):
        if self.op == "range":
            return f"FilterKeyword([{self.value.lexical}..{self.upper.lexical}])"
        return f"FilterKeyword({self.op} {self.value.lexical})"


def parse_filter_keyword(keyword: str) -> Optional[FilterKeyword]:
    """Recognize a keyword as a filter operator, or return None.

    >>> parse_filter_keyword("before 2005").op
    '<'
    >>> parse_filter_keyword("2000-2005").op
    'range'
    >>> parse_filter_keyword("cimiano") is None
    True
    >>> parse_filter_keyword("Not P. Cimiano").value
    Literal('P. Cimiano')
    """
    text = keyword.strip()
    range_match = _RANGE_RE.match(text)
    if range_match:
        low, high = range_match.groups()
        if int(low) <= int(high):
            return FilterKeyword("range", Literal(low), Literal(high), keyword)
        return FilterKeyword("range", Literal(high), Literal(low), keyword)
    comparison = _COMPARISON_RE.match(text)
    if comparison:
        word, operand = comparison.groups()
        op = _COMPARISON_WORDS.get(word.lower())
        if op is not None:
            return FilterKeyword(op, Literal(operand.strip()), None, keyword)
    return None


def split_filter_keywords(
    keywords: Sequence[str],
) -> Tuple[List[str], List[FilterKeyword]]:
    """Separate plain keywords from filter operators.

    A bare comparison word is merged with the keyword after it first, so
    whitespace splitting does not hide the operator.

    >>> split_filter_keywords(["cimiano", "before", "2005"])
    (['cimiano'], [FilterKeyword(< 2005)])
    """
    plain: List[str] = []
    filters: List[FilterKeyword] = []
    i = 0
    while i < len(keywords):
        keyword = keywords[i]
        if keyword.lower() in _COMPARISON_WORDS and i + 1 < len(keywords):
            i += 1
            keyword = f"{keyword} {keywords[i]}"
        i += 1
        recognized = parse_filter_keyword(keyword)
        if recognized is None:
            plain.append(keyword)
        else:
            filters.append(recognized)
    return plain, filters


def bind_filters(
    query: ConjunctiveQuery,
    filter_keywords: Sequence[FilterKeyword],
    filter_attr_labels: Sequence[frozenset],
) -> Optional[FilteredQuery]:
    """Attach every filter to an atom whose predicate is one of its
    attribute labels, or return None when some filter finds none.

    An atom with a variable value is preferred; otherwise the first
    matching atom's pinned constant is generalized to a fresh variable
    (``?f1``, ``?f2``, ...) that the filter then constrains.
    """
    atoms = list(query.atoms)
    filters: List[Filter] = []
    fresh = 0
    for fk, attr_labels in zip(filter_keywords, filter_attr_labels):
        candidates = [i for i, atom in enumerate(atoms) if atom.predicate in attr_labels]
        if not candidates:
            return None
        target = next(
            (i for i in candidates if isinstance(atoms[i].arg2, Variable)), candidates[0]
        )
        atom = atoms[target]
        variable = atom.arg2
        if not isinstance(variable, Variable):
            fresh += 1
            variable = Variable(f"f{fresh}")
            atoms[target] = Atom(atom.predicate, atom.arg1, variable)
        filters.append(fk.bind(variable))
    return FilteredQuery(ConjunctiveQuery(atoms), filters)
