"""Conjunctive queries (Definition 2), their evaluation (Definition 3),
and surface renderings (SPARQL, single-table SQL, natural language).
"""

from repro.query.conjunctive import Atom, ConjunctiveQuery, QueryValidationError
from repro.query.evaluator import QueryEvaluator, Answer, AnswerRows
from repro.query.sparql import to_sparql, parse_sparql, SparqlParseError
from repro.query.sql import to_sql
from repro.query.nlg import verbalize
from repro.query.isomorphism import queries_isomorphic, canonical_form

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "QueryValidationError",
    "QueryEvaluator",
    "Answer",
    "AnswerRows",
    "to_sparql",
    "parse_sparql",
    "SparqlParseError",
    "to_sql",
    "verbalize",
    "queries_isomorphic",
    "canonical_form",
]
