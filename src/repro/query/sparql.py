"""SPARQL rendering and a parser for the emitted subset.

The paper presents each computed conjunctive query to the user as SPARQL
(Fig. 1c).  :func:`to_sparql` renders; :func:`parse_sparql` reads back the
same subset — ``SELECT ?v ... WHERE { pattern . ... }``, or ``ASK { ... }``
for a query that binds nothing, with URIs in angle brackets, plain/typed
literals, and variables — enabling round-trip tests and programmatic query
input.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.presentation import render
from repro.rdf.terms import Literal, URI, Variable


def to_sparql(query: ConjunctiveQuery, pretty: bool = True) -> str:
    """Render a conjunctive query as a SPARQL SELECT query — or, when no
    variable is distinguished, as the ASK query of its pattern.

    >>> q = ConjunctiveQuery([Atom(URI("p"), Variable("x"), Literal("2006"))])
    >>> to_sparql(q, pretty=False)
    'SELECT ?x WHERE { ?x <p> "2006" . }'
    >>> to_sparql(ConjunctiveQuery([Atom(URI("p"), URI("s"), URI("o"))]), pretty=False)
    'ASK { <s> <p> <o> . }'
    """
    return render(query, pretty)[1]


class SparqlParseError(ValueError):
    """Raised on input outside the supported SPARQL subset."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<keyword>SELECT|WHERE|DISTINCT|ASK)\b
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<uri><[^<>\s]+>)
  | (?P<literal>"(?:[^"\\]|\\.)*")
  | (?P<dtype>\^\^)
  | (?P<lang>@[A-Za-z][A-Za-z0-9-]*)
  | (?P<lbrace>\{)
  | (?P<rbrace>\})
  | (?P<dot>\.)
  | (?P<star>\*)
    """,
    re.VERBOSE | re.IGNORECASE,
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SparqlParseError(f"unexpected input at offset {pos}: {text[pos:pos+20]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group()))
    return tokens


def parse_sparql(text: str) -> ConjunctiveQuery:
    """Parse the SPARQL subset emitted by :func:`to_sparql`."""
    tokens = _tokenize(text)
    cursor = 0

    def peek() -> Optional[Tuple[str, str]]:
        return tokens[cursor] if cursor < len(tokens) else None

    def take(expected_kind: str) -> str:
        nonlocal cursor
        tok = peek()
        if tok is None or tok[0] != expected_kind:
            raise SparqlParseError(f"expected {expected_kind}, got {tok}")
        cursor += 1
        return tok[1]

    form = take("keyword").upper()
    if form not in ("SELECT", "ASK"):
        raise SparqlParseError("query must start with SELECT or ASK")

    select_all = False
    head: List[Variable] = []
    while form == "SELECT":
        tok = peek()
        if tok is None:
            raise SparqlParseError("unexpected end of input in SELECT clause")
        if tok[0] == "keyword" and tok[1].upper() == "DISTINCT":
            cursor += 1
            continue
        if tok[0] == "star":
            cursor += 1
            select_all = True
            continue
        if tok[0] == "var":
            head.append(Variable(take("var")))
            continue
        break

    # ASK's WHERE is optional (and to_sparql omits it).
    tok = peek()
    if form == "SELECT" or (tok is not None and tok[0] == "keyword"):
        if take("keyword").upper() != "WHERE":
            raise SparqlParseError("expected WHERE")
    take("lbrace")

    atoms: List[Atom] = []
    while True:
        tok = peek()
        if tok is None:
            raise SparqlParseError("unterminated WHERE block")
        if tok[0] == "rbrace":
            cursor += 1
            break
        s_term, cursor = _parse_term(tokens, cursor)
        p_term, cursor = _parse_term(tokens, cursor)
        o_term, cursor = _parse_term(tokens, cursor)
        if not isinstance(p_term, URI):
            raise SparqlParseError("predicate must be a URI")
        atoms.append(Atom(p_term, s_term, o_term))
        if peek() is not None and peek()[0] == "dot":
            cursor += 1
    if cursor != len(tokens):
        raise SparqlParseError("trailing content after WHERE block")
    if not atoms:
        raise SparqlParseError("empty WHERE block")
    if form == "ASK":
        distinguished: Optional[List[Variable]] = []
    else:
        distinguished = None if select_all or not head else head
    return ConjunctiveQuery(atoms, distinguished=distinguished)


def _parse_term(tokens: List[Tuple[str, str]], cursor: int):
    if cursor >= len(tokens):
        raise SparqlParseError("unexpected end of input in triple pattern")
    kind, text = tokens[cursor]
    if kind == "var":
        return Variable(text), cursor + 1
    if kind == "uri":
        return URI(text[1:-1]), cursor + 1
    if kind == "literal":
        lexical = _unescape(text[1:-1])
        cursor += 1
        if cursor < len(tokens) and tokens[cursor][0] == "dtype":
            cursor += 1
            if cursor >= len(tokens) or tokens[cursor][0] != "uri":
                raise SparqlParseError("datatype must be a URI")
            dtype = URI(tokens[cursor][1][1:-1])
            return Literal(lexical, datatype=dtype), cursor + 1
        if cursor < len(tokens) and tokens[cursor][0] == "lang":
            lang = tokens[cursor][1][1:]
            return Literal(lexical, language=lang), cursor + 1
        return Literal(lexical), cursor
    raise SparqlParseError(f"unexpected token in triple pattern: {text!r}")


def _unescape(text: str) -> str:
    return (
        text.replace("\\n", "\n")
        .replace("\\r", "\r")
        .replace("\\t", "\t")
        .replace('\\"', '"')
        .replace("\\\\", "\\")
    )
