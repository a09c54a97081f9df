"""A line-oriented N-Triples parser and serializer.

Supports the W3C N-Triples grammar subset needed for dataset I/O: URI refs,
blank nodes, plain/typed/language-tagged literals with the standard string
escapes, comments, and blank lines.
"""

from __future__ import annotations

import io
from typing import Iterable, Iterator, TextIO, Union

from repro.rdf.terms import BNode, Literal, Term, URI
from repro.rdf.triples import Triple


class NTriplesParseError(ValueError):
    """Raised on malformed N-Triples input; carries the line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


_ESCAPES = {
    "t": "\t",
    "n": "\n",
    "r": "\r",
    '"': '"',
    "\\": "\\",
}


class _LineScanner:
    """Single-line tokenizer for the N-Triples grammar."""

    def __init__(self, line: str, line_number: int):
        self.line = line
        self.pos = 0
        self.line_number = line_number

    def error(self, message: str) -> NTriplesParseError:
        return NTriplesParseError(f"{message} (at column {self.pos})", self.line_number)

    def skip_ws(self) -> None:
        while self.pos < len(self.line) and self.line[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.line)

    def peek(self) -> str:
        return self.line[self.pos] if self.pos < len(self.line) else ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}, found {self.peek()!r}")
        self.pos += 1

    def read_uri(self) -> URI:
        self.expect("<")
        end = self.line.find(">", self.pos)
        if end < 0:
            raise self.error("unterminated URI")
        value = self.line[self.pos : end]
        self.pos = end + 1
        if not value:
            raise self.error("empty URI")
        return URI(value)

    def read_bnode(self) -> BNode:
        self.expect("_")
        self.expect(":")
        start = self.pos
        while self.pos < len(self.line) and (
            self.line[self.pos].isalnum() or self.line[self.pos] in "_-"
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("empty blank node label")
        return BNode(self.line[start : self.pos])

    def read_string(self) -> str:
        self.expect('"')
        out = []
        while True:
            if self.at_end():
                raise self.error("unterminated string literal")
            ch = self.line[self.pos]
            self.pos += 1
            if ch == '"':
                return "".join(out)
            if ch == "\\":
                if self.at_end():
                    raise self.error("dangling escape")
                esc = self.line[self.pos]
                self.pos += 1
                if esc in _ESCAPES:
                    out.append(_ESCAPES[esc])
                elif esc == "u":
                    hexval = self.line[self.pos : self.pos + 4]
                    if len(hexval) < 4:
                        raise self.error("truncated \\u escape")
                    out.append(chr(int(hexval, 16)))
                    self.pos += 4
                elif esc == "U":
                    hexval = self.line[self.pos : self.pos + 8]
                    if len(hexval) < 8:
                        raise self.error("truncated \\U escape")
                    out.append(chr(int(hexval, 16)))
                    self.pos += 8
                else:
                    raise self.error(f"unknown escape \\{esc}")
            else:
                out.append(ch)

    def read_literal(self) -> Literal:
        lexical = self.read_string()
        if self.peek() == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.line) and (
                self.line[self.pos].isalnum() or self.line[self.pos] == "-"
            ):
                self.pos += 1
            if self.pos == start:
                raise self.error("empty language tag")
            return Literal(lexical, language=self.line[start : self.pos])
        if self.line.startswith("^^", self.pos):
            self.pos += 2
            return Literal(lexical, datatype=self.read_uri())
        return Literal(lexical)

    def read_subject(self) -> Term:
        if self.peek() == "<":
            return self.read_uri()
        if self.peek() == "_":
            return self.read_bnode()
        raise self.error("subject must be a URI or blank node")

    def read_object(self) -> Term:
        if self.peek() == "<":
            return self.read_uri()
        if self.peek() == "_":
            return self.read_bnode()
        if self.peek() == '"':
            return self.read_literal()
        raise self.error("object must be a URI, blank node, or literal")


def parse_ntriples(source: Union[str, TextIO, Iterable[str]]) -> Iterator[Triple]:
    """Parse N-Triples from a string or line iterable, yielding triples.

    Streaming contract: ``source`` is consumed strictly line by line —
    ``.read()`` is never called and no list of lines is ever built, so an
    open file handle (or any lazy line generator) parses in O(1) memory
    regardless of corpus size.  Errors carry the 1-based line number and
    column.  The out-of-core build path (``repro build``) feeds
    file handles through here directly.

    >>> list(parse_ntriples('<a:s> <a:p> "v" .'))
    [Triple(URI('a:s'), URI('a:p'), Literal('v'))]
    """
    if isinstance(source, str):
        # Iterate \n-delimited lines without materializing a split list.
        # (str.splitlines() would also break on Unicode line separators —
        # U+0085, U+2028, … — which are data, not structure; StringIO
        # splits on \n only.)
        lines: Iterable[str] = io.StringIO(source)
    else:
        lines = source
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        scanner = _LineScanner(line, number)
        scanner.skip_ws()
        subject = scanner.read_subject()
        scanner.skip_ws()
        predicate = scanner.read_uri()
        scanner.skip_ws()
        obj = scanner.read_object()
        scanner.skip_ws()
        scanner.expect(".")
        scanner.skip_ws()
        if not scanner.at_end() and not scanner.line[scanner.pos :].lstrip().startswith("#"):
            raise scanner.error("trailing content after '.'")
        yield Triple(subject, predicate, obj)


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples to an N-Triples document string."""
    return "\n".join(t.n3() for t in triples) + "\n"
