"""A line-oriented N-Triples parser and serializer.

Supports the W3C N-Triples grammar subset needed for dataset I/O: URI refs,
blank nodes, plain/typed/language-tagged literals with the standard string
escapes, comments, and blank lines.

A line is read one of two ways, with one result.  Most lines — no escape,
ASCII blank-node labels and language tags — match :data:`_TRIPLE_LINE`
whole and become terms straight from its groups.  Every other line goes
through :class:`_LineScanner`, the one place that decodes escapes and
non-ASCII labels and that reports an error with its line and column.

Text is Unicode scalar values only: a raw lone surrogate (U+D800-U+DFFF,
which a ``str`` can hold but UTF-8 cannot encode) is refused wherever
it sits in a triple line, as the ``\uD800`` escape is.
"""

from __future__ import annotations

import io
import re
from typing import Dict, Iterable, Iterator, Optional, TextIO, Union

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


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

_SURROGATE = re.compile("[\ud800-\udfff]")

#: A whole stripped line of the escape-free shape, tokens separated by
#: optional spaces or tabs.  Groups: subject URI | subject label,
#: predicate URI, object URI | object label | (lexical form, language |
#: datatype URI).  A URI is any non-empty text up to the first ``>``,
#: as the scanner reads it; a label or a language tag here is ASCII, so
#: the character after it ends it for the scanner too.
_TRIPLE_LINE = re.compile(
    r"(?:<([^>]+)>|_:([A-Za-z0-9_-]+))[ \t]*"
    r"<([^>]+)>[ \t]*"
    r'(?:<([^>]+)>|_:([A-Za-z0-9_-]+)|"([^"\\]*)"(?:@([A-Za-z0-9-]+)|\^\^<([^>]+)>)?)'
    r"[ \t]*\.(?:[ \t]*#.*)?"
)

#: Distinct URI texts one parse keeps shared before it starts afresh, so
#: a stream of any size parses in bounded memory.
URI_MEMO_SIZE = 1 << 16


class _LineScanner:
    """Single-line tokenizer for the N-Triples grammar."""

    def __init__(self, line: str, line_number: int):
        self.line = line
        self.pos = 0
        self.line_number = line_number

    def error(self, message: str, column: Optional[int] = None) -> NTriplesParseError:
        if column is None:
            column = self.pos
        return NTriplesParseError(f"{message} (at column {column})", self.line_number)

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
                elif esc in "uU":
                    out.append(self.read_code_point(esc))
                else:
                    raise self.error(f"unknown escape \\{esc}")
            else:
                out.append(ch)

    def read_code_point(self, esc: str) -> str:
        """The character a ``\\u`` (4 hex digits) or ``\\U`` (8) escape
        names; it must be a Unicode scalar value (no surrogate)."""
        start = self.pos - 2
        width = 4 if esc == "u" else 8
        digits = self.line[self.pos : self.pos + width]
        if len(digits) < width or not _HEX_DIGITS.issuperset(digits):
            raise self.error(
                f"\\{esc} escape needs {width} hex digits, got {digits!r}", start
            )
        code = int(digits, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise self.error(
                f"\\{esc}{digits} is not a Unicode scalar value", start
            )
        self.pos += width
        return chr(code)

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

    Within one call, equal URI texts read by the line pattern are one
    :class:`URI` object (until :data:`URI_MEMO_SIZE` distinct texts, when
    the memo starts afresh), so a repeated subject, predicate or class
    is built and hashed once.

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
    uris: Dict[str, URI] = {}

    def uri(text: str) -> URI:
        term = uris.get(text)
        if term is None:
            if len(uris) >= URI_MEMO_SIZE:
                uris.clear()
            term = uris[text] = URI(text)
        return term

    match = _TRIPLE_LINE.fullmatch
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # A surrogate is the scanner's to refuse; only a non-ASCII line
        # (an O(1) test) can hold one.
        found = (
            match(line) if line.isascii() or _SURROGATE.search(line) is None else None
        )
        if found is None:
            yield _scan_line(line, number)
            continue
        s_uri, s_label, p_uri, o_uri, o_label, lexical, language, datatype = (
            found.groups()
        )
        subject = uri(s_uri) if s_label is None else BNode(s_label)
        if o_uri is not None:
            obj: Term = uri(o_uri)
        elif o_label is not None:
            obj = BNode(o_label)
        elif datatype is not None:
            obj = Literal(lexical, datatype=uri(datatype))
        else:
            obj = Literal(lexical, language=language)
        yield Triple(subject, uri(p_uri), obj)


def _scan_line(line: str, number: int) -> Triple:
    """One stripped line the pattern did not match, read by the scanner:
    its triple, or the error at its line and column."""
    scanner = _LineScanner(line, number)
    surrogate = _SURROGATE.search(line)
    if surrogate is not None:
        raise scanner.error(
            f"lone surrogate U+{ord(surrogate.group()):04X} is not a Unicode "
            "scalar value",
            surrogate.start(),
        )
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
    return Triple(subject, predicate, obj)


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples to an N-Triples document string."""
    return "\n".join(t.n3() for t in triples) + "\n"
