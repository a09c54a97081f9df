"""Unit tests for the N-Triples parser/serializer."""

import pytest

from repro.rdf.ntriples import NTriplesParseError, parse_ntriples, serialize_ntriples
from repro.rdf.terms import BNode, Literal, URI
from repro.rdf.triples import Triple


def parse_one(line: str) -> Triple:
    triples = list(parse_ntriples(line))
    assert len(triples) == 1
    return triples[0]


class TestParsing:
    def test_uri_triple(self):
        t = parse_one("<a:s> <a:p> <a:o> .")
        assert t == Triple(URI("a:s"), URI("a:p"), URI("a:o"))

    def test_plain_literal(self):
        t = parse_one('<a:s> <a:p> "hello" .')
        assert t.object == Literal("hello")

    def test_language_literal(self):
        t = parse_one('<a:s> <a:p> "chat"@fr .')
        assert t.object == Literal("chat", language="fr")

    def test_typed_literal(self):
        t = parse_one('<a:s> <a:p> "1"^^<x:int> .')
        assert t.object == Literal("1", datatype=URI("x:int"))

    def test_bnode_subject_and_object(self):
        t = parse_one("_:a <a:p> _:b .")
        assert t.subject == BNode("a")
        assert t.object == BNode("b")

    def test_string_escapes(self):
        t = parse_one('<a:s> <a:p> "tab\\there\\nnl \\"q\\" \\\\bs" .')
        assert t.object.lexical == 'tab\there\nnl "q" \\bs'

    def test_unicode_escapes(self):
        t = parse_one('<a:s> <a:p> "\\u00e9\\U0001F600" .')
        assert t.object.lexical == "é\U0001F600"

    def test_comments_and_blank_lines_skipped(self):
        doc = "# comment\n\n<a:s> <a:p> <a:o> .\n   \n# another\n"
        assert len(list(parse_ntriples(doc))) == 1

    def test_trailing_comment_allowed(self):
        t = parse_one("<a:s> <a:p> <a:o> . # trailing")
        assert t.predicate == URI("a:p")

    def test_multiple_lines(self):
        doc = '<a:s> <a:p> <a:o> .\n<a:s> <a:p> "v" .'
        assert len(list(parse_ntriples(doc))) == 2


class TestErrors:
    @pytest.mark.parametrize(
        "line",
        [
            "<a:s> <a:p> <a:o>",  # missing dot
            '"lit" <a:p> <a:o> .',  # literal subject
            "<a:s> _:b <a:o> .",  # bnode predicate
            "<a:s> <a:p> .",  # missing object
            '<a:s> <a:p> "unterminated .',
            "<a:s> <unterminated <a:o> .",
            "<a:s> <a:p> <a:o> . extra",
        ],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(NTriplesParseError):
            list(parse_ntriples(line))

    @pytest.mark.parametrize(
        "escape, column",
        [
            ("\\u12", 13),  # too few digits before the closing quote
            ("\\u+0aB", 13),  # int() would take a sign,
            ("\\u 1ab", 13),  # surrounding blanks
            ("\\u1_ab", 13),  # and an underscore
            ("\\u00g1", 13),
            ("\\U0001F60", 13),
            ("x\\U0000 1F6", 14),
            ("\\UFFFFFFFF", 13),  # beyond U+10FFFF
            ("\\U00110000", 13),
            ("\\uD800", 13),  # surrogates are not scalar values
            ("\\udfff", 13),
            ("\\U0000DC00", 13),
        ],
    )
    def test_malformed_unicode_escape_is_a_parse_error(self, escape, column):
        """An escape takes exactly 4 (``\\u``) or 8 (``\\U``) hex digits
        naming a Unicode scalar value; the error points at its backslash."""
        doc = f'<a:s> <a:p> "v" .\n<a:s> <a:p> "{escape}" .'
        with pytest.raises(NTriplesParseError) as excinfo:
            list(parse_ntriples(doc))
        assert excinfo.value.line_number == 2
        assert str(excinfo.value).endswith(f"(at column {column})")

    @pytest.mark.parametrize(
        "line, column",
        [
            ('<a:s> <a:p> "x\ud800" .', 14),  # in a lexical form
            ("<a:s\udc00> <a:p> <a:o> .", 4),  # in a URI
            ("<a:s> <a:\udfff> <a:o> .", 9),
            ("<a:s> <a:p> <a:o\ud800> .", 16),
            ('<a:s> <a:p> "x"^^<a:\ud800> .', 20),  # in a datatype
            ('<a:s> <a:p> "x\ud83d\ude00" .', 14),  # a pair is two of them
            ("_:b\ud800 <a:p> <a:o> .", 3),  # ends no label: refused, not cut
            ('<a:s> <a:p> "x" . # \udc00', 20),  # in a trailing comment
        ],
    )
    def test_raw_lone_surrogate_is_a_parse_error(self, line, column):
        """A raw U+D800-U+DFFF is refused as its escape is: a store of
        such text could never be saved as UTF-8."""
        with pytest.raises(NTriplesParseError) as excinfo:
            list(parse_ntriples(f"<a:s> <a:p> <a:o> .\n{line}"))
        assert excinfo.value.line_number == 2
        assert "lone surrogate" in str(excinfo.value)
        assert str(excinfo.value).endswith(f"(at column {column})")

    @pytest.mark.parametrize(
        "escape, char",
        [
            ("\\u0041", "A"),
            ("\\uFFFF", "\uffff"),
            ("\\ud7ff", "\ud7ff"),
            ("\\uE000", "\ue000"),
            ("\\U0010FFFF", "\U0010ffff"),
            ("\\U00000000", "\x00"),
        ],
    )
    def test_unicode_escape_bounds(self, escape, char):
        assert parse_one(f'<a:s> <a:p> "{escape}" .').object == Literal(char)

    def test_error_carries_line_number(self):
        doc = "<a:s> <a:p> <a:o> .\nbad line"
        with pytest.raises(NTriplesParseError) as excinfo:
            list(parse_ntriples(doc))
        assert excinfo.value.line_number == 2


class TestRoundTrip:
    def test_serialize_then_parse(self):
        triples = [
            Triple(URI("a:s"), URI("a:p"), URI("a:o")),
            Triple(URI("a:s"), URI("a:p"), Literal('with "quotes"\nand newline')),
            Triple(BNode("b1"), URI("a:p"), Literal("x", language="en")),
            Triple(URI("a:s"), URI("a:p"), Literal("5", datatype=URI("x:int"))),
        ]
        document = serialize_ntriples(triples)
        assert list(parse_ntriples(document)) == triples


class TestStreamingContract:
    """parse_ntriples must consume sources line by line, never .read()."""

    class _NoReadFile:
        """Iterable of lines whose bulk-read methods are booby-trapped."""

        def __init__(self, lines):
            self._lines = list(lines)

        def read(self, *args):
            raise AssertionError("parse_ntriples called .read()")

        def readlines(self, *args):
            raise AssertionError("parse_ntriples called .readlines()")

        def __iter__(self):
            return iter(self._lines)

    def test_never_calls_read(self):
        source = self._NoReadFile(
            ["<a:s> <a:p> <a:o> .\n", "# comment\n", '<a:s> <a:p> "v" .\n']
        )
        triples = list(parse_ntriples(source))
        assert triples == [
            Triple(URI("a:s"), URI("a:p"), URI("a:o")),
            Triple(URI("a:s"), URI("a:p"), Literal("v")),
        ]

    def test_generator_source_is_lazy(self):
        consumed = []

        def lines():
            for n in range(100):
                consumed.append(n)
                yield f"<a:s{n}> <a:p> <a:o> .\n"

        parser = parse_ntriples(lines())
        next(parser)
        # Only a bounded prefix of the source was pulled to produce the
        # first triple — the document was never materialized.
        assert len(consumed) < 5

    def test_error_line_number_from_line_iterable(self):
        source = self._NoReadFile(["<a:s> <a:p> <a:o> .\n", "\n", "nonsense\n"])
        with pytest.raises(NTriplesParseError) as excinfo:
            list(parse_ntriples(source))
        assert excinfo.value.line_number == 3
        assert "column" in str(excinfo.value)

    def test_file_handle_roundtrip(self, tmp_path):
        path = tmp_path / "doc.nt"
        triples = [Triple(URI("a:s"), URI("a:p"), Literal("x")) for _ in range(1)]
        path.write_text(serialize_ntriples(triples))
        with open(path) as fh:
            assert list(parse_ntriples(fh)) == triples
