"""Differential tests: ``parse_ntriples``'s line pattern against the scanner.

``parse_ntriples`` reads a line that matches ``_TRIPLE_LINE`` whole from
the pattern's groups and every other line with ``_LineScanner``.  The
reference here is the same function with the pattern switched off, so
every line goes through the scanner.  Lines are generated from term
parts plus near-miss mutations (spacing, comments, empty URIs, empty
tags, non-ASCII labels and tags, escapes), and both parses must agree
term for term — class and value — or both raise ``NTriplesParseError``
on the same line.
"""

import re
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import ntriples
from repro.rdf.ntriples import NTriplesParseError, parse_ntriples
from repro.rdf.terms import BNode, Literal, URI
from repro.rdf.triples import Triple

#: A pattern that matches no line: everything goes to the scanner.
_NEVER = re.compile(r"(?!)")


@contextmanager
def scanner_only():
    with mock.patch.object(ntriples, "_TRIPLE_LINE", _NEVER):
        yield


def outcome(lines):
    """The parse of ``lines``: ``("ok", [(class, value), ...] per triple)``
    or ``("error", line number)``; anything but NTriplesParseError
    propagates and fails the test."""
    try:
        triples = list(parse_ntriples(lines))
    except NTriplesParseError as exc:
        return "error", exc.line_number
    return "ok", [[(type(term), repr(term)) for term in t] for t in triples]


# ----------------------------------------------------------------------
# Lines: well-formed parts, then up to two slots swapped for a near miss
# of their kind.
# ----------------------------------------------------------------------

_ASCII_LABEL = "abcXYZ019_-"
_NON_ASCII = "éß²東Ⅻ"

uris = st.text(alphabet="ab:/#.?=&%~é東 \"'\\<", min_size=1, max_size=12).map(
    lambda text: f"<{text}>"
)
bad_uris = st.sampled_from(["<>", "<a:x", "<a:\ud800>"])  # empty, unterminated, surrogate

bnodes = st.one_of(
    st.text(alphabet=_ASCII_LABEL, min_size=1, max_size=6),
    st.text(alphabet=_ASCII_LABEL + _NON_ASCII, min_size=1, max_size=6),
).map(lambda label: f"_:{label}")
bad_bnodes = st.sampled_from(["_:", "_:a.b", "_:a:b", "_:a~", "_a"])

_GOOD_ESCAPES = ["\\t", "\\n", "\\r", '\\"', "\\\\", "\\u00e9", "\\u0041",
                 "\\U0001F600", "\\uFFFF", "\\U0010FFFF"]
# short, signed, spaced, underscored, non-hex, out of range, surrogate,
# unknown, dangling
_BAD_ESCAPES = ["\\u12", "\\u+0aB", "\\u 1ab", "\\u1_ab", "\\u00g1", "\\UFFFFFFFF",
                "\\U00110000", "\\uD800", "\\x41", "\\"]
_PLAIN_TEXT = st.text(alphabet="ab 1é東.#<>@^_:\t", min_size=1, max_size=5)


def lexical(escapes):
    return st.lists(
        st.one_of(_PLAIN_TEXT, _PLAIN_TEXT, st.sampled_from(escapes)), max_size=4
    ).map("".join)


tags = st.one_of(
    st.text(alphabet="enUS019-", min_size=1, max_size=6),
    st.text(alphabet="en-" + _NON_ASCII, min_size=1, max_size=4),
)
literals = st.one_of(
    st.builds(lambda lex: f'"{lex}"', lexical(_GOOD_ESCAPES)),
    st.builds(lambda lex, tag: f'"{lex}"@{tag}', lexical(_GOOD_ESCAPES), tags),
    st.builds(lambda lex, dt: f'"{lex}"^^{dt}', lexical(_GOOD_ESCAPES), uris),
)
bad_literals = st.one_of(
    st.builds(lambda lex: f'"{lex}"', lexical(_BAD_ESCAPES).filter(bool)),
    st.builds(
        lambda tag: f'"x"@{tag}', st.sampled_from(["", "en_US", "en.x", "en@x"])
    ),
    st.sampled_from(['"x"^^<>', '"x"^<a:d>', '"unterminated', '"x"^^"y"', '"x\udc00"']),
)

#: One (well formed, near miss) pair of strategies per slot of a line.
_SLOTS = [
    (st.sampled_from(["", " ", "\t"]), st.sampled_from(["\x0b", "\x0c "])),
    (st.one_of(uris, bnodes), st.one_of(bad_uris, bad_bnodes, st.just('"lit"'))),
    (st.sampled_from(["", " ", "\t", "  ", " \t "]), st.just("\x0b")),
    (uris, st.one_of(bad_uris, bnodes)),
    (st.sampled_from(["", " ", "\t", "  ", " \t "]), st.just("\x0b")),
    (st.one_of(uris, bnodes, literals, literals), st.one_of(bad_uris, bad_bnodes, bad_literals)),
    (st.sampled_from(["", " ", "\t"]), st.just("\x0b")),
    (
        st.sampled_from([".", ". ", ".#c", ". # c", ".\t#c", ". \x0b#c", ". #"]),
        st.sampled_from([". x", "..", "", ". .#", ".x#"]),
    ),
    (st.sampled_from(["", " ", "\t"]), st.sampled_from(["\x0b", "\x85"])),
]


@st.composite
def lines(draw):
    parts = [draw(good) for good, _ in _SLOTS]
    for slot in draw(st.lists(st.integers(0, len(_SLOTS) - 1), max_size=2)):
        parts[slot] = draw(_SLOTS[slot][1])
    return "".join(parts)


documents = st.lists(
    st.one_of(lines(), lines(), lines(), st.sampled_from(["", "# comment", "   "])),
    min_size=1,
    max_size=4,
).map("\n".join)


def _non_ascii_label_or_tag(triple: Triple) -> bool:
    for term in triple:
        if isinstance(term, BNode) and not term.label.isascii():
            return True
        if isinstance(term, Literal) and not (term.language or "").isascii():
            return True
    return False


@given(documents)
@settings(max_examples=600, deadline=None)
def test_line_pattern_agrees_with_the_scanner(document):
    scanned = []
    real_scan = ntriples._scan_line

    def spy(line, number):
        triple = real_scan(line, number)
        scanned.append(triple)
        return triple

    with mock.patch.object(ntriples, "_scan_line", spy):
        fast = outcome(document)
    with scanner_only():
        reference = outcome(document)
    assert fast == reference, document
    # The scanner stays the one reader of non-ASCII labels and tags: the
    # pattern's classes are ASCII, so such a line never matches it.
    if fast[0] == "ok":
        for triple in parse_ntriples(document):
            if _non_ascii_label_or_tag(triple):
                assert any(triple == seen for seen in scanned), document


@pytest.mark.parametrize(
    "line",
    [
        "<a:s><a:p><a:o>.",
        "<a:s>\t<a:p>\t\"v\"@en-GB\t.\t# tab separated",
        '_:b1 <a:p> "x"^^<x:int>.#c',
        '<a b> <a:p> "quote \' and # hash" .',
        '_:é <a:p> "v"@de .',
        '<a:s> <a:p> "v"@日本 .',
        '<a:s> <a:p> "\\u00e9" .',
        "<a:s> <a:p> <a:o> . \x0b# comment",
    ],
)
def test_line_shapes_agree_with_the_scanner(line):
    fast = outcome(line)
    with scanner_only():
        assert outcome(line) == fast
    assert fast[0] == "ok"


@pytest.mark.parametrize(
    "line",
    [
        "<> <a:p> <a:o> .",
        "<a:s> <> <a:o> .",
        "<a:s> <a:p> <> .",
        '<a:s> <a:p> "x"@ .',
        '<a:s> <a:p> "x"^^<> .',
        "_: <a:p> <a:o> .",
        "<a:s> <a:p> <a:o> \x0b.",
        '<a:s> <a:p> "x"@en_US .',
        '<a:s> <a:p> "x\ud800" .',  # a raw surrogate, wherever it sits
        "<a:s\udfff> <a:p> <a:o> .",
        "<a:s> <a:p> <a:o> . #\udc00",
    ],
)
def test_near_misses_are_errors_on_both_paths(line):
    assert outcome(line) == ("error", 1)
    with scanner_only():
        assert outcome(line) == ("error", 1)


def test_more_uris_than_the_memo_holds(monkeypatch):
    """A document with more distinct URIs than the memo's bound parses
    to the scanner's triples; within the bound a repeated URI is one
    object."""
    monkeypatch.setattr(ntriples, "URI_MEMO_SIZE", 8)
    document = "".join(
        f'<ex:s{i}> <ex:p{i % 3}> <ex:o{i % 20}> .\n<ex:s{i}> <ex:name> "n{i}"@en .\n'
        for i in range(100)
    )
    parsed = list(parse_ntriples(document))
    with scanner_only():
        assert parsed == list(parse_ntriples(document))
    assert len(parsed) == 200 and len({t.subject for t in parsed}) == 100
    first, second = parsed[:2]
    assert first.subject is second.subject

    monkeypatch.setattr(ntriples, "URI_MEMO_SIZE", 1 << 16)
    shared = list(parse_ntriples(document))
    assert len({id(t.predicate) for t in shared}) == 4
    assert len({id(t.object) for t in shared[::2]}) == 20
    assert all(isinstance(t.subject, URI) for t in shared)
