"""Unit tests for RDF terms."""

import pytest

from repro.rdf.terms import BNode, Literal, Term, URI, Variable
from repro.rdf.namespace import XSD


class TestURI:
    def test_value_round_trip(self):
        assert URI("http://example.org/a").value == "http://example.org/a"

    def test_equality_is_structural(self):
        assert URI("a:x") == URI("a:x")
        assert URI("a:x") != URI("a:y")

    def test_hash_consistent_with_equality(self):
        assert hash(URI("a:x")) == hash(URI("a:x"))
        assert len({URI("a:x"), URI("a:x"), URI("a:y")}) == 2

    def test_not_equal_to_other_term_kinds(self):
        assert URI("x") != Literal("x")
        assert URI("x") != BNode("x")

    def test_n3(self):
        assert URI("http://e/x").n3() == "<http://e/x>"

    def test_immutable(self):
        uri = URI("a:x")
        with pytest.raises(AttributeError):
            uri.value = "other"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            URI("")

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            URI(42)

    def test_kind_predicates(self):
        uri = URI("a:x")
        assert uri.is_uri
        assert not uri.is_literal
        assert not uri.is_bnode
        assert not uri.is_variable


class TestLiteral:
    def test_lexical(self):
        assert Literal("2006").lexical == "2006"

    def test_non_string_coerced(self):
        assert Literal(2006).lexical == "2006"

    def test_equality_includes_datatype(self):
        assert Literal("1") != Literal("1", datatype=XSD.integer)
        assert Literal("1", datatype=XSD.integer) == Literal("1", datatype=XSD.integer)

    def test_equality_includes_language(self):
        assert Literal("chat", language="fr") != Literal("chat")
        assert Literal("chat", language="fr") == Literal("chat", language="fr")

    def test_datatype_and_language_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=XSD.string, language="en")

    def test_n3_plain(self):
        assert Literal("abc").n3() == '"abc"'

    def test_n3_escapes(self):
        assert Literal('a"b\\c\nd').n3() == '"a\\"b\\\\c\\nd"'

    def test_n3_language(self):
        assert Literal("chat", language="fr").n3() == '"chat"@fr'

    def test_n3_datatype(self):
        rendered = Literal("1", datatype=XSD.integer).n3()
        assert rendered.startswith('"1"^^<')

    def test_immutable(self):
        lit = Literal("x")
        with pytest.raises(AttributeError):
            lit.lexical = "y"


class TestBNode:
    def test_explicit_label(self):
        assert BNode("n1") == BNode("n1")

    def test_fresh_labels_unique(self):
        assert BNode() != BNode()

    def test_n3(self):
        assert BNode("n1").n3() == "_:n1"


class TestVariable:
    def test_name(self):
        assert Variable("x").name == "x"

    def test_question_mark_stripped(self):
        assert Variable("?x") == Variable("x")

    def test_n3(self):
        assert Variable("x").n3() == "?x"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Variable("")

    def test_is_variable(self):
        assert Variable("x").is_variable
        assert not Variable("x").is_uri
