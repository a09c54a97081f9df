"""RDF terms: URIs, literals, blank nodes, and query variables.

Terms are immutable and hashable so they can serve as graph-vertex keys and
dictionary keys throughout the library.  ``Variable`` is included here (rather
than in the query package) because conjunctive-query atoms mix variables and
constants freely (Definition 2 of the paper).
"""

from __future__ import annotations

from typing import Optional


class Term:
    """Base class for all RDF terms.

    Subclasses are value objects: equality and hashing are structural, and
    instances are immutable after construction.
    """

    __slots__ = ()

    @property
    def is_uri(self) -> bool:
        return isinstance(self, URI)

    @property
    def is_literal(self) -> bool:
        return isinstance(self, Literal)

    @property
    def is_bnode(self) -> bool:
        return isinstance(self, BNode)

    @property
    def is_variable(self) -> bool:
        return isinstance(self, Variable)

    def n3(self) -> str:
        """Render the term in N-Triples / N3 surface syntax."""
        raise NotImplementedError


class URI(Term):
    """A URI reference identifying an entity, class, or predicate.

    >>> URI("http://example.org/Person").n3()
    '<http://example.org/Person>'
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise TypeError(f"URI value must be str, got {type(value).__name__}")
        if not value:
            raise ValueError("URI value must be non-empty")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("URI", value)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("URI is immutable")

    def __eq__(self, other):
        return isinstance(other, URI) and other.value == self.value

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"URI({self.value!r})"

    def __str__(self):
        return self.value

    def n3(self) -> str:
        return f"<{self.value}>"


class Literal(Term):
    """A data value (the paper's V-vertices carry literals as labels).

    Literals compare by lexical form plus datatype plus language tag, which is
    the RDF 1.1 notion of literal term equality.

    >>> Literal("2006").lexical
    '2006'
    """

    __slots__ = ("lexical", "datatype", "language", "_hash")

    def __init__(
        self,
        lexical: str,
        datatype: Optional[URI] = None,
        language: Optional[str] = None,
    ):
        if not isinstance(lexical, str):
            lexical = str(lexical)
        if datatype is not None and language is not None:
            raise ValueError("a literal cannot carry both datatype and language")
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)
        object.__setattr__(
            self, "_hash", hash(("Literal", lexical, datatype, language))
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Literal is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and other.lexical == self.lexical
            and other.datatype == self.datatype
            and other.language == self.language
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        parts = [repr(self.lexical)]
        if self.datatype is not None:
            parts.append(f"datatype={self.datatype!r}")
        if self.language is not None:
            parts.append(f"language={self.language!r}")
        return f"Literal({', '.join(parts)})"

    def __str__(self):
        return self.lexical

    #: Characters that must be \uXXXX-escaped beyond the named escapes:
    #: C0 controls plus the Unicode line boundaries str.splitlines honors.
    _UNSAFE = frozenset(
        chr(c) for c in range(0x20) if chr(c) not in "\t\n\r"
    ) | {"\x85", "\u2028", "\u2029"}

    def n3(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if not Literal._UNSAFE.isdisjoint(escaped):
            escaped = "".join(
                f"\\u{ord(ch):04x}" if ch in Literal._UNSAFE else ch
                for ch in escaped
            )
        if self.language is not None:
            return f'"{escaped}"@{self.language}'
        if self.datatype is not None:
            return f'"{escaped}"^^{self.datatype.n3()}'
        return f'"{escaped}"'


class BNode(Term):
    """A blank node: an entity without a global identifier."""

    __slots__ = ("label", "_hash")

    _counter = 0

    def __init__(self, label: Optional[str] = None):
        if label is None:
            BNode._counter += 1
            label = f"b{BNode._counter}"
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash(("BNode", label)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BNode is immutable")

    def __eq__(self, other):
        return isinstance(other, BNode) and other.label == self.label

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BNode({self.label!r})"

    def __str__(self):
        return f"_:{self.label}"

    def n3(self) -> str:
        return f"_:{self.label}"


class Variable(Term):
    """A query variable (``?x`` in SPARQL surface syntax)."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError("variable name must be a non-empty string")
        if name.startswith("?"):
            name = name[1:]
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Variable", name)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Variable is immutable")

    def __eq__(self, other):
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Variable({self.name!r})"

    def __str__(self):
        return f"?{self.name}"

    def n3(self) -> str:
        return f"?{self.name}"
