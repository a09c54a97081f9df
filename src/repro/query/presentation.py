"""One presentation pass: a query's four renderings, each term read once.

A computed query is shown four ways — Definition 2's notation, SPARQL
(Fig. 1c), an English gloss (Section VII's demo) and the renaming-invariant
signature — all made of the same dozen terms.  :func:`term_text` resolves a
term to every surface form it has; :func:`render` walks the atoms once and
assembles the three atom-order renderings; :func:`form_signature` reads the
canonical form through the same table.  ``str(ConjunctiveQuery)``,
``to_sparql``, ``verbalize`` and ``query_signature`` are readers of this
module, so every rendering rule is written here and nowhere else.

The term-text table is module-level and bounded.  A term's texts are a pure
function of an immutable value, so nothing invalidates an entry; the table
is cleared when it reaches its cap.  Plain dict get/set: two threads that
miss together compute equal tuples and either store wins.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.rdf.namespace import SUBCLASS_PREDICATES, TYPE_PREDICATES, local_name
from repro.rdf.terms import URI, Literal, Variable

#: term -> (name, n3, spoken, words); see :func:`term_text`.
_TERM_TEXT: dict = {}
_TERM_TEXT_CAP = 4096


def humanize(label: str) -> str:
    """camelCase / snake_case predicate names to spaced words."""
    out = []
    for ch in label:
        if ch.isupper() and out and out[-1] != " ":
            out.append(" ")
            out.append(ch.lower())
        elif ch == "_":
            out.append(" ")
        else:
            out.append(ch)
    return "".join(out)


def term_text(term) -> Tuple[str, str, str, Optional[str]]:
    """Every surface form of a variable or constant:

    * ``name`` — in Definition 2's notation: ``?x``, a URI's local name, a
      literal's quoted lexical form;
    * ``n3`` — in SPARQL and in signatures: ``?x``, ``<iri>``, N3 literal;
    * ``spoken`` — as an argument of an English clause;
    * ``words`` — a URI read as a predicate (``worksAt`` → ``works at``).
    """
    entry = _TERM_TEXT.get(term)
    if entry is None:
        n3 = term.n3()
        if isinstance(term, Variable):
            entry = (n3, n3, f"something ({n3})", None)
        elif isinstance(term, URI):
            name = local_name(term)
            entry = (name, n3, name, humanize(name))
        elif isinstance(term, Literal):
            entry = (repr(term.lexical), n3, f"'{term.lexical}'", None)
        else:
            entry = (str(term), n3, str(term), None)
        if len(_TERM_TEXT) >= _TERM_TEXT_CAP:
            _TERM_TEXT.clear()
        _TERM_TEXT[term] = entry
    return entry


def render(query, pretty: bool = True) -> Tuple[str, str, str]:
    """``(str(query), to_sparql(query, pretty), verbalize(query))``."""
    get = _TERM_TEXT.get
    head = [(get(v) or term_text(v))[0] for v in query.distinguished]
    names: Dict[str, None] = {}  # every variable, in first-occurrence order
    body: List[str] = []
    patterns: List[str] = []
    # English: per variable (in the order the gloss first mentions it) the
    # classes it is "a ..." of and the clauses said about it.
    spoken: Dict[str, Tuple[List[str], List[str]]] = {}
    ground: List[str] = []
    for atom in query.atoms:
        pred, arg1, arg2 = atom.predicate, atom.arg1, atom.arg2
        p = get(pred) or term_text(pred)
        s = get(arg1) or term_text(arg1)
        o = get(arg2) or term_text(arg2)
        body.append(f"{p[0]}({s[0]}, {o[0]})")
        patterns.append(f"{s[1]} {p[1]} {o[1]} .")
        variable1 = type(arg1) is Variable
        variable2 = type(arg2) is Variable
        if variable1:
            names[s[0]] = None
        if variable2:
            names[o[0]] = None
        # What the gloss says, and about which variable; a clause of None
        # is class membership ("a Publication").
        about = clause = None
        if variable1:
            about = s[0]
            if pred in SUBCLASS_PREDICATES:
                clause = f"is a kind of {o[2]}"
            elif pred not in TYPE_PREDICATES:
                clause = f"whose {p[3]} is {o[2]}"
        elif pred in SUBCLASS_PREDICATES:
            if not variable2:
                ground.append(f"{s[2]} is a kind of {o[2]}")
            continue
        elif variable2:
            about, clause = o[0], f"is the {p[3]} of {s[2]}"
        else:
            ground.append(f"{o[2]} is the {p[3]} of {s[2]}")
            continue
        said = spoken.get(about)
        if said is None:
            said = spoken[about] = ([], [])
        if clause is None:
            said[0].append(o[2])
        else:
            said[1].append(clause)

    chosen = set(head)
    prefix = f"({', '.join(head)})."
    if len(names) != len(chosen):
        prefix += " ∃" + ",".join(n for n in names if n not in chosen) + "."
    query_text = f"{prefix} {' ∧ '.join(body)}"

    # A query that binds nothing asks whether its pattern holds.
    opening = f"SELECT {' '.join(head)} WHERE" if head else "ASK"
    if pretty:
        sparql = "%s {\n  %s\n}" % (opening, "\n  ".join(patterns))
    else:
        sparql = "%s { %s }" % (opening, " ".join(patterns))

    sentences = []
    for name, (classes, clauses) in spoken.items():
        parts = ["a " + " and ".join(classes)] if classes else []
        parts.extend(clauses)
        lead = f"Find {name}" if name in chosen else f"where {name} is"
        sentences.append(f"{lead}, {', '.join(parts)}")
    if sentences:
        text = ". ".join(sentences) + "."
    elif ground and not names:
        text = "Check that " + " and ".join(ground) + "."
    else:
        text = "Find all matches."
    return query_text, sparql, text


def form_signature(form) -> str:
    """:func:`~repro.quality.signatures.query_signature` of a query whose
    ``canonical_form`` is ``form``.

    The signature is the sorted ``repr`` of the form's atoms, made stable
    across releases: an atom is ``(predicate, key, key)`` and a key either
    ``("var", occurrences)`` — strs, ints and tuples only, whose ``repr``
    is stable as it is — or ``("const", term)``, where the term (whose
    ``repr`` is not guaranteed) becomes ``("term", n3)``.  A variable's
    key embeds its whole occurrence list and recurs in every atom the
    variable occurs in, so each distinct key is rendered once per query.
    """
    rendered: Dict[object, str] = {}
    atoms = []
    for predicate, key1, key2 in form:
        text1 = rendered.get(key1)
        if text1 is None:
            text1 = rendered[key1] = _key_text(key1)
        text2 = rendered.get(key2)
        if text2 is None:
            text2 = rendered[key2] = _key_text(key2)
        atoms.append(f"({predicate!r}, {text1}, {text2})")
    atoms.sort()
    return "cq:" + ";".join(atoms)


def _key_text(key) -> str:
    kind, value = key
    if kind == "const":
        return f"('const', ('term', {term_text(value)[1]!r}))"
    return repr(key)


def present(query, form) -> Dict[str, str]:
    """The four renderings a candidate is presented with, in payload order;
    ``form`` is ``canonical_form(query)``."""
    query_text, sparql, text = render(query)
    return {
        "query": query_text,
        "signature": form_signature(form),
        "sparql": sparql,
        "text": text,
    }
