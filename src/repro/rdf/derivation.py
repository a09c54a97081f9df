"""What one triple contributes to the summary graph and the keyword index.

Both are functions of the data graph, derived once, here, as plain
functions over keys (terms, or the bundle builder's term ids; ``None``
stands for Thing, the class of an untyped entity).  Three consumers feed
them in whatever order their input arrives — the constructors, the
builder's pass B, and incremental maintenance with deltas of -1 and +1 —
and no reader depends on that order.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.rdf.namespace import LABEL_PREDICATES, local_name
from repro.rdf.terms import Literal, URI

#: The keyword index's element kinds, the first half of an element key.
CLASS, RELATION, ATTRIBUTE, VALUE = "class", "relation", "attribute", "value"

_THING = (None,)
_LABEL_RANK = {predicate: rank for rank, predicate in enumerate(LABEL_PREDICATES)}


def label_key(predicate, value) -> Optional[Tuple[int, str]]:
    """What an A-edge offers as its subject's label — ``(rank, lexical
    form)``, ``None`` unless its predicate is a label predicate.  The
    smallest key is the label: the literal of the best-ranked label
    predicate, a tie going to the smallest lexical form, whatever order
    the triples came in."""
    rank = _LABEL_RANK.get(predicate)
    return None if rank is None else (rank, value.lexical)


def best_label(edges: Iterable[Tuple[object, Literal]]) -> Optional[str]:
    """The label one subject's ``(predicate, literal)`` A-edges give it
    under :func:`label_key`, or ``None``."""
    key = min(filter(None, (label_key(p, o) for p, o in edges)), default=None)
    return None if key is None else key[1]


def count_projections(counts: Dict, predicate, source_types, target_types, delta=1) -> None:
    """Definition 4: add ``delta`` to each ``(predicate, source class,
    target class)`` projection of one R-edge whose endpoints have these
    types (none: Thing)."""
    for sc in source_types or _THING:
        for tc in target_types or _THING:
            key = (predicate, sc, tc)
            counts[key] = counts.get(key, 0) + delta


def adjust_contexts(
    attribute_refs: Dict, value_refs: Dict, label, value, subject_types, delta: int
) -> List[Tuple[Hashable, bool, bool]]:
    """Section IV-A: one A-edge's class-context delta — once per class of
    its subject under its ``label``, once per ``(label, class)`` under its
    ``value`` (``{element: {member: refcount}}`` maps).  Returns
    ``(element key, existed, exists)`` per element whose member *set*
    changed: a count moving between two positive values changes nothing
    a match carries."""
    classes = subject_types or _THING
    changed = []
    for kind, refs, element, members in (
        (ATTRIBUTE, attribute_refs, label, classes),
        (VALUE, value_refs, value, [(label, cls) for cls in classes]),
    ):
        group = refs.setdefault(element, {})
        existed = bool(group)
        moved = False
        for member in members:
            before = group.get(member, 0)
            count = before + delta
            if count > 0:
                group[member] = count
            else:
                group.pop(member, None)
            moved |= (before > 0) != (count > 0)
        if not group:
            del refs[element]
        if moved:
            changed.append(((kind, element), existed, bool(group)))
    return changed


def display_label(term, label: Optional[str] = None) -> str:
    """The text a term is shown and analysed under: its ``label`` if it
    has one, else a literal's lexical form or a URI's local name."""
    if label is not None:
        return label
    if isinstance(term, Literal):
        return term.lexical
    return local_name(term) if isinstance(term, URI) else str(term)


def element_text(kind: str, term, label_of: Callable[[object], Optional[str]]) -> str:
    """The text an indexed element is analysed under: a class's display
    label is ``label_of(term)`` (``None`` for none)."""
    return display_label(term, label_of(term) if kind == CLASS else None)


def indexed_elements(
    classes: Iterable, relation_labels: Iterable, attribute_labels: Iterable,
    values: Iterable, label_of: Callable[[object], Optional[str]],
) -> Iterator[Tuple[str, object, str]]:
    """Section IV-A: ``(kind, term, text)`` per keyword-index element —
    C-vertices, R- and A-edge labels, V-vertices; never E-vertices."""
    for kind, terms in (
        (CLASS, classes), (RELATION, relation_labels),
        (ATTRIBUTE, attribute_labels), (VALUE, values),
    ):
        for term in terms:
            yield kind, term, element_text(kind, term, label_of)
