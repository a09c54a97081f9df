"""The keyword-element map ``f : keyword → 2^(V_C ⊎ V_V ⊎ E)`` (Section IV-A).

Keywords are matched against the labels of C-vertices, V-vertices and edge
labels — *not* E-vertices, which the paper deliberately omits ("the user will
enter keywords corresponding to attribute values … rather than the verbose
URI").  Matching is imprecise: exact analyzed-term hits, synonym/hypernym
expansion through the lexicon, and Levenshtein-bounded fuzzy hits all
contribute, and each match carries the score ``sm(n) ∈ (0, 1]`` that the C3
cost function divides by (Section V).

Matches for V-vertices and A-edges carry the neighbor structures the paper
requires for on-the-fly augmentation (Definition 5):

* ``ValueMatch`` — ``[V-vertex, A-edge, (C-vertex_1..n)]``
* ``AttributeMatch`` — ``[A-edge, (C-vertex_1..n)]``

where ``None`` in a class set denotes "untyped" and augmentation maps it to
the summary graph's ``Thing`` vertex.
"""

from __future__ import annotations

import heapq
import threading
from collections import Counter, OrderedDict
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.util import cache_stats_shape, now

from repro.keyword.analysis import DEFAULT_ANALYZER, TERM_ALPHABET
from repro.keyword.inverted_index import InvertedIndex, Posting
from repro.keyword.levenshtein import similarity
from repro.keyword.synonyms import DEFAULT_LEXICON
from repro.rdf.derivation import (
    ATTRIBUTE,
    CLASS,
    RELATION,
    VALUE,
    adjust_contexts,
    element_text,
    indexed_elements,
)
from repro.rdf.graph import DataGraph, VertexKind
from repro.rdf.namespace import local_name
from repro.rdf.terms import Literal, Term, URI


class KeywordMatch:
    """Base class for keyword-element matches; ``score`` is ``sm(n)``."""

    __slots__ = ("score",)

    def __init__(self, score: float):
        object.__setattr__(self, "score", float(score))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def element_key(self) -> Hashable:
        """A hashable identity for the matched graph element."""
        raise NotImplementedError


class ClassMatch(KeywordMatch):
    """The keyword names a C-vertex (a class)."""

    __slots__ = ("cls",)

    def __init__(self, cls: Term, score: float):
        super().__init__(score)
        object.__setattr__(self, "cls", cls)

    @property
    def element_key(self) -> Hashable:
        return ("class", self.cls)

    def __repr__(self):
        return f"ClassMatch({self.cls}, score={self.score:.3f})"


class RelationMatch(KeywordMatch):
    """The keyword names an R-edge label (a relation predicate)."""

    __slots__ = ("label",)

    def __init__(self, label: URI, score: float):
        super().__init__(score)
        object.__setattr__(self, "label", label)

    @property
    def element_key(self) -> Hashable:
        return ("relation", self.label)

    def __repr__(self):
        return f"RelationMatch({local_name(self.label)}, score={self.score:.3f})"


class AttributeMatch(KeywordMatch):
    """The keyword names an A-edge label; carries ``[A-edge, (C-vertices)]``.

    ``classes`` holds every class whose instances carry this attribute
    (``None`` = untyped / Thing), per the paper's augmentation structure.
    """

    __slots__ = ("label", "classes")

    def __init__(self, label: URI, classes: FrozenSet[Optional[Term]], score: float):
        super().__init__(score)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "classes", frozenset(classes))

    @property
    def element_key(self) -> Hashable:
        return ("attribute", self.label)

    def __repr__(self):
        return f"AttributeMatch({local_name(self.label)}, score={self.score:.3f})"


class ValueMatch(KeywordMatch):
    """The keyword matches a V-vertex; carries ``[V-vertex, A-edge, (C..)]``.

    ``occurrences`` lists the distinct ``(A-edge label, subject class)``
    contexts the literal occurs in (class ``None`` = untyped / Thing).
    """

    __slots__ = ("value", "occurrences")

    def __init__(
        self,
        value: Literal,
        occurrences: FrozenSet[Tuple[URI, Optional[Term]]],
        score: float,
    ):
        super().__init__(score)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "occurrences", frozenset(occurrences))

    @property
    def element_key(self) -> Hashable:
        return ("value", self.value)

    def __repr__(self):
        return f"ValueMatch({self.value.lexical!r}, score={self.score:.3f})"


#: The best-scoring elements a lookup keeps per keyword: the branching
#: factor of the exploration that follows.
MAX_MATCHES_PER_KEYWORD = 8

#: How many keywords' matches the lookup memo keeps (LRU).
LOOKUP_CACHE_SIZE = 1024


def _deletion_keys(term: str) -> Iterator[int]:
    """Hashes of the term and of the term minus one character, made one at
    a time: strings within one edit of each other share one such key."""
    yield hash(term)
    for i in range(len(term)):
        yield hash(term[:i] + term[i + 1 :])


class LookupMemo:
    """keyword → match tuple, LRU-bounded, invalidated by dependency.

    An entry records what its result was computed from: per keyword term
    its *acceptance set* (the term and its lexicon relatives, whose
    posting lists gave its candidates; empty for a term that fell back to
    its one-edit neighbours), the element keys whose class contexts its
    matches carry, and its fuzzy terms' *keys*.  A score reads only
    per-term match factors and label lengths, so a posting change can
    move an entry only through the one element whose postings changed.
    :meth:`invalidate` therefore drops an entry that read a changed
    posting list only when

    (a) the element's label terms (old ∪ new) meet every acceptance set:
        the element is, or was, in the keyword's intersection;
    (b) the changed term has no live posting left: a keyword term may
        have lost its last candidate, and its fuzzy fallback may now run;

    and an entry when a changed label term reaches a key: a term its
    fuzzy term read (a first posting ends the fallback), or one of its
    :func:`_deletion_keys` (a hash collision only drops an entry more).
    An element (class-context) mark drops every entry that depends on it.
    The reverse maps name only what live entries hold, so their size is
    bounded by ``maxsize`` × what one entry holds, however many terms the
    index has seen come and go.

    A *hit* is a list served without recomputation, a *miss* a
    recomputation, ``invalidated`` counts entries dropped by updates
    (not by the LRU bound).  Thread-safe like :class:`~repro.util.LruDict`.
    """

    def __init__(self, maxsize: int):
        self._lock = threading.Lock()
        #: keyword -> (matches, dependencies, acceptance sets, keys)
        self._entries: "OrderedDict[str, Tuple[tuple, tuple, tuple, tuple]]" = OrderedDict()
        self._dependents: Dict[Hashable, Set[str]] = {}
        self._keyed: Dict[int, Set[str]] = {}
        #: No fuzzy term memoized is longer (a high-water mark), so a label
        #: term longer by two has no deletion worth forming.
        self._key_length = 0
        self.maxsize = maxsize
        #: Advances with every invalidation; :meth:`put` refuses a result
        #: computed before the latest one (it may predate the change).
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.invalidated = 0

    def __len__(self) -> int:
        return len(self._entries)

    def hit(self, keyword: str) -> Optional[tuple]:
        """The memoized matches, refreshed as most-recent; None on a miss."""
        with self._lock:
            entry = self._entries.get(keyword)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(keyword)
            return entry[0]

    def put(
        self,
        keyword: str,
        matches: tuple,
        accepted: Sequence[FrozenSet],
        elements: Iterable[Hashable],
        generation: int,
        fuzzy: Sequence[Tuple[str, FrozenSet[str]]] = (),
    ) -> None:
        """Memoize a result computed at ``generation`` from the posting
        lists of the ``accepted`` sets (one per keyword term), the class
        contexts of ``elements`` and the neighbourhoods of the ``fuzzy``
        terms (each with the terms it read); evicts beyond the bound."""
        dependencies = (*frozenset().union(*accepted), *elements)
        keys = set()
        for term, read in fuzzy:
            keys.update(map(hash, read), _deletion_keys(term))
        with self._lock:
            if generation != self.generation:
                return
            self._drop(keyword)  # two threads may have computed it at once
            self._entries[keyword] = (matches, dependencies, tuple(accepted), tuple(keys))
            for dependency in dependencies:
                self._dependents.setdefault(dependency, set()).add(keyword)
            for key in keys:
                self._keyed.setdefault(key, set()).add(keyword)
            self._key_length = max([self._key_length, *(len(term) for term, _ in fuzzy)])
            while len(self._entries) > self.maxsize:
                self._drop(next(iter(self._entries)))

    def invalidate(
        self,
        labels: Iterable[FrozenSet[str]],
        elements: Iterable[Hashable],
        live: Callable[[str], bool],
    ) -> None:
        """Drop what one maintenance step may have changed: ``labels``
        holds, per element whose postings changed, its label terms old ∪
        new (each names a changed posting list), ``elements`` the
        elements whose class contexts changed, and ``live(term)`` says
        whether a term still has a live posting.  The drop rules are the
        class docstring's."""
        with self._lock:
            self.generation += 1
            dependents, entries, keyed = self._dependents, self._entries, self._keyed
            doomed: Set[str] = set()
            for label in labels:
                for term in label:
                    keywords = dependents.get(term, ())
                    if keywords and not live(term):
                        doomed.update(keywords)
                    else:  # rule (a): meets every acceptance set
                        doomed.update(
                            keyword for keyword in keywords
                            if not any(map(label.isdisjoint, entries[keyword][2]))
                        )
                    if keyed:  # no deletion of a longer term is a key
                        near = len(term) <= self._key_length + 1
                        for key in _deletion_keys(term) if near else (hash(term),):
                            doomed.update(keyed.get(key, ()))
            for element in elements:
                doomed.update(dependents.get(element, ()))
            for keyword in doomed:
                self._drop(keyword)
            self.invalidated += len(doomed)

    def _drop(self, keyword: str) -> None:
        entry = self._entries.pop(keyword, None)
        if entry is None:
            return
        for reverse, links in ((self._dependents, entry[1]), (self._keyed, entry[3])):
            for link in links:
                keywords = reverse[link]
                keywords.discard(keyword)
                if not keywords:
                    del reverse[link]

    def cache_stats(self) -> Dict[str, float]:
        """The ``/stats`` cache shape plus ``invalidated``."""
        with self._lock:
            stats = cache_stats_shape(
                len(self._entries), self.maxsize, self.hits, self.misses
            )
            stats["invalidated"] = self.invalidated
            return stats


def _one_edit_neighbours(term: str) -> Iterator[str]:
    """Every string one insertion, deletion or substitution over
    :data:`~repro.keyword.analysis.TERM_ALPHABET` away from ``term``, each
    once, made one at a time."""
    for i in range(len(term) + 1):
        head, tail, rest = term[:i], term[i : i + 1], term[i + 1 :]
        # Inserting c before an equal character is inserting it after; the
        # deletions of a double letter are one string.
        yield from (head + c + tail + rest for c in TERM_ALPHABET if c != tail)
        if tail and head[-1:] != tail:
            yield head + rest
        yield from (head + c + rest for c in TERM_ALPHABET if tail and c != tail)


class KeywordIndex:
    """The IR engine over element labels: build once, look keywords up fast.

    Parameters
    ----------
    graph:
        The data graph whose C-vertices, V-vertices, and edge labels are
        indexed.  Labels and keywords go through the one analysis chain
        (:data:`~repro.keyword.analysis.DEFAULT_ANALYZER`:
        tokenize+stopwords+Porter) and the bundled offline lexicon
        (:data:`~repro.keyword.synonyms.DEFAULT_LEXICON`).

    A lookup keeps the :data:`MAX_MATCHES_PER_KEYWORD` best elements,
    falls back to the vocabulary terms one edit away when nothing else
    matches, and is memoized in a :class:`LookupMemo` of
    :data:`LOOKUP_CACHE_SIZE` keywords.  None of the three is a setting:
    a bundle records none of them.
    """

    def __init__(self, graph: DataGraph):
        self._graph = graph

        #: Monotone mutation counter: the index half of the snapshot key
        #: (and so of the engine's result-memo key).
        self.version: int = 0
        self._lookup_cache = LookupMemo(LOOKUP_CACHE_SIZE)

        self._index = InvertedIndex()
        # Attribute label -> {subject class (None = untyped): refcount}.
        # The refcounts make class-context maintenance delta-bounded: one
        # attribute triple or one retyped entity adjusts a handful of
        # counters instead of rescanning the predicate's triples.
        self._attribute_class_refs: Dict[URI, Dict[Optional[Term], int]] = {}
        # V-vertex -> {(attribute label, subject class or None): refcount}.
        self._value_occurrence_refs: Dict[
            Literal, Dict[Tuple[URI, Optional[Term]], int]
        ] = {}

        started = now()
        for kind, element, text in indexed_elements(
            graph.classes,
            graph.relation_labels,
            graph.attribute_labels,
            graph.values,
            graph.label_of,
        ):
            self._index.index((kind, element), DEFAULT_ANALYZER.analyze(text))
        # One pass over all A-edges seeds the class-context refcounts.
        refs = self._attribute_class_refs, self._value_occurrence_refs
        for t in graph.attribute_triples():
            adjust_contexts(*refs, t.predicate, t.object, graph.types_of(t.subject), +1)
        self.build_seconds = now() - started

    def _label_terms(self, kind: str, element) -> List[str]:
        return DEFAULT_ANALYZER.analyze(
            element_text(kind, element, self._graph.label_of)
        )

    # ------------------------------------------------------------------
    # Incremental maintenance (used by repro.maintenance.IndexManager)
    # ------------------------------------------------------------------
    #
    # ``refresh_*`` re-derives one element's postings from the *already
    # updated* data graph; when they come out as they are (a ``type``
    # triple refreshes its class, whose label did not move) no posting is
    # touched.  ``adjust_attribute_occurrence`` applies a class-context
    # delta for one A-edge incidence — a few counter updates, so
    # maintenance cost is bounded by the delta, never by how many triples
    # share the predicate or the value.
    #
    # Every call advances ``version`` (the snapshot key must move with
    # every applied batch) but marks for the lookup memo only what it
    # changed: per element whose postings differ, its label terms old ∪
    # new (the posting lists that changed), and the elements whose
    # class-context key set differs.

    def refresh_class(self, cls: Term) -> None:
        self._refresh(
            (CLASS, cls), self._graph.vertex_kind(cls) is VertexKind.CLASS
        )

    def refresh_relation_label(self, label: URI) -> None:
        self._refresh((RELATION, label), self._graph.has_relation_label(label))

    def _refresh(self, key: Hashable, exists: bool) -> None:
        """Make ``key``'s postings what its label analyzes to now (none
        when the element is gone).

        The comparison reads the element's own record (``posted_counts``,
        O(|label|) on either index): same terms with the same counts means
        the same ``(tf, label_terms)`` rows, so nothing is rewritten and
        nothing is marked.
        """
        self.version += 1
        terms = self._label_terms(*key) if exists else []
        posted = self._index.posted_counts(key)
        if posted == Counter(terms):
            return
        if posted:
            self._index.unindex(key)
        if terms:
            self._index.index(key, terms)
        self._invalidate([frozenset({*posted, *terms})])

    def adjust_attribute_occurrence(
        self,
        label: URI,
        value: Literal,
        classes: FrozenSet[Optional[Term]],
        delta: int,
    ) -> None:
        """Apply one A-edge incidence delta under the subject's classes.

        ``classes`` must be the subject's types at the moment the
        incidence was (or is being) counted: current types for additions,
        the pre-update snapshot for removals/retypings.  Postings for the
        attribute label and the value toggle with their existence.
        """
        self.version += 1
        labels = []
        elements = []
        refs = self._attribute_class_refs, self._value_occurrence_refs
        for key, existed, exists in adjust_contexts(*refs, label, value, classes, delta):
            elements.append(key)
            if exists and not existed:
                label_terms = self._label_terms(*key)
                self._index.index(key, label_terms)
                labels.append(frozenset(label_terms))
            elif existed and not exists:
                labels.append(frozenset(self._index.posted_counts(key)))
                self._index.unindex(key)
        self._invalidate(labels, elements)

    def _invalidate(self, labels: List[FrozenSet[str]], elements=()) -> None:
        """Tell the lookup memo which postings and class contexts changed."""
        self._lookup_cache.invalidate(labels, elements, self._index.__contains__)

    # ------------------------------------------------------------------
    # Persistence (used by repro.storage)
    # ------------------------------------------------------------------

    @classmethod
    def from_state(
        cls,
        graph: DataGraph,
        inverted_index: InvertedIndex,
        attribute_class_refs: Dict[URI, Dict[Optional[Term], int]],
        value_occurrence_refs: Dict[Literal, Dict[Tuple[URI, Optional[Term]], int]],
        *,
        version: int,
        build_seconds: float,
    ) -> "KeywordIndex":
        """Reconstitute an index around restored postings and refcounts.

        The mutation ``version`` is carried over so the restored index's
        :attr:`snapshot_key` equals the saved one, and the lookup memo
        starts cold.
        """
        index = cls.__new__(cls)
        index._graph = graph
        index.version = version
        index._lookup_cache = LookupMemo(LOOKUP_CACHE_SIZE)
        index._index = inverted_index
        index._attribute_class_refs = attribute_class_refs
        index._value_occurrence_refs = value_occurrence_refs
        index.build_seconds = build_seconds
        return index

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def snapshot_key(self) -> int:
        """The formal snapshot key of this index: its mutation version.

        :class:`~repro.core.snapshot.EngineSnapshot` pins it (paired
        with the summary graph's key) as the identity of one engine
        state; it advances on every maintenance call, whether or not a
        posting changed.
        """
        return self.version

    def cache_stats(self) -> Dict[str, float]:
        """Hit/miss statistics of the lookup memo (service ``/stats``)."""
        return self._lookup_cache.cache_stats()

    @property
    def index_tier(self) -> str:
        """Serving tier of the underlying inverted index (memory/mmap)."""
        return getattr(self._index, "tier", "memory")

    def lookup(self, keyword: str) -> List[KeywordMatch]:
        """All elements matching a keyword, best score first.

        A keyword may analyze to several terms (e.g. ``"x-media"``); an
        element matches only if *every* keyword term matches its label, and
        the score combines per-term match quality with a coverage penalty
        for labels longer than the keyword (the paper's TF/IDF remark).

        Results are memoized per keyword (LRU, :data:`LOOKUP_CACHE_SIZE`
        entries) with what they were computed from, and incremental
        maintenance drops an entry only when a change can reach its
        answer (:class:`LookupMemo`).  So a stale list is never served,
        and an update that adds a value sharing one term with a
        multi-term keyword costs that keyword nothing.  Matches are
        immutable; each call returns a fresh list of the shared match
        objects.
        """
        memo = self._lookup_cache
        hit = memo.hit(keyword)
        if hit is not None:
            return list(hit)
        generation = memo.generation
        accepted: List[FrozenSet] = []
        fuzzy: List[Tuple[str, FrozenSet[str]]] = []
        matches = self._lookup_uncached(keyword, accepted, fuzzy)
        longest = self._index.max_term_length + 1
        if any(len(term) > longest for term, _ in fuzzy):
            return matches  # probed nothing: cheaper to redo than to key
        # Only A-edge and V-vertex matches read a class context.
        elements = [
            match.element_key
            for match in matches
            if isinstance(match, (AttributeMatch, ValueMatch))
        ]
        memo.put(keyword, tuple(matches), accepted, elements, generation, fuzzy)
        return matches

    def _lookup_uncached(
        self, keyword: str, accepted: Optional[list] = None, fuzzy: Optional[list] = None
    ) -> List[KeywordMatch]:
        """Compute the matches; ``accepted`` and ``fuzzy`` (when given)
        collect what :meth:`LookupMemo.put` takes of the same names."""
        accepted = [] if accepted is None else accepted
        fuzzy = [] if fuzzy is None else fuzzy
        terms = DEFAULT_ANALYZER.analyze_unique(keyword)
        if not terms:
            return []

        # posting handle -> (best factor, label length), per keyword term.
        # A handle names one element whichever term's postings it came
        # from, so scoring and intersecting never decode an element.
        per_term = [self._term_candidates(term, accepted, fuzzy) for term in terms]

        # Intersect: every term must match.
        common = set(per_term[0])
        for candidates in per_term[1:]:
            common &= set(candidates)

        scored: List[Tuple[float, Hashable]] = []
        for handle in common:
            factor_product = 1.0
            label_terms = 1
            for candidates in per_term:
                factor, label_len = candidates[handle]
                factor_product *= factor
                label_terms = max(label_terms, label_len)
            base = factor_product ** (1.0 / len(terms))
            coverage = min(1.0, len(terms) / max(label_terms, 1))
            scored.append((max(1e-6, base * (coverage ** 0.5)), handle))

        # Select, then materialize only what is kept.  Equal scores
        # tie-break canonically (by element-key repr) so the result — and
        # the cutoff — does not depend on index insertion order;
        # incremental maintenance and a fresh rebuild must rank
        # identically.  The repr reads a transient decode: thousands of
        # elements can tie at the cutoff, and only the kept ones are
        # decoded for good.
        peek = self._index.peek_element

        def canonical(pair: Tuple[float, Hashable]) -> str:
            return repr(peek(pair[1]))

        limit = MAX_MATCHES_PER_KEYWORD
        tied: List[Tuple[float, Hashable]] = []
        if len(scored) > limit:
            # Fewer than ``limit`` score above the limit-th best; the
            # ties at it fill the rest in canonical order.
            floor = heapq.nlargest(limit, (score for score, _ in scored))[-1]
            above = [pair for pair in scored if pair[0] > floor]
            tied = heapq.nsmallest(
                limit - len(above),
                (pair for pair in scored if pair[0] == floor),
                key=canonical,
            )
            scored = above
        scored.sort(key=lambda pair: (-pair[0], canonical(pair)))
        element = self._index.element
        return [
            self._materialize(element(handle), score) for score, handle in scored + tied
        ]

    def _term_candidates(
        self, term: str, accepted: List[FrozenSet], fuzzy: List[Tuple[str, FrozenSet[str]]]
    ) -> Dict[Hashable, Tuple[float, int]]:
        """posting handle -> (best factor, label length) for one analyzed
        term, its acceptance set appended to ``accepted`` (and a fuzzy term
        to ``fuzzy``, with the terms it read)."""
        out: Dict[Hashable, Tuple[float, int]] = {}

        def _offer(postings: List[Posting], factor: float) -> None:
            for posting in postings:
                current = out.get(posting.element)
                if current is None or factor > current[0]:
                    out[posting.element] = (factor, posting.label_terms)

        lookup = self._index.lookup
        read = {term}
        _offer(lookup(term), 1.0)
        for related_term, rel_factor in DEFAULT_LEXICON.related(term):
            read.add(related_term)
            _offer(lookup(related_term), rel_factor)
        if out:
            accepted.append(frozenset(read))
            return out

        # The fuzzy fallback probes each string one edit away (an analyzed
        # term is spelt over TERM_ALPHABET, so no neighbour is missed).  A
        # term more than one character longer than any indexed has none.
        accepted.append(frozenset())
        fuzzy.append((term, frozenset(read)))
        if len(term) > self._index.max_term_length + 1:
            return out
        for neighbour in _one_edit_neighbours(term):
            postings = lookup(neighbour)
            if postings:
                _offer(postings, similarity(term, neighbour))
        return out

    def _materialize(self, key: Hashable, score: float) -> KeywordMatch:
        kind, element = key
        if kind == CLASS:
            return ClassMatch(element, score)
        if kind == RELATION:
            return RelationMatch(element, score)
        if kind == ATTRIBUTE:
            classes = frozenset(self._attribute_class_refs.get(element) or {None})
            return AttributeMatch(element, classes, score)
        if kind == VALUE:
            occurrences = frozenset(self._value_occurrence_refs.get(element, ()))
            return ValueMatch(element, occurrences, score)
        raise ValueError(f"unknown element kind {kind!r}")  # pragma: no cover

    def lookup_all(self, keywords: Sequence[str]) -> List[List[KeywordMatch]]:
        """Per-keyword match lists (the K_i sets of Algorithm 1's input)."""
        return [self.lookup(k) for k in keywords]

    def attribute_classes(self, label: URI) -> FrozenSet[Optional[Term]]:
        """The classes whose instances carry attribute ``label``."""
        return frozenset(self._attribute_class_refs.get(label, ()))

    def attribute_labels(self) -> FrozenSet[URI]:
        """All indexed A-edge labels."""
        return frozenset(self._attribute_class_refs)

    # ------------------------------------------------------------------
    # Statistics (Fig. 6b)
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return {
            "terms": self._index.term_count,
            "elements": self._index.element_count,
            "postings": self._index.posting_count,
            "estimated_bytes": self._index.estimated_bytes(),
            "build_seconds": self.build_seconds,
        }
