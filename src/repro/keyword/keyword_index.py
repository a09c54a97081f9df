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

import time
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.util import LruDict

from repro.keyword.analysis import Analyzer
from repro.keyword.inverted_index import InvertedIndex
from repro.keyword.levenshtein import levenshtein, similarity
from repro.keyword.synonyms import DEFAULT_LEXICON, SynonymLexicon
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

    def with_score(self, score: float) -> "KeywordMatch":
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

    def with_score(self, score: float) -> "ClassMatch":
        return ClassMatch(self.cls, score)

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

    def with_score(self, score: float) -> "RelationMatch":
        return RelationMatch(self.label, score)

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

    def with_score(self, score: float) -> "AttributeMatch":
        return AttributeMatch(self.label, self.classes, score)

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

    def with_score(self, score: float) -> "ValueMatch":
        return ValueMatch(self.value, self.occurrences, score)

    def __repr__(self):
        return f"ValueMatch({self.value.lexical!r}, score={self.score:.3f})"


# Internal element-key kinds stored in the inverted index.
_KIND_CLASS = "class"
_KIND_RELATION = "relation"
_KIND_ATTRIBUTE = "attribute"
_KIND_VALUE = "value"


def element_label_text(kind: str, term, label_of) -> str:
    """The label text one index element is analyzed under.

    Shared between :meth:`KeywordIndex._build` and the out-of-core
    streaming build (``repro.storage.stream_build``) so both paths feed
    the analyzer byte-identical input: classes use the graph's display
    label, edge labels their URI local name, values their lexical form.
    ``label_of`` is only consulted for classes, so streamed callers can
    pass a resident-aggregate implementation.
    """
    if kind == _KIND_CLASS:
        return label_of(term)
    if kind == _KIND_VALUE:
        return term.lexical
    return local_name(term)


class KeywordIndex:
    """The IR engine over element labels: build once, look keywords up fast.

    Parameters
    ----------
    graph:
        The data graph whose C-vertices, V-vertices, and edge labels are
        indexed.
    analyzer:
        Lexical analysis chain; defaults to tokenize+stopwords+Porter.
    lexicon:
        Synonym/hypernym table; defaults to the bundled offline lexicon.
    fuzzy_max_distance:
        Levenshtein bound for imprecise matching (0 disables fuzzy lookup).
    max_matches_per_keyword:
        Keeps only the best-scoring elements per keyword; bounds the
        branching factor of the subsequent graph exploration.
    lookup_cache_size:
        LRU bound for memoized :meth:`lookup` results.  Entries are keyed
        on :attr:`version`, which advances with every incremental index
        mutation, so maintenance invalidates them automatically.  ``0``
        disables the cache.
    """

    def __init__(
        self,
        graph: DataGraph,
        analyzer: Optional[Analyzer] = None,
        lexicon: Optional[SynonymLexicon] = None,
        fuzzy_max_distance: int = 1,
        max_matches_per_keyword: int = 8,
        lookup_cache_size: int = 1024,
    ):
        self._graph = graph
        self._analyzer = analyzer or Analyzer()
        self._lexicon = lexicon if lexicon is not None else DEFAULT_LEXICON
        self._fuzzy_max_distance = fuzzy_max_distance
        self._max_matches = max_matches_per_keyword

        #: Monotone mutation counter; caches over lookups key on it.
        self.version: int = 0
        self._lookup_cache = LruDict(lookup_cache_size)

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

        started = time.perf_counter()
        self._build()
        self.build_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        graph = self._graph

        for cls in graph.classes:
            self._index_class(cls)

        for label in graph.relation_labels:
            self._index_relation_label(label)

        for label in graph.attribute_labels:
            self._index.index(
                (_KIND_ATTRIBUTE, label),
                self._analyzer.analyze(
                    element_label_text(_KIND_ATTRIBUTE, label, graph.label_of)
                ),
            )
        for value in graph.values:
            self._index.index(
                (_KIND_VALUE, value),
                self._analyzer.analyze(
                    element_label_text(_KIND_VALUE, value, graph.label_of)
                ),
            )

        # One pass over all A-edges seeds the class-context refcounts.
        for triple in graph.attribute_triples():
            self._adjust_occurrence_refs(
                triple.predicate,
                triple.object,
                graph.types_of(triple.subject),
                +1,
            )

    def _index_class(self, cls: Term) -> None:
        self._index.index(
            (_KIND_CLASS, cls),
            self._analyzer.analyze(
                element_label_text(_KIND_CLASS, cls, self._graph.label_of)
            ),
        )

    def _index_relation_label(self, label: URI) -> None:
        self._index.index(
            (_KIND_RELATION, label),
            self._analyzer.analyze(
                element_label_text(_KIND_RELATION, label, self._graph.label_of)
            ),
        )

    def _adjust_occurrence_refs(self, label, value, classes, delta: int) -> None:
        label_refs = self._attribute_class_refs.setdefault(label, {})
        value_refs = self._value_occurrence_refs.setdefault(value, {})
        for cls in classes or (None,):
            count = label_refs.get(cls, 0) + delta
            if count > 0:
                label_refs[cls] = count
            else:
                label_refs.pop(cls, None)
            pair = (label, cls)
            count = value_refs.get(pair, 0) + delta
            if count > 0:
                value_refs[pair] = count
            else:
                value_refs.pop(pair, None)
        if not label_refs:
            del self._attribute_class_refs[label]
        if not value_refs:
            del self._value_occurrence_refs[value]

    # ------------------------------------------------------------------
    # Incremental maintenance (used by repro.maintenance.IndexManager)
    # ------------------------------------------------------------------
    #
    # ``refresh_*`` re-derives one element's postings from the *already
    # updated* data graph: unindex the stale postings, then re-index if
    # the element still exists.  ``adjust_attribute_occurrence`` applies a
    # class-context delta for one A-edge incidence — a few counter
    # updates, so maintenance cost is bounded by the delta, never by how
    # many triples share the predicate or the value.

    def refresh_class(self, cls: Term) -> None:
        self.version += 1
        self._index.unindex((_KIND_CLASS, cls))
        if self._graph.vertex_kind(cls) is VertexKind.CLASS:
            self._index_class(cls)

    def refresh_relation_label(self, label: URI) -> None:
        self.version += 1
        self._index.unindex((_KIND_RELATION, label))
        if self._graph.has_relation_label(label):
            self._index_relation_label(label)

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
        had_label = label in self._attribute_class_refs
        had_value = value in self._value_occurrence_refs
        self._adjust_occurrence_refs(label, value, classes, delta)
        has_label = label in self._attribute_class_refs
        has_value = value in self._value_occurrence_refs
        if has_label and not had_label:
            self._index.index(
                (_KIND_ATTRIBUTE, label), self._analyzer.analyze(local_name(label))
            )
        elif had_label and not has_label:
            self._index.unindex((_KIND_ATTRIBUTE, label))
        if has_value and not had_value:
            self._index.index(
                (_KIND_VALUE, value), self._analyzer.analyze(value.lexical)
            )
        elif had_value and not has_value:
            self._index.unindex((_KIND_VALUE, value))

    # ------------------------------------------------------------------
    # Persistence (used by repro.storage)
    # ------------------------------------------------------------------

    def uses_default_analysis(self) -> bool:
        """True when analyzer and lexicon are the stock configuration.

        The bundle format stores no code, so only the default analysis
        chain round-trips; a custom analyzer or lexicon makes the index
        unsaveable (the storage layer refuses loudly rather than load an
        index whose future maintenance would analyze differently).
        """
        default = Analyzer()
        analyzer = self._analyzer
        return (
            type(analyzer) is Analyzer
            and analyzer.__dict__ == default.__dict__
            and self._lexicon is DEFAULT_LEXICON
        )

    def settings(self) -> Dict[str, object]:
        """The constructor settings a bundle header records, under their
        constructor names (the bundle builder takes them by the same)."""
        return {
            "fuzzy_max_distance": self._fuzzy_max_distance,
            "max_matches_per_keyword": self._max_matches,
            "lookup_cache_size": self._lookup_cache.maxsize,
        }

    @classmethod
    def from_state(
        cls,
        graph: DataGraph,
        inverted_index: InvertedIndex,
        attribute_class_refs: Dict[URI, Dict[Optional[Term], int]],
        value_occurrence_refs: Dict[Literal, Dict[Tuple[URI, Optional[Term]], int]],
        *,
        version: int,
        fuzzy_max_distance: int,
        max_matches: Optional[int],
        lookup_cache_size: int,
        build_seconds: float,
    ) -> "KeywordIndex":
        """Reconstitute an index around restored postings and refcounts.

        The analysis chain is the stock one (see
        :meth:`uses_default_analysis` — the save side enforces it), the
        mutation ``version`` is carried over so the restored index's
        :attr:`snapshot_key` equals the saved one, and the lookup memo
        starts cold.
        """
        index = cls.__new__(cls)
        index._graph = graph
        index._analyzer = Analyzer()
        index._lexicon = DEFAULT_LEXICON
        index._fuzzy_max_distance = fuzzy_max_distance
        index._max_matches = max_matches
        index.version = version
        index._lookup_cache = LruDict(lookup_cache_size)
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

        The lookup memo keys on it, and
        :class:`~repro.core.snapshot.EngineSnapshot` pins it (paired
        with the summary graph's key) as the identity of one engine state.
        """
        return self.version

    def cache_stats(self) -> Dict[str, float]:
        """Hit/miss statistics of the lookup memo (service ``/stats``)."""
        return self._lookup_cache.cache_stats()

    @property
    def index_tier(self) -> str:
        """Serving tier of the underlying inverted index (memory/mmap)."""
        return getattr(self._index, "tier", "memory")

    def postings_cache_stats(self) -> Optional[Dict[str, float]]:
        """Decoded-postings LRU statistics, or None on the memory tier.

        Only the mmap-resident index decodes posting runs on demand and
        keeps an LRU over them; the materialized tier holds everything,
        so there is nothing to count.
        """
        if self.index_tier != "mmap":
            return None
        return self._index.cache_stats()

    def lookup(self, keyword: str) -> List[KeywordMatch]:
        """All elements matching a keyword, best score first.

        A keyword may analyze to several terms (e.g. ``"x-media"``); an
        element matches only if *every* keyword term matches its label, and
        the score combines per-term match quality with a coverage penalty
        for labels longer than the keyword (the paper's TF/IDF remark).

        Results are memoized (LRU, ``lookup_cache_size`` entries) keyed on
        ``(version, keyword)``: incremental maintenance advances
        :attr:`version`, so stale entries can never be served — they just
        age out of the LRU.  Matches are immutable; each call returns a
        fresh list of the shared match objects.
        """
        cache = self._lookup_cache
        if cache.maxsize <= 0:
            return self._lookup_uncached(keyword)
        key = (self.version, keyword)
        hit = cache.hit(key)
        if hit is not None:
            return list(hit)
        matches = self._lookup_uncached(keyword)
        cache.put(key, tuple(matches))
        return matches

    def _lookup_uncached(self, keyword: str) -> List[KeywordMatch]:
        terms = self._analyzer.analyze_unique(keyword)
        if not terms:
            return []

        # element_key -> list of per-term best factors.
        per_term: List[Dict[Hashable, Tuple[float, int]]] = []
        for term in terms:
            per_term.append(self._term_candidates(term))

        # Intersect: every term must match.
        common = set(per_term[0])
        for candidates in per_term[1:]:
            common &= set(candidates)
        if not common:
            return []

        matches: List[KeywordMatch] = []
        for key in common:
            factor_product = 1.0
            label_terms = 1
            for candidates in per_term:
                factor, label_len = candidates[key]
                factor_product *= factor
                label_terms = max(label_terms, label_len)
            base = factor_product ** (1.0 / len(terms))
            coverage = min(1.0, len(terms) / max(label_terms, 1))
            score = max(1e-6, base * (coverage ** 0.5))
            matches.append(self._materialize(key, score))

        # Tie-break equal scores canonically (by element-key repr) so the
        # result — and the max_matches cutoff — does not depend on index
        # insertion order; incremental maintenance and a fresh rebuild
        # must rank identically.
        matches.sort(key=lambda m: (-m.score, repr(m.element_key)))
        if self._max_matches is not None:
            matches = matches[: self._max_matches]
        return matches

    def _term_candidates(self, term: str) -> Dict[Hashable, Tuple[float, int]]:
        """element_key -> (best factor, label length) for one analyzed term."""
        out: Dict[Hashable, Tuple[float, int]] = {}

        def _offer(key: Hashable, factor: float, label_len: int) -> None:
            current = out.get(key)
            if current is None or factor > current[0]:
                out[key] = (factor, label_len)

        for posting in self._index.lookup(term):
            _offer(posting.element, 1.0, posting.label_terms)

        for related_term, rel_factor in self._lexicon.related(term):
            for posting in self._index.lookup(related_term):
                _offer(posting.element, rel_factor, posting.label_terms)

        if not out and self._fuzzy_max_distance > 0:
            bound = self._fuzzy_max_distance
            for vocab_term in self._index.iter_terms():
                if abs(len(vocab_term) - len(term)) > bound:
                    continue
                if levenshtein(term, vocab_term, bound) <= bound:
                    factor = similarity(term, vocab_term)
                    for posting in self._index.lookup(vocab_term):
                        _offer(posting.element, factor, posting.label_terms)
        return out

    def _materialize(self, key: Hashable, score: float) -> KeywordMatch:
        kind, element = key
        if kind == _KIND_CLASS:
            return ClassMatch(element, score)
        if kind == _KIND_RELATION:
            return RelationMatch(element, score)
        if kind == _KIND_ATTRIBUTE:
            classes = frozenset(self._attribute_class_refs.get(element) or {None})
            return AttributeMatch(element, classes, score)
        if kind == _KIND_VALUE:
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
