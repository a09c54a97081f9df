"""An offline synonym/hypernym lexicon standing in for WordNet.

The paper links "semantically similar entries such as synonyms, hyponyms and
hypernyms extracted from WordNet" to each indexed term.  WordNet itself is
unavailable offline, so :data:`DEFAULT_LEXICON` provides a curated table
covering the vocabulary of the bundled datasets (bibliographic, academic,
and the TAP-style domains) — the *code path* (semantic expansion with a
relation-dependent score factor) is identical, only the coverage is smaller.
Entries are stored over **stemmed** terms so expansion composes with the
analyzer.  See docs/architecture.md "Documented deviations" for the
substitution rationale.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Set, Tuple

from repro.keyword.stemmer import porter_stem

#: Score factors by semantic relation: exact synonymy is stronger evidence
#: than hierarchy membership (used in sm(n), Section V).
SYNONYM_FACTOR = 0.9
HYPERNYM_FACTOR = 0.7
HYPONYM_FACTOR = 0.7


class SynonymLexicon:
    """Bidirectional semantic-relation table over stemmed terms.

    ``related(term)`` yields ``(other_term, factor)`` pairs: all terms that
    should also be looked up when ``term`` is queried, with the score factor
    their relation carries.
    """

    def __init__(self):
        self._related: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_synonyms(self, *words: str) -> None:
        """Declare a synonym set; all pairs become mutually related."""
        stems = [porter_stem(w.lower()) for w in words]
        for a in stems:
            for b in stems:
                if a != b:
                    self._link(a, b, SYNONYM_FACTOR)

    def add_hypernym(self, word: str, hypernym: str) -> None:
        """Declare ``hypernym`` as a broader term for ``word``.

        Both directions are recorded (a query for the broader term may
        intend the narrower one and vice versa), with the weaker factor.
        """
        a = porter_stem(word.lower())
        b = porter_stem(hypernym.lower())
        if a != b:
            self._link(a, b, HYPERNYM_FACTOR)
            self._link(b, a, HYPONYM_FACTOR)

    def _link(self, a: str, b: str, factor: float) -> None:
        current = self._related.setdefault(a, {})
        if factor > current.get(b, 0.0):
            current[b] = factor

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def related(self, term: str) -> List[Tuple[str, float]]:
        """(related stemmed term, score factor) pairs for a stemmed term."""
        return sorted(self._related.get(term, {}).items(), key=lambda kv: -kv[1])

    def __contains__(self, term: str) -> bool:
        return term in self._related

    def __len__(self) -> int:
        return len(self._related)


def _build_default() -> SynonymLexicon:
    lex = SynonymLexicon()
    synonym_sets: Iterable[Tuple[str, ...]] = (
        # Bibliographic domain.
        ("publication", "paper", "article"),
        ("author", "writer", "creator"),
        ("researcher", "scientist"),
        ("institute", "institution", "organization", "organisation"),
        ("university", "college"),
        ("conference", "venue", "proceedings"),
        ("journal", "periodical"),
        ("year", "date"),
        ("name", "label"),
        ("title", "heading"),
        ("work", "employment"),
        ("project", "undertaking"),
        ("cite", "reference", "quote"),
        ("edit", "redact"),
        # Academic domain (LUBM).
        ("professor", "faculty"),
        ("teacher", "instructor", "lecturer"),
        ("student", "pupil"),
        ("course", "lecture"),
        ("department", "division"),
        ("advisor", "supervisor", "mentor"),
        ("degree", "qualification"),
        ("email", "mail"),
        ("phone", "telephone"),
        # TAP-style broad domains.
        ("movie", "film", "picture"),
        ("song", "track", "tune"),
        ("musician", "artist"),
        ("band", "group", "ensemble"),
        ("team", "club", "squad"),
        ("athlete", "player", "sportsman"),
        ("city", "town"),
        ("country", "nation", "state"),
        ("mountain", "peak"),
        ("river", "stream"),
        ("company", "firm", "corporation", "business"),
        ("person", "human", "individual"),
        ("location", "place", "site"),
        ("sport", "game"),
        ("book", "volume"),
        ("writes", "authors", "pens"),
    )
    for words in synonym_sets:
        lex.add_synonyms(*words)

    hypernym_pairs: Iterable[Tuple[str, str]] = (
        ("researcher", "person"),
        ("professor", "person"),
        ("student", "person"),
        ("author", "person"),
        ("university", "organization"),
        ("institute", "organization"),
        ("company", "organization"),
        ("department", "organization"),
        ("article", "document"),
        ("publication", "document"),
        ("book", "document"),
        ("city", "location"),
        ("country", "location"),
        ("mountain", "location"),
        ("river", "location"),
        ("movie", "artwork"),
        ("song", "artwork"),
        ("basketball", "sport"),
        ("football", "sport"),
        ("tennis", "sport"),
        ("conference", "event"),
    )
    for word, hypernym in hypernym_pairs:
        lex.add_hypernym(word, hypernym)
    return lex


#: The lexicon every :class:`KeywordIndex` expands keywords through.
DEFAULT_LEXICON = _build_default()
