"""Lexical analysis: tokenization, stopword removal, stemming.

Reproduces the paper's "lexical analysis (stemming, removal of stopwords) as
supported by standard IR engines (c.f. Lucene)".  Labels such as ``worksAt``
or ``has_project`` are split at case and separator boundaries so schema
identifiers yield searchable terms.
"""

from __future__ import annotations

import re
from typing import List, Sequence

from repro.keyword.stemmer import porter_stem

#: A standard English stopword list (Lucene's default set plus a few common
#: query fillers); applied after lowercasing.
STOPWORDS = frozenset(
    """
    a an and are as at be but by for if in into is it no not of on or such
    that the their then there these they this to was will with from has have
    had what which who whom whose when where why how all any both each few
    more most other some own same so than too very s t can just don should
    now about
    """.split()
)

# Split camelCase ("worksAt" -> "works At") and letter/digit boundaries
# ("year2006" -> "year 2006") before the alphanumeric token scan.
_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Za-z])(?=[0-9])|(?<=[0-9])(?=[A-Za-z])")
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")
#: Every character an analyzed term can hold: tokens are ``_TOKEN_RE``
#: matches, lowercased, then Porter-stemmed (letters stay letters) or kept
#: as digits.  The fuzzy fallback probes one-edit neighbours over it.
TERM_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def tokenize(text: str) -> List[str]:
    """Lowercased word/number tokens with identifier-boundary splitting.

    >>> tokenize("worksAt X-Media 2006")
    ['works', 'at', 'x', 'media', '2006']
    """
    expanded = _CAMEL_RE.sub(" ", text)
    return [m.group().lower() for m in _TOKEN_RE.finditer(expanded)]


class Analyzer:
    """The full analysis chain: tokenize → drop :data:`STOPWORDS` →
    Porter-stem every token that is not a number (years like "2006"
    matter to the workloads).  It has no settings: a bundle stores the
    chain's output, not the chain."""

    def analyze(self, text: str) -> List[str]:
        """Terms for indexing or querying, in occurrence order."""
        return [
            token if token.isdigit() else porter_stem(token)
            for token in tokenize(text)
            if token not in STOPWORDS
        ]

    def analyze_unique(self, text: str) -> List[str]:
        """Like :meth:`analyze` but with duplicates removed, order kept."""
        return list(dict.fromkeys(self.analyze(text)))


#: The one analysis chain every index analyzes with — the keyword index,
#: the bundle builder and the baselines' entity view.  A bundle stores
#: postings, not code, so it round-trips only because there is no other.
DEFAULT_ANALYZER = Analyzer()
