"""The keyword index of Section IV-A: a self-contained IR engine.

The paper implements its keyword-element map "as an inverted index" over
lexically analyzed element labels (stemming, stopword removal as in Lucene),
with WordNet-derived synonym entries and Levenshtein-based imprecise
matching.  This package rebuilds each piece from scratch:

* :mod:`~repro.keyword.analysis` — tokenizer + stopwords + analyzer chain
* :mod:`~repro.keyword.stemmer` — the Porter stemming algorithm
* :mod:`~repro.keyword.levenshtein` — edit distance and similarity for fuzzy lookup
* :mod:`~repro.keyword.synonyms` — offline synonym/hypernym lexicon
* :mod:`~repro.keyword.inverted_index` — generic term → postings index
* :mod:`~repro.keyword.keyword_index` — the keyword-element map ``f`` with
  the paper's ``[V-vertex, A-edge, (C-vertex_1..n)]`` structures and the
  matching score ``sm(n)`` of Section V
"""

from repro.keyword.analysis import Analyzer, tokenize, STOPWORDS
from repro.keyword.stemmer import porter_stem
from repro.keyword.levenshtein import levenshtein, similarity
from repro.keyword.synonyms import SynonymLexicon, DEFAULT_LEXICON
from repro.keyword.inverted_index import InvertedIndex, Posting
from repro.keyword.keyword_index import (
    KeywordIndex,
    KeywordMatch,
    ClassMatch,
    RelationMatch,
    AttributeMatch,
    ValueMatch,
)

__all__ = [
    "Analyzer",
    "tokenize",
    "STOPWORDS",
    "porter_stem",
    "levenshtein",
    "similarity",
    "SynonymLexicon",
    "DEFAULT_LEXICON",
    "InvertedIndex",
    "Posting",
    "KeywordIndex",
    "KeywordMatch",
    "ClassMatch",
    "RelationMatch",
    "AttributeMatch",
    "ValueMatch",
]
