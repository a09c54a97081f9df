"""Levenshtein edit distance and the similarity built on it, the
syntactic part of imprecise keyword-to-term matching (Section IV-A).
"""

from __future__ import annotations


def levenshtein(a: str, b: str) -> int:
    """The edit distance between two strings.

    >>> levenshtein("cimiano", "cimiano")
    0
    >>> levenshtein("cimiano", "cimano")
    1
    """
    if len(a) > len(b):
        a, b = b, a  # rows as long as the shorter string
    previous = list(range(len(a) + 1))
    for j, bj in enumerate(b, 1):
        current = [j]
        for i, ai in enumerate(a, 1):
            # Deletion, insertion, substitution (free on equal characters).
            cost = min(previous[i], current[i - 1]) + 1
            current.append(min(cost, previous[i - 1] + (ai != bj)))
        previous = current
    return previous[-1]


def similarity(a: str, b: str) -> float:
    """Normalized syntactic similarity in [0, 1]: ``1 − d/max(|a|, |b|)``.

    This is the paper's Levenshtein-based component of the matching score
    ``sm(n)``.
    """
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest
