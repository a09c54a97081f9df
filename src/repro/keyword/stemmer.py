"""The Porter stemming algorithm (Porter, 1980), implemented in full.

This is the same stemmer Lucene's ``PorterStemFilter`` applies — the paper's
keyword index relies on Lucene-style lexical analysis, so we reproduce the
algorithm faithfully: measure-based condition checks and the five rule steps
(1a, 1b + cleanup, 1c, 2, 3, 4, 5a, 5b).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

_VOWELS = frozenset("aeiou")


def _consonants(word: str) -> List[bool]:
    """Per letter, whether it is a consonant: any letter but a, e, i, o, u,
    and ``y`` only at the start of the word or after a vowel.  One pass: a
    ``y`` reads the verdict on the letter before it from the list, so a run
    of them costs one step each, not a recursion each."""
    mask: List[bool] = []
    for ch in word:
        if ch in _VOWELS:
            mask.append(False)
        elif ch == "y":
            mask.append(not mask or not mask[-1])
        else:
            mask.append(True)
    return mask


def _measure(stem: str) -> int:
    """The Porter measure m: the number of VC sequences in the stem, that
    is, of vowels followed by a consonant."""
    mask = _consonants(stem)
    return sum(1 for prev, cur in zip(mask, mask[1:]) if cur and not prev)


def _contains_vowel(stem: str) -> bool:
    return not all(_consonants(stem))


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _consonants(word)[-1]


def _ends_cvc(word: str) -> bool:
    """Ends consonant-vowel-consonant, final consonant not w, x, or y."""
    return (
        len(word) >= 3
        and _consonants(word)[-3:] == [True, False, True]
        and word[-1] not in "wxy"
    )


def _replace(word: str, suffix: str, replacement: str, min_measure: int) -> str | None:
    """If word ends with suffix and the stem's measure > min_measure, replace."""
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + replacement
    return word  # suffix matched but condition failed: rule consumed, no change


_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


#: Stems remembered per process.  A build analyses the same few thousand
#: distinct tokens tens of thousands of times over; a server's query-time
#: analysis goes through the same function, so the memo is bounded.
STEM_CACHE_SIZE = 4096


@lru_cache(maxsize=STEM_CACHE_SIZE)
def porter_stem(word: str) -> str:
    """Stem a lowercase word with the Porter algorithm.

    >>> porter_stem("publications")
    'public'
    >>> porter_stem("relational")
    'relat'
    """
    if len(word) <= 2:
        return word
    word = word.lower()

    # Step 1a — plurals.
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # Step 1b — -ed / -ing.
    flag_1b = False
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            word = word[:-1]
    elif word.endswith("ed"):
        stem = word[:-2]
        if _contains_vowel(stem):
            word = stem
            flag_1b = True
    elif word.endswith("ing"):
        stem = word[:-3]
        if _contains_vowel(stem):
            word = stem
            flag_1b = True
    if flag_1b:
        if word.endswith(("at", "bl", "iz")):
            word += "e"
        elif _ends_double_consonant(word) and not word.endswith(("l", "s", "z")):
            word = word[:-1]
        elif _measure(word) == 1 and _ends_cvc(word):
            word += "e"

    # Step 1c — -y to -i.
    if word.endswith("y") and _contains_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Step 2.
    for suffix, replacement in _STEP2_RULES:
        if word.endswith(suffix):
            result = _replace(word, suffix, replacement, 0)
            if result is not None:
                word = result
            break

    # Step 3.
    for suffix, replacement in _STEP3_RULES:
        if word.endswith(suffix):
            result = _replace(word, suffix, replacement, 0)
            if result is not None:
                word = result
            break

    # Step 4 — drop suffix when measure of stem > 1.
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                word = stem
            break
    else:
        # -ion only after s or t.
        if word.endswith("ion"):
            stem = word[:-3]
            if stem.endswith(("s", "t")) and _measure(stem) > 1:
                word = stem

    # Step 5a — final -e.
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem

    # Step 5b — -ll to -l.
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]

    return word
