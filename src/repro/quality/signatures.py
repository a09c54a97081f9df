"""Canonical signatures: stable ids for query candidates and answers.

Golden files store *signatures*, not object dumps, so a golden seeded
from one serving configuration can be evaluated against any other.  Two
requirements drive the format:

* **Determinism across tiers and hash seeds.**  Query candidates are
  already canonical (interning + tie-breaks are property-tested), but
  answers come off hash-set iteration — their order was never canonical,
  so every answer-level signature list must be sorted before use.
* **Computability from the JSON payloads.**  ``repro eval seed`` can
  propose goldens from a live ``/search``/``/execute`` endpoint, so an
  answer's signature must be derivable from the ``{var: n3}`` dict the
  HTTP layer returns, and a candidate's signature travels in the payload
  itself (``candidate_to_json`` includes it).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.query.conjunctive import ConjunctiveQuery
from repro.query.isomorphism import canonical_form
from repro.query.presentation import form_signature
# The ``{var: n3}`` signature is the sort key of the payload it reads, so
# it is defined beside it (a module a serving worker can import without
# this package); it is re-exported here as part of the signature set.
from repro.service.encoding import answer_json_signature


def answer_signature(answer) -> str:
    """Signature of a :class:`~repro.query.evaluator.Answer`.

    Identical to :func:`answer_json_signature` applied to the answer's
    JSON rendering, so goldens seeded over HTTP and goldens seeded
    in-process agree byte for byte.
    """
    return answer_json_signature(
        {str(var): term.n3() for var, term in zip(answer.variables, answer.values)}
    )


def sort_answers(answers: Iterable) -> List:
    """Answers in canonical (signature) order.

    Answer iteration order reflects store internals (insertion order,
    sorted runs, a delta after its base rows) and differs across index tiers and epochs even
    though the answer *set* is identical; sorting by signature is the
    canonical presentation every tier shares.
    """
    return sorted(answers, key=answer_signature)


def query_signature(query: ConjunctiveQuery) -> str:
    """A renaming-invariant, JSON-storable id for a conjunctive query.

    Serializes :func:`repro.query.isomorphism.canonical_form` (the same
    fingerprint the engine uses to deduplicate candidates) with sorted,
    normalized atoms — so it is stable across variable naming, atom
    order, index tiers, and Python hash seeds.
    """
    return form_signature(canonical_form(query))


def candidate_signatures(candidates) -> List[str]:
    """Ranked candidate signatures, as the metrics layer consumes them."""
    return [c.signature for c in candidates]
