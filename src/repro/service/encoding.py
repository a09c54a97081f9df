"""Response payloads: the JSON shapes of results, and their bytes.

What a ``/search`` or ``/execute`` answer looks like on the wire is
decided here and nowhere else, by both producers of such bytes: the HTTP
front end (:mod:`repro.service.http`, which re-exports these names) and
a ``--workers N`` worker process (:mod:`repro.service.worker`), which
encodes at the source and never speaks HTTP.  That second reader is why
this is its own module: it imports ``json`` and nothing else — not
``socketserver``, and not the :mod:`repro.quality` package — so a worker
holds the encoders without holding an HTTP stack.

A response body is ``json.dumps(payload)`` byte for byte, but no byte of
it is produced twice: each :class:`~repro.core.engine.QueryCandidate`
encodes its own fragment once
(:meth:`~repro.core.engine.QueryCandidate.json_fragment` — one
presentation pass over the query, :mod:`repro.query.presentation`, reads
every term once and yields logic form, signature, SPARQL and English
together, and the six fields are written straight to bytes),
and :func:`encode_result` joins the fragments around a fresh
``timings_ms``; an ``/execute`` body's answers go from the evaluator's
key rows to bytes with no ``Answer`` or dict in between.
``result_to_json`` / ``candidate_to_json`` / ``answers_to_json`` build
the same payloads as dicts; the encoders are tested against them.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping

__all__ = [
    "answer_json_signature",
    "answers_to_json",
    "candidate_to_json",
    "encode_execution",
    "encode_result",
    "result_to_json",
]


# ----------------------------------------------------------------------
# JSON shapes: as dicts ...
# ----------------------------------------------------------------------

def candidate_to_json(candidate) -> Dict[str, object]:
    return candidate.to_json()


def result_to_json(result) -> Dict[str, object]:
    return {
        "keywords": result.keywords,
        "ignored_keywords": result.ignored_keywords,
        "candidates": [candidate_to_json(c) for c in result.candidates],
        "timings_ms": _timings_ms(result.timings),
    }


def _timings_ms(timings: Dict[str, float]) -> Dict[str, float]:
    return {stage: 1000 * seconds for stage, seconds in timings.items()}


def answer_json_signature(payload: Mapping[str, str]) -> str:
    """Signature of an answer given as the ``{var: n3}`` dict of an
    ``/execute`` payload: the sort key of :func:`answers_to_json` and the
    answer id of the quality goldens (:mod:`repro.quality.signatures`
    re-exports it)."""
    return "|".join(f"{var}={payload[var]}" for var in sorted(payload))


def answers_to_json(answers) -> List[Dict[str, str]]:
    # Canonical (signature-sorted) order: the evaluator enumerates in
    # its stores' order — sorted runs on a bundle, insertion order in a
    # TripleStore and in a bundle's delta — so raw answer order differs
    # between a loaded and a constructed engine, and between a maintained
    # and a rebuilt one, even though the answer set is identical.
    # Sorting here makes /execute payloads byte-comparable across them.
    if answers and isinstance(answers[0], dict):
        return sorted(answers, key=answer_json_signature)
    return sorted(
        (
            {str(var): term.n3() for var, term in zip(a.variables, a.values)}
            for a in answers
        ),
        key=answer_json_signature,
    )


# ----------------------------------------------------------------------
# ... and as the bytes that go on the wire
# ----------------------------------------------------------------------
#
# The tier seam: the multiprocess tier (repro.service.dispatch) encodes
# at the source — a worker process runs these encoders and the dispatcher
# hands the body on as it came off the pipe — so ``bytes`` pass through
# and the HTTP handler stays tier-agnostic.

def _dumps(payload) -> bytes:
    return json.dumps(payload).encode("ascii")


def encode_result(result) -> bytes:
    """``json.dumps(result_to_json(result))``, from the candidates' cached
    fragments.  A kept result's hit shares its candidates with the search
    that ran it, so it costs a join and the few small values encoded here."""
    if isinstance(result, bytes):
        return result
    return b"".join((
        b'{"keywords": ', _dumps(result.keywords),
        b', "ignored_keywords": ', _dumps(result.ignored_keywords),
        b', "candidates": [',
        b", ".join([c.json_fragment() for c in result.candidates]),
        b'], "timings_ms": ', _dumps(_timings_ms(result.timings)),
        b"}",
    ))


def _encode_answers(answers) -> bytes:
    """``json.dumps(answers_to_json(answers))`` for the answers of one
    query, straight from its key rows
    (:class:`~repro.query.evaluator.AnswerRows`): no ``Answer`` or dict
    is built.  Every row maps the same variables, so the work goes
    a column at a time: a column's keys are rendered to N3 (through
    ``store.term_of``, whose terms the store already holds), and the
    N3 and its JSON string are prefixed with the variable's ``name=``
    and quoted ``"name": `` once each; a row is then two joins — its
    signature (the sort key, variables in name order) and its JSON
    object.  Anything else (dict answers, a list of ``Answer``) goes
    through the reference."""
    rows = getattr(answers, "rows", None)
    if rows is None:
        return _dumps(answers_to_json(answers))
    names = [str(var) for var in answers.variables]
    if not rows or not names:  # a query distinguishing nothing: {} rows
        return ("[" + ", ".join(["{}"] * len(rows)) + "]").encode("ascii")
    term_of = answers.store.term_of
    quote = json.encoder.encode_basestring_ascii
    signature_columns, object_columns = [], []
    for name, column in zip(names, zip(*rows)):
        n3s = [term_of(key).n3() for key in column]
        signature_columns.append(list(map((name + "=").__add__, n3s)))
        object_columns.append(
            list(map((json.dumps(name) + ": ").__add__, map(quote, n3s)))
        )
    by_name = sorted(range(len(names)), key=names.__getitem__)
    signatures = map("|".join, zip(*[signature_columns[i] for i in by_name]))
    objects = map(", ".join, zip(*object_columns))
    encoded = sorted(zip(signatures, objects))  # equal signatures: equal objects
    return ("[{" + "}, {".join([row[1] for row in encoded]) + "}]").encode("ascii")


def encode_execution(candidate, answers, timings) -> bytes:
    """The ``/execute`` body: the candidate, its answers and a flat
    ``timings_ms`` (the search's stages plus ``execute``).  A worker's
    body arrives whole, in the candidate's place."""
    if isinstance(candidate, bytes):
        return candidate
    return b"".join((
        b'{"candidate": ', candidate.json_fragment(),
        b', "answers": ', _encode_answers(answers),
        b', "timings_ms": ', _dumps(_timings_ms(timings)),
        b"}",
    ))


def _encode_outcome(outcome) -> bytes:
    payload: Dict[str, object] = {
        "index": outcome.index,
        "status": outcome.status,
        "latency_ms": 1000 * outcome.latency_seconds,
    }
    if outcome.ok:
        return b"".join((
            _dumps(payload)[:-1], b', "result": ',
            encode_result(outcome.result), b"}",
        ))
    if outcome.error is not None:
        payload["error"] = str(outcome.error)
    return _dumps(payload)
