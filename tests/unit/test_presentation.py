"""The term-text table behind the presentation pass: bounded, and safe to
share between the front end's handler threads."""

import sys
import threading

from test_response_encoding import FROZEN_FRAGMENTS, _fragment_candidates

from repro.core.engine import QueryCandidate
from repro.query import presentation
from repro.query.presentation import term_text
from repro.rdf.terms import BNode, Literal, URI, Variable


def test_term_text_gives_every_surface_form():
    assert term_text(URI("http://t/ns#worksAt")) == (
        "worksAt", "<http://t/ns#worksAt>", "worksAt", "works at",
    )
    assert term_text(Literal('a "b"', language="en")) == (
        "'a \"b\"'", '"a \\"b\\""@en', "'a \"b\"'", None,
    )
    assert term_text(Variable("x7")) == ("?x7", "?x7", "something (?x7)", None)
    assert term_text(BNode("b1")) == ("_:b1", "_:b1", "_:b1", None)


def test_table_is_cleared_at_its_cap(monkeypatch):
    monkeypatch.setattr(presentation, "_TERM_TEXT", {})
    monkeypatch.setattr(presentation, "_TERM_TEXT_CAP", 8)
    for i in range(50):
        assert term_text(URI(f"u:n{i}"))[0] == f"n{i}"
        assert len(presentation._TERM_TEXT) <= 8
    # An entry that was dropped is simply derived again.
    assert term_text(URI("u:n0")) == ("n0", "<u:n0>", "n0", "n0")


def test_threads_rendering_the_same_candidates_all_send_the_frozen_bytes(monkeypatch):
    """Eight handler threads, each encoding its own fresh copy of every
    frozen candidate, round after round, against a table so small that it
    is cleared many times mid-run: a lost or half-built entry would show
    as a wrong byte."""
    monkeypatch.setattr(presentation, "_TERM_TEXT", {})
    monkeypatch.setattr(presentation, "_TERM_TEXT_CAP", 16)
    templates = _fragment_candidates()
    distinct_terms = {
        term
        for c in templates.values()
        for atom in c.query.atoms
        for term in (atom.predicate, atom.arg1, atom.arg2)
    }
    assert len(distinct_terms) > 2 * presentation._TERM_TEXT_CAP
    rounds, workers = 40, 8
    start = threading.Barrier(workers)
    wrong, done = [], []

    def encode_all():
        start.wait(timeout=30)
        for _ in range(rounds):
            for name, c in templates.items():
                fresh = QueryCandidate(c.query, c.cost, None, rank=c.rank)
                if fresh.json_fragment() != FROZEN_FRAGMENTS[name]:
                    wrong.append(name)
        done.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=encode_all) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(done) == workers and not wrong
    assert len(presentation._TERM_TEXT) <= presentation._TERM_TEXT_CAP + workers
