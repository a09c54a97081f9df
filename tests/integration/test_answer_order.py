"""Which answers a truncating ``limit`` returns does not depend on the hash seed.

``/execute`` with ``limit=5`` on a query that has 200 answers returns
*some* five.  Which five is a property of the data and its history, never
of the process: a loaded bundle enumerates base rows in run order —
sorted by term-table id, a property of the file — and the hash-nested
``TripleStore`` (the constructors' store, and a loaded engine's delta)
keeps its leaves as insertion-ordered dicts, so rows added since load, and
every row of a constructed engine, come in the order they arrived.  So the
five are the same five in every process, whatever ``PYTHONHASHSEED`` it
drew: for an epoch-0 bundle, after an update epoch whose answers are delta
rows, and for an engine the constructors built.

A hash seed is process state fixed at start-up, so each leg is a fresh
interpreter over the same file.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF
from repro.rdf.ntriples import serialize_ntriples
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple

QUERIES = {
    "example_graph": ("cimiano 2006", "aifb publication", "article proceedings 2006"),
    "dblp_small": ("conference 2005", "article john", "proceedings title"),
}

#: One update epoch: a class all of whose instances arrive in it, so on a
#: loaded bundle every answer to it is a delta row.
ZOO = "http://example.org/zoo/"
UPDATE = serialize_ntriples(
    triple
    for i in range(20)
    for triple in (
        Triple(URI(f"{ZOO}z{i}"), RDF.type, URI(ZOO + "Zebra")),
        Triple(URI(f"{ZOO}z{i}"), URI(ZOO + "stripes"), Literal(str(i))),
    )
)

#: Leg -> (what the child serves, whether it applies ``UPDATE`` first).
LEGS = {
    "epoch-0 bundle": ("bundle", False),
    "updated bundle": ("bundle", True),
    "constructed engine": ("ntriples", True),
}

_CHILD = """
    import json, sys
    from repro.core.engine import KeywordSearchEngine
    from repro.rdf.graph import DataGraph
    from repro.rdf.ntriples import parse_ntriples
    from repro.service.encoding import answers_to_json

    source, path, queries, update = sys.argv[1:]
    if source == "bundle":
        engine = KeywordSearchEngine.load(path, attach_wal=False)
    else:
        with open(path, encoding="utf-8") as fh:
            engine = KeywordSearchEngine(DataGraph(parse_ntriples(fh)))
    if update:
        engine.add_triples(list(parse_ntriples(update)))
    out = []
    for query in json.loads(queries):
        for rank in (1, 2, 3):
            for limit in (1, 5, None):
                candidate, answers, _ = engine.execute_ranked(query, rank=rank, limit=limit)
                out.append([query, rank, limit, answers_to_json(answers)])
    print(json.dumps(out))
"""


def _answers_under(seed: int, *argv: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_CHILD), *argv],
        env=dict(os.environ, PYTHONHASHSEED=str(seed)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    return done.stdout


@pytest.mark.parametrize("leg", sorted(LEGS))
@pytest.mark.parametrize("fixture_name", sorted(QUERIES))
def test_truncated_answers_are_hash_seed_independent(request, tmp_path, fixture_name, leg):
    graph = request.getfixturevalue(fixture_name)
    source, updated = LEGS[leg]
    path = tmp_path / "g"
    if source == "bundle":
        KeywordSearchEngine(DataGraph(graph.triples)).save(path)
    else:
        path.write_text(serialize_ntriples(graph.triples), encoding="utf-8")
    queries = QUERIES[fixture_name] + (("zebra",) if updated else ())
    argv = (source, str(path), json.dumps(queries), UPDATE if updated else "")

    first, *others = (_answers_under(seed, *argv) for seed in (0, 1, 2))
    assert others == [first, first]  # byte for byte, order included

    # The claim is about truncation, so make sure it happened: a limit
    # cut a larger complete set, and what came back is a subset of it —
    # of the update's own rows, too, when there was one.
    complete = {}
    truncated = set()
    for query, rank, limit, answers in reversed(json.loads(first)):
        rows = [json.dumps(a, sort_keys=True) for a in answers]
        if limit is None:
            complete[query, rank] = set(rows)
            continue
        assert len(rows) == min(limit, len(complete[query, rank]))
        assert set(rows) <= complete[query, rank] and len(set(rows)) == len(rows)
        if len(rows) < len(complete[query, rank]):
            truncated.add(query)
    assert truncated
    assert ("zebra" in truncated) is updated
