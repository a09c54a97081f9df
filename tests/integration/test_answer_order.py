"""Which answers a truncating ``limit`` returns does not depend on the hash seed.

``/execute`` with ``limit=5`` on a query that has 200 answers returns
*some* five.  A loaded bundle enumerates base rows in run order — sorted
by term-table id, a property of the file — so for an epoch-0 bundle the
five are the same five in every process, whatever ``PYTHONHASHSEED`` it
drew.  (The hash-nested ``TripleStore`` the constructors build iterates
sets of terms, whose order moves with the seed; rows that live in a
loaded engine's delta store after an update epoch inherit that, which is
what remains of ROADMAP item 6(b).)

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

QUERIES = {
    "example_graph": ("cimiano 2006", "aifb publication", "article proceedings 2006"),
    "dblp_small": ("conference 2005", "article john", "proceedings title"),
}

_CHILD = """
    import json, sys
    from repro.core.engine import KeywordSearchEngine
    from repro.service.encoding import answers_to_json

    engine = KeywordSearchEngine.load(sys.argv[1], attach_wal=False)
    out = []
    for query in json.loads(sys.argv[2]):
        for rank in (1, 2, 3):
            for limit in (1, 5, None):
                candidate, answers, _ = engine.execute_ranked(query, rank=rank, limit=limit)
                out.append([query, rank, limit, answers_to_json(answers)])
    print(json.dumps(out))
"""


def _answers_under(seed: int, bundle, queries) -> str:
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_CHILD), str(bundle), json.dumps(queries)],
        env=dict(os.environ, PYTHONHASHSEED=str(seed)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    return done.stdout


@pytest.mark.parametrize("fixture_name", sorted(QUERIES))
def test_truncated_answers_are_hash_seed_independent(request, tmp_path, fixture_name):
    graph = request.getfixturevalue(fixture_name)
    bundle = tmp_path / "g.reprobundle"
    KeywordSearchEngine(DataGraph(graph.triples)).save(bundle)
    queries = QUERIES[fixture_name]

    first, *others = (_answers_under(seed, bundle, queries) for seed in (0, 1, 2))
    assert others == [first, first]  # byte for byte, order included

    # The claim is about truncation, so make sure it happened: a limit
    # cut a larger complete set, and what came back is a subset of it.
    complete = {}
    truncated = 0
    for query, rank, limit, answers in reversed(json.loads(first)):
        rows = [json.dumps(a, sort_keys=True) for a in answers]
        if limit is None:
            complete[query, rank] = set(rows)
            continue
        assert len(rows) == min(limit, len(complete[query, rank]))
        assert set(rows) <= complete[query, rank] and len(set(rows)) == len(rows)
        truncated += len(rows) < len(complete[query, rank])
    assert truncated
