#!/usr/bin/env python
"""CI scale-smoke: prove the out-of-core build path works at real size.

Writes a ~10^5-triple LUBM corpus to an N-Triples file and builds it
with a plain ``repro build --data`` in a fresh subprocess — the path a
user's data takes, N-Triples parser included — asserts the build's
peak RSS (the child's own ``ru_maxrss``) stays under a hard ceiling,
then loads the resulting bundle and runs one search against it.  The
point is liveness *and* the memory contract of the default path: a
regression that quietly materializes the corpus (or an index) during
the build shows up here as a blown ceiling, not just as a slow job.
The bundle's size per stored triple is held under a ceiling too, so a
derived copy of the corpus cannot creep back into the format unnoticed.

The same bundle is then loaded in another fresh subprocess — a plain
``KeywordSearchEngine.load``, which serves the runs in place — for a
search, an execute and one update epoch under a much lower RSS ceiling:
the serving-side counterpart of the build contract, failing if a load or
an update quietly materializes postings, triples or the data graph it
should be binary-searching on disk.  That child also looks up the
corpus's two largest keywords cold and fails if the term table then
holds more than a few hundred decoded terms: a lookup decodes the
matches it keeps, not every posting it scores.  It then looks up a
misspelt keyword and a 10,000-letter one, both cold, and fails if the
vocabulary then holds more than a few dozen decoded texts: a fuzzy
lookup probes its one-edit neighbourhood by binary search and a miss
memoizes nothing, so neither reads the vocabulary into memory.

Last, a third fresh subprocess builds the engine the library API and
``repro search`` without ``--bundle`` build —
``KeywordSearchEngine(DataGraph(triples))`` over the same corpus — and
runs the same search, execute and update epoch under a ceiling of its
own, failing if a second copy of the triples (a separate triple store
beside the data graph, or adjacency and per-label buckets inside it)
comes back.

Run under a hard ``timeout`` in CI so a wedged merge fails the job in
minutes; any violated assertion exits nonzero.

Usage: python scripts/scale_smoke.py [universities] [rss_ceiling_mb] [serve_ceiling_mb]
"""

import os
import subprocess
import sys

#: ~37 universities ≈ 10^5 LUBM triples (the generator is deterministic).
DEFAULT_UNIVERSITIES = 37
#: The build of 10^5 triples peaks near 86 MB (interpreter included):
#: pass A's hot aggregates plus one spill budget per sort.  128 MB is
#: ~1.5x headroom, so a pass-B change that keeps triple-shaped rows
#: resident, not only one that materializes the corpus, fails the job.
DEFAULT_CEILING_MB = 128
#: Format v7 (as v6) stores this corpus in ~154 bytes per triple (three sorted
#: runs, the keyword runs, the term table); v4/v5, which also stored the
#: triples once more in arrival order (24 bytes each), took ~178, and
#: v3, which stored the data graph's adjacency, refcounts and buckets
#: too, ~231.  165 fails the job if any copy of the corpus beside the
#: runs is ever stored again.
BYTES_PER_TRIPLE_CEILING = 165
#: A load of the same bundle peaks near 45 MB through load + search +
#: execute (touched pages plus the interpreter); decoding the runs into
#: dicts, as the constructors' structures hold them, needs ~230 MB for
#: the same work.  96 MB fails the job if a load regresses to decoding
#: whole sections.  The update epoch after it is held to the same
#: ceiling: the data graph it maintains is a view over the same runs, so
#: an update decodes what it touches, and a regression that rebuilds the
#: graph from the stored triples (~115 MB) fails the job.
DEFAULT_SERVE_CEILING_MB = 96
#: "student" and "undergraduate" score thousands of elements each in
#: this corpus and keep 8.  The serving child's term-table memo holds
#: ~60 terms after its search, execute and these two cold lookups; a
#: lookup that decoded every posting it scored left ~13,800.
TERM_MEMO_CEILING = 400
#: The vocabulary's decoded-text memo after the same work plus the cold
#: lookups of "studnt" (a fuzzy fallback: ~460 probes, each a bisect of
#: the sorted vocabulary) and a 10,000-letter keyword (too long to have
#: a neighbour: no probe).  It holds 0: only a posting-count read
#: memoizes a text.  A bisect that memoized the texts on its path left
#: ~120 after the same lookups.
VOCAB_MEMO_CEILING = 64
#: A constructed engine over the same corpus peaks near 174 MB through
#: construction, search, execute and the update epoch: the data graph
#: keeps each triple once, in the TripleStore the engine executes on
#: (plus its arrival order), beside the summary graph and the keyword
#: index.  With a second store and the graph's own adjacency and
#: per-label buckets, as before, it peaked near 208 MB.  190 MB is ~9 %
#: headroom and fails the job if either copy comes back.
CONSTRUCTED_CEILING_MB = 190

_CHILD = """
import resource, time
from repro.core.engine import KeywordSearchEngine
from repro.datasets import triples_for
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple

started = time.perf_counter()
engine = {engine}
assert engine.index_tier == {tier!r}, 'engine on the wrong index tier'
result = engine.search('professor department0')
best = result.best()
assert best is not None, 'search returned no candidates'
answers = list(engine.execute(best))
print('COLD_MS', 1000 * (time.perf_counter() - started))
print('CANDIDATES', len(result.candidates))
print('ANSWERS', len(answers))

def peak_kb():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        for line in open('/proc/self/status'):
            if line.startswith('VmHWM:'):
                peak = int(line.split()[1])
    except OSError:
        pass
    return peak

print('SERVE_PEAK_KB', peak_kb())
if engine.index_tier == 'mmap':
    for keyword in ('student', 'undergraduate'):
        assert engine.keyword_index.lookup(keyword), keyword
    print('TERM_MEMO', len(engine.store._terms._terms))
    assert engine.keyword_index.lookup('studnt'), 'no fuzzy match for studnt'
    assert engine.keyword_index.lookup('q' * 10000) == [], 'a match for q * 10000'
    print('VOCAB_MEMO', len(engine.keyword_index._index._dict._texts))

ns = 'http://example.org/smoke/'
added = [
    Triple(URI(ns + 'p1'), RDF.type, URI('http://swat.cse.lehigh.edu/onto/univ-bench.owl#Article')),
    Triple(URI(ns + 'p1'), URI(ns + 'name'), Literal('Smoke Overlay Paper')),
]
assert engine.add_triples(added) == len(added), 'update failed'
post = engine.search('smoke overlay')
assert post.candidates, 'updated data not searchable through the overlay'
print('UPDATED', len(post.candidates))
print('TOTAL_PEAK_KB', peak_kb())
"""


def _run_child(engine: str, tier: str, env):
    """Run the search / execute / update child on the engine ``engine``
    builds; its ``NAME value`` lines as a dict, or None if it failed."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD.format(engine=engine, tier=tier)],
        env=env,
        capture_output=True,
        text=True,
    )
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        return None
    return dict(line.split() for line in out.stdout.split("\n") if line.strip())


def main() -> int:
    universities = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_UNIVERSITIES
    ceiling_mb = int(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_CEILING_MB
    serve_ceiling_mb = (
        int(sys.argv[3]) if len(sys.argv) > 3 else DEFAULT_SERVE_CEILING_MB
    )
    bundle = os.path.abspath("scale-smoke.reprobundle")
    data = os.path.abspath("scale-smoke.nt")

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    from repro.datasets import triples_for

    with open(data, "w", encoding="utf-8") as fh:
        for triple in triples_for("lubm", 1000 * universities):
            fh.write(triple.n3())
            fh.write("\n")
    print(f"# repro build: {universities} universities, {data} -> {bundle}")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "build", "--data", data,
         "-o", bundle, "--force"],
        env=env,
    )
    # wait4 (not Popen.wait) so the peak RSS is this child's own.
    _, status, rusage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        print("FAIL: repro build exited nonzero")
        return 1

    # The artifact must actually serve: load + one search, in-process.
    from repro.core.engine import KeywordSearchEngine

    engine = KeywordSearchEngine.load(bundle, attach_wal=False)
    triples = len(engine.graph)
    peak_mb = rusage.ru_maxrss / 1024
    print(f"# built {triples:,} triples, peak RSS {peak_mb:.0f} MB (ceiling {ceiling_mb} MB)")
    if triples < 50_000:
        print(f"FAIL: expected a ~10^5-triple corpus, generated {triples}")
        return 1
    if peak_mb > ceiling_mb:
        print(f"FAIL: repro build peaked at {peak_mb:.0f} MB > {ceiling_mb} MB ceiling")
        return 1
    bytes_per_triple = os.path.getsize(bundle) / triples
    print(
        f"# bundle holds {bytes_per_triple:.0f} bytes per stored triple "
        f"(ceiling {BYTES_PER_TRIPLE_CEILING})"
    )
    if bytes_per_triple > BYTES_PER_TRIPLE_CEILING:
        print(
            f"FAIL: bundle takes {bytes_per_triple:.0f} bytes per triple "
            f"> {BYTES_PER_TRIPLE_CEILING} ceiling"
        )
        return 1
    result = engine.search("professor department0")
    if not result.candidates:
        print("FAIL: search over the built bundle returned no candidates")
        return 1
    print(f"# search ok: {len(result.candidates)} candidates, best cost {result.best().cost:.2f}")

    # Serving-side contract: a fresh subprocess loads the same bundle,
    # searches, executes, and applies one update epoch under its own
    # (much lower) RSS ceiling.
    print(f"# bundle serve: {bundle} (ceiling {serve_ceiling_mb} MB)")
    values = _run_child(
        f"KeywordSearchEngine.load({bundle!r}, attach_wal=False)", "mmap", env
    )
    if values is None:
        print("FAIL: bundle serve subprocess exited nonzero")
        return 1
    serve_peak_mb = int(values["SERVE_PEAK_KB"]) / 1024
    term_memo = int(values["TERM_MEMO"])
    vocab_memo = int(values["VOCAB_MEMO"])
    total_peak_mb = int(values["TOTAL_PEAK_KB"]) / 1024
    print(
        f"# bundle serve ok: cold {float(values['COLD_MS']):.0f} ms, "
        f"{values['CANDIDATES']} candidates, {values['ANSWERS']} answers, "
        f"{values['UPDATED']} post-update candidates, "
        f"peak RSS {serve_peak_mb:.0f} MB serving / {total_peak_mb:.0f} MB "
        f"incl. update epoch, {term_memo} decoded terms after the cold lookups "
        f"(ceiling {TERM_MEMO_CEILING}), {vocab_memo} decoded vocabulary texts "
        f"after the fuzzy ones (ceiling {VOCAB_MEMO_CEILING})"
    )
    if term_memo > TERM_MEMO_CEILING:
        print(
            f"FAIL: the term table holds {term_memo} decoded terms after two "
            f"cold lookups > {TERM_MEMO_CEILING} ceiling"
        )
        return 1
    if vocab_memo > VOCAB_MEMO_CEILING:
        print(
            f"FAIL: the vocabulary holds {vocab_memo} decoded texts after the "
            f"cold fuzzy lookups > {VOCAB_MEMO_CEILING} ceiling"
        )
        return 1
    if serve_peak_mb > serve_ceiling_mb:
        print(
            f"FAIL: bundle serve peaked at {serve_peak_mb:.0f} MB "
            f"> {serve_ceiling_mb} MB ceiling"
        )
        return 1
    if total_peak_mb > serve_ceiling_mb:
        print(
            f"FAIL: bundle serve incl. update epoch peaked at "
            f"{total_peak_mb:.0f} MB > {serve_ceiling_mb} MB ceiling"
        )
        return 1

    # The constructors' contract: the same corpus and the same work,
    # through KeywordSearchEngine(DataGraph(triples)).
    print(f"# constructed engine (ceiling {CONSTRUCTED_CEILING_MB} MB)")
    values = _run_child(
        f"KeywordSearchEngine(DataGraph(triples_for('lubm', {1000 * universities})))",
        "memory",
        env,
    )
    if values is None:
        print("FAIL: constructed-engine subprocess exited nonzero")
        return 1
    constructed_peak_mb = int(values["TOTAL_PEAK_KB"]) / 1024
    print(
        f"# constructed engine ok: {float(values['COLD_MS']) / 1000:.1f} s to "
        f"construct, search and execute, {values['CANDIDATES']} candidates, "
        f"peak RSS {constructed_peak_mb:.0f} MB incl. update epoch"
    )
    if constructed_peak_mb > CONSTRUCTED_CEILING_MB:
        print(
            f"FAIL: constructed engine peaked at {constructed_peak_mb:.0f} MB "
            f"> {CONSTRUCTED_CEILING_MB} MB ceiling"
        )
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
    )
    sys.exit(main())
