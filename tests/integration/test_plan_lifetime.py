"""A query plan lives exactly as long as its inputs.

A plan — the augmented graph, its element costs, its view and its bound
tables — is kept in the substrate's plan LRU, keyed by the keyword match
objects (``repro.summary.augmentation.augment``).  It is a function of the
summary version, the matches and the cost model, so:

(a) a repeated search is a plan hit, and answers exactly what the first
    search and a search after ``plans.clear()`` answer;
(b) an update batch shaped like the benchmark's ``update_mix`` (fresh
    entities of an existing class, the batch from five updates earlier
    removed) moves neither the summary version nor the keyword's lookup
    entry, so the plan stays and the next search is still a hit;
(c) a batch that changes a class count moves the version: the next
    search is a miss, and answers what an engine built from scratch over
    the same triples answers.

Each runs on a constructed engine and on a loaded bundle.
"""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets.example import running_example_graph
from repro.rdf.graph import DataGraph
from repro.rdf.namespace import RDF
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple

AIFB = "http://example.org/aifb/"
QUERIES = ("cimiano aifb", "2006 cimiano", "publication author")
COST_MODELS = ("c1", "c2", "c3", "pagerank")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("plans") / "example.reprobundle")
    KeywordSearchEngine(running_example_graph()).save(path)
    return path


@pytest.fixture(params=["constructed", "loaded"])
def make_engine(request, bundle):
    def make(cost_model="c3"):
        if request.param == "loaded":
            return KeywordSearchEngine.load(
                bundle, attach_wal=False, cost_model=cost_model, search_cache_size=0
            )
        return KeywordSearchEngine(
            running_example_graph(), cost_model=cost_model, search_cache_size=0
        )

    return make


def _plans(engine):
    return engine.summary.exploration_substrate().plans


def _signature(result):
    """Everything a search answers, down to the response bytes."""
    exploration = result.exploration
    return (
        [(sg.cost, sg.connecting_element, sg.paths, sg.elements)
         for sg in exploration.subgraphs],
        (
            exploration.cursors_created,
            exploration.cursors_popped,
            exploration.cursors_pruned,
            exploration.candidates_offered,
            exploration.terminated_by,
            exploration.max_queue_size,
        ),
        exploration.seed_threshold,
        exploration.seed_fallback,
        [(c.rank, c.cost, str(c.query), c.json_fragment()) for c in result.candidates],
    )


def _batch(index):
    """``update_mix``'s batch shape: ten fresh entities x (type + name),
    named with tokens no query shares."""
    triples = []
    for j in range(10):
        entity = URI(f"{AIFB}planEntity{index}x{j}")
        triples.append(Triple(entity, RDF.type, URI(AIFB + "Researcher")))
        triples.append(Triple(entity, URI(AIFB + "name"), Literal(f"zqx1n{index}n{j}")))
    return triples


@pytest.mark.parametrize("cost_model", COST_MODELS)
@pytest.mark.parametrize("k", [1, 10])
def test_a_repeated_search_is_a_hit_and_answers_the_same(make_engine, cost_model, k):
    engine = make_engine(cost_model)
    plans = _plans(engine)
    for query in QUERIES:
        first = engine.search(query, k=k)
        hits = plans.hits
        again = engine.search(query, k=k)
        assert plans.hits == hits + 1
        plans.clear()
        rebuilt = engine.search(query, k=k)
        assert _signature(again) == _signature(first) == _signature(rebuilt)


def test_an_update_mix_batch_keeps_the_plan(make_engine):
    engine = make_engine()
    query = QUERIES[0]
    # The first five batches only add: the class count grows each time.
    for index in range(5):
        engine.index_manager.apply_batch(adds=_batch(index))
    expected = _signature(engine.search(query))
    plans = _plans(engine)
    (plan,) = plans.values()
    version = engine.summary.version
    lookups = engine.keyword_index.cache_stats()

    engine.index_manager.apply_batch(adds=_batch(5), removes=_batch(0))

    assert engine.summary.version == version
    assert _plans(engine) is plans and list(plans.values()) == [plan]
    hits = plans.hits
    assert _signature(engine.search(query)) == expected
    assert plans.hits == hits + 1
    after = engine.keyword_index.cache_stats()
    assert after["misses"] == lookups["misses"]
    assert after["invalidated"] == lookups["invalidated"]


def test_a_class_count_change_moves_the_version_and_misses(make_engine):
    engine = make_engine()
    for query in QUERIES:
        engine.search(query)
    version = engine.summary.version

    engine.index_manager.apply_batch(
        adds=[Triple(URI(AIFB + "planNewcomer"), RDF.type, URI(AIFB + "Researcher"))]
    )

    assert engine.summary.version != version
    plans = _plans(engine)
    assert len(plans) == 0
    reference = KeywordSearchEngine(DataGraph(engine.graph.triples), search_cache_size=0)
    for query in QUERIES:
        misses = plans.misses
        maintained = engine.search(query)
        assert plans.misses == misses + 1
        assert _signature(maintained) == _signature(reference.search(query))
