"""Fig. 6b reproduction: index sizes and indexing time on DBLP/LUBM/TAP.

Shape to reproduce (Section VII-B, "Index Performance"):

* the keyword index is largest for DBLP — its size tracks the number of
  V-vertices in the data graph;
* the graph index is largest for TAP — its size tracks the number of
  classes and edge labels;
* preprocessing time is practical;
* the summary graph is orders of magnitude smaller than the data graph
  (the Section VI-C complexity argument).

Every number is the engine's own ``index_stats()``: each index times its
own build.
"""

import pytest

from repro.core.engine import KeywordSearchEngine

_STATS = {}


def _index_stats(graph):
    return KeywordSearchEngine(graph).index_stats()


@pytest.mark.parametrize("dataset", ["dblp", "lubm", "tap"])
def test_fig6b_index_build(benchmark, dataset, request, report):
    graph = request.getfixturevalue(
        {
            "dblp": "dblp_performance_graph",
            "lubm": "lubm_graph",
            "tap": "tap_graph",
        }[dataset]
    )
    stats = benchmark.pedantic(
        lambda: _index_stats(graph), rounds=1, iterations=1
    )
    _STATS[dataset] = stats


def test_fig6b_emit_table(benchmark, report, dblp_performance_graph, lubm_graph, tap_graph):
    for name, graph in (
        ("dblp", dblp_performance_graph),
        ("lubm", lubm_graph),
        ("tap", tap_graph),
    ):
        if name not in _STATS:
            _STATS[name] = _index_stats(graph)

    def column(section, key):
        return {name: stats[section][key] for name, stats in _STATS.items()}

    values = column("data_graph", "values")
    classes = column("data_graph", "classes")
    keyword_bytes = column("keyword_index", "estimated_bytes")
    graph_elements = {
        name: stats["graph_index"]["vertices"] + stats["graph_index"]["edges"]
        for name, stats in _STATS.items()
    }

    rep = report("fig6b_index")
    rep.line("Index sizes and build times (paper Fig. 6b):")
    rows = []
    for name in ("dblp", "lubm", "tap"):
        keyword = _STATS[name]["keyword_index"]
        summary = _STATS[name]["graph_index"]
        rows.append(
            (
                name,
                int(_STATS[name]["data_graph"]["triples"]),
                int(values[name]),
                int(classes[name]),
                keyword["terms"],
                f"{keyword_bytes[name] / 1024:.0f} KiB",
                f"{1000 * keyword['build_seconds']:.0f} ms",
                graph_elements[name],
                f"{summary['estimated_bytes'] / 1024:.1f} KiB",
                f"{1000 * summary['build_seconds']:.0f} ms",
                f"{summary['summary_ratio']:.0f}x",
            )
        )
    rep.table(
        (
            "dataset", "triples", "V-vertices", "classes",
            "kw-index terms", "kw-index size", "kw-index time",
            "graph-index elems", "graph-index size", "graph-index time",
            "summary ratio",
        ),
        rows,
    )

    # Shape assertions from the paper's discussion.
    # Keyword index tracks V-vertices: DBLP has the most values → largest.
    assert values["dblp"] > values["lubm"] and values["dblp"] > values["tap"]
    assert keyword_bytes["dblp"] > keyword_bytes["lubm"]
    assert keyword_bytes["dblp"] > keyword_bytes["tap"]
    # Graph index tracks classes: TAP has the most classes → largest.
    assert classes["tap"] > classes["dblp"] and classes["tap"] > classes["lubm"]
    assert graph_elements["tap"] > graph_elements["dblp"]
    # The summary graph compresses the data graph substantially.
    assert _STATS["dblp"]["graph_index"]["summary_ratio"] > 100

    rep.line()
    rep.line(
        "shape check: keyword index tracks V-vertices (DBLP largest), "
        "graph index tracks classes (TAP largest) — OK"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
