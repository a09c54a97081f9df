"""Bibliographic keyword search over a DBLP-shaped dataset.

The scenario the paper's evaluation is built on: a user who knows authors,
venues, topics, and years — but not the schema — asks keyword queries and
picks among the computed interpretations.  Demonstrates:

* ambiguous keywords producing multiple ranked interpretations
  ("cimiano" also matches the decoy person "Ana Cimiano Rivera");
* imprecise matching — the typo "cimano" and the synonym "paper"
  (for the Publication class) still resolve;
* the cost models disagreeing on ranks (C1 vs C3);
* executing a chosen query to get actual publications.

Run:  python examples/bibliographic_search.py
"""

from repro import KeywordSearchEngine
from repro.datasets import DblpConfig, generate_dblp


def show(result, engine, limit=3):
    for candidate in list(result)[:limit]:
        print(f"  rank {candidate.rank}  cost {candidate.cost:6.2f}  {candidate.verbalize()}")
    if result.ignored_keywords:
        print(f"  (ignored keywords: {result.ignored_keywords})")
    print()


def main() -> None:
    graph = generate_dblp(DblpConfig(publications=1200))
    print(f"DBLP-shaped graph: {graph.stats()['triples']} triples, "
          f"{len(graph.classes)} classes")
    engine = KeywordSearchEngine(graph, cost_model="c3", k=10)
    stats = engine.index_stats()
    build_seconds = (stats["keyword_index"]["build_seconds"]
                     + stats["graph_index"]["build_seconds"])
    print(f"Indices built in {build_seconds:.2f}s; "
          f"summary graph has {len(engine.summary)} elements\n")

    print("== 'cimiano publications' — author search with a decoy")
    show(engine.search("cimiano publications"), engine)

    print("== 'cimano 2006' — typo, resolved by Levenshtein matching")
    show(engine.search("cimano 2006"), engine)

    print("== 'paper icde' — 'paper' matches class Publication via synonym")
    show(engine.search("paper icde"), engine)

    print("== 'algorithm 1999' — topic search (the paper's Fig. 4 example)")
    result = engine.search("algorithm 1999")
    show(result, engine)

    best = result.best()
    print("Executing the top interpretation:")
    print(f"  {best.to_sparql()}")
    answers = engine.execute(best, limit=5)
    for answer in answers:
        values = {str(v): graph.label_of(t) for v, t in answer.as_dict().items()}
        print(f"  -> {values}")
    print()

    print("== Cost models disagree under ambiguity ('tran icde'):")
    for model in ("c1", "c3"):
        alt = KeywordSearchEngine(
            graph,
            cost_model=model,
            k=5,
            summary=engine.summary,
            keyword_index=engine.keyword_index,
        )
        top = alt.search("tran icde").best()
        print(f"  {model}: {top.verbalize() if top else '(none)'}")


if __name__ == "__main__":
    main()
