"""The five workloads: generated inputs, request mixes and fixed rates.

Everything the program sees is made here from the seed: an N-Triples
file, the order requests arrive in, and the update batches.  What the
seed does *not* change is each round's composition — every round holds
the same multiset of distinct requests (quotas from the popularity
weights), only shuffled — so two runs with different seeds still measure
the same mix and differ by arrival order and data, not by which requests
happened to be drawn.

Rates are constants (about 30 % of the closed-loop capacity of the host
the benchmark was sized on, 2 cores), never auto-calibrated: both sides
of a comparison must receive the same load.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import quote

from repro.datasets.dblp import DblpConfig, generate_dblp
from repro.datasets.lubm import UB, LubmConfig, iter_lubm_triples
from repro.datasets.workloads import (
    dblp_effectiveness_workload,
    dblp_performance_queries,
    lubm_effectiveness_workload,
)
from repro.rdf.namespace import RDF
from repro.rdf.ntriples import serialize_ntriples
from repro.rdf.terms import Literal
from repro.rdf.triples import Triple

#: Dataset -> (generator, (scale, triples kept), the same for --quick).
#: The generators draw their cardinalities, so at one scale the triple
#: count moves with the seed (LUBM, 40 universities: 96,886 to 112,672
#: over seeds 1-40; DBLP, 8000 publications: 63,369 to 63,694).  Cutting
#: the stream at a count every seed reaches gives every seed a bundle of
#: the same size, so `bundle_mb` and `rss_mb` compare across seeds.
#: Exploration works on the summary graph (the schema), which neither
#: scale nor cut changes; keyword lookups and query evaluation grow with
#: the data.
#:
#: `update_mix` has its own, smaller LUBM cut.  After an update the first
#: lookup of a keyword rebuilds its match list, and on 100,000 triples the
#: broad keywords cost 85-190 ms each: the closed loop then completes
#: ~35 requests per second, a 9 s throughput sample scatters by 11 %
#: between its quartiles on a steady host (3 % on 40,000 triples), and at
#: the workload's 20 requests per second the two senders fall behind
#: (lag p95 40-120 ms), which makes the run invalid.
DATASETS = {
    "dblp": ("dblp", (8000, 63_000), (150, 1_000)),
    "lubm": ("lubm", (48, 100_000), (1, 1_500)),
    "lubm_small": ("lubm", (48, 40_000), (1, 1_500)),
}

#: Every UPDATE_EVERY-th request of `update_mix` is a POST /update that
#: adds one batch and removes the batch added UPDATE_LAG updates earlier.
UPDATE_EVERY = 10
UPDATE_LAG = 5
UPDATE_ENTITIES = 10

EXECUTE_LIMIT = 200


class Request:
    """One HTTP request of a workload; ``kind`` selects how it is checked."""

    __slots__ = ("kind", "method", "path", "body", "key")

    def __init__(self, kind: str, method: str, path: str,
                 body: Optional[bytes], key: str):
        self.kind = kind  # "search" | "execute" | "update"
        self.method = method
        self.path = path
        self.body = body
        self.key = key  # identifies the expected payload


def search_request(keywords: str) -> Request:
    return Request("search", "GET", "/search?q=" + quote(keywords), None,
                   keywords)


def execute_request(keywords: str, limit: int = EXECUTE_LIMIT) -> Request:
    body = json.dumps({"q": keywords, "rank": 1, "limit": limit})
    return Request("execute", "POST", "/execute", body.encode("utf-8"),
                   keywords)


class Workload:
    def __init__(
        self,
        name: str,
        why: str,
        dataset: str,
        build_flags: Sequence[str],
        serve_flags: Sequence[str],
        engine_config: Dict[str, object],
        kind: str,
        rate: float,
        limit_ms: float,
        zipf: Optional[float] = None,
    ):
        self.name = name
        self.why = why
        self.dataset = dataset
        self.build_flags = list(build_flags)
        self.serve_flags = list(serve_flags)
        #: `KeywordSearchEngine.load` overrides equal to what the serve
        #: flags configure — the same-tier, same-configuration reference.
        self.engine_config = dict(engine_config)
        self.kind = kind  # "search" | "execute" | "update_mix"
        self.rate = rate  # open-loop arrivals per second
        self.limit_ms = limit_ms  # latency limit of within_limit_share
        self.zipf = zipf

    @property
    def workers(self) -> int:
        flags = self.serve_flags
        return int(flags[flags.index("--workers") + 1]) if "--workers" in flags else 0

    @functools.cached_property
    def queries(self) -> List[str]:
        if DATASETS[self.dataset][0] == "dblp":
            source = dblp_performance_queries() + dblp_effectiveness_workload()
        else:
            source = lubm_effectiveness_workload()
        return [" ".join(q.keywords) for q in source]

    def distinct_requests(self) -> List[Request]:
        make = execute_request if self.kind == "execute" else search_request
        return [make(q) for q in self.queries]

    def weights(self) -> List[float]:
        """Popularity of each distinct request.  Zipf ranks follow the
        fixed workload order, not the seed: which request is hot decides
        the payload size the hot path serialises."""
        n = len(self.queries)
        if self.zipf is None:
            return [1.0 / n] * n
        raw = [1.0 / (rank ** self.zipf) for rank in range(1, n + 1)]
        total = sum(raw)
        return [w / total for w in raw]

    def reads(self, count: int, rng: random.Random) -> List[Request]:
        """``count`` read requests: fixed quotas, seeded arrival order."""
        requests = self.distinct_requests()
        out: List[Request] = []
        for request, quota in zip(requests, quotas(self.weights(), count)):
            out.extend([request] * quota)
        rng.shuffle(out)
        return out


def quotas(weights: Sequence[float], count: int) -> List[int]:
    """Largest-remainder apportionment of ``count`` slots; ties go to the
    earlier entry, so the result is a function of the weights alone."""
    exact = [w * count for w in weights]
    out = [int(x) for x in exact]
    order = sorted(range(len(weights)), key=lambda i: (-(exact[i] - out[i]), i))
    for i in order[: count - sum(out)]:
        out[i] += 1
    return out


_DBLP_FLAGS = ["-k", "10"]

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "cold_search",
            "memo off: every GET /search runs the full pipeline "
            "(exploration ~2/3, query mapping ~30 %) - the paper's Fig. 5/6a regime",
            "dblp", _DBLP_FLAGS, ["--cache", "0", "-k", "10"],
            {"search_cache_size": 0, "k": 10, "index_tier": "memory"},
            "search", rate=40.0, limit_ms=100.0,
        ),
        Workload(
            "hot_search",
            "Zipf(1.1) repeats hit the result memo: the pipeline is bypassed, "
            "front end and a ~30 KB JSON serialisation do all the work",
            "dblp", _DBLP_FLAGS, ["--cache", "256", "-k", "10"],
            {"search_cache_size": 256, "k": 10, "index_tier": "memory"},
            "search", rate=100.0, limit_ms=25.0, zipf=1.1,
        ),
        Workload(
            "dispatch_search",
            "cold_search's schedule through --workers 2: the difference to "
            "cold_search is worker checkout, pipe framing and the JSON re-encode",
            "dblp", _DBLP_FLAGS, ["--cache", "0", "-k", "10", "--workers", "2"],
            {"search_cache_size": 0, "k": 10, "index_tier": "memory"},
            "search", rate=40.0, limit_ms=100.0,
        ),
        Workload(
            "execute_mmap",
            "POST /execute on the mmap tier of a streamed bundle: query "
            "evaluation over on-disk runs, postings decode/LRU and answer "
            "serialisation dominate, exploration is the minority",
            "lubm", ["--stream"], ["--cache", "0", "--index-tier", "mmap"],
            {"search_cache_size": 0, "index_tier": "mmap"},
            "execute", rate=25.0, limit_ms=150.0,
        ),
        Workload(
            "update_mix",
            "every 10th request is a POST /update beside searches on the mmap "
            "tier: index deltas, WAL fsync and the caches each epoch invalidates",
            "lubm_small", ["--stream"], ["--cache", "0", "--index-tier", "mmap"],
            {"search_cache_size": 0, "index_tier": "mmap"},
            "update_mix", rate=20.0, limit_ms=150.0,
        ),
    ]
}


# ----------------------------------------------------------------------
# Inputs from the seed
# ----------------------------------------------------------------------

def dataset_triples(dataset: str, seed: int, quick: bool) -> Iterator[Triple]:
    generator, *sizes = DATASETS[dataset]
    scale, kept = sizes[quick]
    if generator == "dblp":
        stream = iter(generate_dblp(DblpConfig(publications=scale, seed=seed)).triples)
    else:
        stream = iter_lubm_triples(LubmConfig(universities=scale, seed=seed))
    return itertools.islice(stream, kept)


def write_dataset(dataset: str, seed: int, quick: bool, path: str) -> int:
    """Write the N-Triples file the program is built from; returns the
    number of triples."""
    count = 0
    with open(path, "w") as fh:
        for triple in dataset_triples(dataset, seed, quick):
            fh.write(triple.n3())
            fh.write("\n")
            count += 1
    return count


def update_batch(seed: int, index: int) -> List[Triple]:
    """Batch ``index``: UPDATE_ENTITIES fresh entities x (type + name).

    The names share no token with any workload keyword, so a search's
    candidates do not depend on which batches are live — only the class
    count does, and that is constant once the first UPDATE_LAG batches
    are in.
    """
    triples = []
    for j in range(UPDATE_ENTITIES):
        entity = UB[f"perfEntity{seed}x{index}x{j}"]
        triples.append(Triple(entity, RDF.type, UB.GraduateStudent))
        triples.append(Triple(entity, UB.name, Literal(f"zqx{seed}n{index}n{j}")))
    return triples


class UpdateStream:
    """The writer's side of `update_mix`: update ``i`` adds batch ``i``
    and, from UPDATE_LAG on, removes batch ``i - UPDATE_LAG`` — the live
    size is flat while tombstones, the delta index and the WAL grow."""

    def __init__(self, seed: int):
        self.seed = seed
        self.sent = 0

    def delta(self, index: int) -> Tuple[List[Triple], List[Triple]]:
        """(adds, removes) of update ``index``."""
        removes = (
            update_batch(self.seed, index - UPDATE_LAG)
            if index >= UPDATE_LAG else []
        )
        return update_batch(self.seed, index), removes

    def next_request(self) -> Request:
        adds, removes = self.delta(self.sent)
        self.sent += 1
        body = {"add": serialize_ntriples(adds)}
        if removes:
            body["remove"] = serialize_ntriples(removes)
        # Every triple of the delta toggles, so that many must change.
        return Request("update", "POST", "/update",
                       json.dumps(body).encode("utf-8"),
                       str(len(adds) + len(removes)))

    def live_triples(self) -> List[Triple]:
        """What the updates sent so far have added and not removed again."""
        live = range(max(0, self.sent - UPDATE_LAG), self.sent)
        return [t for index in live for t in update_batch(self.seed, index)]
