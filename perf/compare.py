"""``perf/run.py compare A.json B.json``: did B get worse than A?

One row per workload x end-to-end metric with both values, the ratio
B / A (A is the base), the bound `BENCHMARK.json` fixes for the metric
and a verdict:

``ok``          B is not worse than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  either side's spread (for `qps`, of the four closed-loop
                slices' medians) exceeds the bound, or either run was
                marked invalid: the pair cannot tell

one `failed_share` row per workload (failed / attempted; its bound is
absolute 0: any rise is ``worse``), and the open loop's latencies, which
have no bound and hence no verdict.  A workload of A that B has no
run of, and a run on either side that failed its correctness gate, are
``worse`` too.  Exits nonzero when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List, Optional

from procs import ROOT


def load_runs(path: str) -> Dict[str, Dict[str, object]]:
    """workload -> its untraced run."""
    with open(path) as fh:
        document = json.load(fh)
    return {r["workload"]: r for r in document["runs"] if not r["trace"]}


def verdict(base: Dict[str, object], other: Dict[str, object],
            better: str, bound: float, valid: bool) -> str:
    if not valid or max(base.get("spread", 0.0), other.get("spread", 0.0)) > bound:
        return "unresolved"
    a, b = base["value"], other["value"]
    worse = b > a * (1 + bound) if better == "lower" else b < a * (1 - bound)
    return "worse" if worse else "ok"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perf/run.py compare", description=__doc__)
    parser.add_argument("base", help="results.json of the base (A)")
    parser.add_argument("other", help="results.json compared against it (B)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    base_runs, other_runs = load_runs(args.base), load_runs(args.other)

    print(f"{'workload':<16} {'metric':<12} {'A':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    verdicts = []

    def row(workload: str, name: str, a: float, b: float, ratio: str,
            bound: float, result: str) -> None:
        verdicts.append(result)
        print(f"{workload:<16} {name:<12} {a:>12.4f} {b:>12.4f} {ratio:>7} "
              f"{bound:>6.3f}  {result}")

    for workload, a_run in base_runs.items():
        b_run = other_runs.get(workload)
        if b_run is None:
            verdicts.append("worse")
            print(f"{workload:<16} no run of it in B  worse")
            continue
        for side, run in (("A", a_run), ("B", b_run)):
            if not run["correct"]:
                verdicts.append("worse")
                print(f"{workload:<16} {side} failed its correctness gate: "
                      f"{'; '.join(run['problems'][:2])}  worse")
        valid = a_run["valid"] and b_run["valid"]
        for metric in declared:
            a = a_run["metrics"][metric["name"]]
            b = b_run["metrics"][metric["name"]]
            row(workload, metric["name"], a["value"], b["value"],
                f"{b['value'] / a['value']:.3f}", metric["bound"],
                verdict(a, b, metric["better"], metric["bound"], valid))
        a, b = a_run["failed_share"], b_run["failed_share"]
        row(workload, "failed_share", a, b, f"{b - a:+.3f}", 0.0,
            "worse" if b > a else "ok")
        for name, a in a_run["latency"].items():
            b = b_run["latency"][name]
            print(f"{workload:<16} {name:<12} {a['value']:>12.4f} "
                  f"{b['value']:>12.4f} {b['value'] / a['value']:>7.3f}      -  -")
    print(f"{verdicts.count('ok')} ok, {verdicts.count('worse')} worse, "
          f"{verdicts.count('unresolved')} unresolved")
    return 1 if "worse" in verdicts else 0
