#!/usr/bin/env python3
"""The benchmark of record: HTTP workloads against ``repro serve``.

::

    python3 perf/run.py --workload cold_search --seed 1 --seconds 15 --trace 0
    python3 perf/run.py --seed 1 --traced --out /tmp/a     # all five, both passes
    python3 perf/run.py --quick --traced                   # smoke: tiny data, 0.5 s
    python3 perf/run.py compare /tmp/a/results.json /tmp/b/results.json

One run is one workload: generate the inputs from the seed, build the
bundle and start the server as subprocesses, warm up and verify every
distinct request against an in-process reference, then measure.
``--trace 0`` measures the end-to-end metrics untraced (`untraced.py`);
``--trace 1`` is the separate traced pass that yields the per-layer
metrics (`tracing.py`).  Each run prints its metrics by name and unit and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

`perf/README.md` says what each workload is for and which end-to-end
metric each layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

import procs
from procs import ROOT, SRC

#: Hard wall-clock limit of one workload run, set-up included.
DEADLINE_S = 170
#: Distinct requests per workload under --quick.
QUICK_QUERIES = 6


def environment() -> Dict[str, object]:
    """What a result must record to be comparable later."""
    from repro.core import kernels

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernels": kernels.status_line(),
    }


def print_result(result: Dict[str, object]) -> None:
    kind = "traced, per-layer" if result["trace"] else "untraced, end-to-end"
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{result['seconds']:g} s  ({kind}) ==")

    def rows(entries: Dict[str, Dict[str, object]], prefix: str = "") -> None:
        for name, entry in entries.items():
            spread = ""
            if entry.get("samples", 1) > 1:
                spread = (f"   spread {100 * entry['spread']:.1f} % "
                          f"of {entry['samples']}")
            print(f"  {prefix + name:<34} {entry['value']:>16.4f} "
                  f"{entry['unit']:<6}{spread}")

    rows(result["metrics"])
    print(f"  {'failed_share':<34} {result['failed_share']:>16.4f} ratio    "
          f"{result['failed']} of {result['attempted']} (bound: 0, absolute)")
    for name, counts in result.get("phases", {}).items():
        print(f"  phase {name:<8} attempted {counts['attempted']:>6}  "
              f"succeeded {counts['succeeded']:>6}  failed {counts['failed']:>4}")
    rows(result.get("latency", {}), "loadgen.")
    for key, value in result.get("diagnostics", {}).items():
        shown = f"{value:.4f}" if isinstance(value, float) else value
        print(f"  loadgen.{key:<26} {shown:>16}")
    for reason in result.get("invalid_reasons", []):
        print(f"  INVALID: {reason}")
    for problem in result.get("problems", []):
        print(f"  WRONG: {problem}")


def contract_line(result: Dict[str, object]) -> str:
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result["metrics"].items()
        },
    })


def _on_sigterm(signum, frame):
    raise KeyboardInterrupt


def _on_deadline(signum, frame):
    raise TimeoutError(f"workload exceeded its {DEADLINE_S} s deadline")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:])

    parser = argparse.ArgumentParser(
        description="Benchmark `repro serve` end to end and layer by layer."
    )
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of "
                        "BENCHMARK.json; 0.5 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: untraced end-to-end run; 1: traced per-layer run")
    parser.add_argument("--traced", action="store_true",
                        help="run both passes: untraced, then traced")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: tiny data, a few distinct requests, "
                        "0.5 s of measuring")
    parser.add_argument("--out", default=None,
                        help="directory for results.json and trace_<workload>.json "
                        "(default: nothing is kept)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perf/run.py: nothing to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Answer sets are enumerated from hash sets before `limit` cuts
        # them, so the in-process reference must hash like the server.
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *argv],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    sys.path.insert(0, SRC)

    import tracing
    import untraced
    from workloads import WORKLOADS

    if args.quick:
        # The smoke run checks names and plumbing, not numbers: a few
        # distinct requests per workload, one cycle over them per pass, do.
        # This process runs nothing else.
        for workload in WORKLOADS.values():
            workload.queries = workload.queries[:QUICK_QUERIES]
        untraced.PASS_READS = QUICK_QUERIES
    names = args.workload or list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r} (have: {', '.join(WORKLOADS)})")
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            seconds = 0.5 if args.quick else float(json.load(fh)["run_seconds"])
    passes = [0, 1] if args.traced else [args.trace]

    # Scratch goes under --out or, when nothing is to be kept, into the
    # working directory: a run may write only inside its checkout, which
    # rules out the system's temp dir.  It is removed when the run ends.
    out = os.path.abspath(args.out) if args.out else None
    if out:
        os.makedirs(out, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=".perf_work-", dir=out or os.getcwd())
    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.signal(signal.SIGALRM, _on_deadline)
    results = []
    try:
        inputs = untraced.Inputs(scratch, args.seed, args.quick)
        for name in names:
            for trace in passes:
                work = os.path.join(scratch, f"{name}-{trace}")
                os.makedirs(work)
                signal.alarm(DEADLINE_S)
                try:
                    if trace:
                        result = tracing.run_traced(
                            WORKLOADS[name], inputs, seconds, work, out,
                        )
                    else:
                        result = untraced.run_untraced(
                            WORKLOADS[name], inputs, seconds, work
                        )
                finally:
                    signal.alarm(0)
                    procs.stop_all()
                    shutil.rmtree(work, ignore_errors=True)
                results.append(result)
                print_result(result)
                print(contract_line(result), flush=True)
        if out:
            with open(os.path.join(out, "results.json"), "w") as fh:
                json.dump({"seed": args.seed, "seconds": seconds,
                           "quick": args.quick, "environment": environment(),
                           "runs": results}, fh, indent=1)
    except KeyboardInterrupt:
        print("perf/run.py: interrupted", file=sys.stderr)
        return 130
    finally:
        procs.stop_all()
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
