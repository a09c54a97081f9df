"""Smoke test of the benchmark harness: no timing is asserted.

`--quick --traced` runs a workload on tiny data with a few distinct
requests and half a second of measuring, untraced and traced (one replay
per request instead of five).  The five workloads run as two concurrent
invocations, because ten servers started one after the other take longer
than a tier-1 test should.  The harness must emit exactly the workloads
and metrics `BENCHMARK.json` declares, each with its unit, pass its own
correctness gate, write one span file per workload, and a result compared
with itself must come out without a regression.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

HALVES = (["cold_search", "hot_search", "execute_mmap"],
          ["dispatch_search", "update_mix"])


def test_quick_run_emits_what_benchmark_json_declares(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    names = [w["name"] for w in declared["workloads"]]
    assert sorted(names) == sorted(HALVES[0] + HALVES[1])

    started = [
        subprocess.Popen(
            [sys.executable, RUN, "--quick", "--traced", "--out", f"out{i}",
             *(arg for name in half for arg in ("--workload", name))],
            cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        for i, half in enumerate(HALVES)
    ]
    runs = []
    for i, (proc, half) in enumerate(zip(started, HALVES)):
        output, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, output[-3000:]
        out = tmp_path / f"out{i}"
        with open(out / "results.json") as fh:
            results = json.load(fh)
        runs += results["runs"]
        assert {"commit", "nproc", "python", "numpy", "kernels"} <= set(
            results["environment"])
        # Nothing but the results is left behind, in --out or beside it.
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["results.json"] + [f"trace_{n}.json" for n in half])

        # The last line of a run is the one-object result the driver reads.
        last = json.loads(output.strip().splitlines()[-1])
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
        assert last["correct"] is True and last["failed"] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out0", "out1"]

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        mine = {r["workload"]: r for r in runs if r["trace"] == trace}
        assert sorted(mine) == sorted(names)
        want = {m["name"]: m["unit"] for m in declared[key]}
        for run in mine.values():
            assert run["correct"], run["problems"]
            assert {n: m["unit"] for n, m in run["metrics"].items()} == want

    results = str(tmp_path / "out0" / "results.json")
    same = subprocess.run(
        [sys.executable, RUN, "compare", results, results],
        capture_output=True, text=True, timeout=60,
    )
    assert same.returncode == 0, same.stdout + same.stderr
    assert "0 worse" in same.stdout
