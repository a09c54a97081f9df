"""End-to-end tests for `repro eval`: seed -> bless -> run -> check.

Everything runs in a tmp working directory (the CLI's default
``eval/goldens``, ``eval/reports``, ``eval/baselines`` layout is
relative), over the running example so the whole loop stays fast.
"""

import json
import os
import subprocess
import sys

import pytest
from bundle_layout import flip_byte_in_section

from repro import cli
from repro.core.engine import KeywordSearchEngine
from repro.datasets import example_effectiveness_workload, graph_for
from repro.quality import load_goldens, load_report, seed_cases_in_process
from repro.service import EngineService, ReproServer


@pytest.fixture()
def evaldir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _latest_report(dataset="example"):
    return load_report(os.path.join("eval", "reports", f"{dataset}-latest.json"))


class TestSeedBlessRunCheck:
    def test_full_loop(self, evaldir, capsys):
        # 1. Seeding without --bless writes proposals, not goldens.
        assert cli.main(["eval", "seed", "--dataset", "example"]) == 0
        proposed = "eval/goldens/example.jsonl.proposed.jsonl"
        assert os.path.exists(proposed)
        assert not os.path.exists("eval/goldens/example.jsonl")
        for case in load_goldens(proposed):
            assert case.provenance["blessed"] is False

        # 2. The gate refuses to score proposals.
        with pytest.raises(SystemExit, match="no blessed"):
            cli.main(
                ["eval", "run", "--dataset", "example", "--goldens", proposed]
            )

        # 3. Blessed seeding (the trusted-workflow path) admits them.
        assert cli.main(["eval", "seed", "--dataset", "example", "--bless"]) == 0
        goldens = load_goldens("eval/goldens/example.jsonl")
        assert len(goldens) == len(example_effectiveness_workload())
        assert all(c.provenance["blessed"] for c in goldens)

        # 4. First run writes the report and, on request, the baseline.
        assert (
            cli.main(["eval", "run", "--dataset", "example", "--update-baseline"])
            == 0
        )
        report = _latest_report()
        assert report["num_cases"] == len(goldens)
        assert report["aggregates"]["intent_mrr"] == 1.0
        assert os.path.exists("eval/baselines/example.json")

        # 5. An unchanged engine passes the gate.
        assert cli.main(["eval", "check", "--dataset", "example"]) == 0
        out = capsys.readouterr().out
        assert "OK: all metrics at or above baseline" in out

        # 6. A second run records deltas against the first.
        assert cli.main(["eval", "run", "--dataset", "example"]) == 0
        report = _latest_report()
        assert report["deltas_vs_previous"]["query_mrr"]["delta"] == 0.0

    def test_check_without_baseline_explains(self, evaldir):
        cli.main(["eval", "seed", "--dataset", "example", "--bless"])
        with pytest.raises(SystemExit, match="no baseline"):
            cli.main(["eval", "check", "--dataset", "example"])


class TestGateFires:
    def test_perturbed_costs_fail_the_gate(self, evaldir, capsys):
        """The self-test the gate earns its keep with: a deliberately
        degraded ranking must exit nonzero."""
        cli.main(["eval", "seed", "--dataset", "example", "--bless"])
        cli.main(["eval", "run", "--dataset", "example", "--update-baseline"])
        capsys.readouterr()
        assert (
            cli.main(
                ["eval", "check", "--dataset", "example", "--perturb-costs"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "below baseline" in out

    def test_a_refuted_seed_fails_the_gate(self, evaldir, capsys, monkeypatch):
        """A seed threshold below the true k-th cost costs a second
        exploration and nothing else — the metrics stay at the baseline —
        so the gate reads the engine's fallback counter."""
        from repro.core import exploration

        cli.main(["eval", "seed", "--dataset", "example", "--bless"])
        cli.main(["eval", "run", "--dataset", "example", "--update-baseline"])
        assert cli.main(["eval", "check", "--dataset", "example"]) == 0
        out = capsys.readouterr().out
        assert "'seed_fallbacks': 0" in out and "'seeded': 0" not in out

        monkeypatch.setattr(exploration, "seed_threshold", lambda *a: 1e-6)
        assert cli.main(["eval", "check", "--dataset", "example"]) == 1
        out = capsys.readouterr().out
        assert "below baseline" not in out
        assert "refuted their threshold" in out



class TestBundle:
    def test_bundle_metrics_identical_and_index_tier_flag_is_inert(
        self, evaldir, capsys
    ):
        """Acceptance: a fresh in-process build and ``--bundle`` agree, and
        the hidden ``--index-tier`` (the benchmark harness still passes
        it to ``serve``) is parsed, checked and changes nothing."""
        engine = KeywordSearchEngine(graph_for("example"), cost_model="c3", k=10)
        engine.save("example.reprobundle")
        cli.main(["eval", "seed", "--dataset", "example", "--bless"])
        run = ["eval", "run", "--dataset", "example"]
        assert cli.main(run + ["--update-baseline"]) == 0
        fresh = _latest_report()
        assert fresh["config"]["index_tier"] == "in-process"

        bundle = ["--bundle", "example.reprobundle"]
        assert cli.main(run + bundle) == 0
        served = _latest_report()
        assert served["config"]["index_tier"] == "mmap"
        assert served["aggregates"] == fresh["aggregates"]
        assert [c["metrics"] for c in served["cases"]] == [
            c["metrics"] for c in fresh["cases"]
        ]
        assert all(
            d["delta"] == 0.0 for d in served["deltas_vs_previous"].values()
        )
        for tier in ("memory", "mmap"):
            assert cli.main(run + bundle + ["--index-tier", tier]) == 0
            flagged = _latest_report()
            assert flagged["config"] == served["config"]
            assert flagged["cases"] == served["cases"]
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            cli.main(run + bundle + ["--index-tier", "disk"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'disk'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.main(["eval", "run", "--help"])
        assert "index-tier" not in capsys.readouterr().out
        # And the bundle-served configuration passes the in-process baseline.
        assert cli.main(["eval", "check", "--dataset", "example"] + bundle) == 0


class TestBadBundle:
    """A damaged artifact is reported the way ``repro search --bundle``
    reports it: one stderr line, a non-zero exit, no traceback."""

    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bundle") / "example.reprobundle"
        KeywordSearchEngine(graph_for("example")).save(path)
        return path

    @pytest.mark.parametrize("damage", ["truncated", "flipped", "wal", "missing"])
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_damaged_bundle_is_one_line(self, bundle, tmp_path, damage, command):
        bad = tmp_path / "bad.reprobundle"
        if damage != "missing":
            bad.write_bytes(bundle.read_bytes()[: 12 if damage == "truncated" else None])
        if damage == "flipped":
            # A section whose CRC a load checks.
            flip_byte_in_section(bad, "summary.vertices")
        if damage == "wal":
            (tmp_path / "bad.reprobundle.wal").write_bytes(b"# repro-wal 2\nB 0\n")
        eval_dir = os.path.join(os.path.dirname(__file__), "..", "..", "eval")
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "eval", command,
                "--dataset", "example",
                "--bundle", str(bad),
                "--goldens", os.path.join(eval_dir, "goldens", "example.jsonl"),
                "--baseline", os.path.join(eval_dir, "baselines", "example.json"),
                *(["--reports-dir", str(tmp_path)] if command == "run" else []),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode != 0
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("repro eval: --bundle: ")
        assert done.stderr.count("\n") == 1, done.stderr


class TestDiff:
    def test_diff_two_reports(self, evaldir, capsys):
        cli.main(["eval", "seed", "--dataset", "example", "--bless"])
        cli.main(["eval", "run", "--dataset", "example"])
        history = sorted(os.listdir("eval/reports/history"))
        cli.main(["eval", "run", "--dataset", "example", "--perturb-costs"])
        history_after = sorted(os.listdir("eval/reports/history"))
        new = (set(history_after) - set(history)).pop()
        capsys.readouterr()
        assert (
            cli.main(
                [
                    "eval", "diff",
                    os.path.join("eval/reports/history", new),
                    os.path.join("eval/reports/history", history[0]),
                ]
            )
            == 0
        )
        diff = json.loads(capsys.readouterr().out)
        assert diff["datasets"] == ["example", "example"]
        assert "query_mrr" in diff["aggregates"]
        assert not diff["only_in_a"] and not diff["only_in_b"]


class TestEndpointSeeding:
    def test_seed_from_live_endpoint(self, evaldir, capsys):
        """Endpoint-seeded goldens agree with in-process ones on the
        signatures themselves (grades differ: HTTP cannot re-run intent
        matching, so its ceiling is grade 2)."""
        engine = KeywordSearchEngine(graph_for("example"), cost_model="c3", k=10)
        service = EngineService(engine)
        try:
            with ReproServer(service, port=0).start() as server:
                assert (
                    cli.main(
                        [
                            "eval", "seed", "--dataset", "example",
                            "--endpoint", server.url,
                        ]
                    )
                    == 0
                )
        finally:
            service.close()
        endpoint_cases = {
            c.qid: c
            for c in load_goldens("eval/goldens/example.jsonl.proposed.jsonl")
        }
        local_cases = {
            c.qid: c
            for c in seed_cases_in_process(
                engine, example_effectiveness_workload()
            )
        }
        assert endpoint_cases.keys() == local_cases.keys()
        for qid, local in local_cases.items():
            remote = endpoint_cases[qid]
            assert set(remote.query_relevance()) == set(local.query_relevance())
            assert remote.answer_relevance() == local.answer_relevance()
            assert remote.provenance["seeded_from"].startswith("http")

    def test_seed_survives_server_with_shallower_k(self, evaldir):
        """A stock server (k=5) serves fewer /execute ranks than
        /search?k=10 returns candidates; seeding must grade what the
        endpoint can execute instead of crashing on the 404."""
        from repro.quality.seeding import seed_cases_from_endpoint

        engine = KeywordSearchEngine(graph_for("example"), cost_model="c3", k=2)
        service = EngineService(engine)
        try:
            with ReproServer(service, port=0).start() as server:
                cases = seed_cases_from_endpoint(
                    server.url, example_effectiveness_workload(), eval_k=10
                )
        finally:
            service.close()
        assert len(cases) == len(example_effectiveness_workload())
        assert all(c.expected_answers for c in cases)
