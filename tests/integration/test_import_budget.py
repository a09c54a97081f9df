"""Import budgets: a process imports what its requests run.

``sys.modules`` is process state — and this suite's own process has long
since imported numpy, ``http.server`` and ``subprocess`` — so every case
runs its script in a fresh interpreter and asserts there.  Three
processes are pinned:

* a ``--workers N`` **worker** reads frames from a pipe: it holds the
  engine, the frame protocol and the byte encoders, no HTTP stack and no
  numpy, and everything it will ever import is in before the ready frame;
* a **builder / in-process server** imports no numpy either (no module
  of the package names it: ``test_util.py::test_no_module_imports_numpy``);
* a **serving process** answers HTTP with ``repro.service.http``'s own
  layer: no ``http.server``, no ``http.client``, no ``ssl``.
"""

import os
import subprocess
import sys
import textwrap

import pytest

#: Nothing a process that only answers frames needs.  (The issue's list;
#: ``repro.*`` modules that would drag them in are named beside them so
#: a failure says *who* came back.)
WORKER_FORBIDDEN = [
    "numpy",
    "http.server",
    "http.client",
    "ssl",
    "email.parser",
    "socketserver",
    "subprocess",
    "concurrent.futures",
    "urllib.request",
    "repro.service.http",
    "repro.service.dispatch",
    "repro.quality",
    "repro.baselines",
]


def _fresh(script: str, *args: str) -> str:
    """Run ``script`` in a new interpreter; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=dict(os.environ),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    return done.stdout


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    from repro.core.engine import KeywordSearchEngine
    from repro.datasets.example import running_example_graph

    path = str(tmp_path_factory.mktemp("budget") / "ex.reprobundle")
    KeywordSearchEngine(running_example_graph()).save(path)
    return path


def test_worker_imports_no_http_stack_and_no_numpy_and_nothing_after_ready(bundle):
    _fresh(
        """
        import sys
        import repro.service.worker as worker

        forbidden = %r
        loaded = [name for name in forbidden if name in sys.modules]
        assert not loaded, f"a worker imported {loaded}"

        # Up to the ready frame: the runtime is what main() builds first.
        runtime = worker.WorkerRuntime(sys.argv[1])
        at_ready = set(sys.modules)
        for request in (
            {"op": "search", "q": "cimiano 2006"},
            {"op": "execute", "q": "cimiano 2006", "rank": 1, "limit": 5},
            {"op": "sync", "min_epoch": 0},
            {"op": "ping"},
        ):
            response = runtime.handle(request)
            assert response["ok"], response
        late = sorted(set(sys.modules) - at_ready)
        assert not late, f"imported by a request, after the ready frame: {late}"

        # /stats imports nothing either, importlib.metadata (whose parser
        # is `email`, 2.4 MB a worker would keep) included.
        assert runtime.handle({"op": "stats"})["ok"]
        forbidden.append("importlib.metadata")
        loaded = [name for name in forbidden if name in sys.modules]
        assert not loaded, f"a worker's stats imported {loaded}"
        late = sorted(set(sys.modules) - at_ready)
        assert not late, f"imported by stats, after the ready frame: {late}"
        """
        % (WORKER_FORBIDDEN,),
        bundle,
    )


def test_cli_service_and_a_search_leave_numpy_unimported(tmp_path):
    out = str(tmp_path / "built.reprobundle")
    _fresh(
        """
        import sys

        import repro.cli
        import repro.service
        from repro.core.engine import KeywordSearchEngine
        from repro.datasets import DblpConfig, generate_dblp
        from repro.datasets.workloads import dblp_performance_queries
        from repro.service import EngineService

        engine = KeywordSearchEngine(generate_dblp(DblpConfig(publications=150)))
        service = EngineService(engine)
        try:
            for entry in dblp_performance_queries():
                service.search(entry.keywords)
            service.stats()
        finally:
            service.close()
        assert "numpy" not in sys.modules, "a search imported numpy"

        # ... and neither does `repro build`.
        assert repro.cli.main(
            ["build", "--dataset", "example", "-o", sys.argv[1], "--force"]
        ) == 0
        assert "numpy" not in sys.modules, "`repro build` imported numpy"
        """,
        out,
    )
    assert os.path.exists(out)


#: What the front end of a serving process needs none of: ``http.server``
#: brought the ``email`` header parser and, through ``http.client``,
#: ``ssl`` — a process that never speaks TLS.
SERVER_FORBIDDEN = [
    "http.server", "http.client", "ssl", "email.parser", "urllib.request",
]


def test_a_serving_front_end_imports_no_stdlib_http_stack(tmp_path):
    from repro.core.engine import KeywordSearchEngine
    from repro.datasets.example import running_example_graph

    path = str(tmp_path / "served.reprobundle")
    KeywordSearchEngine(running_example_graph()).save(path)
    _fresh(
        """
        import json
        import socket
        import sys

        import repro.cli
        from repro.core.engine import KeywordSearchEngine
        from repro.service import EngineService, ReproServer

        service = EngineService(KeywordSearchEngine.load(sys.argv[1]))
        server = ReproServer(service, port=0).start()
        sock = socket.create_connection((server.host, server.port), timeout=30)
        stream = sock.makefile("rb")

        def exchange(method, path, payload=None):
            body = b"" if payload is None else json.dumps(payload).encode()
            sock.sendall(
                f"{method} {path} HTTP/1.1\\r\\nHost: x\\r\\n"
                f"Content-Length: {len(body)}\\r\\n\\r\\n".encode() + body
            )
            status = stream.readline().split()[1]
            length = 0
            while (line := stream.readline().strip()):
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            assert status == b"200", (path, status, stream.read(length))
            return json.loads(stream.read(length))

        exchange("GET", "/search?q=cimiano+2006")
        exchange("POST", "/execute", {"q": "cimiano 2006", "limit": 3})
        add = '<http://example.org/b> <http://example.org/p> "budget" .'
        exchange("POST", "/update", {"add": add})
        assert exchange("GET", "/stats")["http"] == {"connections": 1, "requests": 4}
        sock.close()
        server.close()
        service.close()

        loaded = [name for name in %r if name in sys.modules]
        assert not loaded, f"a serving process imported {loaded}"
        """
        % (SERVER_FORBIDDEN,),
        path,
    )


def test_the_names_of_the_service_package_still_import():
    _fresh(
        """
        import sys

        import repro.service
        assert "repro.service.http" not in sys.modules
        assert "repro.service.dispatch" not in sys.modules

        from repro.service import (
            AdmissionError, BatchOutcome, DispatchError, DispatchService,
            EngineService, EngineSnapshot, ReproServer, SnapshotKey, WorkerDied,
            answers_to_json, candidate_to_json, result_to_json,
        )
        from repro.service.http import (
            answers_to_json as a, candidate_to_json as c, result_to_json as r,
            encode_result, encode_execution,
        )
        assert (a, c, r) == (answers_to_json, candidate_to_json, result_to_json)
        try:
            repro.service.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("unknown attribute did not raise")

        namespace = {}
        exec("from repro.service import *", namespace)
        assert set(repro.service.__all__) <= set(namespace)
        """
    )
