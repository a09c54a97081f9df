"""Unit tests for the command-line interface."""

import os

import pytest
from bundle_layout import EXPECTED_SECTIONS, flip_byte_in_section

from repro.cli import build_parser, main
from repro.rdf.ntriples import serialize_ntriples


def test_parser_defaults():
    from repro.cli import _resolve_engine_args

    args = build_parser().parse_args(["cimiano 2006"])
    assert args.dataset == "example"
    # Engine flags parse as None (so --bundle can tell "unspecified" from
    # "explicitly passed") and resolve to the stock defaults otherwise.
    assert args.k is None and args.cost_model is None
    _resolve_engine_args(args)
    assert args.k == 5
    assert args.cost_model == "c3"


def test_non_positive_k_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["aifb", "-k", "0"])
    assert "must be >= 1" in capsys.readouterr().err


def test_example_search(capsys):
    assert main(["2006 cimiano aifb"]) == 0
    out = capsys.readouterr().out
    assert "[1]" in out
    assert "Publication" in out


def test_sparql_output(capsys):
    main(["aifb 2006", "--sparql"])
    assert "SELECT" in capsys.readouterr().out


def test_execute(capsys):
    main(["2006 cimiano aifb", "--execute"])
    out = capsys.readouterr().out
    assert "pub1URI" in out or "P. Cimiano" in out or "2006" in out


def test_no_match_exit_code(capsys):
    assert main(["zzzzz qqqqq"]) == 1


def test_custom_data_file(tmp_path, capsys, example_graph):
    path = tmp_path / "data.nt"
    path.write_text(serialize_ntriples(example_graph))
    assert main(["aifb", "--data", str(path)]) == 0


def test_filters_mode(capsys):
    from repro.datasets import DblpConfig, generate_dblp

    # Use the bundled dblp generator at small scale via --dataset dblp.
    assert main(["cimiano before 2005", "--dataset", "dblp", "--scale", "200",
                 "--filters", "--execute"]) == 0
    out = capsys.readouterr().out
    assert "Filter" in out or "FILTER" in out


def test_cost_model_flag(capsys):
    assert main(["aifb 2006", "--cost-model", "c1"]) == 0


def test_update_ntriples_applies_delta(tmp_path, capsys, example_graph):
    """Triples added via --update-ntriples are searchable: the base file
    omits every 2006 triple, the delta restores them."""
    base = [t for t in example_graph.triples if "2006" not in t.n3()]
    delta = [t for t in example_graph.triples if "2006" in t.n3()]
    assert delta, "the running example should mention 2006"
    base_path = tmp_path / "base.nt"
    delta_path = tmp_path / "delta.nt"
    base_path.write_text(serialize_ntriples(base))
    delta_path.write_text(serialize_ntriples(delta))

    assert main(["2006", "--data", str(base_path)]) == 1  # unknown keyword
    assert (
        main(["2006", "--data", str(base_path), "--update-ntriples", str(delta_path)])
        == 0
    )
    captured = capsys.readouterr()
    assert "[1]" in captured.out
    assert "+%d triples" % len(delta) in captured.err


def test_remove_ntriples_applies_delta(tmp_path, capsys, example_graph):
    delta = [t for t in example_graph.triples if "2006" in t.n3()]
    full_path = tmp_path / "full.nt"
    delta_path = tmp_path / "delta.nt"
    full_path.write_text(serialize_ntriples(example_graph.triples))
    delta_path.write_text(serialize_ntriples(delta))

    assert (
        main(["2006", "--data", str(full_path), "--remove-ntriples", str(delta_path)])
        == 1
    )


def test_update_ntriples_repeatable(tmp_path, capsys, example_graph):
    triples = list(example_graph.triples)
    cut = len(triples) // 2
    base_path = tmp_path / "base.nt"
    d1, d2 = tmp_path / "d1.nt", tmp_path / "d2.nt"
    base_path.write_text(serialize_ntriples(triples[:cut]))
    d1.write_text(serialize_ntriples(triples[cut : cut + 3]))
    d2.write_text(serialize_ntriples(triples[cut + 3 :]))
    assert (
        main(
            [
                "2006 cimiano aifb",
                "--data", str(base_path),
                "--update-ntriples", str(d1),
                "--update-ntriples", str(d2),
            ]
        )
        == 0
    )


def test_profile_flag_prints_timing_breakdown(capsys):
    assert main(["2006 cimiano aifb", "--profile"]) == 0
    err = capsys.readouterr().err
    assert "# timings:" in err
    for stage in ("keyword_mapping", "augmentation", "exploration", "query_mapping", "total"):
        assert f"{stage}=" in err


def test_profile_flag_with_filters_reports_unsupported(capsys):
    main(["cimiano before 2007", "--dataset", "dblp", "--scale", "200",
          "--filters", "--profile"])
    assert "--profile is not supported with --filters" in capsys.readouterr().err


class TestSubcommands:
    """`repro search|serve`, with the bare positional form kept as an
    alias for `search`."""

    def test_search_subcommand_matches_legacy_alias(self, capsys):
        assert main(["search", "2006 cimiano aifb"]) == 0
        via_subcommand = capsys.readouterr().out
        assert main(["2006 cimiano aifb"]) == 0
        assert capsys.readouterr().out == via_subcommand

    def test_search_subcommand_flags(self, capsys):
        assert main(["search", "aifb 2006", "--sparql"]) == 0
        assert "SELECT" in capsys.readouterr().out

    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.port == 8080
        assert args.workers == 0  # worker *processes*; 0 = in-process tier
        assert args.max_pending == 64
        assert args.max_queue_wait is None
        assert args.cache == 256

    def test_serve_threads_flag_is_gone(self, capsys):
        """The in-process tier has no thread pool to size: a batch runs on
        the thread that received it."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--dataset", "example", "--port", "0", "--threads", "4"])
        assert excinfo.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_removed_bench_is_not_a_keyword_search(self, capsys):
        """`repro bench ...` must point at the harness, not fall through
        the positional alias into `search "bench"`."""
        assert main(["bench", "--dataset", "example", "--clients", "1,2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "python3 perf/run.py --workload <name>" in captured.err
        # The word itself is still searchable through the subcommand.
        assert main(["search", "bench"]) == 1


class TestPersistenceCommands:
    """`repro build` / `repro compact` / `--bundle` / `--version`."""

    def test_version_flag(self, capsys):
        from repro import __version__

        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"repro {__version__}\n"
        assert main(["-V"]) == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_build_parser_requires_output(self, capsys):
        from repro.cli import build_build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_build_parser().parse_args(["--dataset", "example"])
        assert excinfo.value.code == 2
        assert "--output" in capsys.readouterr().err

    def test_build_parser_defaults(self):
        from repro.cli import build_build_parser

        from repro.cli import _resolve_engine_args

        args = build_build_parser().parse_args(["-o", "x.reprobundle"])
        assert args.output == "x.reprobundle"
        assert args.force is False
        assert args.dataset == "example"
        assert args.cost_model is None  # resolved to stock defaults at build
        _resolve_engine_args(args)
        assert args.cost_model == "c3"

    def test_compact_parser_requires_bundle(self, capsys):
        from repro.cli import build_compact_parser

        with pytest.raises(SystemExit) as excinfo:
            build_compact_parser().parse_args([])
        assert excinfo.value.code == 2
        assert "bundle" in capsys.readouterr().err

    def test_build_and_search_bundle(self, tmp_path, capsys):
        bundle = str(tmp_path / "example.reprobundle")
        assert main(["build", "--dataset", "example", "-o", bundle]) == 0
        assert "# wrote" in capsys.readouterr().err
        assert main(["search", "2006 cimiano aifb", "--bundle", bundle]) == 0
        captured = capsys.readouterr()
        assert "[1]" in captured.out
        assert "# bundle:" in captured.err

    @pytest.mark.parametrize(
        "dataset, queries",
        [
            (["--dataset", "example"], ["publication before 2050", "cimiano since 2000"]),
            (
                ["--dataset", "dblp", "--scale", "200"],
                ["cimiano before 2005", "cimiano before 2007", "cimiano before 2050"],
            ),
        ],
    )
    def test_filtered_search_prints_the_same_from_a_bundle(
        self, tmp_path, capsys, dataset, queries
    ):
        bundle = str(tmp_path / "data.reprobundle")
        assert main(["build", *dataset, "-o", bundle]) == 0
        for query in queries:
            capsys.readouterr()
            code = main(["search", query, *dataset, "--filters"])
            built = capsys.readouterr().out
            assert main(["search", query, "--bundle", bundle, "--filters"]) == code
            assert capsys.readouterr().out == built
            assert built

    @pytest.mark.parametrize("command", ["search", "serve"])
    def test_damaged_wal_is_reported_not_traced(self, tmp_path, capsys, command):
        """What is left of the log's raising damages reaches the user as
        one ``repro: --bundle:`` line from either command."""
        bundle = tmp_path / "example.reprobundle"
        assert main(["build", "--dataset", "example", "-o", str(bundle)]) == 0
        wal = tmp_path / "example.reprobundle.wal"
        wal.write_bytes(b"# repro-wal 2\nB 0\n")
        argv = {
            "search": ["search", "aifb", "--bundle", str(bundle)],
            "serve": ["serve", "--bundle", str(bundle), "--port", "0"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert message.startswith("repro: --bundle: ")
        assert "unrecognized delta-log header" in message
        # A log torn inside a multi-byte character is not damage at all.
        wal.write_bytes(b'# repro-wal 1\n\nB 0\nA <ex:b> <ex:p> "z\xc3')
        assert main(["search", "aifb", "--bundle", str(bundle)]) == 0

    @pytest.mark.parametrize("command", ["search", "serve"])
    def test_unparseable_wal_entry_is_reported_not_traced(self, tmp_path, command):
        """A committed entry whose escape names no character is one
        ``repro: --bundle:`` line, not a traceback."""
        import zlib

        bundle = tmp_path / "example.reprobundle"
        assert main(["build", "--dataset", "example", "-o", str(bundle)]) == 0
        body = 'A <a:s> <a:p> "\\UFFFFFFFF" .'
        crc = zlib.crc32(body.encode("ascii"))
        (tmp_path / "example.reprobundle.wal").write_bytes(
            f"# repro-wal 1\n\nB 0\n{body}\nC 0 {crc:08x}\n".encode("ascii")
        )
        argv = {
            "search": ["search", "aifb", "--bundle", str(bundle)],
            "serve": ["serve", "--bundle", str(bundle), "--port", "0"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert message.startswith("repro: --bundle: ")
        assert "unparseable triple in committed entry" in message
        assert "not a Unicode scalar value" in message

    def test_stream_flag_is_a_hidden_noop(self, tmp_path, capsys):
        """The CLI contract the benchmark harness leans on: it passes
        ``--stream`` for two workloads and not for three, and both
        spellings must be the same build — identical section tables
        (names, order, lengths, CRC32s) and headers equal but for the
        timing fields."""
        import json
        import struct

        def header(path):
            raw = open(path, "rb").read()
            (length,) = struct.unpack_from("<I", raw, 12)
            return json.loads(raw[16 : 16 + length])

        plain = str(tmp_path / "plain.reprobundle")
        flagged = str(tmp_path / "flagged.reprobundle")
        argv = ["build", "--dataset", "dblp", "--scale", "60", "-k", "7"]
        assert main(argv + ["-o", plain]) == 0
        assert main(argv + ["--stream", "-o", flagged]) == 0
        capsys.readouterr()
        a, b = header(plain), header(flagged)
        assert [e["name"] for e in a["sections"]] == EXPECTED_SECTIONS
        assert a["sections"] == b["sections"]
        for meta in (a, b):
            del meta["kindex"]["build_seconds"], meta["summary"]["build_seconds"]
        assert a == b
        assert a["engine"]["k"] == 7  # the engine flags reach the header
        with pytest.raises(SystemExit):
            main(["build", "--help"])
        assert "--stream" not in capsys.readouterr().out

    @pytest.mark.parametrize("stream", [[], ["--stream"]])
    def test_build_rejects_index_tier(self, tmp_path, capsys, stream):
        """``--index-tier`` means nothing to a build: the parser does not
        offer it, whichever way the build is spelled."""
        bundle = tmp_path / "x.reprobundle"
        argv = ["build", "--dataset", "example", *stream]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--index-tier", "mmap", "-o", str(bundle)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --index-tier" in capsys.readouterr().err
        assert not bundle.exists()

    def test_index_tier_flag_is_a_hidden_noop(self, tmp_path, capsys):
        """The other CLI contract the benchmark harness leans on: it
        passes ``--index-tier mmap`` to ``serve`` for two workloads.  A
        loaded bundle has one index tier, so the flag still parses, still
        rejects anything but its two old values, is in no ``--help`` —
        and changes neither the engine nor a byte of the output, which is
        also the output of the engine the constructors build."""
        from repro.cli import _dispatch_overrides, build_serve_parser

        bundle = str(tmp_path / "example.reprobundle")
        assert main(["build", "--dataset", "example", "-o", bundle]) == 0
        capsys.readouterr()

        def stdout(*flags):
            assert main(["search", "cimiano 2006", "--execute", *flags]) == 0
            return capsys.readouterr().out

        constructed = stdout()
        assert stdout("--bundle", bundle) == constructed
        for tier in ("memory", "mmap"):
            assert stdout("--bundle", bundle, "--index-tier", tier) == constructed
            assert stdout("--index-tier", tier) == constructed  # nothing to require
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "cimiano 2006", "--bundle", bundle, "--index-tier", "disk"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'disk'" in capsys.readouterr().err
        for command in ("search", "serve"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert "index-tier" not in capsys.readouterr().out
        args = build_serve_parser().parse_args(
            ["--bundle", bundle, "--workers", "2", "--index-tier", "mmap"]
        )
        assert "index_tier" not in _dispatch_overrides(args)

    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_serve_refuses_a_corrupted_bundle_before_binding(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        """A load serves the sorted runs in place, unverified; the process
        that owns the artifact checks every section once per start.  One
        flipped byte in any of the 22 sections: ``serve`` exits non-zero
        naming the section, before a socket, a worker or a WAL exists —
        and ``compact`` refuses the same file."""
        def no_server(*args, **kwargs):
            raise AssertionError("the server must not be constructed")

        monkeypatch.setattr("repro.service.ReproServer", no_server, raising=False)
        monkeypatch.setattr("repro.service.DispatchService", no_server, raising=False)
        bundle = tmp_path / "example.reprobundle"
        assert main(["build", "--dataset", "example", "-o", str(bundle)]) == 0
        pristine = bundle.read_bytes()
        for name in EXPECTED_SECTIONS:
            bundle.write_bytes(pristine)
            flip_byte_in_section(bundle, name)
            damaged = bundle.read_bytes()
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--bundle", str(bundle), "--port", "0", "--workers", workers])
            message = str(excinfo.value)
            assert f"checksum mismatch in section {name!r}" in message
            capsys.readouterr()
            assert main(["compact", str(bundle)]) == 1
            assert message.split(": ", 2)[2] in capsys.readouterr().err
            assert bundle.read_bytes() == damaged
        assert os.listdir(tmp_path) == ["example.reprobundle"]

    def test_build_from_data_file(self, tmp_path, capsys, example_graph):
        data = tmp_path / "example.nt"
        data.write_text(serialize_ntriples(example_graph.triples))
        bundle = str(tmp_path / "data.reprobundle")
        argv = ["build", "--data", str(data), "--progress-every", "10", "-o", bundle]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "# wrote" in err
        # One reporter for one stream: the builder's, every 10 triples.
        assert err.count("# build:") == len(example_graph.triples) // 10
        assert "# parse:" not in err
        assert main(["search", "2006 cimiano aifb", "--bundle", bundle]) == 0

    def test_build_refuses_overwrite_without_force(self, tmp_path, capsys):
        bundle = str(tmp_path / "example.reprobundle")
        assert main(["build", "--dataset", "example", "-o", bundle]) == 0
        capsys.readouterr()
        assert main(["build", "--dataset", "example", "-o", bundle]) == 1
        assert "refusing to overwrite" in capsys.readouterr().err
        assert main(["build", "--dataset", "example", "-o", bundle, "--force"]) == 0

    def test_compact_missing_bundle_exit_code(self, capsys):
        assert main(["compact", "does-not-exist.reprobundle"]) == 1
        assert "repro compact:" in capsys.readouterr().err

    def test_compact_after_updates(self, tmp_path, capsys, example_graph):
        from repro.rdf.ntriples import serialize_ntriples
        from repro.core.engine import KeywordSearchEngine

        bundle = str(tmp_path / "example.reprobundle")
        assert main(["build", "--dataset", "example", "-o", bundle]) == 0
        engine = KeywordSearchEngine.load(bundle)
        extra = tmp_path / "extra.nt"
        extra.write_text('<ex:n> <http://purl.org/dc/elements/1.1/title> "Novel" .\n')
        from repro.rdf.ntriples import parse_ntriples

        engine.add_triples(list(parse_ntriples(extra.read_text())))
        engine.delta_log.close()  # release the single-writer lock
        capsys.readouterr()
        assert main(["compact", bundle]) == 0
        err = capsys.readouterr().err
        assert "folded 1 WAL epochs" in err

    def test_bundle_preserves_saved_engine_config(self, tmp_path, capsys):
        from repro.cli import _build_engine, build_parser

        bundle = str(tmp_path / "pg.reprobundle")
        assert main(["build", "--dataset", "example", "--cost-model", "pagerank",
                     "-k", "7", "-o", bundle]) == 0
        capsys.readouterr()
        # Unspecified flags keep the bundle's config...
        engine = _build_engine(build_parser().parse_args(["q", "--bundle", bundle]))
        assert engine.cost_model.name == "pagerank"
        assert engine.k == 7
        # ...read-only commands never take the single-writer lock...
        assert engine.delta_log is None
        # ...while explicitly passed flags win.
        args = build_parser().parse_args(["q", "--bundle", bundle, "--cost-model", "c1"])
        engine = _build_engine(args)
        assert engine.cost_model.name == "c1"
        assert engine.k == 7
        assert args.k == 7  # post-load resolution for downstream readers

    def test_bundle_does_not_pin_guided(self, tmp_path, capsys):
        """The bounds are not an option of any entry point: every
        subcommand explores bounded, a bundle does not record how, and
        `--guided` / `--no-guided` are as unknown as `--vectorized`
        (which implementation computes a bound table is picked from the
        view's size)."""
        from repro.cli import _build_engine, build_parser

        bundle = str(tmp_path / "g.reprobundle")
        argv = ["build", "--dataset", "example", "-o", bundle]
        for argv_of in (
            lambda flag: argv + [flag],
            lambda flag: ["search", "q", flag],
            lambda flag: ["serve", flag],
            lambda flag: ["eval", "run", "--dataset", "example", flag],
            lambda flag: ["eval", "seed", "--dataset", "example", flag],
            lambda flag: ["eval", "check", "--dataset", "example", flag],
        ):
            for flag in ("--no-guided", "--guided", "--no-vectorized", "--vectorized"):
                with pytest.raises(SystemExit) as excinfo:
                    main(argv_of(flag))
                assert excinfo.value.code == 2
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert main(argv) == 0
        capsys.readouterr()
        args = build_parser().parse_args(["q", "--bundle", bundle])
        assert _build_engine(args).guided is True

    def test_readonly_search_coexists_with_attached_writer(self, tmp_path, capsys):
        from repro.core.engine import KeywordSearchEngine

        bundle = str(tmp_path / "rw.reprobundle")
        assert main(["build", "--dataset", "example", "-o", bundle]) == 0
        writer = KeywordSearchEngine.load(bundle)  # holds the WAL lock
        capsys.readouterr()
        assert main(["search", "2006 cimiano aifb", "--bundle", bundle]) == 0
        writer.delta_log.close()

    def test_search_with_updates_attaches_wal(self, tmp_path, capsys):
        bundle = str(tmp_path / "upd.reprobundle")
        assert main(["build", "--dataset", "example", "-o", bundle]) == 0
        delta = tmp_path / "delta.nt"
        delta.write_text('<ex:n> <http://purl.org/dc/elements/1.1/title> "Novel" .\n')
        assert main(["search", "novel", "--bundle", bundle,
                     "--update-ntriples", str(delta)]) == 0
        assert os.path.getsize(f"{bundle}.wal") > 20  # epoch durably logged
        capsys.readouterr()
        # A restart replays the logged epoch.
        assert main(["search", "novel", "--bundle", bundle]) == 0
        assert "+1 WAL epochs" in capsys.readouterr().err

    def test_search_bundle_with_corrupt_file_exits_with_message(self, tmp_path):
        bad = tmp_path / "bad.reprobundle"
        bad.write_bytes(b"garbage data that is not a bundle")
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "aifb", "--bundle", str(bad)])
        assert "not a repro bundle" in str(excinfo.value)

    def test_search_bundle_missing_file_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "aifb", "--bundle", str(tmp_path / "nope.reprobundle")])
        assert "--bundle" in str(excinfo.value)


class TestBundleConflicts:
    def test_bundle_conflicts_with_data_sources(self, tmp_path, capsys):
        bundle = str(tmp_path / "c.reprobundle")
        assert main(["build", "--dataset", "example", "-o", bundle]) == 0
        for extra in (["--data", "x.nt"], ["--dataset", "dblp"], ["--scale", "99"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["search", "q", "--bundle", bundle, *extra])
            assert "conflicts" in str(excinfo.value)


def test_stage_bundle_streams_the_source(tmp_path, capsys):
    """``serve --workers N`` without ``--bundle`` stages the worker
    bundle straight from the parsed flags — no throw-away engine."""
    from repro.cli import _stage_bundle, build_serve_parser
    from repro.core.engine import KeywordSearchEngine

    args = build_serve_parser().parse_args(
        ["--dataset", "example", "--workers", "2", "-k", "3", "--cache", "7"]
    )
    path = _stage_bundle(args, str(tmp_path))
    assert path.startswith(str(tmp_path))
    assert "# staged bundle for worker processes" in capsys.readouterr().err
    staged = KeywordSearchEngine.load(path, attach_wal=False)
    assert (staged.k, staged.dmax) == (3, 10)
    assert staged.cache_stats()["search_results"]["maxsize"] == 7
    assert len(staged.graph) == 21


def test_serve_cache_is_a_non_negative_count(capsys):
    """``--cache 0`` keeps no results; a negative count is refused by
    the parser, not clamped to 0."""
    from repro.cli import build_serve_parser

    assert build_serve_parser().parse_args(["--cache", "0"]).cache == 0
    with pytest.raises(SystemExit) as excinfo:
        build_serve_parser().parse_args(["--cache", "-1"])
    assert excinfo.value.code == 2
    assert "--cache: must be >= 0, got -1" in capsys.readouterr().err


def test_serve_hands_timeout_to_the_server_with_workers(monkeypatch):
    """``--timeout`` is every request's deadline on either tier: with
    ``--workers`` it reaches the one place that mints requests, the
    server, and the dispatch tier starts as it would without it."""
    import signal

    import repro.service

    seen = {}

    class FakeTier:
        def __init__(self, bundle, **kwargs):
            seen["workers"] = kwargs["workers"]

        def close(self):
            seen["tier closed"] = True

    class FakeServer:
        url = "http://fake"

        def __init__(self, service, **kwargs):
            seen["service"] = service
            seen["timeout"] = kwargs["timeout"]

        def serve_forever(self):
            pass

        def close(self):
            pass

    monkeypatch.setattr(repro.service, "DispatchService", FakeTier)
    monkeypatch.setattr(repro.service, "ReproServer", FakeServer)
    monkeypatch.setattr(signal, "signal", lambda *args: None)
    assert main(["serve", "--dataset", "example", "--port", "0", "--workers", "2",
                 "--timeout", "5"]) == 0
    assert seen["workers"] == 2
    assert isinstance(seen["service"], FakeTier)
    assert seen["timeout"] == 5.0
    assert seen["tier closed"]
