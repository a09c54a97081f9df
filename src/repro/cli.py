"""Command-line interface: subcommands over the engine and the serving layer.

::

    repro search "cimiano 2006" --dataset dblp --execute   # one-shot search
    repro serve --dataset dblp --port 8080 --cache 256     # HTTP service
    repro build --dataset dblp -o dblp.reprobundle         # offline artifact
    repro compact dblp.reprobundle                         # fold WAL into it
    repro eval run --dataset tap                           # quality report
    repro eval check --dataset example --bundle ex.reprobundle  # CI gate

The original positional form (``repro "cimiano 2006" ...``) is kept as an
alias for ``repro search`` — any first argument that is not a subcommand
name is treated as the keyword query.

``search``/``serve`` accept ``--bundle PATH`` to warm-start
from a ``repro build`` artifact instead of rebuilding the offline layer
from raw triples; serving then starts in milliseconds and ``/update``
epochs are logged durably next to the bundle.

Examples::

    python -m repro "cimiano 2006" --dataset dblp --execute
    python -m repro "2006 cimiano aifb" --dataset example --cost-model c1
    python -m repro "cimiano before 2005" --dataset dblp --filters
    python -m repro "professor department0" --data my_data.nt -k 10
    python -m repro "new paper" --data base.nt --update-ntriples delta.nt
    python -m repro build --data my_data.nt --spill-budget 64 -o my_data.reprobundle
    python -m repro serve --bundle my_data.reprobundle --port 8080
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import Optional

from repro import __version__
from repro.core.engine import ENGINE_DEFAULTS, KeywordSearchEngine
from repro.rdf.graph import DataGraph
from repro.rdf.ntriples import parse_ntriples

SUBCOMMANDS = ("search", "serve", "build", "compact", "eval")


@contextlib.contextmanager
def _triple_source(args):
    """The triples ``--data`` / ``--dataset --scale`` name, as a lazy
    iterator: a file parsed line by line (never read into memory whole,
    see parse_ntriples) or a dataset generator.  Every command that
    derives the offline layer from triples reads them through here."""
    if args.data is not None:
        with open(args.data) as fh:
            yield parse_ntriples(fh)
    else:
        from repro.datasets import triples_for

        yield triples_for(args.dataset, scale=args.scale)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """Finite and > 0: the rule a batch body's ``timeout`` is held to."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds > 0, got {text}"
        )
    return value


def _add_dataset_args(
    parser: argparse.ArgumentParser, bundle: bool = True
) -> None:
    parser.add_argument(
        "--dataset",
        choices=("example", "dblp", "lubm", "tap"),
        default="example",
        help="bundled dataset to search (default: the paper's running example)",
    )
    parser.add_argument("--data", help="path to an N-Triples file to search instead")
    parser.add_argument("--scale", type=int, default=1000, help="dataset scale knob")
    if bundle:
        parser.add_argument(
            "--bundle",
            metavar="PATH",
            help="warm-start from a `repro build` index bundle instead of "
            "building the offline layer from triples (replays and attaches "
            "the bundle's delta log)",
        )
        _add_index_tier_arg(parser)


def _add_index_tier_arg(parser: argparse.ArgumentParser) -> None:
    # `--index-tier` chose between two readers of a bundle when there were
    # two.  There is one now, so the flag changes nothing; it still parses
    # (and still rejects anything but its two old values) only because the
    # benchmark harness (perf/workloads.py, frozen for this change) passes
    # it to `serve`.  ROADMAP item 2(a) drops it from both places.
    parser.add_argument(
        "--index-tier", choices=("memory", "mmap"), help=argparse.SUPPRESS
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    # The parser defaults are ``None``, not `ENGINE_DEFAULTS`, so `--bundle`
    # can distinguish "user asked for this" (flag wins) from "unspecified"
    # (the config the bundle was built with wins — overriding it silently
    # would serve the artifact under a different cost model than it was
    # built for).
    parser.add_argument(
        "-k",
        type=_positive_int,
        default=None,
        help="number of queries to compute (>= 1; default 5, or the "
        "bundle's setting with --bundle)",
    )
    parser.add_argument(
        "--cost-model",
        choices=("c1", "c2", "c3", "pagerank"),
        default=None,
        help="scoring function (Section V; default c3, or the bundle's "
        "setting with --bundle)",
    )
    parser.add_argument(
        "--dmax", type=_non_negative_int, default=None,
        help="exploration depth bound (>= 0; default 10, or the bundle's "
        "setting with --bundle)",
    )


def _resolve_engine_args(args) -> None:
    """Fill unset engine flags with the stock defaults (non-bundle paths)."""
    for name, value in ENGINE_DEFAULTS.items():
        if getattr(args, name, None) is None:
            setattr(args, name, value)


def _build_engine(
    args, search_cache_size: int = 0, writer: bool = False, verify: bool = False
) -> KeywordSearchEngine:
    if args.bundle:
        from repro.storage import BundleError, WalError, verify_bundle

        if args.data is not None or args.dataset != "example" or args.scale != 1000:
            # Silently serving the bundle while the user believes their
            # --data/--dataset took effect is worse than an error.
            raise SystemExit(
                "repro: --bundle conflicts with --data/--dataset/--scale — "
                "the bundle already contains its data; rebuild it with "
                "`repro build` to change datasets"
            )

        # Warm start: the offline layer comes off disk.  Flags the user
        # actually passed override the saved engine configuration;
        # unspecified ones keep the settings the bundle was built with
        # (load() ignores None overrides).  Only commands that can write
        # (`serve` with /update, `search` with --update/--remove-ntriples)
        # attach the WAL and take its single-writer lock; read-only
        # commands coexist with a running server on the same artifact.
        # A load serves the sorted runs in place without checksumming
        # them; `verify` is the full CRC pass, asked for by the one
        # long-lived owner of the artifact (`serve`, once per start).
        try:
            if verify:
                verify_bundle(args.bundle)
            engine = KeywordSearchEngine.load(
                args.bundle,
                attach_wal=writer,
                cost_model=args.cost_model,
                k=args.k,
                dmax=args.dmax,
                search_cache_size=search_cache_size,
            )
        except FileNotFoundError as exc:
            raise SystemExit(f"repro: --bundle: {exc}") from exc
        except (BundleError, WalError) as exc:
            raise SystemExit(f"repro: --bundle: {exc}") from exc
        # Post-load: resolve the remaining None flags to the engine's
        # effective settings for code that reads them directly
        # (search_command's k/dmax forwarding).
        if args.k is None:
            args.k = engine.k
        if args.dmax is None:
            args.dmax = engine.dmax
        if args.cost_model is None:
            args.cost_model = engine.cost_model.name
        artifact = engine.artifact
        print(
            f"# bundle: {args.bundle} (epoch {artifact['epoch_at_save']}, "
            f"+{artifact['wal_epochs_replayed']} WAL epochs, "
            f"{1000 * artifact['load_seconds']:.1f}ms)",
            file=sys.stderr,
        )
        return engine
    _resolve_engine_args(args)
    with _triple_source(args) as triples:
        graph = DataGraph(triples)
    print(f"# dataset: {graph}", file=sys.stderr)
    return KeywordSearchEngine(
        graph,
        cost_model=args.cost_model,
        k=args.k,
        dmax=args.dmax,
        search_cache_size=search_cache_size,
    )


# ----------------------------------------------------------------------
# repro search (also the legacy positional form)
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The ``repro search`` argument parser (the legacy top-level shape)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Keyword search on RDF data through top-k query computation "
        "(Tran et al., ICDE 2009).  Subcommands: search (this form; the bare "
        "positional query is an alias), serve (HTTP service).",
        epilog="See also: `repro serve --help`.",
    )
    parser.add_argument("keywords", help="the keyword query, e.g. 'cimiano 2006'")
    _add_dataset_args(parser)
    parser.add_argument(
        "--update-ntriples",
        metavar="FILE",
        action="append",
        default=[],
        help="N-Triples file of triples to ADD through incremental index "
        "maintenance before searching (repeatable)",
    )
    parser.add_argument(
        "--remove-ntriples",
        metavar="FILE",
        action="append",
        default=[],
        help="N-Triples file of triples to REMOVE through incremental index "
        "maintenance before searching (repeatable)",
    )
    _add_engine_args(parser)
    parser.add_argument(
        "--filters",
        action="store_true",
        help="recognize comparison keywords (before/after/ranges) as FILTERs",
    )
    parser.add_argument(
        "--execute",
        action="store_true",
        help="run the top query and print its answers",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the per-query timing breakdown (keyword mapping, "
        "augmentation, exploration, query mapping) to stderr",
    )
    parser.add_argument(
        "--sparql", action="store_true", help="print SPARQL instead of logic syntax"
    )
    parser.add_argument(
        "--limit", type=_non_negative_int, default=10,
        help="answer limit with --execute (>= 0)",
    )
    return parser


def search_command(argv) -> int:
    args = build_parser().parse_args(argv)
    engine = _build_engine(
        args, writer=bool(args.update_ntriples or args.remove_ntriples)
    )
    graph = engine.graph

    # Apply deltas through the incremental index maintenance path — the
    # offline indexes are updated in place, not rebuilt.
    for path in args.update_ntriples:
        with open(path) as fh:
            count = engine.add_triples(list(parse_ntriples(fh)))
        print(f"# +{count} triples from {path}", file=sys.stderr)
    for path in args.remove_ntriples:
        with open(path) as fh:
            count = engine.remove_triples(list(parse_ntriples(fh)))
        print(f"# -{count} triples from {path}", file=sys.stderr)

    if args.filters:
        if args.profile:
            print("# --profile is not supported with --filters", file=sys.stderr)
        filtered = engine.search_with_filters(
            args.keywords, k=args.k, dmax=args.dmax
        )
        if not filtered:
            print("no interpretations found", file=sys.stderr)
            return 1
        for rank, fq in enumerate(filtered, start=1):
            print(f"[{rank}] {fq.to_sparql() if args.sparql else fq}")
        if args.execute:
            print()
            for answer in filtered[0].evaluate(engine.evaluator, limit=args.limit):
                print(" ", {str(v): graph.label_of(t) for v, t in answer.as_dict().items()})
        return 0

    result = engine.search(args.keywords, k=args.k)
    if args.profile:
        timings = result.timings
        breakdown = "  ".join(
            f"{stage}={1000 * timings.get(stage, 0.0):.2f}ms"
            for stage in (
                "keyword_mapping",
                "augmentation",
                "exploration",
                "query_mapping",
                "total",
            )
        )
        print(f"# timings: {breakdown}", file=sys.stderr)
    if result.ignored_keywords:
        print(f"# ignored keywords: {result.ignored_keywords}", file=sys.stderr)
    if not result.candidates:
        print("no interpretations found", file=sys.stderr)
        return 1
    for candidate in result:
        body = candidate.to_sparql() if args.sparql else str(candidate.query)
        print(f"[{candidate.rank}] cost={candidate.cost:.2f}  {body}")
        print(f"    {candidate.verbalize()}")
    if args.execute:
        print()
        for answer in engine.execute(result.best(), limit=args.limit):
            print(" ", {str(v): graph.label_of(t) for v, t in answer.as_dict().items()})
    return 0


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------

def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve /search, /execute, /update, /stats as JSON over HTTP.",
    )
    _add_dataset_args(parser)
    _add_engine_args(parser)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker *processes* fanning out /search and /execute over a "
        "shared mmap bundle (0 = in-process serving, each request on the "
        "thread that received it; a worker has its own GIL, so cold "
        "CPU-bound throughput scales with N)",
    )
    parser.add_argument(
        "--max-pending", type=_positive_int, default=64,
        help="admission bound on in-flight queries (excess gets HTTP 429)",
    )
    parser.add_argument(
        "--max-queue-wait", type=_positive_seconds, default=None, metavar="SECONDS",
        help="bound on time a query may wait for admission/an idle worker, "
        "separately from execution (excess gets HTTP 429)",
    )
    parser.add_argument(
        "--cache", type=_non_negative_int, default=256, metavar="N",
        help="finished searches the query plans keep, at most N in all, and "
        "at least N plans kept (0: plans keep no results)",
    )
    parser.add_argument(
        "--timeout", type=_positive_seconds, default=None, metavar="SECONDS",
        help="deadline of every /search and /execute request, seconds from "
        "its arrival, on either tier (a batch's 'timeout' field overrides "
        "it): a request whose wait outlasts it gets HTTP 504, a batch member "
        "whose turn comes after it a 'timeout' outcome",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    return parser


def _dispatch_overrides(args) -> dict:
    """Engine-configuration overrides forwarded to every worker process,
    so the whole tier serves one configuration (the dispatcher's)."""
    return {
        "k": args.k,
        "cost_model": args.cost_model,
        "dmax": args.dmax,
        "search_cache_size": args.cache,
    }


def _stream_bundle(args, path, **options) -> dict:
    """Stream the triples the dataset flags name into the bundle builder,
    under the configuration the engine flags name."""
    from repro.storage import build_bundle_streaming

    _resolve_engine_args(args)
    with _triple_source(args) as triples:
        return build_bundle_streaming(
            triples,
            path,
            cost_model=args.cost_model,
            k=args.k,
            dmax=args.dmax,
            **options,
        )


def _stage_bundle(args, directory: str) -> str:
    """Build the bundle the worker processes will mmap, in ``directory``.

    ``--workers N`` without ``--bundle`` still works: the triple source
    is streamed into a staged bundle once and every worker maps that
    artifact — the same shared-page-cache shape as a prebuilt one.
    """
    path = f"{directory}/staged.reprobundle"
    info = _stream_bundle(args, path, search_cache_size=args.cache)
    print(
        f"# staged bundle for worker processes: {path} ({info['bytes']} bytes)",
        file=sys.stderr,
    )
    return path


def serve_command(argv) -> int:
    import signal
    import tempfile
    import threading

    from repro.service import DispatchService, EngineService, ReproServer

    args = build_serve_parser().parse_args(argv)
    if args.workers < 0:
        raise SystemExit(f"repro serve: --workers must be >= 0, got {args.workers}")
    with contextlib.ExitStack() as staging:
        if args.workers > 0 and not args.bundle:
            # No engine is built here: the dispatcher loads its writer from
            # the staged bundle, so /update epochs are logged durably where
            # the workers can replay them.  Bundle and WAL live in a
            # directory of their own, removed once the server has stopped
            # and the dispatcher has released the log.
            engine = None
            bundle = _stage_bundle(args, staging.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-serve-")
            ))
        else:
            engine = _build_engine(
                args, search_cache_size=args.cache, writer=True, verify=True
            )
            bundle = args.bundle

        if args.workers > 0:
            service = DispatchService(
                bundle,
                workers=args.workers,
                engine=engine,
                overrides=_dispatch_overrides(args),
                max_pending=args.max_pending,
                max_queue_wait=args.max_queue_wait,
            )
            print(f"# dispatch tier: {args.workers} worker processes", file=sys.stderr)
        else:
            service = EngineService(
                engine,
                max_pending=args.max_pending,
                max_queue_wait=args.max_queue_wait,
            )
        server = ReproServer(
            service,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            timeout=args.timeout,
        )
        # Graceful drain: SIGTERM stops accepting, finishes in-flight work,
        # then shuts the worker pool down cleanly (shutdown() must run off
        # the serving thread, so hand it to a helper).
        def _drain(signum, frame):
            print("# SIGTERM: draining", file=sys.stderr)
            threading.Thread(target=server._httpd.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _drain)
        print(f"# serving on {server.url}", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("# shutting down", file=sys.stderr)
        finally:
            server.close()
            service.close()
    return 0


# ----------------------------------------------------------------------
# repro build / repro compact (the offline artifact lifecycle)
# ----------------------------------------------------------------------

def build_build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro build",
        description="Build the offline layer once and save it as a versioned "
        "index bundle that `search`/`serve --bundle` warm-start from.",
    )
    _add_dataset_args(parser, bundle=False)
    _add_engine_args(parser)
    parser.add_argument(
        "-o",
        "--output",
        required=True,
        metavar="PATH",
        help="bundle file to write (conventionally *.reprobundle)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing bundle (refused otherwise)",
    )
    # `--stream` chose the out-of-core builder when there were two.  There
    # is one now, so the flag changes nothing; it still parses only because
    # the benchmark harness (perf/workloads.py, frozen for this change)
    # passes it.  A later `benchmark` PR drops it from both places.
    parser.add_argument("--stream", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--spill-budget",
        type=_positive_int,
        default=64,
        metavar="MB",
        help="in-memory budget per sort/postings buffer before the build "
        "spills a sorted run to disk (default 64 MB); peak memory is "
        "bounded by the keyword-class contexts + summary graph + this "
        "budget, not by the corpus size",
    )
    parser.add_argument(
        "--progress-every",
        type=_positive_int,
        default=100_000,
        metavar="N",
        help="log an ingestion throughput line every N triples "
        "(default 100000)",
    )
    return parser


def build_command(argv) -> int:
    from repro.storage import BundleError, WalError

    args = build_build_parser().parse_args(argv)

    def progress(count: int, elapsed: float) -> None:
        rate = count / elapsed if elapsed > 0 else 0.0
        print(
            f"# build: {count:,} triples in {elapsed:.1f}s "
            f"({rate:,.0f} triples/s)",
            file=sys.stderr,
        )

    try:
        info = _stream_bundle(
            args,
            args.output,
            force=args.force,
            spill_budget_bytes=args.spill_budget * 1024 * 1024,
            progress=progress,
            progress_every=args.progress_every,
        )
    except (BundleError, WalError) as exc:
        # WalError covers overwriting an artifact whose delta log another
        # engine currently holds — same clean refusal as `repro compact`.
        print(f"repro build: {exc}", file=sys.stderr)
        return 1
    print(
        f"# wrote {info['path']}: {info['bytes']} bytes, "
        f"{info['sections']} sections, format v{info['format_version']}, "
        f"epoch {info['epoch']} "
        f"({info['triples']:,} triples, {info['terms']:,} terms, "
        f"{info['postings_runs']} posting runs, {info['build_seconds']:.1f}s)",
        file=sys.stderr,
    )
    return 0


def build_compact_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro compact",
        description="Fold a bundle's write-ahead delta log back into the "
        "bundle and truncate the log.",
    )
    parser.add_argument("bundle", help="path to the *.reprobundle file")
    return parser


def compact_command(argv) -> int:
    from repro.storage import BundleError, WalError, compact_bundle

    args = build_compact_parser().parse_args(argv)
    try:
        info = compact_bundle(args.bundle)
    except FileNotFoundError as exc:
        print(f"repro compact: {exc}", file=sys.stderr)
        return 1
    except (BundleError, WalError) as exc:
        print(f"repro compact: {exc}", file=sys.stderr)
        return 1
    print(
        f"# compacted {info['path']}: folded {info['wal_epochs_folded']} WAL "
        f"epochs, now at epoch {info['epoch']} ({info['bytes']} bytes)",
        file=sys.stderr,
    )
    return 0


# ----------------------------------------------------------------------
# eval: the retrieval-quality harness (repro.quality)
# ----------------------------------------------------------------------

#: Conventional layout, relative to the working directory (the repo root
#: in CI).  Goldens and baselines are committed; reports are not.
_EVAL_GOLDENS = "eval/goldens/{dataset}.jsonl"
_EVAL_BASELINE = "eval/baselines/{dataset}.json"
_EVAL_REPORTS_DIR = "eval/reports"


def _add_eval_engine_args(parser: argparse.ArgumentParser) -> None:
    """Engine-configuration flags shared by ``eval run/check/seed``.

    Unlike ``repro search``, an eval invocation combines ``--dataset``
    (selects goldens + intent workload) with an optional ``--bundle``
    (supplies the offline structures), so it does not go through
    ``_build_engine``'s mutual-exclusion checks.
    """
    parser.add_argument(
        "--dataset",
        required=True,
        choices=("example", "dblp", "lubm", "tap"),
        help="dataset name: selects the golden file, the intent workload, "
        "and (without --bundle) the generated graph",
    )
    parser.add_argument(
        "--bundle",
        default=None,
        help="evaluate an engine loaded from this .reprobundle instead of "
        "building the offline layer fresh",
    )
    parser.add_argument(
        "--scale", type=int, default=1000,
        help="generator scale for fresh builds (same meaning as repro "
        "build --scale; ignored with --bundle)",
    )
    parser.add_argument(
        "--perturb-costs", action="store_true",
        help="deliberately invert the cost model's ranking — proves the "
        "regression gate fires (eval check must then exit nonzero)",
    )
    _add_index_tier_arg(parser)
    _add_engine_args(parser)


def _add_eval_metric_args(parser: argparse.ArgumentParser) -> None:
    from repro.quality.runner import DEFAULT_ANSWER_DEPTH, DEFAULT_EVAL_K

    parser.add_argument(
        "--eval-k", type=_positive_int, default=DEFAULT_EVAL_K,
        help=f"candidate depth for query-level metrics (default "
        f"{DEFAULT_EVAL_K})",
    )
    parser.add_argument(
        "--answer-depth", type=_positive_int, default=DEFAULT_ANSWER_DEPTH,
        help=f"answer depth for answer-level metrics (default "
        f"{DEFAULT_ANSWER_DEPTH})",
    )


def build_eval_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro eval",
        description="Retrieval-quality evaluation against golden cases: "
        "Recall@k / MRR / nDCG at the query-candidate and executed-answer "
        "level, versioned reports, and a baseline regression gate.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    run = sub.add_parser(
        "run", help="evaluate a configuration and write a versioned report"
    )
    _add_eval_engine_args(run)
    _add_eval_metric_args(run)
    run.add_argument(
        "--goldens", default=None,
        help=f"golden file (default {_EVAL_GOLDENS})",
    )
    run.add_argument(
        "--reports-dir", default=_EVAL_REPORTS_DIR,
        help=f"where reports go (default {_EVAL_REPORTS_DIR})",
    )
    run.add_argument(
        "--baseline", default=None,
        help=f"baseline to compare against (default {_EVAL_BASELINE})",
    )
    run.add_argument(
        "--update-baseline", action="store_true",
        help="bless this run's aggregates as the committed baseline",
    )
    run.add_argument(
        "--include-unblessed", action="store_true",
        help="also evaluate proposed (unblessed) golden cases",
    )
    run.add_argument(
        "--json", action="store_true",
        help="print the full report JSON to stdout",
    )

    seed = sub.add_parser(
        "seed", help="propose golden cases from a trusted engine or endpoint"
    )
    _add_eval_engine_args(seed)
    _add_eval_metric_args(seed)
    seed.add_argument(
        "--endpoint", default=None,
        help="seed from a live `repro serve` URL instead of in-process "
        "(intent grades then top out at 2: JSON does not round-trip "
        "query objects)",
    )
    seed.add_argument(
        "-o", "--output", default=None,
        help="where to write the proposals (default: the golden path "
        "with --bless, else <golden path>.proposed.jsonl)",
    )
    seed.add_argument(
        "--bless", action="store_true",
        help="mark the seeded cases blessed (trusted workflows only; the "
        "default leaves them as proposals for human review)",
    )

    check = sub.add_parser(
        "check", help="the regression gate: exit 1 if any metric regressed"
    )
    _add_eval_engine_args(check)
    _add_eval_metric_args(check)
    check.add_argument(
        "--goldens", default=None,
        help=f"golden file (default {_EVAL_GOLDENS})",
    )
    check.add_argument(
        "--baseline", default=None,
        help=f"baseline to gate against (default {_EVAL_BASELINE})",
    )
    check.add_argument(
        "--tolerance", type=float, default=None,
        help="slack below baseline before a metric fails (default 1e-9)",
    )

    diff = sub.add_parser("diff", help="compare two report files")
    diff.add_argument("report_a", help="current report JSON")
    diff.add_argument("report_b", help="reference report JSON")
    return parser


def _load_eval_goldens(args, include_unblessed: bool):
    """Load + filter the golden file an eval action should score against."""
    from repro.quality import GoldenFile, load_goldens

    path = args.goldens or _EVAL_GOLDENS.format(dataset=args.dataset)
    goldens = load_goldens(path)
    if goldens.dataset != args.dataset:
        raise SystemExit(
            f"repro eval: {path} is for dataset {goldens.dataset!r}, "
            f"not {args.dataset!r}"
        )
    if include_unblessed:
        return goldens, path
    blessed = [
        c for c in goldens.cases if c.provenance.get("blessed", False)
    ]
    skipped = len(goldens.cases) - len(blessed)
    if skipped:
        print(
            f"# skipping {skipped} unblessed case(s) — review and bless "
            "them, or pass --include-unblessed",
            file=sys.stderr,
        )
    if not blessed:
        raise SystemExit(
            f"repro eval: {path} has no blessed cases; nothing to score"
        )
    return GoldenFile(goldens.dataset, blessed, goldens.meta), path


def _eval_engine_from_args(args):
    from repro.quality import build_eval_engine
    from repro.storage import BundleError, WalError

    try:
        return build_eval_engine(
            args.dataset,
            bundle=args.bundle,
            cost_model=args.cost_model,
            k=args.k,
            dmax=args.dmax,
            scale=args.scale,
            perturb_costs=args.perturb_costs,
        )
    except ValueError as exc:
        raise SystemExit(f"repro eval: {exc}")
    except (FileNotFoundError, BundleError, WalError) as exc:
        raise SystemExit(f"repro eval: --bundle: {exc}") from exc


def _print_aggregates(report, deltas=None) -> None:
    for name, value in sorted(report["aggregates"].items()):
        count = report["counts"].get(name, 0)
        shown = "undefined" if value is None else f"{value:.4f}"
        line = f"  {name:<20} {shown:>10}  ({count}/{report['num_cases']} cases)"
        if deltas and deltas.get(name, {}).get("delta") is not None:
            line += f"  Δ{deltas[name]['delta']:+.4f} vs previous"
        print(line)


def _eval_run(args) -> int:
    from repro.quality import (
        compare_to_baseline,
        evaluate_quality,
        load_baseline,
        save_baseline,
        write_report,
    )

    goldens, goldens_path = _load_eval_goldens(args, args.include_unblessed)
    engine, config = _eval_engine_from_args(args)
    report = evaluate_quality(
        engine, goldens, eval_k=args.eval_k, answer_depth=args.answer_depth
    )
    paths = write_report(report, args.reports_dir, config=config)
    print(f"# goldens: {goldens_path} ({report['num_cases']} cases)")
    print(f"# config: {config}")
    print(f"# report: {paths['latest']}")
    _print_aggregates(report, report.get("deltas_vs_previous"))

    baseline_path = args.baseline or _EVAL_BASELINE.format(dataset=args.dataset)
    if args.update_baseline:
        save_baseline(report, baseline_path)
        print(f"# baseline updated: {baseline_path}")
    else:
        import os

        if os.path.exists(baseline_path):
            failures = compare_to_baseline(report, load_baseline(baseline_path))
            if failures:
                print(f"# NOTE: {len(failures)} metric(s) below the committed "
                      f"baseline ({baseline_path}); `repro eval check` would fail")
            else:
                print(f"# at or above baseline: {baseline_path}")
    if args.json:
        import json as _json

        print(_json.dumps(report, indent=2, sort_keys=True))
    return 0


def _eval_seed(args) -> int:
    from repro.quality import (
        GoldenFile,
        save_goldens,
        seed_cases_from_endpoint,
        seed_cases_in_process,
    )
    from repro.datasets import effectiveness_workload

    workload = effectiveness_workload(args.dataset)
    if args.endpoint:
        cases = seed_cases_from_endpoint(
            args.endpoint,
            workload,
            eval_k=args.eval_k,
            answer_depth=args.answer_depth,
            blessed=args.bless,
        )
        source = args.endpoint
    else:
        engine, config = _eval_engine_from_args(args)
        cases = seed_cases_in_process(
            engine,
            workload,
            eval_k=args.eval_k,
            answer_depth=args.answer_depth,
            blessed=args.bless,
            engine_config=config,
        )
        source = "in-process"
    golden_path = _EVAL_GOLDENS.format(dataset=args.dataset)
    output = args.output or (
        golden_path if args.bless else f"{golden_path}.proposed.jsonl"
    )
    meta = {
        "golden_format": 1,
        "dataset": args.dataset,
        "eval_k": args.eval_k,
        "answer_depth": args.answer_depth,
    }
    save_goldens(GoldenFile(args.dataset, cases, meta), output)
    matched = sum(1 for c in cases if c.provenance.get("intent_matched"))
    state = "blessed" if args.bless else "proposed (unblessed)"
    print(
        f"# seeded {len(cases)} {state} case(s) from {source} -> {output}"
    )
    print(f"# intent matched for {matched}/{len(cases)} queries")
    if not args.bless:
        print(
            "# review the proposals, then re-run with --bless (or edit "
            "provenance.blessed by hand) to admit them to the gate"
        )
    return 0


def _eval_check(args) -> int:
    from repro.quality import (
        compare_to_baseline,
        evaluate_quality,
        load_baseline,
    )

    baseline_path = args.baseline or _EVAL_BASELINE.format(dataset=args.dataset)
    try:
        baseline = load_baseline(baseline_path)
    except FileNotFoundError:
        raise SystemExit(
            f"repro eval check: no baseline at {baseline_path} — run "
            "`repro eval run --update-baseline` on a trusted build first"
        )
    goldens, goldens_path = _load_eval_goldens(args, include_unblessed=False)
    engine, config = _eval_engine_from_args(args)
    report = evaluate_quality(
        engine, goldens, eval_k=args.eval_k, answer_depth=args.answer_depth
    )
    kwargs = {} if args.tolerance is None else {"tolerance": args.tolerance}
    failures = compare_to_baseline(report, baseline, **kwargs)
    print(f"# goldens: {goldens_path} ({report['num_cases']} cases)")
    print(f"# config: {config}")
    print(f"# baseline: {baseline_path}")
    exploration = engine.exploration_stats()
    print(f"# exploration: {exploration}")
    _print_aggregates(report)
    if failures:
        print(f"FAIL: {len(failures)} metric(s) regressed vs baseline:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    if exploration["seed_fallbacks"]:
        # The answers are right — a refuted seed is rerun without it — but
        # each one is a second exploration hiding behind them.
        print(
            f"FAIL: {exploration['seed_fallbacks']} of {exploration['seeded']} "
            "seeded explorations refuted their threshold and ran twice"
        )
        return 1
    print("OK: all metrics at or above baseline")
    return 0


def _eval_diff(args) -> int:
    import json as _json

    from repro.quality import diff_reports, load_report

    diff = diff_reports(load_report(args.report_a), load_report(args.report_b))
    print(_json.dumps(diff, indent=2, sort_keys=True))
    return 0


def eval_command(argv) -> int:
    from repro.quality import GoldenFormatError

    args = build_eval_parser().parse_args(argv)
    actions = {
        "run": _eval_run,
        "seed": _eval_seed,
        "check": _eval_check,
        "diff": _eval_diff,
    }
    try:
        return actions[args.action](args)
    except GoldenFormatError as exc:
        raise SystemExit(f"repro eval: {exc}")
    except FileNotFoundError as exc:
        raise SystemExit(f"repro eval: {exc}")


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("--version", "-V"):
        # Handled before dispatch: the legacy positional alias would
        # otherwise swallow the flag as a keyword query.
        print(f"repro {__version__}")
        return 0
    if argv and argv[0] == "bench":
        # A removed subcommand, not a keyword: the positional alias below
        # would otherwise run `search "bench"`.
        print(
            "repro: `bench` was removed; measure with `python3 perf/run.py "
            "--workload <name>` (to search for the word: `repro search bench`)",
            file=sys.stderr,
        )
        return 2
    if argv and argv[0] in SUBCOMMANDS:
        command, rest = argv[0], argv[1:]
    else:
        # Legacy alias: `repro "cimiano 2006" ...` == `repro search ...`.
        command, rest = "search", argv
    if command == "serve":
        return serve_command(rest)
    if command == "build":
        return build_command(rest)
    if command == "compact":
        return compact_command(rest)
    if command == "eval":
        return eval_command(rest)
    return search_command(rest)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
