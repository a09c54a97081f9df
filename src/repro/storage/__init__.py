"""Persistent index artifacts: the offline layer as a durable product.

The paper's economics — one offline indexing pass amortized over many
online queries — only materialize when the offline product *survives the
process*.  This package provides that lifecycle:

* :func:`build_bundle_streaming` — the one writer of the versioned,
  pickle-free, checksummed ``.reprobundle`` container (triple store,
  keyword index, summary graph): triple iterator in, bundle out, peak RSS bounded by the hot structures plus
  the spill budget instead of the corpus.  ``repro build``,
  ``KeywordSearchEngine.save`` and :func:`compact_bundle` all call it;
* :func:`load_bundle` — the reader of that container: the summary graph
  decoded, everything else served in place by the disk-resident readers
  of :mod:`repro.storage.mmap_tier` over the mapped sorted runs, the one
  stored triple set (the data graph a view over them, :mod:`.graph_view`),
  so a loaded engine's cold start is O(metadata), its resident set O(touched data);
* :func:`load_engine` — bundle → ready
  :class:`~repro.core.engine.KeywordSearchEngine` (what
  ``KeywordSearchEngine.load`` and the CLI's ``--bundle`` call);
* :func:`verify_bundle` — every section against its CRC32 through
  buffered reads, then the runs against each other and the header's graph
  counts against them; a load
  never reads the runs end to end, so the process that owns the artifact
  runs this instead (``repro serve --bundle`` once per start,
  :func:`compact_bundle` before it folds anything);
* :class:`DeltaLog` — the write-ahead N-Triples delta log that makes
  update epochs restart-safe (:class:`WalCursor` follows it from a
  saved offset; one scanner and one damage policy serve both);
* :func:`compact_bundle` — folds the log back into a fresh bundle.

``repro build`` / ``repro compact`` and the ``--bundle`` option of
``search``/``serve`` are the command-line surface.
"""

from repro.storage.bundle import (
    BUNDLE_SUFFIX,
    FORMAT_VERSION,
    MAGIC,
    BundleWriter,
    compact_bundle,
    load_bundle,
    load_engine,
    verify_bundle,
)
from repro.storage.mmap_tier import (
    MmapInvertedIndex,
    MmapTermDictionary,
    MmapTermTable,
    MmapTripleTier,
)
from repro.storage.stream_build import DEFAULT_SPILL_BUDGET, build_bundle_streaming
from repro.storage.errors import (
    BundleChecksumError,
    BundleError,
    BundleExistsError,
    BundleFormatError,
    UnsupportedEngineError,
    WalError,
)
from repro.storage.wal import DeltaLog, WalCursor

__all__ = [
    "BUNDLE_SUFFIX",
    "DEFAULT_SPILL_BUDGET",
    "FORMAT_VERSION",
    "MAGIC",
    "BundleChecksumError",
    "BundleWriter",
    "build_bundle_streaming",
    "BundleError",
    "BundleExistsError",
    "BundleFormatError",
    "DeltaLog",
    "MmapInvertedIndex",
    "MmapTermDictionary",
    "MmapTermTable",
    "MmapTripleTier",
    "WalCursor",
    "UnsupportedEngineError",
    "WalError",
    "compact_bundle",
    "load_bundle",
    "load_engine",
    "verify_bundle",
]
