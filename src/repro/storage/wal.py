"""The write-ahead delta log: restart-safe update epochs for a bundle.

A bundle is one frozen engine state; the delta log makes the pair
*(bundle, log)* a durable, incrementally maintained artifact.  Every
committed update epoch appends one entry::

    B <epoch>
    A <triple in N-Triples syntax> .
    R <triple in N-Triples syntax> .
    ...
    C <epoch> <crc32 of the A/R lines, hex>

``B`` opens the entry with the epoch it transforms (the manager's
pre-batch counter), ``A``/``R`` carry the deduplicated add/remove batch
in exact N-Triples syntax (the round-trip identity of
``repro.rdf.ntriples`` is property-tested precisely because this file
depends on it), and ``C`` commits it with a checksum.  The entry body is
written and fsynced *before* the in-memory structures mutate (hooked as
the :class:`~repro.maintenance.IndexManager`'s ``record`` epoch hook),
and ``C`` only lands after the epoch really committed — so on restart:

* an entry without its ``C`` line (crash mid-write, or a batch whose
  application failed) is ignored,
* committed entries with epochs the bundle already contains are skipped,
* the remaining tail replays through the normal incremental-maintenance
  path, which the maintained==rebuilt property guarantees reproduces the
  exact pre-crash engine,
* an epoch *gap* — a damaged, hence uncommitted, entry with committed
  successors — raises :class:`~repro.storage.errors.WalError`: missing
  updates must never be papered over.

``repro compact`` folds the tail back into a fresh bundle and truncates
the log (:func:`repro.storage.bundle.compact_bundle`).

One scanner reads the log, :func:`_scan`, and one damage policy holds
for every reader of it — they must agree where the log ends, or a
restarted dispatcher and the workers that follow it disagree about the
epoch they serve:

* the log opens with this release's header line; any other first line
  raises :class:`WalError` (a future format is refused, not misparsed),
  except a proper prefix of it, which is an empty log whose header a
  crash tore and the next writer rewrites;
* lines are decoded one at a time; a line that is not UTF-8, not one of
  ``B``/``A``/``R``/``C``, or a ``B`` without an epoch voids the entry
  around it, and a ``C`` that names another epoch or another CRC leaves
  its entry uncommitted — never an exception;
* a ``C`` line whose content is complete commits its entry with or
  without its newline: the next :meth:`DeltaLog.record` opens with a
  newline and would complete it anyway, so counting it only then would
  let a restarted writer log the same epoch twice;
* any other fragment after the last newline may still be mid-write and
  is left alone;
* a CRC-valid entry whose N-Triples body does not parse is a writer
  bug, not a torn write: :class:`WalError`.

:meth:`DeltaLog.committed_entries` runs the scanner over the whole file
— one-shot replay at load time.  :class:`WalCursor` runs it from the
byte offset just past the last committed frame it consumed, so a worker
process polling the log after every update watermark pays O(new bytes),
not O(log size), per poll.  Cursors never lock and never write — any
number of them, across processes, can follow the one writer.
"""

from __future__ import annotations

import os
import zlib
from typing import List, Optional, Sequence, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None

from repro.rdf.ntriples import NTriplesParseError, parse_ntriples
from repro.rdf.triples import Triple

from repro.storage.codec import fsync_directory
from repro.storage.errors import WalError

_HEADER = "# repro-wal 1"
_HEADER_LINE = _HEADER.encode("ascii") + b"\n"

Entry = Tuple[int, List[Triple], List[Triple]]


def _parse_entry_body(
    path: str, body: List[str], line_number: int
) -> Tuple[List[Triple], List[Triple]]:
    """Decode one committed entry's ``A``/``R`` lines into triple lists.

    A CRC-valid entry whose N-Triples body does not parse is a writer
    bug, not a torn write — raised, never skipped.
    """
    adds: List[Triple] = []
    removes: List[Triple] = []
    for line in body:
        target = adds if line[0] == "A" else removes
        try:
            target.extend(parse_ntriples(line[2:]))
        except NTriplesParseError as exc:
            raise WalError(
                f"{path}: unparseable triple in committed entry "
                f"(near line {line_number}): {exc}"
            ) from exc
    return adds, removes


def _commits(rest: str, epoch: int, body: List[str]) -> bool:
    """Whether the content of a ``C`` line commits the entry before it:
    it names the entry's epoch and the CRC32 of its body."""
    crc = zlib.crc32("\n".join(body).encode("utf-8"))
    return rest.split() == [str(epoch), f"{crc:08x}"]


def _scan(path: str, offset: int = 0) -> Tuple[List[Entry], int]:
    """Split the log from byte ``offset`` (a line start; 0 is where the
    header is due) into frames: ``(committed entries, bytes consumed)``.

    The consumed count ends just past the last committed frame (or the
    blank / comment lines after it): rescanning from there sees every
    entry still open, none already returned.  A log that does not exist
    yet holds nothing.  The damage policy is the module's.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except FileNotFoundError:
        return [], 0
    at_start = offset == 0
    if at_start and _HEADER_LINE.startswith(data):
        return [], 0  # a header a crash tore (or nothing yet): an empty log
    entries: List[Entry] = []
    consumed = position = 0
    entry: Optional[Tuple[int, List[str]]] = None
    lines = data.split(b"\n")
    for number, raw in enumerate(lines, start=1):
        torn = number == len(lines)  # no newline yet: may still be mid-write
        position = min(position + len(raw) + 1, len(data))
        try:
            line = raw.decode("utf-8").rstrip("\r")
        except UnicodeDecodeError:
            line = "\ufffd"  # no tag: voids its entry like any foreign line
        if at_start and line:
            if line != _HEADER:
                raise WalError(
                    f"{path}: unrecognized delta-log header {line!r}; this "
                    f"release reads {_HEADER!r} — rebuild the bundle (or use "
                    "the matching release)"
                )
            at_start = False
        tag, _, rest = line.partition(" ")
        if tag == "C":
            if entry is not None and _commits(rest, *entry):
                entries.append((entry[0], *_parse_entry_body(path, entry[1], number)))
                consumed = position
            entry = None
        elif torn:
            break
        elif not line or tag.startswith("#"):
            if entry is None:
                consumed = position
        elif tag == "B":
            try:
                entry = (int(rest), [])
            except ValueError:
                entry = None
        elif tag in ("A", "R"):
            if entry is not None:
                entry[1].append(line)
        else:
            entry = None
    return entries, consumed


def _replay(path: str, entries: List[Entry], engine) -> int:
    """Apply committed entries to ``engine`` in strict epoch order,
    through ``engine.index_manager.apply_batch`` — the delta-propagation
    path that produced them.  Entries the engine already holds are
    skipped; an entry ahead of the engine's next epoch, or one that
    changes nothing, raises :class:`WalError`: resuming past lost
    updates would serve a diverged engine.  Returns the epochs applied.
    """
    applied = 0
    for epoch, adds, removes in entries:
        current = engine.index_manager.epoch
        if epoch < current:
            continue
        if epoch > current:
            raise WalError(
                f"{path}: epoch gap — the engine is at {current}, the next "
                f"committed log entry is {epoch}; updates were lost, reload "
                "the bundle (and rebuild it from the source data if the gap "
                "persists)"
            )
        if engine.index_manager.apply_batch(adds=adds, removes=removes) == 0:
            raise WalError(
                f"{path}: committed epoch {epoch} replayed as a no-op; the "
                "log does not extend this engine"
            )
        applied += 1
    return applied


class DeltaLog:
    """An append-only N-Triples delta log bound to one bundle path.

    By convention the log lives at ``<bundle>.wal``; the class itself
    only knows its own path.  Instances are not thread-safe on their own
    — they are driven from inside the IndexManager's update epoch, which
    the serving layer already serializes (writer-exclusive epochs).
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._fh = None
        #: (epoch, crc) of the entry whose body is written but not yet
        #: committed; cleared by :meth:`commit`.
        self._pending: Optional[Tuple[int, int]] = None
        #: Set by :meth:`close`: the log was relinquished (lock released),
        #: so this instance must never append again — another engine may
        #: own the artifact now, and an unlocked append would interleave
        #: duplicate epochs.
        self._retired = False

    # ------------------------------------------------------------------
    # Writing (IndexManager epoch hooks)
    # ------------------------------------------------------------------

    def attach(self, manager) -> None:
        """Hook into an IndexManager so every epoch is logged durably.

        ``record`` runs write-ahead (after batch dedup, before any
        structure mutates) and ``commit`` closes the entry only when the
        epoch actually advanced — a failed batch leaves an uncommitted
        entry that replay ignores.

        The log is an **exclusive** resource: two attached engines would
        interleave duplicate epochs and permanently brick the
        bundle+log pair, so attaching takes an advisory ``flock`` on the
        file (held until :meth:`close`) and raises :class:`WalError` if
        another engine — in this process or any other — already holds
        it.
        """
        self._lock_exclusively()
        manager.add_epoch_hooks(record=self.record, commit=self.commit)

    def _lock_exclusively(self) -> None:
        fh = self._file()
        if fcntl is None:  # pragma: no cover - non-POSIX hosts
            return
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            raise WalError(
                f"{self.path}: delta log is already attached to another "
                "engine (bundle + WAL form a single-writer artifact); load "
                "read-only with attach_wal=False instead"
            ) from exc
        # Holding a fresh lock un-retires the instance: it is the owner
        # again.
        self._retired = False

    def _file(self):
        if self._fh is None or self._fh.closed:
            try:
                with open(self.path, "rb") as fh:
                    head = fh.read(len(_HEADER_LINE))
            except FileNotFoundError:
                head = b""
            self._fh = open(self.path, "a", encoding="utf-8", newline="\n")
            if head != _HEADER_LINE and _HEADER_LINE.startswith(head):
                # New, or a header a crash tore (:func:`_scan` reads it
                # as an empty log): appending after the fragment would
                # leave a first line the next load refuses.
                self._fh.truncate(0)
                self._fh.write(_HEADER + "\n")
                fsync_directory(self.path)
        return self._fh

    def record(self, epoch: int, adds: Sequence[Triple], removes: Sequence[Triple]) -> None:
        """Append one entry body (``B`` + ``A``/``R`` lines) and fsync.

        Raises :class:`WalError` on a retired (explicitly closed) log:
        the write-ahead position of this hook makes the raise abort the
        update *before* any structure mutates, so an engine whose log was
        handed to another owner fails loudly instead of corrupting the
        artifact with unlocked appends.
        """
        if self._retired:
            raise WalError(
                f"{self.path}: delta log was closed (handed over); this "
                "engine can no longer apply updates — reload the bundle"
            )
        body_lines: List[str] = [f"A {t.n3()}" for t in adds]
        body_lines.extend(f"R {t.n3()}" for t in removes)
        crc = zlib.crc32("\n".join(body_lines).encode("utf-8"))
        fh = self._file()
        # The leading newline is the anti-merge guard: if the previous
        # process crashed mid-line (a torn C), this entry's B still
        # starts on its own line instead of fusing with the fragment —
        # the scanner skips blank lines, so intact logs are unaffected.
        fh.write(f"\nB {epoch}\n")
        for line in body_lines:
            fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
        self._pending = (epoch, crc)

    def commit(self, epoch_after: int) -> None:
        """Close the pending entry iff its epoch committed.

        Called with the manager's post-batch epoch counter; equality with
        the recorded epoch means the batch failed (or was a no-op that
        never recorded) and the entry stays uncommitted on disk.
        """
        if self._pending is None:
            return
        recorded_epoch, crc = self._pending
        self._pending = None
        if epoch_after <= recorded_epoch:
            return
        fh = self._file()
        fh.write(f"C {recorded_epoch} {crc:08x}\n")
        fh.flush()
        os.fsync(fh.fileno())

    def close(self) -> None:
        """Release the append handle (and with it the exclusive lock).

        After close the bundle+log pair is free for another engine; a
        crashed process releases the ``flock`` implicitly.  The instance
        is *retired*: a still-registered record hook that fires later
        raises instead of appending without the lock.
        """
        self._retired = True
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def __del__(self):  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def reset(self) -> None:
        """Truncate to an empty log (after compaction folded it in).

        Locks before truncating: compacting a log out from under an
        attached engine would lose its next epochs, so an actively held
        log makes reset raise :class:`WalError` instead.  When this
        instance already holds the lock (the compaction flow), the
        truncation goes through the locked handle directly — releasing
        and re-acquiring would open a window in which another engine
        could attach, commit an epoch, and have it silently truncated.
        """
        if self._fh is not None and not self._fh.closed:
            self._truncate_through(self._fh)
            return
        with open(self.path, "a+", encoding="utf-8", newline="\n") as fh:
            if fcntl is not None:
                try:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError as exc:
                    raise WalError(
                        f"{self.path}: cannot truncate — the delta log is "
                        "attached to a running engine"
                    ) from exc
            self._truncate_through(fh)

    @staticmethod
    def _truncate_through(fh) -> None:
        fh.seek(0)
        fh.truncate()
        fh.write(_HEADER + "\n")
        fh.flush()
        os.fsync(fh.fileno())

    # ------------------------------------------------------------------
    # Reading / replay
    # ------------------------------------------------------------------

    def committed_entries(self) -> List[Entry]:
        """``(epoch, adds, removes)`` for every provably committed entry.

        The damage policy (the module's, :func:`_scan`) mirrors classic
        WAL recovery: an entry is committed only if its whole
        ``B``/body/``C`` frame is intact — a torn or malformed line (the
        expected shape of a crash mid-write, including a crash-torn ``C``
        that a later append lands after) makes its entry *uncommitted*
        and skipped.  Interior damage — a dropped entry with committed
        successors — surfaces as an epoch gap in :meth:`replay_into`,
        never as a silently shortened history.
        """
        return _scan(self.path)[0]

    def replay_into(self, engine) -> int:
        """Apply the committed tail past the engine's epoch to it
        (:func:`_replay`).  Returns the number of epochs applied."""
        return _replay(self.path, self.committed_entries(), engine)


class WalCursor:
    """Incremental, read-only follower of a delta log's committed tail.

    The cursor holds a byte ``offset`` just past the last *committed*
    frame it has yielded (plus any header/blank lines consumed while no
    frame was open).  Each :meth:`poll` runs :func:`_scan` over only the
    bytes the writer appended since — a torn or incomplete frame is
    simply *not consumed*, so the next poll retries it after the
    writer's ``C`` line lands.

    Cursors take no lock and never write, so any number of follower
    processes (the ``repro serve --workers N`` pool) can trail the single
    writer that holds the log's ``flock``.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        #: Byte offset of the first unconsumed byte; starts at 0 so a
        #: fresh cursor scans history it can then skip by epoch.
        self.offset = 0

    def poll(self) -> List[Entry]:
        """Return ``(epoch, adds, removes)`` for newly committed entries.

        Returns an empty list when the log does not exist yet or holds
        no complete committed frame past the cursor's offset.
        """
        entries, consumed = _scan(self.path, self.offset)
        self.offset += consumed
        return entries

    def replay_into(self, engine) -> int:
        """Apply newly committed entries to a follower engine, in order
        (:func:`_replay`).  A gap means the follower missed history (a
        compaction truncated the log under it) and must reload the
        bundle rather than serve a diverged state.  On any failure the
        consumed offset may be past the unapplied entries, so the only
        safe recovery is a full reload with a fresh cursor.
        """
        return _replay(self.path, self.poll(), engine)
