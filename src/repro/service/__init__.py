"""The serving layer: snapshot-isolated concurrent search over one engine.

``EngineSnapshot`` pins one (summary version, keyword-index version) pair
for the duration of a search; ``EngineService`` coordinates lock-free
reads against pinned snapshots with serialized, exclusive update epochs,
fans batches over a bounded worker pool, and keeps service-level stats;
``ReproServer`` is the stdlib HTTP front end behind ``repro serve``.

The multiprocess tier (``repro serve --workers N``) layers on top:
``DispatchService`` owns the WAL-attached writer engine and fans requests
over a pool of worker processes (:mod:`repro.service.worker`) that each
lazily map the same ``.reprobundle``, syncing to the committed epoch
watermark through WAL-tail replay before serving.
"""

from repro.core.snapshot import EngineSnapshot, SnapshotKey
from repro.service.dispatch import DispatchError, DispatchService, WorkerDied
from repro.service.http import (
    ReproServer,
    answers_to_json,
    candidate_to_json,
    result_to_json,
)
from repro.service.service import (
    AdmissionError,
    BatchOutcome,
    EngineService,
)

__all__ = [
    "AdmissionError",
    "BatchOutcome",
    "DispatchError",
    "DispatchService",
    "EngineService",
    "EngineSnapshot",
    "ReproServer",
    "SnapshotKey",
    "WorkerDied",
    "answers_to_json",
    "candidate_to_json",
    "result_to_json",
]
