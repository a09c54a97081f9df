"""The serving layer: snapshot-isolated concurrent search over one engine.

``EngineSnapshot`` pins one (summary version, keyword-index version) pair
for the duration of a search; ``EngineService`` coordinates lock-free
reads against pinned snapshots with serialized, exclusive update epochs,
runs a batch against one snapshot, and keeps service-level stats;
``ReproServer`` is the ``socketserver`` HTTP/1.1 front end of ``repro serve``.

The multiprocess tier (``repro serve --workers N``) layers on top:
``DispatchService`` owns the WAL-attached writer engine and fans requests
over a pool of worker processes (:mod:`repro.service.worker`) that each
lazily map the same ``.reprobundle``, syncing to the committed epoch
watermark through WAL-tail replay before serving.

The fourteen names below are resolved on first attribute access (PEP 562):
importing a submodule — a worker process imports ``repro.service.worker``
and ``.encoding``, which pass through this file — does not execute
``dispatch.py`` (``subprocess``, ``concurrent.futures``) or ``http.py``
(``socketserver``); ``from repro.service import X`` works as it always did.
"""

from importlib import import_module

_EXPORTS = {
    "AdmissionError": "repro.service.service",
    "BatchOutcome": "repro.service.service",
    "DeadlineExceeded": "repro.service.protocol",
    "DispatchError": "repro.service.dispatch",
    "DispatchService": "repro.service.dispatch",
    "EngineService": "repro.service.service",
    "EngineSnapshot": "repro.core.snapshot",
    "ReproServer": "repro.service.http",
    "Request": "repro.service.protocol",
    "SnapshotKey": "repro.core.snapshot",
    "WorkerDied": "repro.service.dispatch",
    "answers_to_json": "repro.service.encoding",
    "candidate_to_json": "repro.service.encoding",
    "result_to_json": "repro.service.encoding",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = globals()[name] = getattr(import_module(module), name)
    return value

