"""The service's response store: what makes a request warm.

The server reduces every request to its content-addressed tuning key
(:func:`repro.service.protocol.request_key`), so textually different
but semantically identical requests are the same unit of work.  A key
whose response is already in the persistent :class:`TuningStore` is
*warm* and answered without touching the queue; everything else is
cold work for the pipeline.

:class:`TuningStore` is the executor's
:class:`~repro.exec.store.ResultStore` one level up -- both are one
:class:`~repro.exec.store.LogStore`: an append-only JSONL log under
``<store-dir>/tunings/`` behind a hot in-memory tier, safe across
service restarts and concurrent instances sharing a directory.  It
deliberately stores whole *responses*: a warm hit skips not just
simulation but the entire optimization + search pipeline.  A tuning
store written when each response was a loose ``<ab>/<key>.json`` file
has no log, so each of its responses is recomputed once.
"""

from __future__ import annotations

from repro.exec.store import LogStore
from repro.service.protocol import SERVICE_SCHEMA

__all__ = ["TuningStore"]

TUNINGS_DIRNAME = "tunings"


class TuningStore(LogStore):
    """Content-addressed persistence of full tuning responses.

    A :class:`~repro.exec.store.LogStore` like the executor's result
    store; it adds its decoding and copies responses in and out, so no
    caller shares a dict with the hot tier.  A stored response carries
    its ``key``, and a row whose ``schema`` is not :data:`SERVICE_SCHEMA`
    (orphaned by a schema bump) reads as a miss.
    """

    def decode(self, row: dict) -> dict | None:
        return row if row.get("schema") == SERVICE_SCHEMA else None

    def get(self, key: str) -> dict | None:
        """The stored response for ``key`` (a copy), or None."""
        payload = super().get(key)
        return None if payload is None else dict(payload)

    def put(self, key: str, payload: dict) -> None:
        super().put(key, {**payload, "key": key})

