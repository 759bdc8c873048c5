"""Tuning-as-a-service: a long-running layout/tile-tuning server.

The :mod:`repro.service` package turns the library's tuning pipeline
(:func:`repro.driver.optimize` + the :mod:`repro.search` autotuner over
the :mod:`repro.exec` executor and its persistent result store) into a
long-running network service:

* :mod:`~repro.service.protocol` -- the JSON wire format: program IR and
  hierarchy codecs, request parsing with defaults, and the
  content-addressed **tuning key** that collapses semantically identical
  requests (key order, defaulted fields, preset-vs-explicit hierarchies)
  onto one computation;
* :mod:`~repro.service.pipeline` -- one tuning request end to end:
  heuristic optimization, optional empirical pad search, final
  evaluation, all through a shared :class:`~repro.exec.executor.SweepExecutor`;
* :mod:`~repro.service.planner` -- the persistent response store and the
  request planner that decides warm (store) vs cold (compute);
* :mod:`~repro.service.queue` -- bounded, cost-ordered admission with
  explicit 429/503 backpressure;
* :mod:`~repro.service.server` -- the asyncio HTTP front end
  (``POST /v1/tune``, ``GET /v1/jobs/<id>``, ``GET /metrics``,
  ``GET /healthz``) with single-flight dedup of identical in-flight
  requests and graceful drain on shutdown;
* :mod:`~repro.service.client` -- a small blocking client for scripts,
  load tests, and CI.

Start a server with ``python -m repro.service`` (or the experiments
CLI's ``serve`` verb); see ``docs/service.md``.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.protocol": (
        "SERVICE_SCHEMA", "ProtocolError", "TuningRequest", "parse_request",
        "request_key", "program_to_json", "program_from_json",
        "hierarchy_to_json", "hierarchy_from_json",
    ),
    "repro.service.pipeline": ("run_tuning",),
    "repro.service.planner": ("TuningStore", "RequestPlanner"),
    "repro.service.queue": (
        "TuningQueue", "ServiceSaturated", "ServiceDraining",
    ),
    "repro.service.server": ("ServiceConfig", "TuningService", "serve"),
    "repro.service.client": ("TuningClient",),
})

# The wire format loads with the package: the server and every script that
# builds requests for the client speak it, and loading it on first use would
# charge its imports to the first request of a timed request loop.
import repro.service.protocol  # noqa: E402,F401
