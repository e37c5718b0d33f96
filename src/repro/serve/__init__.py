"""The serving tier: many datasets, many tenants, many concurrent queries.

Everything below :class:`~repro.core.session.ExplainSession` is
per-query machinery; this package is the layer a production deployment
actually runs:

* :class:`~repro.serve.registry.SessionRegistry` — owns many named
  prepared sessions behind a memory-budget + TTL LRU, with per-key build
  locks so concurrent requests for a cold dataset trigger exactly one
  prepare (single-flight coalescing).  With a cache directory, a cold
  prepare adopts the dataset's :class:`~repro.cube.cache.RollupCache`
  entry memory-mapped instead of building.
* :class:`~repro.serve.scheduler.QueryScheduler` — a query thread pool
  that dedupes identical in-flight queries and serves results from the
  session LRU.
* :mod:`~repro.serve.http` — a stdlib ``http.server`` JSON API
  (``/explain``, ``/diff``, ``/recommend``, ``/detect``, ``/datasets``,
  ``/stats``, ``/healthz``, ``/metrics``) wired to the registry and
  scheduler; ``repro serve`` starts it.  Observability rides on
  :mod:`repro.obs`: per-request trace ids, Prometheus metrics, a
  structured access log and a ``--slow-query-ms`` slow-query log.
* :class:`~repro.serve.multiproc.WorkerPool` — ``repro serve --workers N``:
  N forked ``SO_REUSEPORT`` workers sharing one mmap-able cube file per
  dataset, so resident memory is per-dataset, not per-worker.
"""

from repro.serve.http import ServeApp, make_app, reuseport_available
from repro.serve.multiproc import WorkerPool, prebuild_artifacts
from repro.serve.registry import DatasetSpec, SessionRegistry
from repro.serve.scheduler import QueryScheduler

__all__ = [
    "DatasetSpec",
    "QueryScheduler",
    "ServeApp",
    "SessionRegistry",
    "WorkerPool",
    "make_app",
    "prebuild_artifacts",
    "reuseport_available",
]
