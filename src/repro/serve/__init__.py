"""Online prediction serving: registry, micro-batching, HTTP, metrics.

The paper's models exist to be consumed by a resource manager deciding
placements *online*; this package turns trained artifacts into a
long-running, observable prediction service (the versioned model
store it serves from lives in :mod:`repro.registry`):

* :mod:`~repro.serve.batcher` — a micro-batching queue that coalesces
  concurrent requests into one vectorized predict call, with optional
  admission control (shed with 429 once the backlog bound is hit);
* :mod:`~repro.serve.http` — the shared stdlib asyncio HTTP plumbing
  (keep-alive, graceful drain, request ids, error mapping) used by both
  the prediction server and the registry server;
* :mod:`~repro.serve.server` — an asyncio HTTP server exposing
  ``/v1/predict``, ``/v1/models``, ``/healthz``, and ``/metrics``; it
  serves from any registry backend (local directory or remote registry
  service) and can hot-reload newly pushed versions;
* :mod:`~repro.serve.metrics` — request/error counters and latency and
  batch-size histograms, declared on the server's metrics registry;
* :mod:`~repro.serve.client` — a small blocking client for tests and
  load generators, with a label-aware Prometheus parser;
* :mod:`~repro.serve.shard`, :mod:`~repro.serve.worker`, and
  :mod:`~repro.serve.router` — the multi-process serving tier:
  consistent model-name sharding, spawned worker processes with a
  graceful drain protocol, and a front router with canary/shadow
  splitting, machine-metadata routing, and one merged ``/metrics``
  scrape for the whole tier (``repro serve --workers N``).

The server threads through :mod:`repro.obs`: each
:class:`~repro.serve.server.PredictionServer` owns a merged metrics
registry (serving + engine + fitting + batcher backlog behind one
``GET /metrics``), requests carry/echo ``X-Request-Id`` and become
``serve.request`` trace spans, and the micro-batcher records per-phase
latencies (queue, batch_wait, predict, serialize).

Everything here is standard library + existing ``repro`` modules; there
are no third-party serving dependencies.
"""

from ..registry.local import (
    ModelManifest,
    ModelRegistry,
    RegistryError,
    TombstoneError,
)
from .batcher import BacklogFullError, BatcherStats, MicroBatcher
from .client import ClientError, PredictionClient, parse_prometheus
from .metrics import ServingMetrics
from .router import (
    CanarySpec,
    RouterServer,
    ServingTier,
    ShadowSpec,
    parse_canary,
    parse_shadow,
)
from .server import PredictionServer, ServerThread
from .shard import ShardMap, shard_for
from .worker import BackendSpec, WorkerProcess, backend_spec_for

__all__ = [
    "BackendSpec",
    "BacklogFullError",
    "BatcherStats",
    "CanarySpec",
    "ClientError",
    "MicroBatcher",
    "ModelManifest",
    "ModelRegistry",
    "PredictionClient",
    "PredictionServer",
    "RegistryError",
    "RouterServer",
    "ServerThread",
    "ServingMetrics",
    "ServingTier",
    "ShadowSpec",
    "ShardMap",
    "TombstoneError",
    "WorkerProcess",
    "backend_spec_for",
    "parse_canary",
    "parse_prometheus",
    "parse_shadow",
    "shard_for",
]
