"""The cloud serving tier: multi-tenant query frontend over one System.

Layered on the :class:`~repro.system.System` facade (docs/serving.md):

* :mod:`frontend` — per-tenant bounded admission queues + backpressure.
* :mod:`batcher` — QUERY_NB coalescing, sharded to each query's home slice.
* :mod:`loadgen` — deterministic open-loop (Poisson) and closed-loop
  (fixed-concurrency) tenant load generators.
* :mod:`slo` — per-tenant latency sketches, SLO budgets, serving reports.
* :mod:`server` — the serving loop tying them together.
* :mod:`driver` — the ``python -m repro serve`` experiment.
* :mod:`cluster` — the replicated multi-node tier: consistent-hash ring,
  membership prober, load-balancer failover (``python -m repro
  cluster-chaos``).
"""

from .batcher import Batcher
from .cluster import ClusterReport, SimulatedCluster
from .driver import (
    SERVE_DPDK,
    build_serving_system,
    run_serving,
    serve_experiment,
)
from .frontend import Admission, Frontend, ServeRequest
from .loadgen import ClosedLoopGenerator, LoadGenerator, OpenLoopGenerator
from .server import MODE_BATCHED, MODE_BLOCKING, QueryServer, ServingError
from .slo import ServingReport, SloTracker

__all__ = [
    "Admission",
    "Batcher",
    "ClosedLoopGenerator",
    "ClusterReport",
    "Frontend",
    "SimulatedCluster",
    "LoadGenerator",
    "MODE_BATCHED",
    "MODE_BLOCKING",
    "OpenLoopGenerator",
    "QueryServer",
    "SERVE_DPDK",
    "ServeRequest",
    "ServingError",
    "ServingReport",
    "SloTracker",
    "build_serving_system",
    "run_serving",
    "serve_experiment",
]
