"""Online inference serving on top of the hardware simulator.

The paper characterizes DGNN inference one offline iteration at a time; this
package turns that per-iteration cost model into end-to-end latency and
throughput numbers under load.  It simulates an online serving stack on the
:class:`~repro.hw.machine.Machine` clock:

* :mod:`repro.serve.workload` -- seeded request generators (Poisson, bursty
  on/off, dataset-trace replay) over an event stream;
* :mod:`repro.serve.batcher` / :mod:`repro.serve.policy` -- a request queue
  with dynamic batching under pluggable scheduler policies (FIFO, timeout
  batching, SLO-aware batch shrinking);
* :mod:`repro.serve.core` -- the serving loop every server shares:
  admission, batching, fidelity, tracing and completion bookkeeping;
* :mod:`repro.serve.server` -- one model on one machine, with blocking
  execution or the stream-based sampling/compute overlap of
  :mod:`repro.optim`;
* :mod:`repro.serve.fidelity` -- adaptive fidelity: a degradation controller
  the SLO policy consults under deadline pressure, trading modeled quality
  (fan-out, staleness, forced cache hits) for latency and accounting the
  debt;
* :mod:`repro.serve.router` / :mod:`repro.serve.placement` /
  :mod:`repro.serve.cluster` -- multi-GPU scale-out: replicated serving
  (per-GPU model replicas behind a batch router, on one machine or over the
  nodes of a :class:`~repro.hw.Cluster` with batch payloads routed over
  NICs) and sharded serving (a seeded graph partition splitting each batch
  across GPUs, with cross-shard gathers charged to the interconnect);
* :mod:`repro.serve.autoscale` -- an elastic autoscaler that grows/shrinks
  the active replica fleet against watermark and SLO signals, with modeled
  cold-start charges;
* :mod:`repro.serve.telemetry` -- per-request queue/service/total latency,
  p50/p95/p99 percentiles, throughput, SLO-violation rate and per-device
  utilization.

See the ``serving``/``scaling`` experiments and the ``repro-dgnn serve``
CLI subcommand for the end-to-end sweeps.
"""

from .autoscale import AutoscaleConfig, Autoscaler, ScaleEvent
from .batcher import DynamicBatcher
from .cluster import ClusterServer, build_cluster_replicas, payload_nbytes
from .fidelity import (
    FULL_FIDELITY,
    FidelityConfig,
    FidelityController,
    FidelityDecision,
    make_fidelity_controller,
)
from .placement import ShardedModel, build_replicas
from .policy import (
    POLICIES,
    FIFOPolicy,
    SchedulerPolicy,
    ServiceTimeEstimator,
    SLOAwarePolicy,
    TimeoutBatchingPolicy,
    applicable_policy_overrides,
    available_policies,
    make_policy,
)
from .request import Request
from .router import (
    ROUTERS,
    JoinShortestQueueRouter,
    LeastLatencyRouter,
    ReplicaState,
    RoundRobinRouter,
    Router,
    available_routers,
    make_router,
)
from .server import InferenceServer
from .telemetry import ServingReport
from .workload import (
    ARRIVAL_PROCESSES,
    ArrivalProcess,
    BurstyProcess,
    DiurnalProcess,
    FlashCrowdProcess,
    PoissonProcess,
    TraceReplay,
    available_arrivals,
    generate_requests,
    make_arrival_process,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalProcess",
    "AutoscaleConfig",
    "Autoscaler",
    "BurstyProcess",
    "ClusterServer",
    "DiurnalProcess",
    "DynamicBatcher",
    "FIFOPolicy",
    "FULL_FIDELITY",
    "FidelityConfig",
    "FidelityController",
    "FidelityDecision",
    "FlashCrowdProcess",
    "InferenceServer",
    "JoinShortestQueueRouter",
    "LeastLatencyRouter",
    "POLICIES",
    "PoissonProcess",
    "ROUTERS",
    "ReplicaState",
    "Request",
    "RoundRobinRouter",
    "Router",
    "SLOAwarePolicy",
    "ScaleEvent",
    "SchedulerPolicy",
    "ServiceTimeEstimator",
    "ServingReport",
    "ShardedModel",
    "TimeoutBatchingPolicy",
    "TraceReplay",
    "applicable_policy_overrides",
    "available_arrivals",
    "available_policies",
    "available_routers",
    "build_cluster_replicas",
    "build_replicas",
    "generate_requests",
    "make_arrival_process",
    "make_fidelity_controller",
    "make_policy",
    "make_router",
    "payload_nbytes",
]
