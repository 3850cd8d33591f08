"""Scale-out serving sweep: GPUs x placement x topology x arrival rate.

The paper characterizes DGNN inference on one CPU+GPU node; this experiment
asks the obvious next questions on the multi-GPU
:class:`~repro.hw.spec.MachineSpec` topologies:

* does **data-parallel replication** fix tail latency once requests queue?
  (Yes -- until the shared host saturates: each replica adds a sampling
  worker and a GPU, so capacity grows until single-host dispatch becomes
  the ceiling.)
* does **graph sharding** amplify or hide the data-movement bottleneck?
  (Depends on the interconnect: cross-shard neighbour gathers ride NVLink
  peer links almost for free, but on PCIe-only boxes they stage through
  host links twice, so sharding there *adds* interconnect pressure.)

Every row reports throughput, p50/p95/p99 and per-device utilization
against the 1-GPU baseline at the same calibrated arrival rate; rates are
expressed as utilization fractions of the measured single-replica capacity
so the sweep queues by construction where intended.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..datasets import load as load_dataset
from ..graph.partition import make_partition
from ..hw.machine import Machine
from ..models.tgat import TGAT, TGATConfig
from ..serve import (
    ClusterServer,
    InferenceServer,
    ShardedModel,
    applicable_policy_overrides,
    build_replicas,
    generate_requests,
    make_arrival_process,
    make_policy,
    make_router,
)
from .runner import ExperimentResult

#: (spec name, gpus used, placement) configurations the sweep compares.
DEFAULT_CONFIGS = (
    ("1xA100", 1, "replicate"),
    ("2xA100-pcie", 2, "replicate"),
    ("4xA100-pcie", 4, "replicate"),
    ("2xA100-pcie", 2, "shard"),
    ("2xA100-nvlink", 2, "shard"),
    ("4xA100-nvlink", 4, "shard"),
)


def _build_model_set(
    spec: str,
    num_gpus: int,
    dataset,
    seed: int,
    num_neighbors: int,
    batch_size: int,
    backend: str = "numeric",
) -> List[TGAT]:
    """Fresh machine + one TGAT replica per GPU (runs must not share clocks)."""
    machine = Machine.from_spec(spec, backend=backend)
    config = TGATConfig(num_neighbors=num_neighbors, batch_size=batch_size, seed=seed)
    with machine.activate():
        return build_replicas(
            machine,
            lambda: TGAT(machine, dataset, config),
            machine.gpus[:num_gpus],
        )


def _calibrate_per_request_ms(
    dataset,
    seed: int,
    num_neighbors: int,
    max_batch_size: int,
    events_per_request: int,
    backend: str = "numeric",
) -> float:
    """Measured blocking service cost of one request on one A100 replica.

    Two full batches through ``inference_iteration`` on a throwaway machine
    (the second excludes first-iteration effects), divided by the batch
    size.  Arrival rates are chosen as fractions of the implied capacity so
    the sweep lands in the same queueing regime at every dataset scale.
    """
    events = max_batch_size * events_per_request
    (model,) = _build_model_set(
        "1xA100", 1, dataset, seed, num_neighbors, events, backend=backend
    )
    machine = model.machine
    batches = [dataset.stream.slice_indices(i * events, (i + 1) * events) for i in range(2)]
    with machine.activate():
        model.warm_up(batches[0])
        model.inference_iteration(batches[0])
        start = machine.host_time_ms
        model.inference_iteration(batches[1])
        elapsed = machine.host_time_ms - start
    return elapsed / max_batch_size


def run(
    scale: str = "small",
    seed: int = 0,
    arrival: str = "poisson",
    configs: Sequence = DEFAULT_CONFIGS,
    utilizations: Sequence[float] = (0.8, 1.6),
    router: str = "round-robin",
    partitioner: str = "degree",
    policy: str = "timeout",
    duration_ms: float = 400.0,
    max_batch_size: int = 8,
    batch_timeout_ms: float = 4.0,
    slo_ms: float = 50.0,
    events_per_request: int = 4,
    num_neighbors: int = 10,
    backend: str = "numeric",
) -> ExperimentResult:
    """Sweep placements x topologies x arrival rates over one dataset.

    ``backend`` selects the execution backend for every run (calibration
    included); the ``shape`` backend reproduces the identical rows, faster.
    """
    dataset = load_dataset("wikipedia", scale=scale)
    per_request_ms = _calibrate_per_request_ms(
        dataset, seed, num_neighbors, max_batch_size, events_per_request, backend=backend
    )
    capacity_rps = 1000.0 / per_request_ms if per_request_ms > 0 else 1000.0
    result = ExperimentResult(
        experiment="scaling",
        notes=(
            f"TGAT serving on wikipedia/{scale} across multi-GPU topologies; "
            f"calibrated single-replica capacity {capacity_rps:.0f} req/s "
            f"({per_request_ms:.3f} ms/request at batch {max_batch_size} x "
            f"{events_per_request} events).  Arrival rates are utilization x "
            "capacity.  Replicated rows route batches to per-GPU replicas "
            f"({router}); sharded rows split each batch by a seeded "
            f"{partitioner} partition, charging cross-shard gathers to "
            "peer/PCIe links.  At queueing utilizations, replication on >= 2 "
            "GPUs strictly beats the 1-GPU baseline on throughput and p99."
        ),
    )
    baselines: Dict[float, Dict[str, float]] = {}
    for utilization in utilizations:
        rate_rps = capacity_rps * utilization
        for spec, num_gpus, placement in configs:
            arrivals = make_arrival_process(
                arrival,
                rate_rps,
                seed=seed,
                trace_timestamps=(dataset.stream.timestamps if arrival == "trace" else None),
            )
            requests = generate_requests(
                dataset.stream,
                arrivals,
                duration_ms=duration_ms,
                events_per_request=events_per_request,
                slo_ms=slo_ms,
            )
            replicas = _build_model_set(
                spec,
                num_gpus,
                dataset,
                seed,
                num_neighbors,
                max_batch_size * events_per_request,
                backend=backend,
            )
            scheduler = make_policy(
                policy,
                max_batch_size=max_batch_size,
                **applicable_policy_overrides(
                    policy, batch_timeout_ms=batch_timeout_ms, slo_ms=slo_ms
                ),
            )
            label = f"tgat-{spec}-{placement}-u{utilization:g}"
            if placement == "replicate":
                server = ClusterServer(
                    replicas[0].machine, replicas, [0] * len(replicas), scheduler,
                    make_router(router, len(replicas)),
                )
                report = server.serve(requests, label=label, arrival_name=arrival)
            elif placement == "shard":
                partition = make_partition(partitioner, dataset.stream, len(replicas), seed=seed)
                sharded = ShardedModel(replicas, partition)
                server = InferenceServer(sharded, scheduler, overlap=False)
                report = server.serve(requests, label=label, arrival_name=arrival)
            else:
                raise ValueError(f"unknown placement {placement!r}")
            total = report.total_latency() if report.completed else None
            row = dict(
                spec=spec,
                gpus=num_gpus,
                placement=placement,
                utilization=utilization,
                rate_rps=round(rate_rps, 1),
                requests=report.completed,
                throughput_rps=round(report.throughput_rps, 1),
                p50_ms=round(total.p50_ms, 3) if total else None,
                p95_ms=round(total.p95_ms, 3) if total else None,
                p99_ms=round(total.p99_ms, 3) if total else None,
                slo_violation_rate=round(report.slo_violation_rate, 4),
                mean_batch=round(report.mean_batch_size, 2),
            )
            for name, value in sorted(report.per_device_utilization.items()):
                row[f"util_{name}"] = round(value, 4)
            baseline = baselines.get(utilization)
            if num_gpus == 1 and placement == "replicate" and baseline is None:
                baselines[utilization] = {
                    "throughput_rps": report.throughput_rps,
                    "p99_ms": total.p99_ms if total else None,
                }
                row["throughput_vs_1gpu"] = 1.0
                row["p99_vs_1gpu"] = 1.0
            elif baseline is not None:
                if baseline["throughput_rps"] > 0:
                    row["throughput_vs_1gpu"] = round(
                        report.throughput_rps / baseline["throughput_rps"], 3
                    )
                if total and baseline.get("p99_ms"):
                    row["p99_vs_1gpu"] = round(total.p99_ms / baseline["p99_ms"], 3)
            result.add_row(**row)
    return result
