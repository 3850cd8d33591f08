"""The benchmark scenario suite.

Every scenario is a self-contained callable: it builds a fresh machine,
dataset and model from its seed, runs one representative workload, and
returns the machine so the harness can read simulated time and event
throughput off it.  Scenarios accept a ``quick`` flag that shrinks the
workload (tiny dataset scale, shorter serving windows) for the CI perf gate;
the full configuration is what local ``repro-dgnn bench`` runs record in the
``BENCH_<n>.json`` trajectory.

Scenario bodies deliberately reuse the same building blocks as the
``serving`` and ``scaling`` experiments (same models, policies, arrival
processes), so a wall-clock regression here predicts a slowdown of the real
experiment suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

from ..cache import backfill_embeddings, make_model_cache
from ..cache.policy import make_eviction_policy
from ..cache.store import DeviceResidentCache
from ..datasets import load as load_dataset
from ..hw.cluster import Cluster
from ..hw.machine import Machine
from ..models.tgat import TGAT, TGATConfig
from ..serve import (
    AutoscaleConfig,
    Autoscaler,
    ClusterServer,
    InferenceServer,
    build_cluster_replicas,
    build_replicas,
    generate_requests,
    make_arrival_process,
    make_fidelity_controller,
    make_policy,
    make_router,
)


@dataclass(frozen=True)
class Scenario:
    """One benchmark scenario: a name, a description, and a workload body.

    The body is ``fn(seed, quick) -> Machine`` -- or
    ``fn(seed, quick) -> (Machine, extras)`` where ``extras`` is a flat dict
    of scenario-specific *simulated* metrics (p99 latency, cache hit rate,
    ...).  The harness times the call, reads ``host_time_ms`` /
    ``event_count`` off the machine, and carries the extras (which must be
    deterministic across repetitions) into the report.
    """

    name: str
    description: str
    fn: Callable[[int, bool], Machine]


def _tgat(machine: Machine, dataset, seed: int, num_neighbors: int = 10,
          batch_size: int = 64) -> TGAT:
    with machine.activate():
        return TGAT(
            machine,
            dataset,
            TGATConfig(num_neighbors=num_neighbors, batch_size=batch_size, seed=seed),
        )


def _training_iteration(seed: int, quick: bool) -> Machine:
    """Offline iteration loop: consecutive mini-batches, blocking execution."""
    dataset = load_dataset("wikipedia", scale="tiny" if quick else "small")
    machine = Machine.cpu_gpu()
    model = _tgat(machine, dataset, seed)
    iterations = 3 if quick else 8
    with machine.activate():
        first = True
        for index, batch in enumerate(model.iteration_batches()):
            if first:
                model.warm_up(batch)
                first = False
            model.inference_iteration(batch)
            if index + 1 >= iterations:
                break
    return machine


def _serving(seed: int, quick: bool, overlap: bool, cached: bool = False,
             backend: str = "numeric"):
    """Online serving under Poisson load (the ``serving`` experiment's core).

    The ``cached`` variants run the *identical* workload and policy -- one
    shared body guarantees the comparability the bench table claims -- plus
    an attached LRU cache whose staleness bound spans the dataset and a warm
    pass before the measured window, so the measured window serves at a high
    hit rate.  Extras carry the run's simulated p99 (all variants) and the
    hit rate / peak occupancy (cached variants): at a warm nonzero staleness
    bound the cached overlap scenario beats its uncached counterpart on p99.
    Its wall time and events-per-wall-second cover the warm pass as well as
    the measured window (the harness times the whole call), so they are not
    comparable with the uncached rows' numbers.

    ``backend`` selects the execution backend; the ``shape`` variant runs
    the identical workload value-free and must report the identical
    simulated extras (p99), only faster per wall-second.
    """
    dataset = load_dataset("wikipedia", scale="tiny" if quick else "small")
    machine = Machine.cpu_gpu(backend=backend)
    model = _tgat(machine, dataset, seed)
    if cached:
        span_start, span_end = dataset.stream.time_span
        make_model_cache(
            model,
            policy="lru",
            capacity_mb=32.0,
            staleness_ms=max((span_end - span_start) * 2.0, 1.0),
        )
    arrivals = make_arrival_process("poisson", 400.0, seed=seed)
    requests = generate_requests(
        dataset.stream,
        arrivals,
        duration_ms=80.0 if quick else 250.0,
        events_per_request=1,
        slo_ms=50.0,
    )
    policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    server = InferenceServer(model, policy, overlap=overlap)
    label = "bench-serving-" + ("overlap" if overlap else "blocking")
    if cached:
        label += "-cached"
        server.serve(requests, label=f"{label}-warm", arrival_name="poisson")
    report = server.serve(requests, label=label, arrival_name="poisson", warm_up=not cached)
    extras = {
        "p99_ms": round(report.total_latency().p99_ms, 3) if report.completed else 0.0,
    }
    if cached:
        cache = report.cache or {}
        extras["cache_hit_rate"] = cache.get("hit_rate", 0.0)
        extras["cache_peak_mb"] = round(cache.get("bytes_peak", 0) / 1e6, 3)
    return (machine, extras)


def _serving_traced(seed: int, quick: bool):
    """Overlapped serving with the span tracer and metrics registry attached.

    Identical workload to ``serving_overlap`` plus the full observability
    path: per-request spans, event-slice recording, dispatch/completion
    metrics and a trace build at the end.  A wall-clock regression here
    against ``serving_overlap`` isolates the tracing layer's own overhead
    (which must stay small -- the hot path only pays span bookkeeping, never
    extra simulated work, so the simulated extras match the untraced
    scenario exactly).  Extras carry the run's p99 plus the span and
    trace-event counts, all deterministic.
    """
    from ..obs import MetricsRegistry, Tracer, build_trace

    dataset = load_dataset("wikipedia", scale="tiny" if quick else "small")
    machine = Machine.cpu_gpu()
    model = _tgat(machine, dataset, seed)
    arrivals = make_arrival_process("poisson", 400.0, seed=seed)
    requests = generate_requests(
        dataset.stream,
        arrivals,
        duration_ms=80.0 if quick else 250.0,
        events_per_request=1,
        slo_ms=50.0,
    )
    policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    tracer = Tracer().attach(machine)
    metrics = MetricsRegistry()
    server = InferenceServer(
        model, policy, overlap=True, tracer=tracer, metrics=metrics
    )
    report = server.serve(
        requests, label="bench-serving-traced", arrival_name="poisson"
    )
    payload = build_trace(tracer, report=report, label="bench-serving-traced")
    extras = {
        "p99_ms": round(report.total_latency().p99_ms, 3) if report.completed else 0.0,
        "spans": float(len(tracer.spans)),
        "trace_events": float(len(payload["traceEvents"])),
    }
    return (machine, extras)


def _serving_fidelity(seed: int, quick: bool):
    """Adaptive-fidelity serving under overload (the degradation hot path).

    Same body shape as :func:`_serving` but at ~2x the calibrated capacity
    under the slo policy with the fidelity controller attached, so the
    measured window spends most dispatches degraded: every batch pays the
    controller consult, the fan-out rescale and the cache staleness
    override.  A wall-clock regression here isolates the fidelity layer's
    own overhead.  Extras carry the simulated p99 and the (deterministic)
    fidelity debt and degraded-batch count.
    """
    dataset = load_dataset("wikipedia", scale="tiny" if quick else "small")
    machine = Machine.cpu_gpu()
    model = _tgat(machine, dataset, seed, batch_size=8)
    span_start, span_end = dataset.stream.time_span
    make_model_cache(
        model,
        policy="lru",
        capacity_mb=32.0,
        staleness_ms=max((span_end - span_start) * 2.0, 1.0),
    )
    arrivals = make_arrival_process("poisson", 3000.0, seed=seed)
    requests = generate_requests(
        dataset.stream,
        arrivals,
        duration_ms=80.0 if quick else 250.0,
        events_per_request=1,
        slo_ms=20.0,
    )
    policy = make_policy("slo", max_batch_size=8, batch_timeout_ms=2.0, slo_ms=20.0)
    server = InferenceServer(
        model, policy, fidelity=make_fidelity_controller()
    )
    report = server.serve(requests, label="bench-serving-fidelity", arrival_name="poisson")
    snapshot = report.fidelity or {}
    extras = {
        "p99_ms": round(report.total_latency().p99_ms, 3) if report.completed else 0.0,
        "fidelity_debt": float(snapshot.get("debt_score", 0.0)),
        "degraded_batches": float(snapshot.get("degraded_batches", 0)),
    }
    return (machine, extras)


def _serving_backfill(seed: int, quick: bool):
    """Cache-backfilled serving: proactive warming before the first request.

    The :func:`_serving` cached variants warm by *replaying the workload*;
    this one instead backfills the hottest nodes' embeddings through
    :func:`~repro.cache.backfill_embeddings` (ranking, recursive embedding
    compute, batched inserts -- the exact pass cluster warm-up and
    autoscaling cold starts run), then serves the measured window against
    that proactively-warmed cache.  Extras carry the backfill's simulated
    cost alongside the serving hit rate and p99.
    """
    dataset = load_dataset("wikipedia", scale="tiny" if quick else "small")
    machine = Machine.cpu_gpu()
    model = _tgat(machine, dataset, seed, batch_size=8)
    span_start, span_end = dataset.stream.time_span
    make_model_cache(
        model,
        policy="degree",
        capacity_mb=32.0,
        staleness_ms=max((span_end - span_start) * 2.0, 1.0),
    )
    backfill = backfill_embeddings(model, top_k=64 if quick else 256)
    arrivals = make_arrival_process("poisson", 400.0, seed=seed)
    requests = generate_requests(
        dataset.stream,
        arrivals,
        duration_ms=80.0 if quick else 250.0,
        events_per_request=1,
        slo_ms=50.0,
    )
    policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    server = InferenceServer(model, policy)
    report = server.serve(requests, label="bench-serving-backfill", arrival_name="poisson")
    cache = report.cache or {}
    extras = {
        "p99_ms": round(report.total_latency().p99_ms, 3) if report.completed else 0.0,
        "cache_hit_rate": cache.get("hit_rate", 0.0),
        "backfill_nodes": float(backfill.computed),
        "backfill_sim_ms": round(backfill.elapsed_ms, 3),
    }
    return (machine, extras)


def _scaling(seed: int, quick: bool, spec: str, num_gpus: int) -> Machine:
    """Replicated scale-out serving (the ``scaling`` experiment's core)."""
    dataset = load_dataset("wikipedia", scale="tiny" if quick else "small")
    machine = Machine.from_spec(spec)
    config = TGATConfig(num_neighbors=10, batch_size=64, seed=seed)
    with machine.activate():
        replicas = build_replicas(
            machine,
            lambda: TGAT(machine, dataset, config),
            machine.gpus[:num_gpus],
        )
    arrivals = make_arrival_process("poisson", 500.0, seed=seed)
    requests = generate_requests(
        dataset.stream,
        arrivals,
        duration_ms=80.0 if quick else 250.0,
        events_per_request=2,
        slo_ms=50.0,
    )
    policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    server = ClusterServer(
        machine, replicas, [0] * len(replicas), policy,
        make_router("round-robin", len(replicas)),
    )
    server.serve(requests, label=f"bench-scaling-{num_gpus}gpu", arrival_name="poisson")
    return machine


def _scheduler_throughput(seed: int, quick: bool, record_events: bool,
                          backend: str = "numeric") -> Machine:
    """Pure scheduling-engine throughput: no numerics, no model, no RNG.

    Drives the machine directly with the batched :meth:`Machine.launch_kernels`
    charging API plus transfers and synchronisations -- the exact inner loops
    the hot-path optimization work targets -- so this scenario isolates the
    simulator's own speed from numpy numerics and sampling costs that
    dominate the model-level scenarios.  The ``record_events=False`` variant
    measures the same schedule with profiling's event stream disabled
    (scheduling and timelines are byte-identical either way; only the event
    log is skipped).  The ``backend="shape"`` variant pins down that backend
    selection never perturbs the scheduling engine itself: this scenario
    drives the charging APIs directly, so its timeline must be identical
    under either backend.
    """
    machine = Machine.from_spec(
        "2xA100-pcie", record_events=record_events, backend=backend
    )
    # Quick mode still runs enough rounds (~10 ms wall) that the CI gate's
    # 25% threshold sits well above timer/runner jitter.
    rounds = 400 if quick else 1500
    cpu = machine.cpu
    gpus = machine.gpus
    with machine.activate():
        machine.initialize_gpu(model_bytes=1 << 20, device=gpus[0])
        machine.initialize_gpu(model_bytes=1 << 20, device=gpus[1])
        for index in range(rounds):
            gpu = gpus[index % len(gpus)]
            # A homogeneous run of small kernels (the RNN-step / per-head
            # pattern), one host preprocessing step, one input upload.
            machine.launch_kernels(gpu, "bench_gemm", 8, 2.0e6, 64e3)
            machine.host_work("bench_preprocess", 0.02)
            machine.transfer(cpu, gpu, 32768, non_blocking=True)
            if index % 10 == 9:
                machine.synchronize()
        machine.synchronize(name="final")
    return machine


def _speedup_serving_run(seed: int, quick: bool, backend: str):
    """One production-sized serving run for the backend A/B (see below)."""
    dataset = load_dataset("wikipedia", scale="tiny" if quick else "small")
    machine = Machine.cpu_gpu(backend=backend)
    model = _tgat(machine, dataset, seed, num_neighbors=20, batch_size=64)
    arrivals = make_arrival_process("poisson", 1500.0, seed=seed)
    requests = generate_requests(
        dataset.stream,
        arrivals,
        duration_ms=80.0 if quick else 250.0,
        events_per_request=1,
        slo_ms=100.0,
    )
    policy = make_policy("timeout", max_batch_size=64, batch_timeout_ms=4.0)
    server = InferenceServer(model, policy, overlap=True)
    report = server.serve(
        requests, label=f"bench-shape-speedup-{backend}", arrival_name="poisson"
    )
    return machine, report


def _shape_speedup(seed: int, quick: bool):
    """Interleaved numeric-vs-shape A/B on a production-sized serving run.

    Runs the identical overlapped serving workload once per backend (the
    harness's repetitions interleave the pairs), times each run, and checks
    timeline equivalence before reporting: identical event counts, simulated
    clocks and p99.  Unlike the default serving scenarios -- whose small
    batches are scheduler-bound -- this one uses saturating arrivals and
    production batch sizes (k=20, max batch 64), where GEMM/attention
    numerics dominate wall-clock and the shape backend's value-free
    execution pays off.  The ``wall_*`` extras carry the A/B result.
    """
    start = time.perf_counter()
    numeric_machine, numeric_report = _speedup_serving_run(seed, quick, "numeric")
    numeric_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    shape_machine, shape_report = _speedup_serving_run(seed, quick, "shape")
    shape_ms = (time.perf_counter() - start) * 1e3
    numeric_p99 = numeric_report.total_latency().p99_ms if numeric_report.completed else 0.0
    shape_p99 = shape_report.total_latency().p99_ms if shape_report.completed else 0.0
    if (
        numeric_machine.event_count != shape_machine.event_count
        or numeric_machine.host_time_ms != shape_machine.host_time_ms
        or numeric_p99 != shape_p99
    ):
        raise RuntimeError(
            "shape backend diverged from numeric on the speedup workload: "
            f"events {numeric_machine.event_count} vs {shape_machine.event_count}, "
            f"sim {numeric_machine.host_time_ms} vs {shape_machine.host_time_ms} ms, "
            f"p99 {numeric_p99} vs {shape_p99} ms"
        )
    extras = {
        "p99_ms": round(shape_p99, 3),
        "wall_numeric_ms": round(numeric_ms, 3),
        "wall_shape_ms": round(shape_ms, 3),
        "wall_speedup": round(numeric_ms / shape_ms, 3) if shape_ms > 0 else 0.0,
    }
    return (shape_machine, extras)


def _cluster_serving_run(seed: int, quick: bool, backend: str, autoscale: bool):
    """One cluster serving run on ``2n-2xA100-eth`` (4 replicas, 2 nodes)."""
    dataset = load_dataset("wikipedia", scale="tiny" if quick else "small")
    cluster = Cluster("2n-2xA100-eth", backend=backend)
    config = TGATConfig(num_neighbors=10, batch_size=64, seed=seed)
    replicas, nodes = build_cluster_replicas(
        cluster, lambda machine: TGAT(machine, dataset, config)
    )
    duration_ms = 80.0 if quick else 250.0
    if autoscale:
        arrival_name = "flash-crowd"
        arrivals = make_arrival_process(
            arrival_name, 400.0, seed=seed,
            flash_at_ms=duration_ms * 0.3,
            flash_duration_ms=duration_ms * 0.4,
            flash_multiplier=6.0,
        )
    else:
        arrival_name = "poisson"
        arrivals = make_arrival_process(arrival_name, 500.0, seed=seed)
    requests = generate_requests(
        dataset.stream,
        arrivals,
        duration_ms=duration_ms,
        events_per_request=2,
        slo_ms=50.0,
    )
    policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    autoscaler = None
    if autoscale:
        autoscaler = Autoscaler(AutoscaleConfig(
            min_replicas=1,
            max_replicas=len(replicas),
            slo_ms=50.0,
            up_cooldown_ms=10.0,
            down_cooldown_ms=40.0,
        ))
    server = ClusterServer(
        cluster, replicas, nodes, policy,
        make_router("least-latency", len(replicas)), autoscaler=autoscaler,
    )
    label = "bench-cluster-" + ("autoscale" if autoscale else "static")
    report = server.serve(requests, label=label, arrival_name=arrival_name)
    return cluster, report


def _cluster_static(seed: int, quick: bool):
    """Static-fleet cluster serving: 4 replicas over 2 NIC-linked nodes.

    Exercises the cross-node dispatch path -- payload ship over the NIC,
    remote prepare/dispatch in the shared cluster time frame -- under the
    same Poisson load shape as the single-machine scaling scenarios, so a
    wall-clock regression here isolates the cluster layer's own overhead.
    """
    cluster, report = _cluster_serving_run(seed, quick, "numeric", autoscale=False)
    extras = {
        "p99_ms": round(report.total_latency().p99_ms, 3) if report.completed else 0.0,
        "nic_mb": round(cluster.nic_bytes() / 1e6, 3),
    }
    return (cluster, extras)


def _cluster_autoscale_flash(seed: int, quick: bool):
    """Autoscaled flash-crowd serving, interleaved numeric-vs-shape A/B.

    The elastic fleet rides a flash crowd -- scale-ups pay modeled cold
    starts (weight transfer over the NIC) on the simulated timeline.  Both
    backends run the identical workload and must agree on event counts,
    cluster clocks, p99 and the autoscaler's decisions; the ``wall_*``
    extras carry the backend A/B result for this heaviest serving path.
    """
    start = time.perf_counter()
    numeric_cluster, numeric_report = _cluster_serving_run(seed, quick, "numeric", True)
    numeric_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    shape_cluster, shape_report = _cluster_serving_run(seed, quick, "shape", True)
    shape_ms = (time.perf_counter() - start) * 1e3
    numeric_p99 = numeric_report.total_latency().p99_ms if numeric_report.completed else 0.0
    shape_p99 = shape_report.total_latency().p99_ms if shape_report.completed else 0.0
    numeric_scale = numeric_report.autoscale or {}
    shape_scale = shape_report.autoscale or {}
    if (
        numeric_cluster.event_count != shape_cluster.event_count
        or numeric_cluster.time_ms != shape_cluster.time_ms
        or numeric_p99 != shape_p99
        or numeric_scale.get("scale_ups") != shape_scale.get("scale_ups")
        or numeric_scale.get("scale_downs") != shape_scale.get("scale_downs")
    ):
        raise RuntimeError(
            "shape backend diverged from numeric on the autoscaled cluster "
            f"workload: events {numeric_cluster.event_count} vs "
            f"{shape_cluster.event_count}, sim {numeric_cluster.time_ms} vs "
            f"{shape_cluster.time_ms} ms, p99 {numeric_p99} vs {shape_p99} ms, "
            f"autoscale {numeric_scale} vs {shape_scale}"
        )
    extras = {
        "p99_ms": round(shape_p99, 3),
        "nic_mb": round(shape_cluster.nic_bytes() / 1e6, 3),
        "scale_ups": float(shape_scale.get("scale_ups", 0)),
        "scale_downs": float(shape_scale.get("scale_downs", 0)),
        "cold_start_ms": round(shape_scale.get("cold_start_ms", 0.0), 3),
        "wall_numeric_ms": round(numeric_ms, 3),
        "wall_shape_ms": round(shape_ms, 3),
        "wall_speedup": round(numeric_ms / shape_ms, 3) if shape_ms > 0 else 0.0,
    }
    return (shape_cluster, extras)


def _cache_admin(seed: int, quick: bool):
    """Batched vs per-key cache admin on tiny memory rows (micro A/B).

    Fills two identical presence-style stores -- 16-byte rows, where the
    per-key Python overhead dwarfs the payload -- then runs a probe-heavy
    mix (the ``lookup_memory`` pattern: every batch probes, only misses
    insert), once through the per-key ``probe``/``put`` calls and once
    through ``probe_many``/``put_many``.  The two paths are
    charge-identical (same stats, same deferred ledger, checked below), so
    the only difference the ``wall_*`` extras can show is the admin
    overhead the batched API removes.  Probe and insert phases are timed
    separately: inserts pay a per-entry simulated allocation either way, so
    the batched win concentrates in the probe phase.
    """
    machine = Machine.cpu_gpu()
    n = 2048 if quick else 8192
    rounds = 2 if quick else 4
    keys = list(range(n))
    times = [float(index % 97) for index in range(n)]
    row_nbytes = 16

    def build() -> DeviceResidentCache:
        return DeviceResidentCache(
            machine,
            machine.gpus[0],
            "memory",
            make_eviction_policy("lru"),
            64 << 20,
            1e9,
        )

    probe_rounds = rounds * 4
    loop_put_ms = loop_probe_ms = batch_put_ms = batch_probe_ms = 0.0
    with machine.activate():
        loop_store = build()
        batch_store = build()
        # Interleave the two paths round by round so allocator/event-log
        # growth over the run penalises both equally.
        for _ in range(rounds):
            start = time.perf_counter()
            for key, event_ms in zip(keys, times):
                loop_store.put(key, True, event_ms, row_nbytes)
            loop_store.flush_charges("update")
            loop_put_ms += (time.perf_counter() - start) * 1e3
            start = time.perf_counter()
            batch_store.put_many(keys, True, times, row_nbytes)
            batch_store.flush_charges("update")
            batch_put_ms += (time.perf_counter() - start) * 1e3
        for _ in range(probe_rounds):
            start = time.perf_counter()
            for key, event_ms in zip(keys, times):
                loop_store.probe(key, event_ms)
            loop_store.flush_charges("lookup")
            loop_probe_ms += (time.perf_counter() - start) * 1e3
            start = time.perf_counter()
            batch_store.probe_many(keys, times)
            batch_store.flush_charges("lookup")
            batch_probe_ms += (time.perf_counter() - start) * 1e3
    if loop_store.stats.as_dict() != batch_store.stats.as_dict():
        raise RuntimeError(
            "batched cache admin diverged from the per-key path: "
            f"{loop_store.stats.as_dict()} vs {batch_store.stats.as_dict()}"
        )
    extras = {
        "keys": float(n),
        "row_nbytes": float(row_nbytes),
        "wall_put_perkey_ms": round(loop_put_ms, 3),
        "wall_put_batched_ms": round(batch_put_ms, 3),
        "wall_probe_perkey_ms": round(loop_probe_ms, 3),
        "wall_probe_batched_ms": round(batch_probe_ms, 3),
        "wall_probe_speedup": (
            round(loop_probe_ms / batch_probe_ms, 3) if batch_probe_ms > 0 else 0.0
        ),
    }
    return (machine, extras)


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "training_iteration",
            "offline TGAT mini-batch iteration loop (blocking)",
            _training_iteration,
        ),
        Scenario(
            "serving_blocking",
            "online serving, blocking execution, Poisson arrivals",
            lambda seed, quick: _serving(seed, quick, overlap=False),
        ),
        Scenario(
            "serving_overlap",
            "online serving, sampling/compute overlap, Poisson arrivals",
            lambda seed, quick: _serving(seed, quick, overlap=True),
        ),
        Scenario(
            "serving_blocking_cached",
            "online serving, blocking execution, warm staleness-bounded cache",
            lambda seed, quick: _serving(seed, quick, overlap=False, cached=True),
        ),
        Scenario(
            "serving_overlap_cached",
            "online serving, overlap + warm staleness-bounded cache",
            lambda seed, quick: _serving(seed, quick, overlap=True, cached=True),
        ),
        Scenario(
            "serving_traced",
            "online overlapped serving with span tracer + metrics attached",
            _serving_traced,
        ),
        Scenario(
            "serving_fidelity_overload",
            "adaptive-fidelity serving under ~2x overload (slo policy)",
            _serving_fidelity,
        ),
        Scenario(
            "serving_backfill_warmed",
            "serving against a proactively backfilled embedding cache",
            _serving_backfill,
        ),
        Scenario(
            "scaling_1gpu",
            "replicated serving on 1xA100",
            lambda seed, quick: _scaling(seed, quick, "1xA100", 1),
        ),
        Scenario(
            "scaling_2gpu",
            "replicated serving on 2xA100-pcie",
            lambda seed, quick: _scaling(seed, quick, "2xA100-pcie", 2),
        ),
        Scenario(
            "scaling_4gpu",
            "replicated serving on 4xA100-pcie",
            lambda seed, quick: _scaling(seed, quick, "4xA100-pcie", 4),
        ),
        Scenario(
            "serving_overlap_shape",
            "online overlapped serving on the shape (value-free) backend",
            lambda seed, quick: _serving(seed, quick, overlap=True, backend="shape"),
        ),
        Scenario(
            "serving_shape_speedup",
            "interleaved numeric-vs-shape A/B, production-sized batches",
            _shape_speedup,
        ),
        Scenario(
            "cluster_static_fleet",
            "static 4-replica serving across 2 NIC-linked nodes",
            _cluster_static,
        ),
        Scenario(
            "cluster_autoscale_flash",
            "autoscaled flash-crowd cluster serving, numeric-vs-shape A/B",
            _cluster_autoscale_flash,
        ),
        Scenario(
            "scheduler_throughput",
            "raw scheduling engine: batched kernels + transfers, events on",
            lambda seed, quick: _scheduler_throughput(seed, quick, True),
        ),
        Scenario(
            "scheduler_throughput_noprofile",
            "raw scheduling engine with event recording disabled",
            lambda seed, quick: _scheduler_throughput(seed, quick, False),
        ),
        Scenario(
            "scheduler_throughput_shape",
            "raw scheduling engine under the shape backend (identical timeline)",
            lambda seed, quick: _scheduler_throughput(seed, quick, True, backend="shape"),
        ),
        Scenario(
            "cache_admin_tiny_rows",
            "batched vs per-key cache admin on 16-byte presence rows",
            _cache_admin,
        ),
    )
}


def available_scenarios() -> List[str]:
    return list(SCENARIOS)
