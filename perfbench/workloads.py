"""The benchmark's three workloads, driven only through the simulator's public API.

Each workload splits one rep into ``setup()`` (everything before the measured
call), ``loop(state)`` (the one call that is timed) and ``check(state,
result)``, which verifies the outputs and returns an :class:`Outcome`: the
operations attempted and failed, the simulated events of the loop, a digest
of the simulated statistics, and the deterministic per-layer numbers.

All three are batch jobs over a fixed input.  The serving workloads are
open loop in *simulated* time: arrivals follow a seeded schedule regardless
of how fast requests complete.  The seed only moves arrival times; the
dataset, the model weights and the request payloads stay fixed, so the
amount of work per rep hardly depends on the seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro import datasets, experiments, models
from repro.cache import make_model_cache
from repro.hw import Cluster, Machine
from repro.serve import (
    AutoscaleConfig,
    Autoscaler,
    ClusterServer,
    InferenceServer,
    build_cluster_replicas,
    generate_requests,
    make_arrival_process,
    make_policy,
    make_router,
)


#: Deterministic per-layer numbers; a workload that never reaches a layer
#: reports its zero.
SIMULATED_LAYER_METRICS = (
    "hw.events", "hw.sim_ms", "hw.nic_mb", "cache.hit_rate", "cache.evictions",
    "serve.batches", "serve.mean_batch", "serve.completed", "serve.sim_p99_ms",
    "serve.sim_queue_p99_ms", "serve.slo_miss_frac", "serve.scale_ups",
)


@dataclass
class Outcome:
    """What one rep produced, after its correctness checks."""

    ops: int
    failed: int
    events: int
    digest: Dict[str, Any]
    layers: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.layers = {**dict.fromkeys(SIMULATED_LAYER_METRICS, 0), **self.layers}

    def require_same(self, reference: "Outcome", what: str) -> None:
        """Fail unless this rep simulated exactly what ``reference`` did."""
        if self.digest != reference.digest:
            raise CheckFailed(f"{what} simulated digest differs from the first rep's")


class CheckFailed(Exception):
    """A workload's outputs are wrong."""


def digest_text(digest: Dict[str, Any]) -> str:
    """Stable text of a digest (floats keep every digit) and its short hash."""
    text = json.dumps(digest, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16] + " " + text


# -- paper_cpu_gpu -------------------------------------------------------------


class _ReleasedMachines:
    """(events, simulated ms) of every machine the process frees, in order.

    Fig. 8 builds a fresh machine per cell inside ``run_experiment`` and
    drops it; its simulated work is only visible as the machine goes away.
    """

    def __init__(self) -> None:
        self.released: List[Tuple[int, float]] = []
        released = self.released

        def count_on_release(machine: Machine) -> None:
            released.append((machine.event_count, machine.host_time_ms))

        Machine.__del__ = count_on_release

    def since(self, mark: int) -> Tuple[int, int, float]:
        """Machines, events and simulated ms released after ``mark``.

        The garbage collector frees machines in no fixed order, so the
        simulated times are summed exactly (``math.fsum``).
        """
        gc.collect()
        batch = self.released[mark:]
        return len(batch), sum(e for e, _ in batch), math.fsum(t for _, t in batch)

    def mark(self) -> int:
        gc.collect()
        return len(self.released)


class PaperCpuGpu:
    """Fig. 8: five models, batch sweeps, CPU and GPU, a fresh machine per cell.

    The input is fixed by the golden file it is checked against, so the
    seed does not change it.
    """

    name = "paper_cpu_gpu"
    CONFIG = {"scale": "tiny"}

    def __init__(self, root: str, seed: int) -> None:
        with open(os.path.join(root, "tests", "golden", "fig8.json"), encoding="utf-8") as handle:
            self.golden = handle.read()
        self.ops = len(json.loads(self.golden)["rows"])
        self.released = _ReleasedMachines()

    def setup(self):
        return self.released.mark()

    def loop(self, mark):
        return experiments.run_experiment("fig8", **self.CONFIG)

    def check(self, mark, result) -> Outcome:
        machines, events, sim_ms = self.released.since(mark)
        # Serialized exactly as tests/test_golden_regression.py does.
        text = json.dumps(
            {
                "experiment": result.experiment,
                "config": dict(self.CONFIG),
                "rows": result.rows,
                "notes": result.notes,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
        if text != self.golden:
            raise CheckFailed("fig8 rows differ from tests/golden/fig8.json")
        digest = {
            "rows_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "machines": machines,
            "events": events,
            "sim_ms": sim_ms,
        }
        layers = {"hw.events": events, "hw.sim_ms": sim_ms}
        return Outcome(len(result.rows), 0, events, digest, layers)


# -- serving workloads ---------------------------------------------------------


def _requests(dataset, arrivals, count: int, window_ms: float, events_per_request: int):
    """The first ``count`` requests of a seeded arrival schedule.

    A fixed count (not a fixed window) keeps the work per rep the same for
    every seed; ``window_ms`` is long enough that the schedule never runs
    short.
    """
    requests = generate_requests(
        dataset.stream, arrivals, duration_ms=window_ms,
        events_per_request=events_per_request, slo_ms=50.0,
    )
    if len(requests) < count:
        raise CheckFailed(f"arrival schedule produced {len(requests)} < {count} requests")
    return requests[:count]


def _serving_outcome(requests, report, events: int, extra: Dict[str, Any]) -> Outcome:
    """Account for every request and summarise the report's simulated numbers."""
    generated = {r.request_id for r in requests}
    served = [r.request_id for r in report.requests]
    if report.offered != len(requests):
        raise CheckFailed(f"report offered {report.offered}, generated {len(requests)}")
    if len(set(served)) != len(served) or not set(served) <= generated:
        raise CheckFailed("report lists a request twice or one never generated")
    pending = sum(1 for r in requests if not r.is_completed)
    if report.completed + pending != len(requests):
        raise CheckFailed(
            f"{report.completed} completed + {pending} pending != {len(requests)} generated"
        )
    done = [r for r in report.requests if r.is_completed]
    if any(r.completed_ms < r.arrival_ms for r in done):
        raise CheckFailed("a request completed before it arrived")
    total, queue = report.total_latency(), report.queue_latency()
    batches = round(sum(1.0 / r.batch_size for r in done))
    scale = (report.autoscale or {}).get("events", [])
    digest = {
        "requests": len(requests),
        "completed": report.completed,
        "events": events,
        "sim_ms": report.duration_ms,
        "p99_ms": total.p99_ms,
        "queue_p99_ms": queue.p99_ms,
        "batches": batches,
        "scale_events": scale,
        **extra,
    }
    layers = {
        "hw.events": events,
        "hw.sim_ms": report.duration_ms,
        "serve.batches": batches,
        "serve.mean_batch": report.mean_batch_size,
        "serve.completed": report.completed,
        "serve.sim_p99_ms": total.p99_ms,
        "serve.sim_queue_p99_ms": queue.p99_ms,
        "serve.slo_miss_frac": report.slo_violation_rate,
        "serve.scale_ups": sum(1 for event in scale if event["action"] == "up"),
    }
    return Outcome(len(requests), pending, events, digest, layers)


class ServeCached:
    """Single-GPU TGAT serving with a warm embedding/sample cache.

    Poisson arrivals at 400/s, overlap on, timeout batching, LRU cache whose
    staleness bound spans the dataset.  Set-up serves the identical request
    schedule once to warm the cache, so the measured pass mostly hits.
    """

    name = "serve_cached"
    ops = 600  # requests: ~1.5 s of simulated arrivals at 400/s

    def __init__(self, root: str, seed: int) -> None:
        self.seed = seed

    def _schedule(self, dataset):
        arrivals = make_arrival_process("poisson", 400.0, seed=self.seed)
        return _requests(dataset, arrivals, self.ops, 2500.0, 1)

    def setup(self):
        dataset = datasets.load("wikipedia", scale="small")
        machine = Machine.cpu_gpu()
        with machine.activate():
            model = models.build_model(
                "tgat", machine, dataset=dataset, num_neighbors=10, batch_size=64
            )
        first, last = dataset.stream.time_span
        make_model_cache(
            model, policy="lru", capacity_mb=32.0, staleness_ms=max((last - first) * 2.0, 1.0)
        )
        policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
        server = InferenceServer(model, policy, overlap=True)
        server.serve(self._schedule(dataset), label="serve-cached-warm", arrival_name="poisson")
        requests = self._schedule(dataset)
        return server, requests, machine.event_count, model.cache_stats()

    def loop(self, state):
        server, requests, _, _ = state
        return server.serve(
            requests, label="serve-cached", arrival_name="poisson", warm_up=False
        )

    def check(self, state, report) -> Outcome:
        server, requests, events_before, cache_before = state
        cache = server.model.cache_stats()
        lookups = cache["lookups"] - cache_before["lookups"]
        hits = cache["hits"] - cache_before["hits"]
        evictions = cache["evictions"] - cache_before["evictions"]
        hit_rate = hits / lookups if lookups else 0.0
        events = server.model.machine.event_count - events_before
        outcome = _serving_outcome(
            requests, report, events,
            {"hit_rate": hit_rate, "evictions": evictions, "lookups": lookups},
        )
        outcome.layers.update({"cache.hit_rate": hit_rate, "cache.evictions": evictions})
        return outcome


class ClusterFlash:
    """Autoscaled TGAT serving on two NIC-linked nodes through a flash crowd.

    ``2n-2xA100-eth``, shape backend, no cache, least-latency router, an
    autoscaler between 1 and 4 replicas; arrivals at 400/s rise 6x between
    0.45 s and 1.05 s of simulated time.
    """

    name = "cluster_flash"
    ops = 1750  # requests: ~1.5 s of simulated arrivals through the flash crowd

    def __init__(self, root: str, seed: int, backend: str = "shape") -> None:
        self.root = root
        self.seed = seed
        self.backend = backend

    def setup(self):
        dataset = datasets.load("wikipedia", scale="small")
        cluster = Cluster("2n-2xA100-eth", backend=self.backend)
        replicas, nodes = build_cluster_replicas(
            cluster,
            lambda machine: models.build_model(
                "tgat", machine, dataset=dataset, num_neighbors=10, batch_size=64
            ),
        )
        arrivals = make_arrival_process(
            "flash-crowd", 400.0, seed=self.seed,
            flash_at_ms=450.0, flash_duration_ms=600.0, flash_multiplier=6.0,
        )
        requests = _requests(dataset, arrivals, self.ops, 2500.0, 2)
        autoscaler = Autoscaler(AutoscaleConfig(
            min_replicas=1, max_replicas=len(replicas), slo_ms=50.0,
            up_cooldown_ms=10.0, down_cooldown_ms=40.0,
        ))
        server = ClusterServer(
            cluster, replicas, nodes, make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0),
            make_router("least-latency", len(replicas)), autoscaler=autoscaler,
        )
        return server, requests, cluster.event_count, cluster.nic_bytes()

    def loop(self, state):
        server, requests, _, _ = state
        return server.serve(requests, label="cluster-flash", arrival_name="flash-crowd")

    def check(self, state, report) -> Outcome:
        server, requests, events_before, nic_before = state
        events = server.cluster.event_count - events_before
        nic_bytes = server.cluster.nic_bytes() - nic_before
        outcome = _serving_outcome(requests, report, events, {"nic_bytes": nic_bytes})
        outcome.layers["hw.nic_mb"] = nic_bytes / 1e6
        return outcome

    def check_twin(self, outcome: Outcome) -> None:
        """Serve the same requests on the numeric backend; the digests must match.

        This keeps the shape-backend workload standing in for numeric serving.
        """
        twin = ClusterFlash(self.root, self.seed, backend="numeric")
        state = twin.setup()
        twin.check(state, twin.loop(state)).require_same(outcome, "the numeric backend's")


WORKLOADS = {w.name: w for w in (PaperCpuGpu, ServeCached, ClusterFlash)}
