"""Random operator programs and their execution engine.

A *program* is a list of plain-dict ops with **concrete** parameters
(device indices, stream names, byte counts, millisecond durations), drawn
once by :func:`draw_program` and then replayable without the RNG.  Two
properties make the greedy shrinker sound:

* **Any subsequence of any program is valid.**  Resource references resolve
  modulo the config's actual complement (device/node indices wrap), and ops
  that reference the *result* of an earlier op -- ``free`` names the
  ``alloc`` op that produced its allocation, ``wait``/``event_sync`` name a
  ``record`` op -- degrade to no-ops when the referenced op was dropped or
  did not execute.
* **Any program is valid under any config.**  Cluster ops no-op without a
  cluster, cache ops no-op without a cache, the serving episode no-ops
  without a serving config -- so the shrinker may simplify the config and
  the op list independently.

The executor (:class:`Execution`) runs a program against a config and
checks the *online* invariants -- host/node clocks never move backwards,
memory pools never go negative, ``synchronize`` really drains -- after
every single op; structural and differential invariants live in
:mod:`repro.fuzz.invariants`.

The ``rewind`` op is deliberate fault injection for the harness's own
tests: it forces a machine's host cursor backwards, which no public API
allows, so the monotone-clock invariant must trip.  The generator only
emits it when asked (``fault_rate > 0``).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from ..cache.policy import make_eviction_policy
from ..cache.store import DeviceResidentCache
from ..hw.cluster import Cluster
from ..hw.machine import Machine
from .config import FuzzConfig

Op = Dict[str, Any]

STREAM_NAMES = ("default", "s1", "s2")

#: Ops the generator draws from (weights tuned so allocation, stream and
#: transfer machinery all get exercised in a ~40-op program).
_MACHINE_OPS = (
    "kernel", "kernel", "kernel",
    "host", "host",
    "transfer", "transfer",
    "record", "wait",
    "sync", "stream_sync", "device_sync", "event_sync",
    "alloc", "alloc", "free",
    "advance",
)
_CLUSTER_OPS = ("nic_transfer", "nic_transfer", "node_sync", "cluster_sync")
_CACHE_OPS = (
    "cache_probe", "cache_probe",
    "cache_put", "cache_put", "cache_put_many",
    "cache_invalidate", "cache_flush", "cache_charges",
)


class InvariantViolation(AssertionError):
    """One global contract broken by a fuzz case."""

    def __init__(self, invariant: str, message: str) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.message = message


# -- generation -------------------------------------------------------------


def draw_program(
    rng: random.Random,
    config: FuzzConfig,
    num_ops: int = 40,
    fault_rate: float = 0.0,
) -> List[Op]:
    """Draw a random program with concrete, JSON-serializable parameters."""
    palette = list(_MACHINE_OPS)
    if config.cluster:
        palette += list(_CLUSTER_OPS)
    if config.cache:
        palette += list(_CACHE_OPS)
    ops: List[Op] = []
    # Cache event-time advances with jitter; occasional backwards queries
    # exercise the age < 0 (entry "from the future") path.
    event_clock = 0.0
    for index in range(num_ops):
        if fault_rate > 0.0 and rng.random() < fault_rate:
            ops.append({"op": "rewind", "node": rng.randrange(4), "ms": rng.uniform(0.5, 5.0)})
            continue
        kind = rng.choice(palette)
        node = rng.randrange(4)
        if kind == "kernel":
            ops.append({
                "op": "kernel", "node": node, "device": rng.randrange(5),
                "stream": rng.choice(STREAM_NAMES),
                "flops": round(rng.uniform(0, 5e7), 3),
                "bytes": round(rng.uniform(0, 1e6), 3),
            })
        elif kind == "host":
            ops.append({
                "op": "host", "node": node,
                "stream": rng.choice(STREAM_NAMES),
                "ms": round(rng.uniform(0, 2.0), 6),
            })
        elif kind == "transfer":
            ops.append({
                "op": "transfer", "node": node,
                "src": rng.randrange(5), "dst": rng.randrange(5),
                "nbytes": rng.randrange(0, 1_000_000),
                "non_blocking": rng.random() < 0.5,
            })
        elif kind == "record":
            ops.append({
                "op": "record", "node": node, "device": rng.randrange(5),
                "stream": rng.choice(STREAM_NAMES),
            })
        elif kind == "wait":
            ops.append({
                "op": "wait", "node": node, "device": rng.randrange(5),
                "stream": rng.choice(STREAM_NAMES), "ref": rng.randrange(max(index, 1)),
            })
        elif kind == "event_sync":
            ops.append({"op": "event_sync", "node": node, "ref": rng.randrange(max(index, 1))})
        elif kind == "sync":
            ops.append({"op": "sync", "node": node})
        elif kind == "stream_sync":
            ops.append({
                "op": "stream_sync", "node": node, "device": rng.randrange(5),
                "stream": rng.choice(STREAM_NAMES),
            })
        elif kind == "device_sync":
            ops.append({"op": "device_sync", "node": node, "device": rng.randrange(5)})
        elif kind == "alloc":
            ops.append({
                "op": "alloc", "node": node, "device": rng.randrange(5),
                "nbytes": rng.randrange(0, 10_000_000),
            })
        elif kind == "free":
            ops.append({"op": "free", "ref": rng.randrange(max(index, 1))})
        elif kind == "advance":
            ops.append({"op": "advance", "node": node, "ms": round(rng.uniform(0, 1.0), 6)})
        elif kind == "nic_transfer":
            op: Op = {
                "op": "nic_transfer",
                "src_node": rng.randrange(4), "src": rng.randrange(5),
                "dst_node": rng.randrange(4), "dst": rng.randrange(5),
                "nbytes": rng.randrange(0, 2_000_000),
            }
            # Occasionally floor the start time in the past (the cluster
            # must clamp, never schedule before link availability).
            if rng.random() < 0.25:
                op["ready_ms"] = round(rng.uniform(0.0, 3.0), 6)
            ops.append(op)
        elif kind == "node_sync":
            ops.append({"op": "node_sync", "node": node})
        elif kind == "cluster_sync":
            ops.append({"op": "cluster_sync"})
        elif kind == "cache_probe":
            count = rng.randrange(1, 12)
            times = []
            for _ in range(count):
                event_clock += rng.uniform(0.0, 1.5)
                # ~1 in 8 queries look backwards in event time.
                skew = -rng.uniform(0.0, 4.0) if rng.random() < 0.125 else 0.0
                times.append(round(event_clock + skew, 6))
            ops.append({
                "op": "cache_probe",
                "keys": [rng.randrange(24) for _ in range(count)],
                "times": times,
            })
        elif kind == "cache_put":
            event_clock += rng.uniform(0.0, 1.5)
            ops.append({
                "op": "cache_put", "key": rng.randrange(24),
                "event_ms": round(event_clock, 6),
                # Zero-byte entries are legal (presence rows) and exercise
                # the eviction loop's termination condition.
                "nbytes": rng.randrange(0, 300_000),
            })
        elif kind == "cache_put_many":
            count = rng.randrange(1, 10)
            event_clock += rng.uniform(0.0, 1.5)
            ops.append({
                "op": "cache_put_many",
                "keys": [rng.randrange(24) for _ in range(count)],
                "times": [round(event_clock + i * 0.01, 6) for i in range(count)],
                "nbytes": rng.randrange(1, 4_000),
            })
        elif kind == "cache_invalidate":
            count = rng.randrange(1, 8)
            ops.append({
                "op": "cache_invalidate",
                "keys": [rng.randrange(24) for _ in range(count)],
            })
        elif kind == "cache_flush":
            ops.append({"op": "cache_flush"})
        elif kind == "cache_charges":
            ops.append({"op": "cache_charges"})
    if config.serving:
        ops.append({"op": "serve"})
    return ops


# -- execution --------------------------------------------------------------


class NullCacheProxy:
    """The staleness-0 reference semantics: probe admin, never store.

    Under a zero staleness bound the hit window ``[0, 0)`` is empty, so a
    correct :class:`DeviceResidentCache` must charge exactly what this proxy
    charges: per-key probe admin on the host, and *nothing* else -- no
    insert kernels, no gathers, no device residency, no frees.  The
    staleness-zero differential invariant runs a program against both and
    demands byte-identical event logs.
    """

    def __init__(self, machine: Machine, kind: str, cost_model) -> None:
        self.machine = machine
        self.kind = kind
        self.cost = cost_model
        self._probed = 0

    def probe(self, key, now_event_ms):
        self._probed += 1
        return None

    def probe_many(self, keys, times_ms):
        self._probed += len(keys)
        return [None] * len(keys)

    def put(self, key, value, event_ms, nbytes):
        return False

    def put_many(self, keys, value, times_ms, nbytes):
        return 0

    def invalidate(self, keys):
        return 0

    def flush(self):
        return 0

    def flush_charges(self, label: str = "") -> None:
        if not self._probed:
            return
        suffix = f"_{label}" if label else ""
        admin_ms = self.cost.probe_ms(self._probed)
        if admin_ms > 0.0:
            self.machine.host_work(f"cache_{self.kind}_admin{suffix}", admin_ms)
        self._probed = 0


class Execution:
    """One program run against one config, with online invariant checks.

    Args:
        config: The drawn configuration.
        checks: Invariant names to enforce online (``None`` = all).
        null_cache: Substitute the staleness-0 reference proxy for the real
            cache store (the staleness-zero differential's paired run).
        scalar_cache: Decompose every batched cache op (``probe_many``,
            ``put_many``) into its scalar per-key form (the batched-scalar
            differential's paired run).
        no_trace: Force the serving episode to run without a tracer even
            when the config asks for one (the trace-conservation
            differential's paired run).
        record_events: Forwarded to the machines; the differential checks
            need event logs, so it defaults on.
    """

    def __init__(
        self,
        config: FuzzConfig,
        checks: Optional[set] = None,
        null_cache: bool = False,
        scalar_cache: bool = False,
        no_trace: bool = False,
        record_events: bool = True,
    ) -> None:
        self.config = config
        self.checks = checks
        self.scalar_cache = scalar_cache
        self.no_trace = no_trace
        self.cluster: Optional[Cluster] = None
        if config.cluster:
            self.cluster = Cluster(
                config.cluster, backend=config.backend, record_events=record_events
            )
            self.nodes: List[Machine] = list(self.cluster.nodes)
        else:
            self.nodes = [
                Machine.from_spec(
                    config.topology, backend=config.backend, record_events=record_events
                )
            ]
        self.cache = None
        if config.cache:
            owner = self.nodes[0]
            device = owner.gpu if owner.has_gpu else owner.cpu
            if null_cache:
                from ..cache.store import CacheCostModel

                self.cache = NullCacheProxy(owner, config.cache["kind"], CacheCostModel())
            else:
                self.cache = DeviceResidentCache(
                    owner,
                    device,
                    config.cache["kind"],
                    make_eviction_policy(config.cache["policy"]),
                    capacity_bytes=config.cache["capacity_bytes"],
                    staleness_ms=config.cache["staleness_ms"],
                )
        self.live_allocs: Dict[int, Tuple[Any, int]] = {}
        self.recorded: Dict[int, Any] = {}
        self.serve_machine: Optional[Machine] = None
        self.serve_report = None
        self.serve_tracer = None
        self._host_before = [n.host_time_ms for n in self.nodes]

    # -- helpers ---------------------------------------------------------

    def _enabled(self, invariant: str) -> bool:
        return self.checks is None or invariant in self.checks

    def _node(self, index: int) -> Machine:
        return self.nodes[index % len(self.nodes)]

    def _device(self, machine: Machine, index: int):
        devices = machine.devices
        return devices[index % len(devices)]

    def _check_online(self) -> None:
        if self._enabled("monotone-clock"):
            for i, node in enumerate(self.nodes):
                if node.host_time_ms < self._host_before[i] - 1e-12:
                    raise InvariantViolation(
                        "monotone-clock",
                        f"node {i} host cursor moved backwards: "
                        f"{self._host_before[i]} -> {node.host_time_ms}",
                    )
                self._host_before[i] = node.host_time_ms
        if self._enabled("memory-pools"):
            for i, node in enumerate(self.nodes):
                for device in node.devices:
                    if device.memory.current_bytes < 0:
                        raise InvariantViolation(
                            "memory-pools",
                            f"node {i} {device.name} pool went negative "
                            f"({device.memory.current_bytes} bytes)",
                        )

    def _check_drained(self, machine: Machine, where: str) -> None:
        if not self._enabled("drain-after-sync"):
            return
        now = machine.host_time_ms
        for device in machine.devices:
            if device.free_at > now + 1e-9:
                raise InvariantViolation(
                    "drain-after-sync",
                    f"{where}: {device.name} busy until {device.free_at} "
                    f"past the cursor at {now}",
                )
        for link in machine.links:
            if link.free_at > now + 1e-9:
                raise InvariantViolation(
                    "drain-after-sync",
                    f"{where}: link {link.name} busy until {link.free_at} "
                    f"past the cursor at {now}",
                )

    # -- the dispatch loop ----------------------------------------------

    def run(self, ops: List[Op]) -> "Execution":
        for index, op in enumerate(ops):
            self._dispatch(index, op)
            self._check_online()
        return self

    def _dispatch(self, index: int, op: Op) -> None:
        kind = op["op"]
        if kind == "noop":
            # Placeholder keeping op indices (and so generated kernel names)
            # stable when a differential mapping erases an op.
            return
        if kind == "kernel":
            machine = self._node(op["node"])
            device = self._device(machine, op["device"])
            machine.launch_kernel(
                device, f"fz_k{index}", op["flops"], op["bytes"],
                stream=device.stream(op["stream"]),
            )
        elif kind == "host":
            machine = self._node(op["node"])
            machine.host_work(f"fz_h{index}", op["ms"], stream=machine.cpu.stream(op["stream"]))
        elif kind == "transfer":
            machine = self._node(op["node"])
            src = self._device(machine, op["src"])
            dst = self._device(machine, op["dst"])
            if src is dst:
                dst = self._device(machine, op["dst"] + 1)
            if src is dst:
                return
            machine.transfer(
                src, dst, op["nbytes"],
                name=op.get("name", "memcpy"),
                non_blocking=op["non_blocking"],
            )
        elif kind == "record":
            machine = self._node(op["node"])
            device = self._device(machine, op["device"])
            self.recorded[index] = (machine, machine.record_event(device.stream(op["stream"])))
        elif kind == "wait":
            machine = self._node(op["node"])
            ref = self.recorded.get(op["ref"])
            # Cross-machine waits are undefined (streams belong to a node);
            # only honour events recorded on the same node machine.
            if ref is None or ref[0] is not machine:
                return
            device = self._device(machine, op["device"])
            machine.wait_event(device.stream(op["stream"]), ref[1])
        elif kind == "event_sync":
            ref = self.recorded.get(op["ref"])
            if ref is None:
                return
            ref[0].event_synchronize(ref[1])
        elif kind == "sync":
            machine = self._node(op["node"])
            machine.synchronize(name=op.get("name", "cuda_sync"))
            self._check_drained(machine, f"op {index} synchronize")
        elif kind == "stream_sync":
            machine = self._node(op["node"])
            device = self._device(machine, op["device"])
            machine.stream_synchronize(device.stream(op["stream"]))
        elif kind == "device_sync":
            machine = self._node(op["node"])
            machine.device_synchronize(self._device(machine, op["device"]))
        elif kind == "alloc":
            machine = self._node(op["node"])
            device = self._device(machine, op["device"])
            self.live_allocs[index] = (machine, device, machine.alloc(device, op["nbytes"]))
        elif kind == "free":
            ref = self.live_allocs.pop(op["ref"], None)
            if ref is None:
                return
            machine, device, alloc_id = ref
            machine.free(device, alloc_id)
        elif kind == "advance":
            self._node(op["node"]).advance_host(op["ms"])
        elif kind == "rewind":
            # Fault injection (harness self-test): no public API rewinds the
            # cursor, so reach into the machine to break the contract.
            machine = self._node(op["node"])
            machine._host_time -= op["ms"]
        elif kind == "nic_transfer":
            if self.cluster is None:
                return
            src_node = op["src_node"] % self.cluster.num_nodes
            dst_node = op["dst_node"] % self.cluster.num_nodes
            src_machine = self.cluster.nodes[src_node]
            dst_machine = self.cluster.nodes[dst_node]
            src = self._device(src_machine, op["src"])
            dst = self._device(dst_machine, op["dst"])
            if src_node == dst_node:
                if src is dst:
                    dst = self._device(dst_machine, op["dst"] + 1)
                if src is dst:
                    return
            self.cluster.transfer(
                src_node, src, dst_node, dst, op["nbytes"],
                ready_ms=op.get("ready_ms"),
            )
        elif kind == "node_sync":
            if self.cluster is None:
                return
            self.cluster.sync_node(op["node"] % self.cluster.num_nodes, self.cluster.time_ms)
        elif kind == "cluster_sync":
            if self.cluster is None:
                return
            # The cluster-wide barrier: afterwards nothing -- node streams,
            # node links, NIC links -- may still be in flight.
            self.cluster.synchronize()
            if self._enabled("drain-after-sync"):
                now = self.cluster.time_ms
                for link in self.cluster.nic_links:
                    if link.free_at > now + 1e-9:
                        raise InvariantViolation(
                            "drain-after-sync",
                            f"op {index} cluster synchronize: NIC {link.name} "
                            f"busy until {link.free_at} past the frontier at {now}",
                        )
                for node in self.cluster.nodes:
                    self._check_drained(node, f"op {index} cluster synchronize")
        elif kind == "cache_probe":
            if self.cache is None:
                return
            if self.scalar_cache:
                for key, now in zip(op["keys"], op["times"]):
                    self.cache.probe(key, now)
            else:
                self.cache.probe_many(op["keys"], op["times"])
        elif kind == "cache_put":
            if self.cache is None:
                return
            self.cache.put(op["key"], f"v{index}", op["event_ms"], op["nbytes"])
        elif kind == "cache_put_many":
            if self.cache is None:
                return
            if self.scalar_cache:
                for key, now in zip(op["keys"], op["times"]):
                    self.cache.put(key, True, now, op["nbytes"])
            else:
                self.cache.put_many(op["keys"], True, op["times"], op["nbytes"])
        elif kind == "cache_invalidate":
            if self.cache is None:
                return
            self.cache.invalidate(op["keys"])
        elif kind == "cache_flush":
            if self.cache is None:
                return
            self.cache.flush()
        elif kind == "cache_charges":
            if self.cache is None:
                return
            self.cache.flush_charges()
        elif kind == "serve":
            self._serve()
        else:
            raise ValueError(f"unknown fuzz op {kind!r}")

    # -- the serving episode ---------------------------------------------

    def _serve(self) -> None:
        if self.config.serving is None:
            return
        from ..cache import make_model_cache
        from ..graph.partition import make_partition
        from ..models.tgat import TGAT, TGATConfig
        from ..serve import (
            ClusterServer,
            InferenceServer,
            PoissonProcess,
            ShardedModel,
            applicable_policy_overrides,
            build_replicas,
            generate_requests,
            make_fidelity_controller,
            make_policy,
            make_router,
        )

        serving = self.config.serving
        dataset = _tiny_dataset()
        machine = Machine.from_spec(self.config.topology, backend=self.config.backend)
        model_config = TGATConfig(num_neighbors=4, batch_size=8, seed=0)
        with machine.activate():
            if serving["placement"] == "single":
                replicas = [TGAT(machine, dataset, model_config)]
            else:
                replicas = build_replicas(
                    machine, lambda: TGAT(machine, dataset, model_config), machine.gpus
                )
        if serving.get("cache"):
            for replica in replicas:
                make_model_cache(replica, **serving["cache"])
        policy = make_policy(
            serving["policy"],
            max_batch_size=8,
            **applicable_policy_overrides(
                serving["policy"], batch_timeout_ms=2.0, slo_ms=20.0
            ),
        )
        requests = generate_requests(
            dataset.stream,
            PoissonProcess(serving["rate_rps"], seed=7),
            duration_ms=serving["duration_ms"],
            events_per_request=1,
            slo_ms=20.0,
        )
        # .get(): reproducer dicts written before the trace field existed
        # must keep replaying unchanged (same for fidelity below).
        tracer = metrics = None
        if serving.get("trace") and not self.no_trace:
            from ..obs import MetricsRegistry, Tracer

            tracer = Tracer()
            metrics = MetricsRegistry()
        fidelity = make_fidelity_controller() if serving.get("fidelity") else None
        if serving["placement"] == "replicate" and len(replicas) > 1:
            server = ClusterServer(
                machine, replicas, [0] * len(replicas), policy,
                make_router(serving["router"], len(replicas)),
                fidelity=fidelity, tracer=tracer, metrics=metrics,
            )
        elif serving["placement"] == "shard" and len(replicas) > 1:
            partition = make_partition("degree", dataset.stream, len(replicas), seed=0)
            server = InferenceServer(
                ShardedModel(replicas, partition), policy, overlap=False,
                tracer=tracer, metrics=metrics,
            )
        else:
            server = InferenceServer(
                replicas[0], policy, overlap=serving["overlap"], fidelity=fidelity,
                tracer=tracer, metrics=metrics,
            )
        report = server.serve(requests, label="fuzz", arrival_name="poisson")
        self.serve_machine = machine
        self.serve_report = report
        self.serve_tracer = tracer


_DATASET_CACHE: Dict[str, Any] = {}


def _tiny_dataset():
    """The serving episodes' shared dataset (loaded once per process)."""
    if "tiny" not in _DATASET_CACHE:
        from ..datasets import load

        _DATASET_CACHE["tiny"] = load("wikipedia", scale="tiny")
    return _DATASET_CACHE["tiny"]


def signature(machine: Machine) -> List[Tuple]:
    """The event-identity fingerprint differential invariants compare."""
    return [
        (e.kind, e.name, e.resource, e.stream, e.start_ms, e.end_ms, e.flops, e.bytes)
        for e in machine.events
    ]
