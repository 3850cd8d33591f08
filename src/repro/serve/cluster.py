"""Replicated serving: N model replicas behind a router, on one machine or a cluster.

:class:`ClusterServer` runs the shared serving loop of
:class:`~repro.serve.core.ServingCore` -- one host clock, one request queue,
one scheduler policy -- over a fleet of data-parallel model replicas.  Its
first argument is either a multi-node :class:`~repro.hw.Cluster` or a bare
:class:`~repro.hw.machine.Machine`, which it serves as a one-node fleet.
Node 0 is the *front-end*: it owns the arrival queue, the dynamic batcher
and the router, and its host clock drives the loop.

Execution is asynchronous.  A formed batch is handed to a
:class:`~repro.serve.router.Router`, which picks a replica (round-robin,
join-shortest-queue, or least estimated latency), and the replica
*dispatches* it (``dispatch_iteration``):

* a batch routed to a **node-0 replica** issues its sampling on that
  replica's own CPU sampling-worker stream (the simulator's model of
  per-replica data-loader threads), floors the replica's GPU stream on the
  sampling-done event and launches the kernels without a trailing sync.
  The host pays only dispatch overheads, so batches routed to different
  replicas execute concurrently in simulated time -- this is where N GPUs
  buy throughput, until host work per batch exceeds ``device work / N``;
* a batch routed to a **remote replica** first ships its event payload over
  the node-pair NIC (:meth:`~repro.hw.Cluster.transfer`), then the remote
  node's *own* host -- synced forward to the payload's arrival -- runs the
  same dispatch.  The front-end pays only the NIC issue overhead, so the
  single-host dispatch wall falls: per-batch host work is spread over N
  host threads instead of serializing on one.

The returned :class:`~repro.hw.stream.StreamEvent` carries the batch's
completion time in the shared cluster frame, so the loop retires batches
from any node as the front-end cursor passes their ready times.  A batch
probes only its own replica's cache, but its events are graph mutations for
every replica, so the server invalidates the touched nodes in every other
replica's cache, remote or not; the report merges the per-replica counters.

With an :class:`~repro.serve.autoscale.Autoscaler` attached the active
replica set becomes elastic: the server provides the spin-up charge (weight
transfer to the new replica's GPU, over the NIC for remote nodes) and the
spin-down (cache flush), and consults the autoscaler every loop step.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

from ..cache import backfill_embeddings, merge_cache_stats
from ..hw.cluster import Cluster
from ..hw.machine import Machine
from ..hw.stream import StreamEvent
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .autoscale import Autoscaler
from .core import ServingCore
from .fidelity import FidelityController
from .placement import build_replicas
from .policy import SchedulerPolicy
from .request import Request
from .router import Router
from .telemetry import ServingReport

#: (requests, replica index, completion event, fidelity cost scale,
#: open service-span id -- ``None`` when no tracer is attached)
_Inflight = Tuple[List[Request], int, StreamEvent, float, Optional[int]]


def build_cluster_replicas(
    cluster: Cluster,
    factory: Any,
) -> Tuple[List[Any], List[int]]:
    """One model replica per GPU across every node of the cluster.

    ``factory`` is called as ``factory(machine)`` -- once per GPU, with the
    owning node's machine -- inside that machine's placement context, so
    each replica's weights and kernels land on its own node and device (see
    :func:`~repro.serve.placement.build_replicas`).  Returns
    ``(replicas, replica_nodes)``: the flat replica list (node-major,
    GPU-minor) and each replica's owning node index.
    """
    replicas: List[Any] = []
    nodes: List[int] = []
    for node_index, machine in enumerate(cluster.nodes):
        with machine.activate():
            built = build_replicas(machine, lambda: factory(machine))
        replicas.extend(built)
        nodes.extend([node_index] * len(built))
    return replicas, nodes


def payload_nbytes(payload: Any) -> int:
    """Wire size of a request batch's event payload (NIC routing charge)."""
    total = 0
    for name in ("src", "dst", "timestamps", "edge_features"):
        array = getattr(payload, name, None)
        if array is None:
            continue
        data = getattr(array, "data", array)
        nbytes = getattr(data, "nbytes", None)
        if nbytes:
            total += int(nbytes)
    return max(total, 1)


class ClusterServer(ServingCore):
    """Serves a request list against replicas on a machine or a cluster."""

    def __init__(
        self,
        cluster: Union[Cluster, Machine],
        replicas: Sequence[Any],
        replica_nodes: Sequence[int],
        policy: SchedulerPolicy,
        router: Router,
        autoscaler: Optional[Autoscaler] = None,
        fidelity: Optional[FidelityController] = None,
        backfill_nodes: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not replicas:
            raise ValueError("replicated serving needs at least one replica")
        #: The multi-node cluster, or ``None`` when serving a bare machine.
        self.cluster = cluster if isinstance(cluster, Cluster) else None
        self.nodes = cluster.nodes if self.cluster is not None else (cluster,)
        self.multi_node = len(self.nodes) > 1
        if len(replica_nodes) != len(replicas):
            raise ValueError("replica_nodes must map every replica to a node")
        if router.num_replicas != len(replicas):
            raise ValueError(f"router expects {router.num_replicas} replicas, got {len(replicas)}")
        for replica, node_index in zip(replicas, replica_nodes):
            if not getattr(replica, "supports_async_dispatch", False):
                raise TypeError(
                    f"{type(replica).__name__} does not implement "
                    "dispatch_iteration; replicated serving requires the "
                    "async dispatch protocol"
                )
            if not 0 <= node_index < len(self.nodes):
                raise ValueError(f"replica node {node_index} out of range")
            if replica.machine is not self.nodes[node_index]:
                raise ValueError("replica is not placed on its declared node's machine")
        super().__init__(policy, fidelity, tracer, metrics)
        self.models = self.replicas = list(replicas)
        self.replica_nodes = list(replica_nodes)
        self.router = router
        self.autoscaler = autoscaler
        self.backfill_nodes = int(backfill_nodes)
        self._inflight: List[_Inflight] = []
        #: Per-replica ready time of the last retired batch, used to split a
        #: batch's dispatch->completion span into queue-behind-own-replica
        #: versus actual execution.
        self._last_ready: List[float] = [0.0] * len(self.replicas)

    def serve(
        self,
        requests: Sequence[Request],
        label: str = "serve-cluster",
        arrival_name: str = "trace",
        warm_up: bool = True,
    ) -> ServingReport:
        """Serve ``requests`` to completion and return the telemetry report."""
        return self._serve(
            requests, label, arrival_name, warm_up,
            placement="replicate", router=self.router.describe(), num_replicas=len(self.replicas),
        )

    def _attach_tracer(self) -> None:
        if self.cluster is None:
            super()._attach_tracer()
        else:
            self.tracer.attach_cluster(self.cluster)

    def _warm_up(self, head: List[Any]) -> None:
        batch = self.replicas[0].make_request_batch(head)
        for replica, node_index in zip(self.replicas, self.replica_nodes):
            with self.nodes[node_index].activate():
                replica.warm_up(batch)
            # Proactive warming: precompute hot-node embeddings into each
            # replica's cache before the first request, charged to the owning
            # node (backfill_embeddings activates the replica's own machine)
            # and drained by the barrier below.
            if self.backfill_nodes > 0 and getattr(replica, "cache", None) is not None:
                backfill_embeddings(replica, top_k=self.backfill_nodes)
        # A real barrier, not just clock alignment: remote warm-up ships
        # weights over the NICs, and serving must not start while those
        # payloads are still in flight.  One node has nothing to drain, and
        # a hard sync there would join streams the loop expects to overlap.
        if self.multi_node:
            self.cluster.synchronize()

    def _finish_report(self, report: ServingReport, profile: Any) -> None:
        if self.multi_node:
            self.cluster.synchronize()
        report.cache = merge_cache_stats(
            [
                replica.cache_stats()
                for replica in self.replicas
                if callable(getattr(replica, "cache_stats", None))
            ]
        )
        if self.autoscaler is not None:
            report.autoscale = self.autoscaler.stats(report.duration_ms)
        if self.cluster is None:
            return
        report.cluster = {
            "spec": self.cluster.spec.name,
            "num_nodes": self.cluster.num_nodes,
            "nic": self.cluster.spec.nic.name,
            "nic_bytes": self.cluster.nic_bytes(),
        }
        if not self.multi_node:
            return
        # On multi-node runs every per-device key is node-qualified
        # (``node<i>:<gpu>``): node machines share GPU names, and bare names
        # from node 0 would collide with (or be mistaken for) remote ones.
        report.per_device_utilization = {
            f"node0:{name}": value for name, value in report.per_device_utilization.items()
        }
        if profile.elapsed_ms <= 0:
            return
        # Remote nodes are outside the front-end profiler's machine; read
        # their device busy fractions over the same window.
        start = profile.start_ms
        end = profile.start_ms + profile.elapsed_ms
        for node_index, node in enumerate(self.nodes[1:], start=1):
            for gpu in node.gpus:
                key = f"node{node_index}:{gpu.name}"
                report.per_device_utilization[key] = gpu.utilization(start, end)
        report.cluster["nic_busy"] = {
            link.name: round(link.busy_ms(start, end) / profile.elapsed_ms, 4)
            for link in self.cluster.nic_links
        }

    # -- the loop hooks -------------------------------------------------------

    def _loop(self, requests: Sequence[Request]) -> float:
        if self.autoscaler is not None:
            self.autoscaler.bind(
                self.router,
                len(self.replicas),
                spin_up=self._spin_up,
                spin_down=self._spin_down,
                now_ms=0.0,
            )
        return super()._loop(requests)

    def _admit(self, request: Request) -> None:
        if self.autoscaler is not None:
            self.autoscaler.observe_arrival(request.arrival_ms)
        self.batcher.enqueue(request)

    def _poll(self, now: float) -> List[Request]:
        if self.autoscaler is not None:
            self.autoscaler.step(now)
        return self.batcher.poll(now)

    def _wake_targets(self, targets: List[float]) -> None:
        """In-flight completions and warming replicas coming online."""
        if self._inflight:
            targets.append(min(e.ready_ms for _, _, e, _, _ in self._inflight) - self._t0)
        if self.autoscaler is not None:
            pending_ready = self.autoscaler.next_ready_ms()
            if pending_ready is not None:
                targets.append(pending_ready)

    # -- execution ---------------------------------------------------------------

    def _dispatch(self, batch: List[Request], now: float) -> None:
        """Route one formed batch to a replica, locally or across the NIC.

        Remote replicas first receive the batch's event payload over the
        NIC; the front-end pays only the transfer issue overhead while the
        remote node's host -- aligned to the payload's arrival -- runs the
        sampling-worker prepare and the kernel dispatch on its own clock,
        concurrently with the front-end's next work.  (The batch's input
        copies are issued at dispatch time, a staging approximation; they are
        orders of magnitude shorter than the sampling they follow.)
        """
        front = self.machine
        target = self.router.route(len(batch), now)
        node_index = self.replica_nodes[target]
        replica = self.replicas[target]
        payload, cost_scale, span_id, cursor = self._open(
            batch, now, replica, f"batch-r{target}", replica.machine,
            replica=target, node_index=node_index,
        )
        for request in batch:
            request.replica = target
        tracer = self.tracer
        if node_index == 0:
            ready = self._dispatch_on(front, replica, target, payload, span_id)
            if span_id is not None:
                tracer.record_slice(span_id, front, cursor)
        else:
            remote = self.nodes[node_index]
            if span_id is not None:
                # Bind the request context so the NIC hop recorded down in
                # Cluster.transfer lands in this batch's span tree.
                tracer.bind(tuple(r.request_id for r in batch), span_id)
            arrival = self.cluster.transfer(
                0,
                front.cpu,
                node_index,
                remote.cpu,
                payload_nbytes(payload),
                name="route_payload",
            )
            if span_id is not None:
                tracer.unbind()
                tracer.record_slice(span_id, front, cursor)
            self.cluster.sync_node(node_index, arrival)
            with remote.activate():
                remote_cursor = remote.event_cursor() if span_id is not None else 0
                ready = self._dispatch_on(remote, replica, target, payload, span_id)
                if span_id is not None:
                    tracer.record_slice(span_id, remote, remote_cursor)
        self.router.notify_dispatch(target, len(batch))
        self._inflight.append((batch, target, ready, cost_scale, span_id))
        self._broadcast_invalidation(target, payload)

    def _dispatch_on(
        self, machine, replica, target: int, payload: Any, span_id: Optional[int] = None
    ) -> StreamEvent:
        """The replica dispatch body, on whichever node hosts the replica."""
        plan = None
        if getattr(replica, "supports_overlap", False):
            issue_ms = machine.host_time_ms
            worker = machine.stream(machine.cpu, f"serve-sampling-{target}")
            with machine.use_stream(worker):
                plan = replica.prepare_iteration(payload)
                prepared = machine.record_event(worker, name=f"prepared-r{target}")
            device = replica.compute_device
            if device.is_gpu:
                machine.wait_event(machine.default_stream(device), prepared)
            if span_id is not None:
                self.tracer.span(
                    "sample",
                    "sample",
                    issue_ms,
                    prepared.ready_ms,
                    node=self.tracer.node_of(machine),
                    trace_ids=self.tracer.get_span(span_id).trace_ids,
                    parent_id=span_id,
                    replica=target,
                )
        return replica.dispatch_iteration(payload, plan=plan)

    def _broadcast_invalidation(self, origin: int, payload: Any) -> None:
        """Invalidate the batch's touched nodes in every *other* replica cache.

        The origin replica's own cache already handled the batch (its
        request path invalidates and re-inserts); the other replicas, remote
        ones included, only learn that the touched nodes' cached
        samples/embeddings now predate new graph events.  Each invalidation
        is charged to the owning replica's node (its host processes the
        coherence message).
        """
        touched = None
        for index, replica in enumerate(self.replicas):
            if index == origin:
                continue
            cache = getattr(replica, "cache", None)
            if cache is None:
                continue
            if touched is None:
                touched = payload.touched_nodes().tolist()
            cache.invalidate_nodes(touched)
        if touched is not None and self.tracer is not None:
            self.tracer.instant(
                "invalidate_broadcast",
                "cache",
                self.machine.host_time_ms,
                node=self.tracer.node_of(self.machine),
                origin=origin,
                nodes=len(touched),
            )

    def _retire(self) -> None:
        """Complete every in-flight batch the front-end cursor has passed.

        The policy observes the full dispatch->completion span (what a
        request experiences once batched).  The router instead observes the
        batch's *execution* time -- the span excluding time queued behind
        earlier batches on the same replica -- because its least-latency
        estimate multiplies the per-request cost by the in-flight count, and
        feeding it queue-inclusive samples would count the backlog twice.
        Completion events from remote nodes carry shared-frame times, so the
        same cursor rule applies regardless of the serving node.
        """
        horizon = self.machine.host_time_ms + 1e-9
        still_inflight: List[_Inflight] = []
        for entry in self._inflight:
            batch, target, ready, cost_scale, span_id = entry
            if ready.ready_ms > horizon:
                still_inflight.append(entry)
                continue
            done = self._complete(batch, ready.ready_ms, cost_scale, span_id)
            started = max(self._last_ready[target], batch[0].dispatched_ms + self._t0)
            self._last_ready[target] = ready.ready_ms
            self.router.notify_complete(target, len(batch), max(0.0, ready.ready_ms - started))
            if self.autoscaler is not None:
                for request in batch:
                    self.autoscaler.observe_completion(done, request.total_ms)
        self._inflight = still_inflight

    # -- autoscaler charge callbacks ---------------------------------------------

    def _spin_up(self, index: int, now_ms: float) -> float:
        """Charge one replica's cold start; returns its ready time.

        The replica's weights are shipped from the front-end host to its
        compute device -- over the NIC plus the remote PCIe link for remote
        replicas, over the local host link otherwise.  The replica joins
        the fleet when the weights land.  (Its serving cache was flushed at
        spin-down, so warm-up misses follow naturally.)
        """
        replica = self.replicas[index]
        node_index = self.replica_nodes[index]
        if self.tracer is not None:
            self.tracer.instant(
                f"scale:up:r{index}",
                "scale",
                self._t0 + now_ms,
                node=self.tracer.node_of(self.machine),
                node_index=node_index,
            )
        device = replica.compute_device
        if node_index == 0 and not device.is_gpu:
            return now_ms  # host-resident replica: nothing to ship
        front = self.machine
        node = self.nodes[node_index]
        destination = device if device.is_gpu else node.cpu
        nbytes = 1
        if callable(getattr(replica, "param_bytes", None)):
            nbytes = max(int(replica.param_bytes()), 1)
        if self.cluster is not None:
            arrival = self.cluster.transfer(
                0, front.cpu, node_index, destination, nbytes, name="weight_transfer"
            )
        else:
            # Cluster.transfer's same-node path, on the bare machine.
            front.transfer(front.cpu, destination, nbytes, name="weight_transfer", non_blocking=True)
            arrival = front.topology.route(front.cpu, destination)[-1].link.free_at
        ready_ms = arrival
        # Re-warm the flushed cache as part of the cold start: the replica
        # only joins the fleet once its hot rows are back, so the backfill
        # charge lands inside the modeled spin-up latency.
        if self.backfill_nodes > 0 and getattr(replica, "cache", None) is not None:
            if node_index != 0:
                self.cluster.sync_node(node_index, arrival)
            backfill_embeddings(replica, top_k=self.backfill_nodes)
            ready_ms = max(arrival, node.host_time_ms)
        return ready_ms - self._t0

    def _spin_down(self, index: int, now_ms: float) -> None:
        """Release one replica: flush its cache so re-activation is cold."""
        if self.tracer is not None:
            self.tracer.instant(
                f"scale:down:r{index}",
                "scale",
                self._t0 + now_ms,
                node=self.tracer.node_of(self.machine),
            )
        cache = getattr(self.replicas[index], "cache", None)
        if cache is not None:
            cache.flush()
