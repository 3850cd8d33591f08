"""The serving core every server shares: one event loop, one bookkeeping path.

:class:`ServingCore` walks a request list in simulated time on the
front-end machine's host clock.  Each step it admits the requests that have
arrived, asks the :class:`~repro.serve.batcher.DynamicBatcher` for a batch
and hands a formed batch to the subclass's ``_dispatch``.  When nothing can
be formed it advances the clock to the next actionable instant (an arrival,
a batching deadline, or whatever the subclass is waiting on), and once
arrivals are exhausted it drains the queue.  Because arrivals, batching
decisions and model execution share that one clock, per-request latencies
fall straight out of the event timeline.

Everything around execution lives here too, so it cannot drift between
servers: the dispatch prologue (:meth:`_open`: fidelity levers, service and
queue spans, dispatch metrics), the completion bookkeeping
(:meth:`_complete`: stamping, span close, metrics, policy feedback) and the
common :class:`~repro.serve.telemetry.ServingReport` fields.  Subclasses
decide only how a batch executes.

The tracer and the metrics registry are optional and strictly read-only
with respect to the simulation.  When they are ``None`` the hot path pays
one attribute test per hook and allocates nothing, so runs are
event-for-event identical either way.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..core.profiler import Profiler
from ..obs.metrics import MetricsRegistry, record_completion, record_dispatch
from ..obs.trace import Tracer
from .batcher import DynamicBatcher
from .fidelity import FULL_FIDELITY, FidelityController
from .policy import SchedulerPolicy
from .request import Request
from .telemetry import ServingReport


class ServingCore:
    """Arrival, batching, fidelity, tracing and completion for one fleet.

    Subclasses set :attr:`models` (every model the server executes) and
    :attr:`nodes` (every machine it runs on, front-end first), implement
    ``_dispatch``, and override the in-flight hooks (``_retire``,
    ``_drain``, ``_wake_targets``) when batches outlive their dispatch.
    """

    models: Sequence[Any]
    nodes: Sequence[Any]

    def __init__(
        self,
        policy: SchedulerPolicy,
        fidelity: Optional[FidelityController],
        tracer: Optional[Tracer],
        metrics: Optional[MetricsRegistry],
    ) -> None:
        if fidelity is not None and not callable(getattr(policy, "attach_fidelity", None)):
            raise TypeError(
                f"policy {policy.describe()} has no deadline estimator to drive "
                "degradation; adaptive fidelity requires the 'slo' policy"
            )
        self.policy = policy
        self.fidelity = fidelity
        self.tracer = tracer
        self.metrics = metrics
        if fidelity is not None:
            policy.attach_fidelity(fidelity)
        self.batcher = DynamicBatcher(policy)
        self._t0 = 0.0
        self._completed: List[Request] = []
        self._fidelity_level = 0

    @property
    def machine(self) -> Any:
        """The front-end machine: its host clock drives the serving loop."""
        return self.nodes[0]

    # -- one run --------------------------------------------------------------

    def _serve(
        self,
        requests: Sequence[Request],
        label: str,
        arrival_name: str,
        warm_up: bool,
        **shape: Any,
    ) -> ServingReport:
        """Serve ``requests`` to completion; ``shape`` fills report fields.

        Warm-up (GPU context, weight upload, allocation warm-up for a
        representative batch) happens outside the measured window, as in the
        offline experiments; the profiling capture wraps the serving loop so
        utilization numbers reflect steady-state serving only.
        """
        report = ServingReport(
            label=label,
            policy=self.policy.describe(),
            arrival=arrival_name,
            offered=len(requests),
            **shape,
        )
        if not requests:
            return report
        if self.fidelity is not None:
            self.fidelity.set_cache_available(
                any(getattr(model, "cache", None) is not None for model in self.models)
            )
        front = self.machine
        if self.tracer is not None and not self.tracer.attached(front):
            self._attach_tracer()
        ordered = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
        with front.activate():
            if warm_up:
                self._warm_up([r.payload for r in ordered[: self.policy.max_batch_size]])
            profiler = Profiler(front)
            with profiler.capture(label):
                duration_ms = self._loop(ordered)
        profile = profiler.last_profile
        report.requests = self._completed
        report.duration_ms = duration_ms
        report.gpu_utilization = profile.gpu_utilization()
        report.per_device_utilization = profile.per_gpu_utilization()
        if profile.elapsed_ms > 0:
            report.cpu_utilization = min(1.0, profile.device_busy_ms("cpu") / profile.elapsed_ms)
        if self.fidelity is not None:
            report.fidelity = self.fidelity.snapshot()
        if self.metrics is not None:
            report.metrics = self.metrics.snapshot(duration_ms)
        self._finish_report(report, profile)
        return report

    def _attach_tracer(self) -> None:
        for index, node in enumerate(self.nodes):
            self.tracer.attach(node, f"node{index}")

    def _warm_up(self, head: List[Any]) -> None:
        """Warm every model on a batch of the first requests' payloads."""
        batch = self.models[0].make_request_batch(head)
        for model in self.models:
            model.warm_up(batch)

    def _finish_report(self, report: ServingReport, profile: Any) -> None:
        """Add the server-specific report fields."""

    # -- the event loop ---------------------------------------------------------

    def _loop(self, requests: Sequence[Request]) -> float:
        """Run the arrival/batch/execute loop; returns the window's duration."""
        front = self.machine
        t0 = front.host_time_ms
        self._t0 = t0
        if self.tracer is not None:
            self.tracer.t0 = t0
        self._completed = []
        index = 0
        while True:
            self._retire()
            now = front.host_time_ms - t0
            while index < len(requests) and requests[index].arrival_ms <= now + 1e-9:
                self._admit(requests[index])
                index += 1
            batch = self._poll(now)
            if batch:
                # Re-read the clock: the control step may have charged it.
                self._dispatch(batch, front.host_time_ms - t0)
                continue
            if self._drain():
                continue
            # Idle: advance the clock to the next actionable instant.
            targets = []
            if index < len(requests):
                targets.append(requests[index].arrival_ms)
            deadline = self.batcher.next_deadline_ms(now)
            if deadline is not None:
                targets.append(deadline)
            self._wake_targets(targets)
            if not targets:
                if len(self.batcher) == 0:
                    break
                # Arrivals exhausted and the policy would wait forever: drain.
                self._dispatch(self.batcher.force(now), front.host_time_ms - t0)
                continue
            front.advance_host(max(min(targets) - now, 1e-6))
        return front.host_time_ms - t0

    def _admit(self, request: Request) -> None:
        self.batcher.enqueue(request)

    def _poll(self, now: float) -> List[Request]:
        return self.batcher.poll(now)

    def _retire(self) -> None:
        """Complete in-flight batches the clock has passed (none by default)."""

    def _drain(self) -> bool:
        """Block on in-flight work when idle; True if anything was retired."""
        return False

    def _wake_targets(self, targets: List[float]) -> None:
        """Append the loop-relative instants in-flight work becomes ready."""

    def _dispatch(self, batch: List[Request], now: float) -> None:
        raise NotImplementedError

    # -- shared dispatch and completion -------------------------------------------

    def _open(
        self, batch: List[Request], now: float, model: Any, span_name: str, node: Any, **attrs: Any
    ) -> Tuple[Any, float, Optional[int], int]:
        """Prepare one formed batch for ``model`` on machine ``node``.

        Returns ``(payload, cost scale, service span id, event-log cursor)``;
        the span id is ``None`` without a tracer, and the cursor anchors the
        slice of front-end timeline events this dispatch is about to issue.
        """
        cost_scale = self._degrade(batch, now, model)
        span_id = None
        cursor = 0
        if self.tracer is not None:
            span_id, cursor = self._trace_dispatch(batch, now, span_name, node, **attrs)
        if self.metrics is not None:
            record_dispatch(self.metrics, len(batch), len(self.batcher))
        payload = model.make_request_batch([r.payload for r in batch])
        for request in batch:
            request.dispatched_ms = now
            request.batch_size = len(batch)
        return payload, cost_scale, span_id, cursor

    def _trace_dispatch(
        self, batch: List[Request], now: float, name: str, node: Any, **attrs: Any
    ) -> Tuple[int, int]:
        """Open the batch's service span on ``node``, and its riders' queue
        spans on the front-end that held them; returns ``(span id, cursor)``."""
        tracer = self.tracer
        front = self.machine
        start = self._t0 + now
        ids = tuple(r.request_id for r in batch)
        span_id = tracer.open_span(name, "service", start, node=tracer.node_of(node),
                                   trace_ids=ids, **attrs)
        front_node = tracer.node_of(front)
        for request in batch:
            tracer.span(
                "queue",
                "queue",
                self._t0 + request.arrival_ms,
                start,
                node=front_node,
                trace_ids=(request.request_id,),
            )
        return span_id, front.event_cursor()

    def _degrade(self, batch: List[Request], now: float, model: Any) -> float:
        """Advance the fidelity controller and apply its levers to ``model``.

        Each model owns its fan-out and cache, so the decision reaches the
        batch's own model only.  Returns the decision's modeled cost scale
        so :meth:`_complete` can normalize the observed service time back to
        full-quality cost.  Without a controller this is a strict no-op on
        every model/cache code path.
        """
        if self.fidelity is None:
            return FULL_FIDELITY.cost_scale
        pressured = False
        probe = getattr(self.policy, "deadline_pressured", None)
        if probe is not None:
            pressured = probe(batch, now)
        lost = sum(
            1
            for request in batch
            if request.deadline_ms is not None and request.deadline_ms <= now
        )
        decision = self.fidelity.on_dispatch(pressured, len(batch), lost_deadlines=lost)
        if self.tracer is not None and decision.level != self._fidelity_level:
            self.tracer.instant(
                f"fidelity:level={decision.level}",
                "fidelity",
                self.machine.host_time_ms,
                self.tracer.node_of(self.machine),
                previous=self._fidelity_level,
            )
        self._fidelity_level = decision.level
        setter = getattr(model, "set_fanout_scale", None)
        if setter is not None:
            setter(decision.fanout_scale)
        cache = getattr(model, "cache", None)
        if cache is not None:
            cache.set_fidelity(decision.staleness_scale, decision.force_hits)
        return decision.cost_scale

    def _complete(
        self, batch: List[Request], end_ms: float, cost_scale: float, span_id: Optional[int]
    ) -> float:
        """Retire one batch that finished at absolute time ``end_ms``.

        The policy observes the dispatch->completion span divided by the
        batch's fidelity cost scale: the estimator must keep tracking what an
        *undegraded* batch costs, or a degraded period would talk the policy
        out of degrading.  Returns the loop-relative completion time.
        """
        done = end_ms - self._t0
        for request in batch:
            request.completed_ms = done
        self._completed.extend(batch)
        if span_id is not None:
            self.tracer.close_span(span_id, end_ms)
        if self.metrics is not None:
            for request in batch:
                record_completion(self.metrics, request)
        self.policy.observe(len(batch), (done - batch[0].dispatched_ms) / cost_scale)
        return done
