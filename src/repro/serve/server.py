"""The simulated online inference server: one model on one machine.

:class:`InferenceServer` runs the shared serving loop of
:class:`~repro.serve.core.ServingCore` -- arrivals, dynamic batching,
fidelity, tracing and completion bookkeeping on the machine's host clock --
and adds only how a batch executes.  Two execution modes:

* **blocking** (default) -- each dispatched batch runs through
  ``inference_iteration``: sampling on the host, compute on the device, a
  full synchronisation at the end.  This is the seed's serialized semantics
  and the baseline the paper profiles.
* **overlap** -- for models implementing the ``prepare_iteration`` /
  ``compute_iteration`` protocol, the server keeps one batch in flight: when
  batch ``i+1`` is formed (from requests that queued up while ``i`` was
  running) its sampling is issued onto a named CPU stream *before* the
  server blocks on batch ``i``'s device work, so the two overlap in
  simulated time exactly as in :class:`repro.optim.OverlappedRunner`.  Under
  load this shortens the effective service time towards
  ``max(host, device)``, which is what pulls in the p99.

Cache-aware serving: when the model carries an attached
:class:`~repro.cache.ModelCache` (``repro-dgnn serve --cache``), every
dispatched batch consults the staleness-bounded embedding/sample stores
before sampling and compute -- in overlap mode the cache admission happens
inside the prepare phase on the sampling stream, mirroring a pipelined
serving cache.  The server itself only reads the telemetry: the merged
hit/miss/staleness/eviction counters land in :attr:`ServingReport.cache`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..hw.stream import StreamEvent
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .core import ServingCore
from .fidelity import FidelityController
from .policy import SchedulerPolicy
from .request import Request
from .telemetry import ServingReport

#: (requests, merged payload, sampling plan, prepared event, cost scale,
#: open service-span id -- ``None`` when no tracer is attached)
_Inflight = Tuple[List[Request], Any, Any, StreamEvent, float, Optional[int]]


class InferenceServer(ServingCore):
    """Serves a request list against one model on its simulated machine."""

    #: Name of the CPU stream overlap-mode sampling is issued onto.
    SAMPLING_STREAM = "serve-sampling"

    def __init__(
        self,
        model: Any,
        policy: SchedulerPolicy,
        overlap: bool = False,
        fidelity: Optional[FidelityController] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if overlap and not getattr(model, "supports_overlap", False):
            raise TypeError(
                f"{type(model).__name__} does not implement the overlap protocol "
                "(prepare_iteration/compute_iteration); serve it with overlap=False"
            )
        super().__init__(policy, fidelity, tracer, metrics)
        self.model = model
        self.models = (model,)
        self.nodes = (model.machine,)
        self.overlap = overlap
        self._inflight: Optional[_Inflight] = None

    def serve(
        self,
        requests: Sequence[Request],
        label: str = "serve",
        arrival_name: str = "trace",
        warm_up: bool = True,
    ) -> ServingReport:
        """Serve ``requests`` to completion and return the telemetry report."""
        return self._serve(
            requests, label, arrival_name, warm_up, overlap=self.overlap,
            placement=getattr(self.model, "serving_placement", "single"),
            num_replicas=getattr(self.model, "num_replicas", 1),
        )

    def _finish_report(self, report: ServingReport, profile: Any) -> None:
        stats = getattr(self.model, "cache_stats", None)
        if callable(stats):
            report.cache = stats()

    # -- execution ---------------------------------------------------------------

    def _dispatch(self, batch: List[Request], now: float) -> None:
        """Execute (or pipeline) one freshly formed batch."""
        machine = self.machine
        payload, cost_scale, span_id, cursor = self._open(
            batch, now, self.model, f"batch-{batch[0].request_id}", machine
        )
        tracer = self.tracer
        if not self.overlap:
            self.model.inference_iteration(payload)
            if span_id is not None:
                tracer.record_slice(span_id, machine, cursor)
            self._complete(batch, machine.host_time_ms, cost_scale, span_id)
            return
        # Overlap mode: issue this batch's sampling onto the prefetch stream
        # *before* blocking on the previous batch's device work, so the two
        # run concurrently in simulated time.
        stream = machine.stream(machine.cpu, self.SAMPLING_STREAM)
        with machine.use_stream(stream):
            plan = self.model.prepare_iteration(payload)
            ready = machine.record_event(stream, name="serve_prepared")
        if span_id is not None:
            tracer.record_slice(span_id, machine, cursor)
            tracer.span(
                "sample",
                "sample",
                self._t0 + now,
                ready.ready_ms,
                node=tracer.node_of(machine),
                trace_ids=tuple(r.request_id for r in batch),
                parent_id=span_id,
            )
        previous, self._inflight = (
            self._inflight,
            (batch, payload, plan, ready, cost_scale, span_id),
        )
        if previous is not None:
            self._compute(previous)

    def _drain(self) -> bool:
        """Nothing new to form: retire the in-flight batch.  Requests
        arriving during its device work are admitted next tick."""
        if self._inflight is None:
            return False
        entry, self._inflight = (self._inflight, None)
        self._compute(entry)
        return True

    def _compute(self, entry: _Inflight) -> None:
        """Retire one prepared batch: wait for its plan, run device compute."""
        batch, payload, plan, ready, cost_scale, span_id = entry
        machine = self.machine
        tracer = self.tracer
        cursor = 0
        started = 0.0
        if span_id is not None:
            cursor = machine.event_cursor()
            started = machine.host_time_ms
        machine.event_synchronize(ready, name="serve_wait_prepared")
        self.model.compute_iteration(payload, plan)
        if span_id is not None:
            tracer.record_slice(span_id, machine, cursor)
            tracer.span(
                "compute",
                "compute",
                started,
                machine.host_time_ms,
                node=tracer.node_of(machine),
                trace_ids=tuple(r.request_id for r in batch),
                parent_id=span_id,
            )
        self._complete(batch, machine.host_time_ms, cost_scale, span_id)
