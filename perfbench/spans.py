"""Span tracing of the simulator's layer boundaries, from outside the package.

A traced rep installs a wrapper on every function listed in
:data:`BOUNDARIES`, runs the workload, and removes the wrappers again.  Each
wrapped call records one span -- boundary kind, start, end, parent span -- in
flat in-memory arrays; nothing is written until the rep is over.  The
simulator's code is not edited: module functions are replaced in every
``repro`` module that holds a reference to them, methods are replaced on the
class that defines them and on every subclass that overrides them.

A layer's self time is the summed duration of its spans minus the time of
their direct child spans, so the self times of all spans under a root add up
to the root's duration.  Time spent in numpy or in a function with no
wrapper is charged to the nearest enclosing span, i.e. to the layer whose
code made the call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

#: (layer, kind, targets).  A target is ``"module:function"``,
#: ``"module:Class.method"`` (also wraps every subclass override) or
#: ``"module:*"`` (every public function defined in the module).
BOUNDARIES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("experiments", "run", ("repro.experiments:run_experiment",)),
    ("datasets", "load", ("repro.datasets.registry:load",)),
    ("models", "build", (
        "repro.models.registry:build_model",
        "repro.models.base:DGNNModel.__init__",
    )),
    ("models", "iteration", (
        "repro.models.base:DGNNModel.inference_iteration",
        "repro.models.base:DGNNModel.compute_iteration",
        "repro.models.base:DGNNModel.dispatch_iteration",
    )),
    ("models", "other", (
        "repro.models.base:DGNNModel.prepare_iteration",
        "repro.models.base:DGNNModel.warm_up",
        "repro.models.base:DGNNModel.make_request_batch",
        "repro.models.base:DGNNModel.iteration_batches",
        "repro.models.base:DGNNModel.compute_embeddings",
    )),
    ("nn", "module", ("repro.nn.module:Module.__call__",)),
    ("tensor", "op", ("repro.tensor.ops:*",)),
    ("graph", "sample", ("repro.graph.sampling:TemporalNeighborSampler.sample",)),
    ("cache", "probe", (
        "repro.cache.store:DeviceResidentCache.probe",
        "repro.cache.store:DeviceResidentCache.probe_many",
    )),
    ("cache", "write", (
        "repro.cache.store:DeviceResidentCache.put",
        "repro.cache.store:DeviceResidentCache.put_many",
        "repro.cache.store:DeviceResidentCache.invalidate",
        "repro.cache.store:DeviceResidentCache.flush",
    )),
    ("cache", "admin", (
        "repro.cache.store:DeviceResidentCache.flush_charges",
        "repro.cache.model_cache:ModelCache.lookup_embeddings",
        "repro.cache.model_cache:ModelCache.store_embeddings",
        "repro.cache.model_cache:ModelCache.sample",
        "repro.cache.model_cache:ModelCache.lookup_memory",
        "repro.cache.model_cache:ModelCache.store_memory_rows",
        "repro.cache.model_cache:ModelCache.observe_events",
        "repro.cache.model_cache:ModelCache.invalidate_nodes",
        "repro.cache.model_cache:ModelCache.stats",
    )),
    ("hw", "kernel", (
        "repro.hw.machine:Machine.launch_kernel",
        "repro.hw.machine:Machine.launch_kernels",
    )),
    ("hw", "transfer", (
        "repro.hw.machine:Machine.transfer",
        "repro.hw.cluster:Cluster.transfer",
    )),
    ("hw", "sync", (
        "repro.hw.machine:Machine.synchronize",
        "repro.hw.machine:Machine.device_synchronize",
        "repro.hw.machine:Machine.stream_synchronize",
        "repro.hw.machine:Machine.event_synchronize",
        "repro.hw.cluster:Cluster.synchronize",
    )),
    ("hw", "other", (
        "repro.hw.machine:Machine.__init__",
        "repro.hw.machine:Machine.host_work",
        "repro.hw.machine:Machine.initialize_gpu",
        "repro.hw.machine:Machine.allocation_warmup",
        "repro.hw.machine:Machine.record_event",
        "repro.hw.machine:Machine.wait_event",
        "repro.hw.timeline:Timeline.reserve",
    )),
    ("serve", "loop", (
        "repro.serve.server:InferenceServer.serve",
        "repro.serve.cluster:ClusterServer.serve",
    )),
    ("control", "batcher", (
        "repro.serve.batcher:DynamicBatcher.enqueue",
        "repro.serve.batcher:DynamicBatcher.poll",
        "repro.serve.batcher:DynamicBatcher.force",
        "repro.serve.batcher:DynamicBatcher.next_deadline_ms",
    )),
    ("control", "policy", (
        "repro.serve.policy:SchedulerPolicy.select_batch_size",
        "repro.serve.policy:SchedulerPolicy.next_deadline_ms",
        "repro.serve.policy:SchedulerPolicy.observe",
    )),
    ("control", "router", (
        "repro.serve.router:Router.route",
        "repro.serve.router:Router.notify_dispatch",
        "repro.serve.router:Router.notify_complete",
        "repro.serve.router:Router.set_active",
    )),
    ("control", "autoscaler", (
        "repro.serve.autoscale:Autoscaler.bind",
        "repro.serve.autoscale:Autoscaler.step",
        "repro.serve.autoscale:Autoscaler.observe_arrival",
        "repro.serve.autoscale:Autoscaler.observe_completion",
        "repro.serve.autoscale:Autoscaler.next_ready_ms",
        "repro.serve.autoscale:Autoscaler.stats",
    )),
    ("control", "telemetry", (
        "repro.serve.telemetry:ServingReport.total_latency",
        "repro.serve.telemetry:ServingReport.queue_latency",
        "repro.serve.telemetry:ServingReport.service_latency",
    )),
    ("core", "summary", ("repro.core.stats:LatencySummary.from_values",)),
    ("core", "profiler", ("repro.core.profiler:Profiler.capture",)),
    ("core", "breakdown", ("repro.core.breakdown:compute_breakdown",)),
)

#: The benchmark's own root spans; they belong to no layer of the simulator.
ROOT_LAYER = "bench"
SETUP, LOOP = "setup", "loop"


class SpanRecorder:
    """Flat, append-only span storage for one traced rep."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: List[Tuple[str, str]] = [(ROOT_LAYER, SETUP), (ROOT_LAYER, LOOP)]
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.roots: Dict[str, Tuple[int, int]] = {}

    def kind_id(self, layer: str, kind: str) -> int:
        key = (layer, kind)
        if key not in self.names:
            self.names.append(key)
        return self.names.index(key)

    def wrap(self, fn: Callable, kid: int) -> Callable:
        """``fn`` with one span recorded per call (per resumption for generators)."""
        kinds, parents, starts, ends = self.kind, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(kinds)
            kinds.append(kid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def wrap_generator(self, fn: Callable, kid: int) -> Callable:
        """A generator function whose every step (next/send/throw) is a span."""
        step = self.wrap(lambda call, *args: call(*args), kid)

        class _Steps:
            def __init__(self, gen) -> None:
                self.gen = gen

            def __iter__(self):
                return self

            def __next__(self):
                return step(next, self.gen)

            def send(self, value):
                return step(self.gen.send, value)

            def throw(self, *exc):
                return step(self.gen.throw, *exc)

            def close(self):
                return step(self.gen.close)

        def traced(*args, **kwargs):
            return _Steps(fn(*args, **kwargs))

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A benchmark-level root span; records the span index range under it."""
        kid = self.kind_id(ROOT_LAYER, name)
        index = len(self.kind)
        self.kind.append(kid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self.stack.pop()
            self.roots[name] = (index, len(self.kind))

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span of this rep (one ``.npz`` file)."""
        names = np.array([f"{layer}.{kind}" for layer, kind in self.names])
        np.savez(path, workload=np.array(self.workload), names=names, **self.arrays())


#: Layers whose self time the traced run reports, in table order.
LAYERS = (
    "experiments", "datasets", "models", "nn", "tensor", "graph", "cache",
    "hw", "serve", "control", "core",
)

#: Call counters: ``metric -> (layer, kind)``.  A call counts when its
#: nearest enclosing span is of another kind, i.e. calls that enter the kind
#: from outside (``linear`` calling ``matmul`` is one tensor op call).
COUNTERS = {
    "tensor.op_calls": ("tensor", "op"),
    "hw.kernel_calls": ("hw", "kernel"),
    "hw.transfer_calls": ("hw", "transfer"),
    "hw.sync_calls": ("hw", "sync"),
    "graph.sample_calls": ("graph", "sample"),
    "cache.probe_calls": ("cache", "probe"),
    "cache.write_calls": ("cache", "write"),
    "nn.module_calls": ("nn", "module"),
    "models.iterations": ("models", "iteration"),
}


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


class Installation:
    """The wrappers of one traced rep; :meth:`remove` restores every original."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patches: List[Tuple[object, str, object]] = []

    def install(self) -> "Installation":
        for layer, kind, targets in BOUNDARIES:
            kid = self.recorder.kind_id(layer, kind)
            for target in targets:
                if not self._install(target, kid):
                    self.remove()
                    raise LookupError(f"trace boundary {target} matches nothing")
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _install(self, target: str, kid: int) -> int:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        if path == "*":
            functions = [
                fn for name, fn in vars(module).items()
                if inspect.isfunction(fn) and fn.__module__ == module_name
                and not name.startswith("_")
            ]
            return sum(self._install_function(fn, kid) for fn in functions)
        if "." not in path:
            return self._install_function(getattr(module, path), kid)
        class_name, method = path.split(".")
        patched = 0
        for cls in _subclasses(getattr(module, class_name)):
            if method in cls.__dict__:
                self._patch(cls, method, self._wrap_attribute(cls.__dict__[method], kid))
                patched += 1
        return patched

    def _install_function(self, fn: Callable, kid: int) -> int:
        """Replace ``fn`` in every ``repro`` module that holds a reference."""
        traced = self.recorder.wrap(fn, kid)
        patched = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, traced)
                    patched += 1
        return patched

    def _wrap_attribute(self, raw: object, kid: int) -> object:
        recorder = self.recorder
        if isinstance(raw, classmethod):
            return classmethod(recorder.wrap(raw.__func__, kid))
        if isinstance(raw, staticmethod):
            return staticmethod(recorder.wrap(raw.__func__, kid))
        inner = getattr(raw, "__wrapped__", None)
        if inner is not None and inspect.isgeneratorfunction(inner):
            # A @contextmanager: trace its enter and exit steps, not the body.
            return contextlib.contextmanager(recorder.wrap_generator(inner, kid))
        if inspect.isgeneratorfunction(raw):
            return recorder.wrap_generator(raw, kid)
        return recorder.wrap(raw, kid)


@contextlib.contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every boundary wrapper for the ``with`` block."""
    installation = Installation(recorder).install()
    try:
        yield recorder
    finally:
        installation.remove()


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer self times and call counts of one traced rep's loop."""
    spans = recorder.arrays()
    kind, parent = spans["kind"], spans["parent"]
    duration = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(kind)
    )
    self_time = duration - child_time
    if len(kind) and self_time.min() < -1e-9:
        raise ArithmeticError("a span's children outlast it: spans do not nest")
    layer_of_kind = np.array([
        LAYERS.index(layer) if layer in LAYERS else -1 for layer, _ in recorder.names
    ])
    parent_kind = np.where(has_parent, kind[np.maximum(parent, 0)], -1)
    outermost = parent_kind != kind

    first, stop = recorder.roots[LOOP]
    loop = slice(first + 1, stop)
    loop_layer = layer_of_kind[kind[loop]]
    metrics: Dict[str, float] = {"trace.loop_s": float(duration[first])}
    for index, layer in enumerate(LAYERS):
        metrics[f"{layer}.self_s"] = float(self_time[loop][loop_layer == index].sum())
    for metric, (layer, name) in COUNTERS.items():
        kid = recorder.kind_id(layer, name)
        metrics[metric] = int(np.count_nonzero((kind[loop] == kid) & outermost[loop]))
    for name in ("probe", "write"):
        kid = recorder.kind_id("cache", name)
        metrics[f"cache.{name}_s"] = float(self_time[loop][kind[loop] == kid].sum())
    # Datasets are generated in set-up on the serving workloads and inside
    # the loop on the experiment, so their loads count over the whole rep.
    loads = (kind == recorder.kind_id("datasets", "load")) & outermost
    metrics["datasets.loads"] = int(np.count_nonzero(loads))
    metrics["datasets.load_s"] = float(duration[loads].sum())
    return metrics
