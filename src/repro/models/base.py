"""Base classes shared by the eight profiled DGNN models.

Every model in :mod:`repro.models` follows the same contract:

* it is constructed against a :class:`~repro.hw.machine.Machine` and places
  its weights on the machine's compute device (the GPU when present, the CPU
  otherwise), mirroring how the reference implementations call
  ``model.to(device)``;
* :meth:`DGNNModel.warm_up` performs the GPU warm-up the paper measures in
  Sec. 4.4 (context creation, weight upload, allocation warm-up for the
  batch footprint);
* :meth:`DGNNModel.iteration_batches` yields the units of work the paper
  profiles ("one iteration": a mini-batch of events, one snapshot, one
  t-batch, ... depending on the model);
* :meth:`DGNNModel.inference_iteration` runs one such unit, annotating the
  machine's region stack with the same module names the paper's breakdown
  figures use, so the profiler can reproduce Fig. 7;
* :meth:`DGNNModel.describe` returns the model's Table 1 row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..hw.device import Device
from ..hw.machine import Machine
from ..nn.module import Module

#: Table 1 column values.
CONTINUOUS = "continuous"
DISCRETE = "discrete"


@dataclass(frozen=True)
class ModelCard:
    """One row of the paper's Table 1.

    Attributes:
        name: Model name as used in the paper.
        category: ``"continuous"`` or ``"discrete"`` time.
        evolving_node_features / evolving_edge_features / evolving_topology /
        evolving_weights: Which parts of the graph/model change over time.
        time_encoding: The model's time encoder ("RNN", "time embedding",
            "self-attention", ...).
        tasks: Example tasks the model is applied to.
    """

    name: str
    category: str
    evolving_node_features: bool
    evolving_edge_features: bool
    evolving_topology: bool
    evolving_weights: bool
    time_encoding: str
    tasks: Tuple[str, ...]

    def as_row(self) -> dict:
        return {
            "model": self.name,
            "type": self.category,
            "node_feature": self.evolving_node_features,
            "edge_feature": self.evolving_edge_features,
            "graph_topology": self.evolving_topology,
            "weights": self.evolving_weights,
            "time_encoding": self.time_encoding,
            "tasks": ", ".join(self.tasks),
        }


class DGNNModel(Module):
    """Common machinery for the profiled DGNNs."""

    #: Model name; subclasses override.
    name: str = "dgnn"

    #: Whether :meth:`iteration_batches` yields
    #: :class:`~repro.graph.events.EventStream` slices that can be merged by
    #: concatenation -- the contract the serving layer's dynamic batcher
    #: relies on.  Event-stream models (TGAT, TGN, DyRep, LDG) set this;
    #: models with structured batches (t-batches, snapshots, windows) must
    #: override :meth:`make_request_batch` instead to be servable.
    serves_event_streams: bool = False

    #: Whether the model's request path can consult a staleness-aware
    #: serving cache (see :mod:`repro.cache`); caching models also declare
    #: the entry kinds they populate in :attr:`cache_kinds`.
    supports_caching: bool = False

    #: Entry kinds a caching model populates -- a subset of
    #: ``("embedding", "sample", "memory")``.
    cache_kinds: Tuple[str, ...] = ()

    def __init__(self, machine: Machine, device: Optional[Device] = None) -> None:
        super().__init__()
        self.machine = machine
        # The compute device is captured once, at construction time: a model
        # built inside ``with machine.placement(gpu_i):`` (or with an
        # explicit ``device``) stays pinned to that GPU, which is what makes
        # per-replica placement on multi-GPU machines explicit instead of
        # implicitly "the GPU".
        self._compute_device: Device = device if device is not None else machine.compute_device
        #: The attached serving cache (``None`` = uncached request path).
        self.cache: Optional[Any] = None
        #: Adaptive-fidelity fan-out multiplier (1.0 = full quality).  The
        #: serving layer sets this per dispatched batch; sampling models
        #: read it through :meth:`effective_fanout`.
        self._fanout_scale: float = 1.0

    # -- devices -------------------------------------------------------------

    @property
    def compute_device(self) -> Device:
        """Where this model's compute runs (pinned at construction)."""
        return self._compute_device

    @property
    def host_device(self) -> Device:
        """Where graph preprocessing runs (always the CPU)."""
        return self.machine.host_device

    @property
    def uses_gpu(self) -> bool:
        return self._compute_device.is_gpu

    # -- lifecycle ------------------------------------------------------------

    def warm_up(self, batch: Optional[Any] = None) -> None:
        """Perform the GPU warm-up the paper attributes to model initialisation.

        Creates the CUDA context *of this model's compute device*, uploads
        the model weights, and performs the allocation warm-up sized by the
        batch footprint (when a batch is given).  A no-op on CPU-placed
        models; on a multi-GPU machine each replica warms its own GPU.
        """
        if not self._compute_device.is_gpu:
            return
        self.machine.initialize_gpu(model_bytes=self.param_bytes(), device=self._compute_device)
        footprint = self.batch_footprint_bytes(batch) if batch is not None else self.param_bytes()
        self.machine.allocation_warmup(footprint, device=self._compute_device)

    # -- interface for subclasses ------------------------------------------------

    def describe(self) -> ModelCard:
        raise NotImplementedError

    def iteration_batches(self, dataset: Any, **kwargs) -> Iterator[Any]:
        """Yield the units of work ("iterations") the paper profiles."""
        raise NotImplementedError

    def inference_iteration(self, batch: Any) -> Any:
        """Run one profiled iteration; must annotate machine regions."""
        raise NotImplementedError

    def batch_footprint_bytes(self, batch: Any) -> int:
        """Approximate device-memory footprint of one iteration's working set."""
        return self.param_bytes()

    # -- serving adapter -----------------------------------------------------

    @property
    def supports_overlap(self) -> bool:
        """Whether the model implements the ``prepare_iteration`` /
        ``compute_iteration`` overlap protocol (see :mod:`repro.optim`)."""
        return callable(getattr(self, "prepare_iteration", None)) and callable(
            getattr(self, "compute_iteration", None)
        )

    @property
    def supports_async_dispatch(self) -> bool:
        """Whether the model implements ``dispatch_iteration``.

        The replicated serving layer (:mod:`repro.serve.cluster`) runs model
        replicas concurrently by *dispatching* batches -- host-side sampling
        plus asynchronous kernel launches, no trailing synchronisation --
        and retiring each batch at the ready time of the returned
        :class:`~repro.hw.stream.StreamEvent`.  Models whose iteration can
        only run blocking (ending in a full-machine sync) cannot overlap
        across replicas and return False here.
        """
        return callable(getattr(self, "dispatch_iteration", None))

    def attach_cache(self, cache: Any) -> None:
        """Attach a staleness-aware serving cache to the request path.

        Once attached, ``inference_iteration`` (and the overlap protocol's
        ``prepare_iteration``/``compute_iteration``) consult the cache before
        sampling/compute and feed it back afterwards: entries touched by the
        batch's incoming events are invalidated, freshly computed rows are
        inserted.  Detach by attaching ``None``.
        """
        if cache is not None and not self.supports_caching:
            raise TypeError(f"{type(self).__name__} does not support request caching")
        self.cache = cache

    def cache_stats(self) -> Optional[Any]:
        """The attached cache's telemetry dict (``None`` when uncached)."""
        return self.cache.stats() if self.cache is not None else None

    def set_fanout_scale(self, scale: float) -> None:
        """Scale per-layer neighbour fan-out (adaptive-fidelity lever 1).

        ``scale`` multiplies the configured neighbour count at every
        sampling site; 1.0 restores full quality.  The serving layer calls
        this per dispatched batch, so it must stay cheap and side-effect
        free beyond the stored scale.
        """
        if not 0.0 < scale <= 1.0:
            raise ValueError("fan-out scale must be in (0, 1]")
        self._fanout_scale = scale

    def effective_fanout(self, num_neighbors: int) -> int:
        """The fan-out sampling should use under the current fidelity scale.

        At scale 1.0 this is exactly ``num_neighbors`` (the untouched
        full-quality path); degraded scales floor at one neighbour so the
        aggregation still has support.
        """
        if self._fanout_scale >= 1.0:
            return num_neighbors
        return max(1, int(num_neighbors * self._fanout_scale))

    def make_request_batch(self, payloads: Sequence[Any]) -> Any:
        """Merge per-request payloads into one iteration batch.

        The online serving layer (:mod:`repro.serve`) hands each request a
        small slice of work (for event-stream models: a few interaction
        events) and dynamically batches queued requests into a single
        :meth:`inference_iteration` unit.  The default implementation merges
        :class:`~repro.graph.events.EventStream` slices by concatenation,
        which covers every model whose ``iteration_batches`` yields event
        streams (TGAT, TGN, ...); models with other batch types (t-batches,
        snapshots) must override this to be servable.
        """
        from ..graph.events import EventStream

        if (
            self.serves_event_streams
            and payloads
            and all(isinstance(p, EventStream) for p in payloads)
        ):
            return EventStream.concat(list(payloads))
        raise TypeError(
            f"{type(self).__name__} cannot merge request payloads of type "
            f"{[type(p).__name__ for p in payloads]}; override "
            "make_request_batch to serve this model"
        )

    # -- convenience ---------------------------------------------------------------

    def run_inference(self, dataset: Any, max_iterations: Optional[int] = None, **kwargs) -> int:
        """Run inference over a dataset without profiling; returns iteration count.

        Useful for functional tests and examples that only care about the
        numerics, not the profile.
        """
        count = 0
        for batch in self.iteration_batches(dataset, **kwargs):
            self.inference_iteration(batch)
            count += 1
            if max_iterations is not None and count >= max_iterations:
                break
        return count


def nbytes_of(*arrays: np.ndarray) -> int:
    """Total byte size of several numpy arrays (for footprint estimates)."""
    return int(sum(np.asarray(a).nbytes for a in arrays))
