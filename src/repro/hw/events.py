"""Event records emitted by the hardware simulator.

Every simulated action -- a compute kernel, a host<->device transfer, a
warm-up step or a memory (de)allocation -- produces one event.  The profiler
in :mod:`repro.core` consumes the event stream to build the breakdowns,
utilization timelines and memory curves that the paper derives from PyTorch
Profiler and NVIDIA Nsight Systems traces.

An :class:`Event` is an immutable, tuple-backed record (a ``NamedTuple``
subclass with no per-instance ``__dict__``): one kernel charge builds one
small tuple and appends it to the :class:`EventLog`'s list.  Records are
built only when the machine records events; with ``record_events=False``
the charging path creates none.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence, Tuple

#: Event kinds.
KERNEL = "kernel"
TRANSFER = "transfer"
WARMUP = "warmup"
ALLOC = "alloc"
FREE = "free"
SYNC = "sync"
#: Zero-duration stream markers (event record / event wait); ignored by the
#: breakdown aggregation but kept in the log so traces show cross-stream
#: dependencies.
MARKER = "marker"

_VALID_KINDS = frozenset({KERNEL, TRANSFER, WARMUP, ALLOC, FREE, SYNC, MARKER})

_new_tuple = tuple.__new__


class _EventFields(NamedTuple):
    kind: str
    name: str
    resource: str
    start_ms: float
    end_ms: float
    flops: float
    bytes: int
    region: Tuple[str, ...]
    src: str
    dst: str
    stream: str


class Event(_EventFields):
    """A single timestamped action on a simulated device or link.

    An immutable, tuple-backed record: fields compare, hash and pickle as a
    tuple, and assigning to one raises :class:`AttributeError`.

    Attributes:
        kind: One of ``kernel``, ``transfer``, ``warmup``, ``alloc``, ``free``,
            ``sync`` or ``marker``.
        name: Operation name (e.g. ``"gemm"``, ``"h2d"``, ``"context_init"``).
        resource: Name of the device or link the event occupies.
        start_ms / end_ms: Simulated start and end time in milliseconds.
        flops: Floating point work performed (kernels only).
        bytes: Bytes moved or allocated.
        region: The region-annotation stack active when the event was issued,
            outermost first (e.g. ``("iteration", "Sampling")``).
        src / dst: For transfers, source and destination device names.
        stream: Name of the execution stream the event was issued on (empty
            for events that do not occupy a stream, e.g. alloc/free).
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        name: str,
        resource: str,
        start_ms: float,
        end_ms: float,
        flops: float = 0.0,
        bytes: int = 0,
        region: Tuple[str, ...] = (),
        src: str = "",
        dst: str = "",
        stream: str = "",
    ) -> "Event":
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown event kind: {kind!r}")
        if end_ms < start_ms:
            raise ValueError(f"event {name!r} ends ({end_ms}) before it starts ({start_ms})")
        return _new_tuple(
            cls, (kind, name, resource, start_ms, end_ms, flops, bytes, region, src, dst, stream)
        )

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def innermost_region(self) -> str:
        """The most specific region label, or ``""`` when unannotated."""
        return self.region[-1] if self.region else ""


class EventLog:
    """An append-only sequence of :class:`Event` objects.

    The machine owns one log per run context; profilers snapshot slices of it.
    """

    __slots__ = ("_events", "append")

    def __init__(self) -> None:
        self._events: list[Event] = []
        #: ``append(event)``: the list's own bound method, so recording an
        #: event on the charging path is a single C call.
        self.append = self._events.append

    def extend(self, events: Iterable[Event]) -> None:
        self._events.extend(events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    def snapshot(self) -> Sequence[Event]:
        """An immutable copy of the current event list."""
        return tuple(self._events)

    def since(self, index: int) -> Sequence[Event]:
        """Events appended at or after position ``index``."""
        return tuple(self._events[index:])

    def on_stream(self, resource: str, stream: str) -> Sequence[Event]:
        """Events issued on one stream of one resource."""
        return tuple(e for e in self._events if e.resource == resource and e.stream == stream)

