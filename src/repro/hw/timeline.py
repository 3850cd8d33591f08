"""Per-resource busy timelines.

A :class:`Timeline` records the busy intervals of one simulated resource (a
device's execution units or the PCIe link).  It answers the questions the
paper asks of Nsight traces: how busy was the GPU over a window
(utilization), and when does the resource next become free (for
scheduling).

Storage is columnar: a timeline keeps three parallel lists -- starts, ends
and labels -- and no per-interval object.  The DGNN hot path reserves one
interval per kernel, tens of thousands per run, so ``reserve`` appends three
scalars and returns a cheap tuple-backed :class:`Interval`; the
:attr:`Timeline.intervals` view and iteration build ``Interval`` records from
the columns only when someone reads them.  On top of the columns the
timeline maintains running totals, so

* unclipped ``busy_ms()`` is O(1) (a stored running sum, accumulated in
  insertion order so the float result is bit-identical to a full scan);
* windowed ``busy_ms(lo, hi)`` binary-searches the overlapping range and
  only walks the intervals that actually intersect the window;
* the contiguous-run union total that :func:`repro.hw.stream.union_busy_ms`
  needs for single-stream resources is maintained incrementally.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, NamedTuple, Tuple

_new_tuple = tuple.__new__


class _IntervalFields(NamedTuple):
    start_ms: float
    end_ms: float
    label: str


class Interval(_IntervalFields):
    """A closed-open busy interval ``[start_ms, end_ms)`` with a label.

    An immutable, tuple-backed record: fields compare, hash and pickle as a
    tuple, and assigning to one raises :class:`AttributeError`.
    """

    __slots__ = ()

    def __new__(cls, start_ms: float, end_ms: float, label: str = "") -> "Interval":
        if end_ms < start_ms:
            raise ValueError("interval ends before it starts")
        return _new_tuple(cls, (start_ms, end_ms, label))

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


class Timeline:
    """Append-only, time-ordered, non-overlapping busy intervals.

    The simulator always schedules a new interval to start at or after the
    current ``free_at`` point, so intervals are naturally sorted and disjoint;
    :meth:`reserve` enforces that invariant.
    """

    __slots__ = (
        "name",
        "_starts",
        "_ends",
        "_labels",
        "_busy_total",
        "_merged_total",
        "_run_start",
        "_run_end",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        # Parallel columns, one entry per interval (sorted and disjoint).
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._labels: List[str] = []
        # Running sum of durations, accumulated in insertion order so the
        # float value matches a full rescan bit for bit.
        self._busy_total = 0.0
        # Incremental merged-run accounting for union_busy_ms: completed
        # contiguous runs plus the currently open run [run_start, run_end).
        self._merged_total = 0.0
        self._run_start = 0.0
        self._run_end = 0.0

    # -- recording ------------------------------------------------------

    @property
    def free_at(self) -> float:
        """Earliest time at which the resource is free."""
        return self._ends[-1] if self._ends else 0.0

    def reserve(self, ready_ms: float, duration_ms: float, label: str = "") -> Interval:
        """Schedule a busy interval of ``duration_ms`` starting no earlier
        than ``ready_ms`` and no earlier than the end of the last interval.

        Returns the scheduled :class:`Interval`.
        """
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        ends = self._ends
        last_end = ends[-1] if ends else 0.0
        start = ready_ms if ready_ms > last_end else last_end
        end = start + duration_ms
        # Merged-run bookkeeping: a gap closes the open run, a touching or
        # first interval extends it (start >= last_end always holds here).
        if not ends:
            self._run_start = start
        elif start > self._run_end:
            self._merged_total += self._run_end - self._run_start
            self._run_start = start
        self._run_end = end
        self._starts.append(start)
        ends.append(end)
        self._labels.append(label)
        # Accumulate end - start (not duration_ms): the busy total is the
        # sum of interval durations, and start + d - start can differ from
        # d in the last ulp.
        self._busy_total += end - start
        # end >= start by construction, so the record skips re-validation.
        return _new_tuple(Interval, (start, end, label))

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ends)

    def __iter__(self) -> Iterator[Interval]:
        return map(Interval._make, zip(self._starts, self._ends, self._labels))

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """Every reserved interval in order, built from the columns."""
        return tuple(self)

    def busy_ms(self, start_ms: float | None = None, end_ms: float | None = None) -> float:
        """Total busy time, optionally clipped to a window."""
        if start_ms is None and end_ms is None:
            return self._busy_total
        lo = start_ms if start_ms is not None else float("-inf")
        hi = end_ms if end_ms is not None else float("inf")
        first, last = self._overlap_range(lo, hi)
        total = 0.0
        starts = self._starts
        ends = self._ends
        for index in range(first, last):
            overlap = min(ends[index], hi) - max(starts[index], lo)
            if overlap > 0:
                total += overlap
        return total

    def _overlap_range(self, lo: float, hi: float) -> Tuple[int, int]:
        """Index range [first, last) of intervals that may overlap [lo, hi)."""
        # Intervals are sorted and disjoint: everything ending at or before
        # ``lo`` and everything starting at or after ``hi`` is irrelevant.
        first = bisect_right(self._ends, lo)
        last = bisect_left(self._starts, hi)
        return (first, last)

    def merged_busy_ms(self, start_ms: float | None = None, end_ms: float | None = None) -> float:
        """Busy time with touching intervals merged into contiguous runs.

        This reproduces exactly the accumulation order of
        :func:`repro.hw.stream.union_busy_ms` over a single timeline (sum of
        ``run_end - run_start`` per gap-separated run), which differs from
        :meth:`busy_ms` only in float rounding.  The unclipped value is
        maintained incrementally and returned in O(1).
        """
        if start_ms is None and end_ms is None:
            if not self._ends:
                return 0.0
            return self._merged_total + (self._run_end - self._run_start)
        lo = start_ms if start_ms is not None else float("-inf")
        hi = end_ms if end_ms is not None else float("inf")
        first, last = self._overlap_range(lo, hi)
        starts = self._starts
        ends = self._ends
        total = 0.0
        run_lo = run_hi = None
        for index in range(first, last):
            span_lo = max(starts[index], lo)
            span_hi = min(ends[index], hi)
            if span_hi <= span_lo:
                continue
            if run_lo is None:
                run_lo, run_hi = (span_lo, span_hi)
            elif span_lo > run_hi:
                total += run_hi - run_lo
                run_lo, run_hi = (span_lo, span_hi)
            else:
                run_hi = max(run_hi, span_hi)
        if run_lo is not None:
            total += run_hi - run_lo
        return total
