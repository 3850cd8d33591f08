"""Temporal neighbourhood sampling.

TGAT and TGN aggregate information from a node's *temporal* neighbourhood:
the k most recent (or k uniformly chosen) interactions that happened strictly
before the query time.  The reference implementations do this on the CPU with
a per-node binary search over the node's time-sorted interaction list followed
by index sorting -- exactly the irregular, sort-heavy preprocessing the paper
identifies as the workload-imbalance bottleneck (Sec. 4.2).

The sampler here reproduces both the functionality (correct temporal
neighbourhoods, deterministic under a seed) and the cost: every call charges
host-side work to the active machine according to a calibrated per-target /
per-sample cost model, so the profiled "Sampling (CPU)" share behaves like the
paper's Figs. 7(e)-(h).

The simulator's own cost of a query is a fixed number of numpy calls,
however many rows it has: one ``searchsorted`` finds every row's cutoff in a
flat, node-major index, one gather reads every row's neighbours, and the
uniform strategy's random positions come from one ``Generator.integers``
call per chunk of rows.  That call returns exactly the values, and advances
the generator exactly as far, as one ``Generator.choice(n, k,
replace=False)`` per row in row order would (see :meth:`sample` for the
contract), so seeded runs are unchanged by the batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._compat import DATACLASS_SLOTS
from ..hw.machine import active_machine_or_none
from ..tensor.meta import placeholder
from .events import EventStream

#: Rows whose random positions one ``Generator.integers`` call draws; bounds
#: the draw buffers (2k-1 int64 values per row) on large batches.
DRAW_CHUNK_ROWS = 1024

#: numpy's ``Generator.choice(n, k, replace=False)`` leaves Floyd's algorithm
#: for a tail shuffle of ``arange(n)`` when ``n > 10000`` and
#: ``k > n // 50`` (``_generator.pyx``, shuffle=True); those rows call
#: ``choice`` itself.
_TAIL_SHUFFLE_MIN_POPULATION = 10000
_TAIL_SHUFFLE_DIVISOR = 50


@dataclass(frozen=True, **DATACLASS_SLOTS)
class SamplingCostModel:
    """Host-side cost of temporal neighbourhood sampling.

    The defaults are calibrated so that a two-layer TGAT query over a
    200-interaction mini-batch costs tens of milliseconds for small
    neighbourhoods and grows towards a second for 300-neighbour sampling,
    matching the magnitudes reported in the paper's Fig. 7 breakdowns.
    """

    per_target_us: float = 10.0
    per_candidate_us: float = 0.01
    per_sample_us: float = 0.03
    sort_log_factor_us: float = 1.0

    def batch_cost_ms(self, degrees: np.ndarray, k: int) -> float:
        """Cost of sampling ``k`` neighbours for each target with ``degrees``."""
        if k < 0:
            raise ValueError("k must be non-negative")
        degrees = np.asarray(degrees, dtype=np.float64)
        per_target = (
            self.per_target_us
            + self.per_candidate_us * degrees
            + self.per_sample_us * k
            + self.sort_log_factor_us * np.log2(degrees + 2.0)
        )
        return float(per_target.sum() * 1e-3)


@dataclass(frozen=True, **DATACLASS_SLOTS)
class NeighborhoodSample:
    """Result of one batched temporal-neighbourhood query.

    All arrays have shape (num_targets, k); ``mask`` marks valid entries
    (targets with fewer than k earlier interactions are zero-padded).
    """

    neighbor_ids: np.ndarray
    neighbor_times: np.ndarray
    event_indices: np.ndarray
    mask: np.ndarray

    @property
    def num_targets(self) -> int:
        return int(self.neighbor_ids.shape[0])

    @property
    def k(self) -> int:
        return int(self.neighbor_ids.shape[1])


class TemporalNeighborSampler:
    """Samples temporal neighbourhoods from an :class:`EventStream`.

    Args:
        stream: The interaction stream to index.
        uniform: When true, sample uniformly among the earlier interactions;
            otherwise take the most recent ones (both strategies appear in the
            TGAT/TGN reference code).
        seed: Seed for the uniform strategy.
        cost_model: Host-side cost model; ``None`` uses the calibrated default.
    """

    def __init__(
        self,
        stream: EventStream,
        uniform: bool = True,
        seed: int = 0,
        cost_model: Optional[SamplingCostModel] = None,
    ) -> None:
        self.stream = stream
        self.uniform = uniform
        self.cost_model = cost_model if cost_model is not None else SamplingCostModel()
        self._rng = np.random.default_rng(seed)
        self._build_index(stream)

    def _build_index(self, stream: EventStream) -> None:
        """Flat node-major index of every node's time-sorted interactions.

        Node ``n``'s entries are ``[offsets[n], offsets[n + 1])`` of the flat
        ``_times`` / ``_neighbors`` / ``_event_ids`` arrays.  One stable sort
        over the doubled event list orders them as appending each event's
        (src -> dst) then (dst -> src) entry in event order and stably sorting
        each node's list by timestamp would: the sort key is (node, time,
        append position), so time ties keep event order and a self-loop's src
        entry stays ahead of its dst entry.

        Each flat array ends with one zero sentinel past the last entry, so
        the gather in :meth:`sample` points padding slots there and reads
        the zero padding directly.

        ``_keys`` holds ``node * stride + rank(time)`` per entry, where
        ``rank`` is the time's position in the sorted distinct times.  It is
        non-decreasing, and the number of ``node``'s entries strictly before
        ``t`` is ``keys.searchsorted(node * stride + rank_left(t)) -
        offsets[node]`` -- one binary search for a whole batch, ties at
        ``t`` excluded exactly like a per-node ``searchsorted(side="left")``.
        """
        num_events = stream.num_events
        num_nodes = stream.num_nodes
        # Entry 2i is event i seen from its source, entry 2i+1 from its
        # destination -- the same append order as the reference loop.
        node_ids = np.empty(2 * num_events, dtype=np.int64)
        node_ids[0::2] = stream.src
        node_ids[1::2] = stream.dst
        neighbor_ids = np.empty(2 * num_events, dtype=np.int64)
        neighbor_ids[0::2] = stream.dst
        neighbor_ids[1::2] = stream.src
        entry_times = np.repeat(stream.timestamps.astype(np.float64), 2)
        position = np.arange(2 * num_events, dtype=np.int64)
        order = np.lexsort((position, entry_times, node_ids))
        sorted_times = entry_times[order]
        self._times = np.append(sorted_times, 0.0)
        self._neighbors = np.append(neighbor_ids[order], 0)
        self._event_ids = np.append(order // 2, 0)
        self._offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(node_ids, minlength=num_nodes), out=self._offsets[1:])
        self._distinct_times, ranks = np.unique(sorted_times, return_inverse=True)
        self._stride = len(self._distinct_times) + 1
        self._keys = node_ids[order] * self._stride + ranks

    # -- queries ----------------------------------------------------------------

    def total_degree(self, node: int) -> int:
        """Total interaction count of ``node`` over the whole stream.

        Used by the degree-weighted cache eviction policy as a proxy for how
        expensive a node's neighbourhood sample is to recompute (the
        per-query cost grows with the candidate-list length).
        """
        if not 0 <= node < self.stream.num_nodes:
            raise ValueError(f"node id {node} out of range [0, {self.stream.num_nodes})")
        return int(self._offsets[node + 1] - self._offsets[node])

    def total_degrees(self) -> np.ndarray:
        """Every node's :meth:`total_degree`, indexed by node id."""
        return np.diff(self._offsets)

    def sample(self, nodes: np.ndarray, timestamps: np.ndarray, k: int) -> NeighborhoodSample:
        """Sample ``k`` temporal neighbours for each (node, time) pair.

        A row's candidates are ``node``'s interactions strictly before its
        time.  With ``c`` candidates, a row keeps all of them when ``c <= k``;
        otherwise it keeps the ``k`` most recent, or, under the uniform
        strategy, ``sorted(rng.choice(c, k, replace=False))`` of them.

        Draw-order contract: the uniform rows consume the sampler's generator
        exactly as one ``choice`` call per such row, in row order, would.
        numpy's ``choice(n, k, replace=False)`` is Floyd's algorithm -- k
        bounded draws on ``[0, j]`` for ``j = n-k .. n-1``, a draw already
        taken being replaced by ``j`` -- followed by ``_shuffle_int``'s
        k-1 draws on ``[0, i]`` for ``i = k-1 .. 1``.  One
        ``rng.integers(0, bounds, endpoint=True)`` over those bounds,
        concatenated in row order, makes the same bounded draws, so the rows
        are drawn together (in chunks of :data:`DRAW_CHUNK_ROWS`) and
        Floyd's replacement is applied afterwards.  The shuffle only
        permutes, and rows are sorted, so its draws are consumed and
        dropped.  A row in ``choice``'s tail-shuffle branch (``n > 10000``
        and ``k > n // 50``) calls ``choice`` itself at its place in row
        order.  ``tests/test_perf_safety.py`` pins this against
        ``Generator.choice`` and the full ``bit_generator.state``.

        Raises ``ValueError`` for a node id outside ``[0, num_nodes)`` or a
        NaN time, which would otherwise read another node's or the whole
        future history.

        The call charges its host-side cost to the active machine under the
        op name ``temporal_neighbor_sampling`` so profilers can attribute it.

        Under the machine's ``shape`` backend the sampler still consumes the
        *same* RNG draws and materialises ``neighbor_ids`` and ``mask`` (both
        feed timeline-relevant logic downstream: deeper sampling layers,
        cache keys, cross-shard gather accounting); only the pure payload
        arrays ``neighbor_times`` and ``event_indices`` become placeholders.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if nodes.shape != timestamps.shape:
            raise ValueError("nodes and timestamps must have the same shape")
        if k <= 0:
            raise ValueError("k must be positive")
        batch = len(nodes)
        num_nodes = self.stream.num_nodes
        # Viewed unsigned, a negative id wraps past any valid one.
        if batch and (nodes.view(np.uint64).max() >= num_nodes or np.isnan(timestamps).any()):
            self._reject(nodes, timestamps)
        starts = self._offsets[nodes]
        ends = self._keys.searchsorted(
            nodes * self._stride + self._distinct_times.searchsorted(timestamps)
        )
        degrees = ends - starts
        # Most-recent window, left-aligned: the row's last min(degree, k)
        # candidates, then padding slots past the candidates.
        positions = (ends - np.minimum(degrees, k))[:, None] + np.arange(k)
        valid = positions < ends[:, None]
        if self.uniform:
            drawn = (degrees > k).nonzero()[0]
            if drawn.size:
                positions[drawn] = starts[drawn, None] + self._draw(degrees[drawn], k)
        positions = np.where(valid, positions, len(self._neighbors) - 1)
        machine = active_machine_or_none()
        if machine is not None and machine.shape_mode:
            neighbor_times = placeholder((batch, k), np.float64)
            event_indices = placeholder((batch, k), np.int64)
        else:
            neighbor_times = self._times[positions]
            event_indices = self._event_ids[positions]
        sample = NeighborhoodSample(
            self._neighbors[positions], neighbor_times, event_indices, valid.astype(np.float32)
        )
        if machine is not None:
            cost_ms = self.cost_model.batch_cost_ms(degrees, k)
            machine.host_work("temporal_neighbor_sampling", cost_ms)
        return sample

    def _reject(self, nodes: np.ndarray, timestamps: np.ndarray) -> None:
        num_nodes = self.stream.num_nodes
        bad = nodes[(nodes < 0) | (nodes >= num_nodes)]
        if bad.size:
            raise ValueError(f"node id {int(bad[0])} out of range [0, {num_nodes})")
        row = int(np.isnan(timestamps).argmax())
        raise ValueError(f"query time at row {row} is NaN")

    def _draw(self, cutoffs: np.ndarray, k: int) -> np.ndarray:
        """Sorted ``choice(c, k, replace=False)`` positions per row, in row order."""
        tail_rows = []
        if cutoffs.max() > _TAIL_SHUFFLE_MIN_POPULATION:
            tail_rows = np.flatnonzero(
                (cutoffs > _TAIL_SHUFFLE_MIN_POPULATION) & (cutoffs // _TAIL_SHUFFLE_DIVISOR < k)
            ).tolist()
        pieces = []
        start = 0
        for stop in tail_rows + [len(cutoffs)]:
            for lo in range(start, stop, DRAW_CHUNK_ROWS):
                pieces.append(self._draw_floyd(cutoffs[lo : min(lo + DRAW_CHUNK_ROWS, stop)], k))
            if stop < len(cutoffs):
                tail = self._rng.choice(int(cutoffs[stop]), k, replace=False)
                pieces.append(np.sort(tail)[None])
            start = stop + 1
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def _draw_floyd(self, cutoffs: np.ndarray, k: int) -> np.ndarray:
        """Floyd-branch ``choice`` for each row, drawn in one ``integers`` call."""
        steps = np.arange(k)
        tops = (cutoffs - k)[:, None] + steps
        bounds = np.empty((len(cutoffs), 2 * k - 1), dtype=np.int64)
        bounds[:, :k] = tops
        bounds[:, k:] = steps[:0:-1]
        return _floyd(self._rng.integers(0, bounds, endpoint=True)[:, :k], tops)


def _floyd(picks: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """Floyd's algorithm over raw draws, every row at once; rows come sorted.

    Step ``t`` of a row draws ``picks[t]`` on ``[0, tops[t]]`` and keeps it
    unless an earlier step already took that value; then it takes
    ``tops[t]``, which no earlier step can hold.  With no repeated draw in
    a row nothing is replaced.  Otherwise a draw is taken already when it
    repeats an earlier draw (the earlier one, kept or replaced, put its
    value in the set), or when it equals an earlier step's top and that
    step was replaced.  The second rule refers only to earlier steps, so
    growing the replaced set from the repeats until it stops changing gives
    the sequential answer; chains of tops are short, so few rounds run.
    """
    rows = np.arange(len(picks))[:, None]
    order = picks.argsort(axis=1, kind="stable")
    ordered = picks[rows, order]
    later_equal = ordered[:, 1:] == ordered[:, :-1]
    if not later_equal.any():
        return ordered
    # Stable order puts equal draws in step order: all but the first repeat.
    repeats = np.zeros(picks.shape, dtype=bool)
    repeats[rows, order[:, 1:]] = later_equal
    top_step = picks - tops[:, :1]
    hits_top = (top_step >= 0) & (top_step < np.arange(picks.shape[1]))
    top_step[~hits_top] = 0
    replaced = repeats
    while True:
        grown = repeats | (hits_top & replaced[rows, top_step])
        if np.array_equal(grown, replaced):
            break
        replaced = grown
    chosen = np.where(replaced, tops, picks)
    chosen.sort(axis=1)
    return chosen
