"""Perf-safety regression tests: the optimized hot path must be a pure
speedup.

The scheduler's inner loops (incremental busy accounting, cached kernel
costs and routes, batched kernel charging) and the temporal sampler (flat
index, batched search, gather and draws) were rewritten for speed.  These
tests pin the optimized implementations against reference slow-path
implementations -- verbatim copies of the pre-optimization code -- on
randomized programs: same intervals, same event logs, same samples and the
same generator state, byte for byte.  The sampler's batched draw is also
pinned against ``Generator.choice`` itself, so a numpy release that changes
``choice`` fails here by name.
"""

import pickle

import numpy as np
import pytest

from repro.graph.events import EventStream
from repro.graph.sampling import DRAW_CHUNK_ROWS, SamplingCostModel, TemporalNeighborSampler
from repro.hw.events import KERNEL, Event
from repro.hw.machine import Machine
from repro.hw.spec import MACHINE_SPECS
from repro.hw.stream import union_busy_ms
from repro.hw.timeline import Interval, Timeline
from repro.tensor.meta import is_placeholder


# -- reference slow paths (pre-optimization implementations) ---------------


def reference_busy_ms(intervals, start_ms=None, end_ms=None):
    """Pre-optimization Timeline.busy_ms: a full scan per query."""
    if start_ms is None and end_ms is None:
        return sum(i.duration_ms for i in intervals)
    lo = start_ms if start_ms is not None else float("-inf")
    hi = end_ms if end_ms is not None else float("inf")
    total = 0.0
    for interval in intervals:
        overlap = min(interval.end_ms, hi) - max(interval.start_ms, lo)
        if overlap > 0:
            total += overlap
    return total


def reference_union_busy_ms(timelines, start_ms=None, end_ms=None):
    """Pre-optimization union_busy_ms: clip everything, sort, merge."""
    lo = start_ms if start_ms is not None else float("-inf")
    hi = end_ms if end_ms is not None else float("inf")
    spans = []
    for timeline in timelines:
        for interval in timeline:
            clipped_lo = max(interval.start_ms, lo)
            clipped_hi = min(interval.end_ms, hi)
            if clipped_hi > clipped_lo:
                spans.append((clipped_lo, clipped_hi))
    if not spans:
        return 0.0
    spans.sort()
    total = 0.0
    current_lo, current_hi = spans[0]
    for span_lo, span_hi in spans[1:]:
        if span_lo > current_hi:
            total += current_hi - current_lo
            current_lo, current_hi = (span_lo, span_hi)
        else:
            current_hi = max(current_hi, span_hi)
    total += current_hi - current_lo
    return total


def reference_build_index(stream):
    """Pre-optimization sampler index: per-event Python loop + stable sort."""
    adjacency = [[] for _ in range(stream.num_nodes)]
    for index in range(stream.num_events):
        s = int(stream.src[index])
        d = int(stream.dst[index])
        t = float(stream.timestamps[index])
        adjacency[s].append((t, d, index))
        adjacency[d].append((t, s, index))
    packed = []
    for entries in adjacency:
        if entries:
            entries.sort(key=lambda item: item[0])
            times = np.array([e[0] for e in entries], dtype=np.float64)
            neighbors = np.array([e[1] for e in entries], dtype=np.int64)
            event_ids = np.array([e[2] for e in entries], dtype=np.int64)
        else:
            times = np.empty(0, dtype=np.float64)
            neighbors = np.empty(0, dtype=np.int64)
            event_ids = np.empty(0, dtype=np.int64)
        packed.append((times, neighbors, event_ids))
    return packed


def reference_sample(adjacency, rng, uniform, nodes, timestamps, k):
    """Pre-optimization sample loop (minus the machine charge)."""
    batch = len(nodes)
    neighbor_ids = np.zeros((batch, k), dtype=np.int64)
    neighbor_times = np.zeros((batch, k), dtype=np.float64)
    event_indices = np.zeros((batch, k), dtype=np.int64)
    mask = np.zeros((batch, k), dtype=np.float32)
    degrees = np.zeros(batch, dtype=np.int64)
    for row, (node, timestamp) in enumerate(zip(nodes, timestamps)):
        times, neighbors, event_ids = adjacency[int(node)]
        cutoff = int(np.searchsorted(times, timestamp, side="left"))
        degrees[row] = cutoff
        if cutoff == 0:
            continue
        if uniform and cutoff > k:
            chosen = np.sort(rng.choice(cutoff, size=k, replace=False))
        else:
            chosen = np.arange(max(0, cutoff - k), cutoff)
        count = len(chosen)
        neighbor_ids[row, :count] = neighbors[chosen]
        neighbor_times[row, :count] = times[chosen]
        event_indices[row, :count] = event_ids[chosen]
        mask[row, :count] = 1.0
    return (neighbor_ids, neighbor_times, event_indices, mask, degrees)


# -- randomized programs ----------------------------------------------------


def random_stream(rng, num_events=120, num_nodes=25):
    timestamps = np.sort(rng.uniform(0.0, 1000.0, size=num_events))
    return EventStream(
        src=rng.integers(0, num_nodes, size=num_events),
        dst=rng.integers(0, num_nodes, size=num_events),
        timestamps=timestamps,
        num_nodes=num_nodes,
    )


def drive_random_program(machine, seed, steps=120, batch_api=False):
    """Issue a random mix of kernels/transfers/syncs/streams to ``machine``.

    With ``batch_api=True``, runs of identical kernels go through the
    batched ``launch_kernels`` call instead of one ``launch_kernel`` per
    repetition -- the schedules must match exactly either way.
    """
    rng = np.random.default_rng(seed)
    devices = list(machine.devices)
    recorded = []
    with machine.activate():
        for _ in range(steps):
            action = rng.integers(0, 10)
            device = devices[int(rng.integers(0, len(devices)))]
            if action <= 3:
                count = int(rng.integers(1, 5))
                flops = float(rng.integers(1, 50)) * 1e6
                nbytes = float(rng.integers(1, 100)) * 1e3
                stream = machine.stream(device, "worker") if rng.integers(0, 3) == 0 else None
                if batch_api:
                    machine.launch_kernels(device, "k", count, flops, nbytes, stream=stream)
                else:
                    for _ in range(count):
                        machine.launch_kernel(device, "k", flops, nbytes, stream=stream)
            elif action == 4:
                machine.host_work("host", float(rng.uniform(0.01, 0.5)))
            elif action <= 6:
                src = devices[int(rng.integers(0, len(devices)))]
                dst = devices[int(rng.integers(0, len(devices)))]
                if src is not dst:
                    machine.transfer(
                        src,
                        dst,
                        int(rng.integers(1, 10)) * 4096,
                        non_blocking=bool(rng.integers(0, 2)),
                    )
            elif action == 7:
                stream = machine.stream(device, "worker")
                event = machine.record_event(stream, name="mark")
                machine.wait_event(machine.default_stream(device), event)
            elif action == 8:
                machine.synchronize()
            else:
                with machine.region("phase"):
                    machine.host_work("annotated", 0.05)
        machine.synchronize(name="final")
    recorded.extend(machine.events.snapshot())
    return recorded


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_windowed_busy_matches_reference_scan(seed):
    rng = np.random.default_rng(seed)
    timeline = Timeline("t")
    cursor = 0.0
    # Reference schedule: each interval starts at its ready time or at the
    # previous interval's end, whichever is later.
    expected = []
    for index in range(300):
        cursor += float(rng.uniform(0.0, 2.0))
        duration = float(rng.uniform(0.0, 1.5))
        label = f"op{index % 3}"
        start = max(cursor, expected[-1][1]) if expected else cursor
        expected.append((start, start + duration, label))
        returned = timeline.reserve(cursor, duration, label)
        assert tuple(returned) == expected[-1]
    intervals = list(timeline)
    assert len(timeline) == len(expected)
    assert [tuple(interval) for interval in intervals] == expected
    assert [tuple(interval) for interval in timeline.intervals] == expected
    assert all(type(interval) is Interval for interval in timeline.intervals)
    assert timeline.busy_ms() == reference_busy_ms(intervals)
    for _ in range(200):
        lo = float(rng.uniform(-10.0, 600.0))
        hi = lo + float(rng.uniform(0.0, 200.0))
        assert timeline.busy_ms(lo, hi) == reference_busy_ms(intervals, lo, hi)
        assert timeline.busy_ms(lo, None) == reference_busy_ms(intervals, lo, None)
        assert timeline.busy_ms(None, hi) == reference_busy_ms(intervals, None, hi)


def test_records_validate_at_construction():
    with pytest.raises(ValueError, match="unknown event kind: 'bogus'"):
        Event("bogus", "k", "gpu", 0.0, 1.0)
    with pytest.raises(ValueError, match=r"event 'k' ends \(1.0\) before it starts \(2.0\)"):
        Event(KERNEL, "k", "gpu", 2.0, 1.0)
    with pytest.raises(ValueError, match="interval ends before it starts"):
        Interval(2.0, 1.0, "op")
    with pytest.raises(ValueError, match="duration must be non-negative"):
        Timeline("t").reserve(0.0, -1.0, "op")


@pytest.mark.parametrize(
    "record, field",
    [
        (Event(KERNEL, "k", "gpu", 0.0, 1.0, 2.0, 8, ("outer", "inner"), stream="s"), "end_ms"),
        (Interval(0.0, 1.0, "op"), "label"),
    ],
)
def test_records_are_immutable_hashable_and_picklable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 5.0)
    with pytest.raises(AttributeError):
        record.extra = 1
    twin = type(record)(*record)
    assert twin == record and hash(twin) == hash(record)
    restored = pickle.loads(pickle.dumps(record))
    assert restored == record and type(restored) is type(record)
    assert restored.duration_ms == 1.0


@pytest.mark.parametrize("seed", [3, 4])
def test_union_busy_matches_reference_merge(seed):
    rng = np.random.default_rng(seed)
    timelines = []
    for _ in range(3):
        timeline = Timeline(f"t{len(timelines)}")
        cursor = 0.0
        for _ in range(150):
            cursor += float(rng.uniform(0.0, 1.0))
            timeline.reserve(cursor, float(rng.uniform(0.0, 2.0)), "op")
        timelines.append(timeline)
    assert union_busy_ms(timelines) == reference_union_busy_ms(timelines)
    # The single-timeline fast path (merged_busy_ms) must agree too.
    single = timelines[0]
    assert single.merged_busy_ms() == reference_union_busy_ms([single])
    for _ in range(100):
        lo = float(rng.uniform(-5.0, 200.0))
        hi = lo + float(rng.uniform(0.0, 100.0))
        assert union_busy_ms(timelines, lo, hi) == reference_union_busy_ms(timelines, lo, hi)
        assert single.merged_busy_ms(lo, hi) == reference_union_busy_ms([single], lo, hi)


@pytest.mark.parametrize("spec", ["1xA6000", "2xA100-pcie", "2xA100-nvlink"])
@pytest.mark.parametrize("seed", [11, 12])
def test_batched_kernel_charging_is_byte_identical(spec, seed):
    """launch_kernels == a loop of launch_kernel, on every topology."""
    loop_machine = Machine.from_spec(spec)
    batch_machine = Machine.from_spec(spec)
    loop_events = drive_random_program(loop_machine, seed, batch_api=False)
    batch_events = drive_random_program(batch_machine, seed, batch_api=True)
    assert loop_machine.host_time_ms == batch_machine.host_time_ms
    assert loop_machine.event_count == batch_machine.event_count
    assert loop_events == batch_events
    for loop_device, batch_device in zip(loop_machine.devices, batch_machine.devices):
        assert (
            loop_device.default_stream.timeline.intervals
            == batch_device.default_stream.timeline.intervals
        )
    assert loop_machine.device_flops_totals() == batch_machine.device_flops_totals()


@pytest.mark.parametrize("seed", [21, 22])
def test_disabling_event_recording_changes_nothing_but_the_log(seed):
    recorded = Machine.from_spec("2xA100-pcie")
    silent = Machine(
        cpu_spec=recorded.cpu.spec,
        gpu_spec=MACHINE_SPECS["2xA100-pcie"].gpu,
        link_spec=MACHINE_SPECS["2xA100-pcie"].host_link,
        num_gpus=2,
        record_events=False,
    )
    events = drive_random_program(recorded, seed)
    silent_events = drive_random_program(silent, seed)
    assert silent_events == []
    assert len(silent.events) == 0
    assert silent.event_count == recorded.event_count == len(events)
    assert silent.host_time_ms == recorded.host_time_ms
    for noisy, quiet in zip(recorded.devices, silent.devices):
        assert noisy.busy_ms() == quiet.busy_ms()
        assert noisy.default_stream.timeline.intervals == (quiet.default_stream.timeline.intervals)


def assert_same_index(sampler, stream):
    """Each node's slice of the flat index byte-matches the reference lists."""
    reference = reference_build_index(stream)
    offsets = sampler._offsets
    assert len(offsets) == len(reference) + 1
    flat = (sampler._times, sampler._neighbors, sampler._event_ids)
    for node, ref_entry in enumerate(reference):
        for flat_array, ref_array in zip(flat, ref_entry):
            node_slice = flat_array[offsets[node] : offsets[node + 1]]
            assert node_slice.dtype == ref_array.dtype
            assert np.array_equal(node_slice, ref_array)
    return reference


def assert_matches_reference(stream, uniform, seed, queries, backend=None):
    """Run ``queries`` through the sampler and the reference loop side by side.

    Every sample must match array for array, and both generators must end
    in the same ``bit_generator.state``.  With a ``backend``, the queries
    run on a machine of that backend, and each call must charge the cost of
    the reference's candidate counts.  On ``"shape"``, ids and mask must
    still match, while times and event ids are placeholders.
    """
    sampler = TemporalNeighborSampler(stream, uniform=uniform, seed=seed)
    reference = assert_same_index(sampler, stream)
    reference_rng = np.random.default_rng(seed)
    machine = Machine.from_spec("1xA6000", backend=backend) if backend else None
    for nodes, times, k in queries:
        ids, ntimes, events, mask, degrees = reference_sample(
            reference, reference_rng, uniform, nodes, times, k
        )
        if machine is None:
            sample = sampler.sample(nodes, times, k)
        else:
            before_ms = machine.host_time_ms
            with machine.activate():
                sample = sampler.sample(nodes, times, k)
            charged_ms = SamplingCostModel().batch_cost_ms(degrees, k)
            assert machine.host_time_ms == before_ms + charged_ms
        assert np.array_equal(sample.neighbor_ids, ids)
        assert sample.neighbor_ids.dtype == ids.dtype
        assert np.array_equal(sample.mask, mask)
        assert sample.mask.dtype == mask.dtype
        if backend == "shape":
            assert is_placeholder(sample.neighbor_times)
            assert is_placeholder(sample.event_indices)
            assert sample.neighbor_times.shape == ntimes.shape
            assert sample.event_indices.shape == events.shape
        else:
            assert np.array_equal(sample.neighbor_times, ntimes)
            assert np.array_equal(sample.event_indices, events)
            assert sample.neighbor_times.dtype == ntimes.dtype
            assert sample.event_indices.dtype == events.dtype
    assert sampler._rng.bit_generator.state == reference_rng.bit_generator.state


def tied_stream(rng, num_events=400, num_nodes=20):
    """Integer timestamps (many ties) and a share of self-loops."""
    timestamps = np.sort(rng.integers(0, 60, size=num_events)).astype(np.float64)
    src = rng.integers(0, num_nodes, size=num_events)
    dst = np.where(rng.random(num_events) < 0.1, src, rng.integers(0, num_nodes, size=num_events))
    return EventStream(src=src, dst=dst, timestamps=timestamps, num_nodes=num_nodes)


def tied_queries(rng, stream, ks, batch):
    """Queries half at exact event timestamps, half at arbitrary times."""
    queries = []
    for k in ks:
        nodes = rng.integers(0, stream.num_nodes, size=batch)
        exact = rng.choice(stream.timestamps, size=batch)
        times = np.where(rng.random(batch) < 0.5, exact, rng.uniform(-5.0, 70.0, size=batch))
        queries.append((nodes, times, k))
    return queries


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_sampler_matches_reference_slow_path(seed):
    rng = np.random.default_rng(seed)
    stream = random_stream(rng)
    queries = []
    for k in (3, 7):
        queries.append((rng.integers(0, stream.num_nodes, size=40), rng.uniform(0, 1200, 40), k))
    assert_matches_reference(stream, True, seed, queries)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "recent"])
@pytest.mark.parametrize("seed", [41, 42])
def test_sampler_matches_reference_on_ties_and_self_loops(seed, uniform):
    rng = np.random.default_rng(seed)
    stream = tied_stream(rng)
    assert_matches_reference(stream, uniform, seed, tied_queries(rng, stream, (1, 2, 7, 20), 80))


@pytest.mark.parametrize(
    "backend", [None, "numeric", "shape"], ids=["no-machine", "numeric", "shape"]
)
def test_sampler_matches_reference_on_every_backend(backend):
    rng = np.random.default_rng(43)
    stream = tied_stream(rng)
    queries = tied_queries(rng, stream, (2, 7), 60)
    assert_matches_reference(stream, True, 43, queries, backend=backend)


def test_sampler_matches_reference_across_draw_chunks():
    # Dense history so that more rows than one draw chunk draw at k=2.
    rng = np.random.default_rng(44)
    stream = tied_stream(rng, num_events=3000, num_nodes=8)
    batch = DRAW_CHUNK_ROWS + 700
    nodes = rng.integers(0, stream.num_nodes, size=batch)
    times = rng.uniform(30.0, 70.0, size=batch)
    sampler = TemporalNeighborSampler(stream, seed=44)
    drawn = sum(
        int(np.searchsorted(sampler._times[sampler._offsets[n] : sampler._offsets[n + 1]], t)) > 2
        for n, t in zip(nodes.tolist(), times.tolist())
    )
    assert drawn > DRAW_CHUNK_ROWS
    assert_matches_reference(stream, True, 44, [(nodes, times, 2), (nodes[:3], times[:3], 2)])


def test_sampler_matches_reference_on_empty_inputs():
    empty_stream = EventStream(src=[], dst=[], timestamps=[], num_nodes=3)
    no_rows = (np.zeros(0, dtype=np.int64), np.zeros(0), 4)
    one_row = (np.array([1]), np.array([5.0]), 4)
    assert_matches_reference(empty_stream, True, 45, [no_rows, one_row])
    rng = np.random.default_rng(45)
    stream = tied_stream(rng)
    one_row = (np.array([3]), np.array([70.0]), 2)
    assert_matches_reference(stream, True, 45, [no_rows, one_row, no_rows])


def test_sampler_matches_reference_on_a_hub_node():
    # Node 0 takes part in every event: more than 10,000 entries, so k=250
    # reaches Generator.choice's tail-shuffle branch for late query times
    # and Floyd's algorithm for early ones.
    rng = np.random.default_rng(46)
    num_events = 12_500
    stream = EventStream(
        src=np.zeros(num_events, dtype=np.int64),
        dst=rng.integers(1, 40, size=num_events),
        timestamps=np.sort(rng.uniform(0.0, 100.0, size=num_events)),
        num_nodes=40,
    )
    nodes = np.array([0, 5, 0, 0, 7, 0])
    times = np.array([100.5, 100.5, 30.0, 95.0, 50.0, 99.0])
    assert_matches_reference(stream, True, 46, [(nodes, times, 250), (nodes, times, 20)])


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_batched_draw_matches_generator_choice(seed):
    """The sampler's batched draw is ``sorted(Generator.choice(n, k, replace=False))``.

    Pins the draw-order contract of ``TemporalNeighborSampler.sample``
    directly against numpy: same values per row and the same generator
    state afterwards, over random (n, k) pairs, k=1, n=k+1 and rows in
    choice's tail-shuffle branch (n > 10000 and k > n // 50).
    """
    rng = np.random.default_rng(seed)
    cases = [
        (1, [2, 3, 50, 10_001, 20_000]),
        (5, [6, 6, 7] + rng.integers(6, 200, size=30).tolist()),
        (20, [21] + rng.integers(21, 80, size=40).tolist()),
        (250, [251, 300, 9_000, 12_000, 10_001, 20_000, 12_600, 12_400]),
        (2, rng.integers(3, 40, size=DRAW_CHUNK_ROWS + 50).tolist()),
    ]
    sampler = TemporalNeighborSampler(EventStream([], [], []), seed=seed)
    reference_rng = np.random.default_rng(seed)
    for k, populations in cases:
        drawn = sampler._draw(np.array(populations, dtype=np.int64), k)
        for row, n in enumerate(populations):
            expected = np.sort(reference_rng.choice(n, k, replace=False))
            assert np.array_equal(drawn[row], expected), (
                f"batched draw differs from Generator.choice({n}, {k}, replace=False) "
                f"on numpy {np.__version__}: the choice algorithm changed, so the "
                "sampler's draw-order contract (graph/sampling.py) no longer holds"
            )
        assert sampler._rng.bit_generator.state == reference_rng.bit_generator.state, (
            f"batched draw consumed a different amount of randomness than "
            f"Generator.choice on numpy {np.__version__}"
        )


def test_most_recent_sampling_matches_reference():
    rng = np.random.default_rng(7)
    stream = random_stream(rng)
    nodes = rng.integers(0, stream.num_nodes, size=60)
    times = rng.uniform(0.0, 1200.0, size=60)
    assert_matches_reference(stream, False, 7, [(nodes, times, 5)])


# -- sampler input validation ------------------------------------------------


@pytest.mark.parametrize(
    "nodes, times, message",
    [
        ([-1], [10.0], "node id -1 out of range"),
        ([25], [10.0], "node id 25 out of range"),
        ([0, 3, 99], [1.0, 2.0, 3.0], "node id 99 out of range"),
        ([0, 3], [1.0, np.nan], "query time at row 1 is NaN"),
    ],
    ids=["negative-id", "id-num-nodes", "id-past-end", "nan-time"],
)
def test_sampler_rejects_invalid_queries(nodes, times, message):
    stream = random_stream(np.random.default_rng(8))
    sampler = TemporalNeighborSampler(stream, seed=8)
    state = sampler._rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        sampler.sample(np.array(nodes), np.array(times), 3)
    assert sampler._rng.bit_generator.state == state


def test_total_degree_rejects_unknown_nodes_and_matches_the_index():
    stream = random_stream(np.random.default_rng(9))
    sampler = TemporalNeighborSampler(stream)
    reference = reference_build_index(stream)
    degrees = sampler.total_degrees()
    for node in range(stream.num_nodes):
        assert sampler.total_degree(node) == degrees[node] == len(reference[node][0])
    for node in (-1, stream.num_nodes):
        with pytest.raises(ValueError, match=f"node id {node} out of range"):
            sampler.total_degree(node)


def test_event_stream_rejects_nan_timestamps():
    with pytest.raises(ValueError, match="timestamp of event 0 is NaN"):
        EventStream([0, 1], [1, 2], [np.nan, 1.0])
    with pytest.raises(ValueError, match="timestamp of event 1 is NaN"):
        EventStream([0, 1], [1, 2], [0.0, np.nan])


def test_event_stream_rejects_negative_node_ids():
    with pytest.raises(ValueError, match="node id -1 of event 0 is negative"):
        EventStream([-1, 0], [0, 1], [0.0, 1.0])
    with pytest.raises(ValueError, match="node id -3 of event 1 is negative"):
        EventStream([0, 1], [1, -3], [0.0, 1.0])
