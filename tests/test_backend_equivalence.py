"""Backend equivalence: the shape backend must reproduce numeric timelines.

The shape execution backend (``Machine(backend="shape")``) propagates only
shapes/dtypes/device placement through the tensor layer while charging every
kernel, transfer, cache probe and allocation exactly as the numeric backend
does.  These tests pin the contract that makes the backend usable at all:
for the serving, scale-out and cache workloads, the *entire simulated
timeline* -- the ordered event sequence, per-device busy totals, latency
percentiles and cache hit/miss counters -- is equal between backends.

The paper experiments (``experiments.runner.new_machine``) run on the shape
backend, so the golden suite no longer exercises numerics there.  The
per-model test below guards that path: for every registered model, on CPU
only and on CPU+GPU, warm-up plus one profiled iteration must emit the same
event stream and elapsed time on both backends.
"""

import numpy as np
import pytest

from repro.cache import make_model_cache
from repro.datasets import load as load_dataset
from repro.experiments import (
    cache_ablation,
    new_machine,
    profile_single_iteration,
    scaling,
    serving,
)
from repro.graph.partition import make_partition
from repro.hw.machine import Machine
from repro.models import MODEL_NAMES, build_model
from repro.models.tgat import TGAT, TGATConfig
from repro.serve import (
    ClusterServer,
    InferenceServer,
    ShardedModel,
    build_replicas,
    generate_requests,
    make_arrival_process,
    make_policy,
    make_router,
)
from repro.tensor import Tensor, ops
from repro.tensor.meta import is_placeholder

BACKENDS = ("numeric", "shape")


def _signature(machine):
    """The full ordered event stream, reduced to comparable tuples."""
    return [
        (e.kind, e.name, e.resource, e.stream, e.start_ms, e.end_ms, e.flops, e.bytes)
        for e in machine.events
    ]


def _busy_by_device(machine):
    return {device.name: device.busy_ms() for device in machine.devices}


def _percentiles(report):
    if not report.completed:
        return None
    total = report.total_latency()
    return (total.p50_ms, total.p95_ms, total.p99_ms)


def _serve(backend, *, overlap=True, cached=False, placement="single"):
    """One tiny serving run on the given backend; returns (machine, report)."""
    dataset = load_dataset("wikipedia", scale="tiny")
    config = TGATConfig(num_neighbors=10, batch_size=64, seed=0)
    if placement == "single":
        machine = Machine.cpu_gpu(backend=backend)
        with machine.activate():
            models = [TGAT(machine, dataset, config)]
    else:
        machine = Machine.from_spec("2xA100-pcie", backend=backend)
        with machine.activate():
            models = build_replicas(
                machine, lambda: TGAT(machine, dataset, config), machine.gpus[:2]
            )
    if cached:
        span_start, span_end = dataset.stream.time_span
        for model in models:
            make_model_cache(
                model,
                policy="lru",
                capacity_mb=8.0,
                staleness_ms=max((span_end - span_start) * 2.0, 1.0),
            )
    arrivals = make_arrival_process("poisson", 400.0, seed=0)
    requests = generate_requests(
        dataset.stream, arrivals, duration_ms=60.0, events_per_request=1, slo_ms=50.0
    )
    policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    label = f"eq-{placement}"
    if placement == "replicate":
        server = ClusterServer(
            machine, models, [0] * len(models), policy,
            make_router("round-robin", len(models)),
        )
        report = server.serve(requests, label=label, arrival_name="poisson")
    elif placement == "shard":
        partition = make_partition("degree", dataset.stream, len(models), seed=0)
        server = InferenceServer(ShardedModel(models, partition), policy, overlap=False)
        report = server.serve(requests, label=label, arrival_name="poisson")
    else:
        server = InferenceServer(models[0], policy, overlap=overlap)
        if cached:
            server.serve(requests, label=f"{label}-warm", arrival_name="poisson")
        report = server.serve(
            requests, label=label, arrival_name="poisson", warm_up=not cached
        )
    return machine, report


def _assert_equivalent(numeric, shape, *, check_cache=False):
    numeric_machine, numeric_report = numeric
    shape_machine, shape_report = shape
    assert shape_machine.host_time_ms == numeric_machine.host_time_ms
    assert shape_machine.event_count == numeric_machine.event_count
    assert _signature(shape_machine) == _signature(numeric_machine)
    assert _busy_by_device(shape_machine) == _busy_by_device(numeric_machine)
    assert shape_report.completed == numeric_report.completed
    assert numeric_report.completed > 0
    assert _percentiles(shape_report) == _percentiles(numeric_report)
    if check_cache:
        numeric_cache = numeric_report.cache or {}
        shape_cache = shape_report.cache or {}
        for key in ("lookups", "hits", "misses", "inserts", "evictions",
                    "stale_rejects", "invalidations"):
            assert shape_cache.get(key) == numeric_cache.get(key)
        assert numeric_cache.get("hits", 0) > 0


def test_single_overlap_serving_timeline_identical():
    _assert_equivalent(_serve("numeric"), _serve("shape"))


def test_blocking_serving_timeline_identical():
    _assert_equivalent(
        _serve("numeric", overlap=False), _serve("shape", overlap=False)
    )


def test_cached_serving_identical_including_hit_miss_stream():
    _assert_equivalent(
        _serve("numeric", cached=True),
        _serve("shape", cached=True),
        check_cache=True,
    )


def test_replicated_scaleout_identical():
    _assert_equivalent(
        _serve("numeric", placement="replicate"),
        _serve("shape", placement="replicate"),
    )


def test_sharded_scaleout_identical():
    _assert_equivalent(
        _serve("numeric", placement="shard"),
        _serve("shape", placement="shard"),
    )


# -- per-model equivalence (what the paper experiments run on) --------------


def _profile_model(name, use_gpu, backend):
    """Warm-up plus one profiled iteration of ``name`` at tiny scale."""
    machine = new_machine(use_gpu=use_gpu, backend=backend)
    with machine.activate():
        model = build_model(name, machine, scale="tiny")
    profile, _ = profile_single_iteration(model, machine)
    return machine, profile


@pytest.mark.parametrize("placement", ("cpu_only", "cpu_gpu"))
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_model_iteration_timeline_identical(name, placement):
    use_gpu = placement == "cpu_gpu"
    numeric_machine, numeric = _profile_model(name, use_gpu, "numeric")
    shape_machine, shape = _profile_model(name, use_gpu, "shape")
    assert numeric_machine.event_count > 0
    assert _signature(shape_machine) == _signature(numeric_machine)
    assert shape.elapsed_ms == numeric.elapsed_ms


def test_experiment_machines_default_to_the_shape_backend():
    assert new_machine().shape_mode
    assert new_machine(use_gpu=False).shape_mode
    assert not new_machine(backend="numeric").shape_mode


# -- experiment-level equivalence (reduced default configs, tiny scale) ------


def test_serving_experiment_rows_identical():
    rows = {}
    for backend in BACKENDS:
        result = serving.run(
            scale="tiny",
            policies=("fifo", "slo"),
            utilizations=(1.2,),
            duration_ms=80.0,
            backend=backend,
        )
        assert result.rows, backend
        rows[backend] = result.rows
    assert rows["shape"] == rows["numeric"]


def test_scaling_experiment_rows_identical():
    rows = {}
    for backend in BACKENDS:
        result = scaling.run(
            scale="tiny",
            configs=(("1xA100", 1, "replicate"), ("2xA100-pcie", 2, "shard")),
            utilizations=(0.8,),
            duration_ms=80.0,
            backend=backend,
        )
        assert result.rows, backend
        rows[backend] = result.rows
    assert rows["shape"] == rows["numeric"]


def test_cache_ablation_experiment_rows_identical():
    rows = {}
    for backend in BACKENDS:
        result = cache_ablation.run(
            scale="tiny",
            policies=("lru",),
            capacities_mb=(8.0,),
            staleness_fractions=(0.0, 0.5),
            duration_ms=60.0,
            backend=backend,
        )
        assert result.rows, backend
        rows[backend] = result.rows
    # The warm nonzero-staleness cell must actually have served hits, or the
    # equality above proves nothing about the cache path.
    warmed = [row for row in rows["numeric"] if row.get("hit_rate")]
    assert warmed and warmed[0]["hit_rate"] > 0
    assert rows["shape"] == rows["numeric"]


# -- backend selection plumbing ----------------------------------------------


def test_machine_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown execution backend"):
        Machine.cpu_gpu(backend="symbolic")


def test_shape_mode_outputs_are_placeholders_and_numeric_are_dense():
    for backend, expect_placeholder in (("numeric", False), ("shape", True)):
        machine = Machine.cpu_gpu(backend=backend)
        with machine.activate():
            a = Tensor.zeros((4, 8), machine.gpus[0])
            b = Tensor.zeros((8, 3), machine.gpus[0])
            out = ops.matmul(a, b)
        assert out.data.shape == (4, 3)
        assert is_placeholder(out.data) == expect_placeholder
        assert out.data.dtype == np.float32
