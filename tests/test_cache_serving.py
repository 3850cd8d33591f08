"""Cache-aware serving tests: single-model, replicated, sharded, CLI, bench.

Pins down the acceptance behaviour: at a nonzero staleness bound with a warm
cache, overlap serving strictly beats its uncached counterpart on p99 total
latency (measured on the simulated clock, so the comparison is exact and
deterministic), with hit-rate and occupancy telemetry in the report.
"""

import numpy as np
import pytest

from repro.cache import make_model_cache, merge_cache_stats
from repro.cli import main
from repro.datasets import load
from repro.graph.partition import make_partition
from repro.hw import Machine
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


@pytest.fixture(scope="module")
def dataset():
    return load("wikipedia", scale="tiny")


def make_requests(dataset, seed=0, rate=400.0, duration_ms=100.0, events=1):
    arrivals = make_arrival_process("poisson", rate, seed=seed)
    return generate_requests(
        dataset.stream,
        arrivals,
        duration_ms=duration_ms,
        events_per_request=events,
        slo_ms=50.0,
    )


def build_tgat(machine, dataset, seed=0):
    with machine.activate():
        return TGAT(
            machine, dataset, TGATConfig(num_neighbors=5, batch_size=64, seed=seed)
        )


def serve_single(dataset, cache_kwargs, overlap, seed=0):
    machine = Machine.cpu_gpu()
    model = build_tgat(machine, dataset, seed=seed)
    if cache_kwargs is not None:
        make_model_cache(model, **cache_kwargs)
    policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    server = InferenceServer(model, policy, overlap=overlap)
    requests = make_requests(dataset, seed=seed)
    server.serve(requests, label="warm", arrival_name="poisson")
    return server.serve(
        make_requests(dataset, seed=seed),
        label="measured",
        arrival_name="poisson",
        warm_up=False,
    )


def test_warm_cached_overlap_beats_uncached_on_p99(dataset):
    """The acceptance criterion, on the simulated clock."""
    span = dataset.stream.time_span
    staleness = (span[1] - span[0]) * 2.0
    uncached = serve_single(dataset, None, overlap=True)
    cached = serve_single(
        dataset,
        dict(policy="lru", capacity_mb=32.0, staleness_ms=staleness),
        overlap=True,
    )
    assert cached.cache is not None
    assert cached.cache["hit_rate"] > 0.3
    assert cached.cache["bytes_peak"] > 0
    assert cached.total_latency().p99_ms < uncached.total_latency().p99_ms
    assert cached.throughput_rps >= uncached.throughput_rps
    # Telemetry surfaces in both machine- and human-readable forms.
    summary = cached.summary()
    assert summary["cache_hit_rate"] == cached.cache["hit_rate"]
    assert "cache_mb" in summary
    assert "cache hits:" in cached.format_table()


def test_staleness_zero_serving_is_result_identical(dataset):
    uncached = serve_single(dataset, None, overlap=False)
    cached = serve_single(
        dataset, dict(policy="lru", capacity_mb=8.0, staleness_ms=0.0), overlap=False
    )
    assert cached.cache["hits"] == 0
    assert cached.completed == uncached.completed
    # Same requests were batched identically (cache bookkeeping shifts the
    # clock, not the batching order).
    assert [r.request_id for r in cached.requests] == [
        r.request_id for r in uncached.requests
    ]


def test_uncached_report_has_no_cache_section(dataset):
    report = serve_single(dataset, None, overlap=False)
    assert report.cache is None
    assert "cache_hit_rate" not in report.summary()
    assert "cache hits:" not in report.format_table()


def test_replicated_serving_merges_per_replica_caches(dataset):
    machine = Machine.from_spec("2xA100-pcie")
    with machine.activate():
        replicas = build_replicas(
            machine,
            lambda: TGAT(
                machine, dataset, TGATConfig(num_neighbors=5, batch_size=64, seed=0)
            ),
            machine.gpus,
        )
    for replica in replicas:
        make_model_cache(replica, policy="lru", capacity_mb=8.0, staleness_ms=1e12)
    policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    server = ClusterServer(
        machine, replicas, [0, 0], policy, make_router("round-robin", 2)
    )
    report = server.serve(make_requests(dataset, events=2), arrival_name="poisson")
    assert report.cache is not None
    assert report.cache["caches"] == 2
    assert report.cache["lookups"] == sum(
        replica.cache_stats()["lookups"] for replica in replicas
    )
    # Cross-replica coherence: dispatches to replica A invalidated entries
    # in replica B's cache (and vice versa).
    assert all(replica.cache_stats()["invalidations"] > 0 for replica in replicas)


def test_replica_caches_are_independent_stores(dataset):
    machine = Machine.from_spec("2xA100-pcie")
    with machine.activate():
        replicas = build_replicas(
            machine,
            lambda: TGAT(
                machine, dataset, TGATConfig(num_neighbors=5, batch_size=64, seed=0)
            ),
            machine.gpus,
        )
    caches = [
        make_model_cache(replica, policy="lru", capacity_mb=8.0, staleness_ms=1e12)
        for replica in replicas
    ]
    assert caches[0].embeddings.device.name != caches[1].embeddings.device.name
    merged = merge_cache_stats([c.stats() for c in caches])
    assert merged["caches"] == 2
    assert merge_cache_stats([None, None]) is None


def test_sharded_serving_reports_and_invalidates_across_shards(dataset):
    machine = Machine.from_spec("2xA100-nvlink")
    with machine.activate():
        replicas = build_replicas(
            machine,
            lambda: TGAT(
                machine, dataset, TGATConfig(num_neighbors=5, batch_size=64, seed=0)
            ),
            machine.gpus,
        )
        for replica in replicas:
            make_model_cache(replica, policy="lru", capacity_mb=8.0, staleness_ms=1e12)
        partition = make_partition("hash", dataset.stream, 2, seed=0)
        sharded = ShardedModel(replicas, partition)
        policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
        server = InferenceServer(sharded, policy, overlap=False)
        report = server.serve(make_requests(dataset, events=2), arrival_name="poisson")
    assert report.cache is not None
    assert report.cache["caches"] == 2
    merged = sharded.cache_stats()
    assert merged["lookups"] == report.cache["lookups"]
    # Cross-shard invalidation: each shard dropped entries touched by the
    # *other* shard's slice of the batches.
    assert all(replica.cache_stats()["invalidations"] > 0 for replica in replicas)


def test_sharded_uncached_still_reports_no_cache(dataset):
    machine = Machine.from_spec("2xA100-nvlink")
    with machine.activate():
        replicas = build_replicas(
            machine,
            lambda: TGAT(
                machine, dataset, TGATConfig(num_neighbors=5, batch_size=64, seed=0)
            ),
            machine.gpus,
        )
        partition = make_partition("hash", dataset.stream, 2, seed=0)
        sharded = ShardedModel(replicas, partition)
        assert sharded.cache_stats() is None


def test_cli_serve_cache_flags(dataset, capsys):
    code = main([
        "serve", "tgat", "--scale", "tiny", "--rate", "300", "--duration", "60",
        "--cache", "--cache-policy", "degree", "--cache-mb", "8",
        "--staleness-ms", "1e9",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "cache:" in out and "degree" in out
    assert "cache hits:" in out


def test_cli_serve_cache_rejects_unsupported_models(capsys):
    code = main([
        "serve", "ldg", "--scale", "tiny", "--rate", "300", "--duration", "60",
        "--cache",
    ])
    assert code == 2
    assert "does not support request caching" in capsys.readouterr().err


def test_cli_serve_cache_rejects_bad_budget(capsys):
    code = main([
        "serve", "tgat", "--scale", "tiny", "--rate", "300", "--duration", "60",
        "--cache", "--cache-mb", "0",
    ])
    assert code == 2
    assert "capacity" in capsys.readouterr().err


def test_cache_ablation_experiment_rows(dataset):
    from repro.experiments import run_experiment

    result = run_experiment(
        "cache_ablation",
        scale="tiny",
        policies=("lru",),
        capacities_mb=(8.0,),
        staleness_fractions=(0.0, 0.5),
        duration_ms=60.0,
    )
    assert result.rows[0]["policy"] == "uncached"
    cells = {
        (row["policy"], row["staleness_ms"]): row for row in result.rows[1:]
    }
    assert len(cells) == 2
    warm = next(row for key, row in cells.items() if key[1] and key[1] > 0)
    cold = next(row for key, row in cells.items() if not key[1])
    assert cold["hit_rate"] == 0
    assert warm["hit_rate"] > 0
    assert warm["p99_ms"] < result.rows[0]["p99_ms"]


def test_bench_registry_and_cached_scenarios_report_extras():
    from repro.bench import available_scenarios, run_bench, to_payload

    names = available_scenarios()
    assert {"serving_blocking_cached", "serving_overlap_cached"} <= set(names)
    result = run_bench(
        scenarios=["serving_overlap", "serving_overlap_cached"],
        seed=0,
        reps=1,
        quick=True,
    )
    payload = to_payload(result, sha="deadbeef")
    cached = payload["serving_overlap_cached"]["extras"]
    uncached = payload["serving_overlap"]["extras"]
    assert cached["cache_hit_rate"] > 0.3
    assert cached["p99_ms"] < uncached["p99_ms"]


def test_property_serving_cache_counters_are_consistent(dataset):
    """Seeded sweep: stats identities and byte budgets hold after serving."""
    for seed in (0, 1, 2):
        report = serve_single(
            dataset,
            dict(policy="lfu", capacity_mb=0.05, staleness_ms=1e9),
            overlap=(seed % 2 == 0),
            seed=seed,
        )
        cache = report.cache
        assert cache["hits"] + cache["misses"] == cache["lookups"]
        budget_bytes = cache["capacity_mb"] * 1e6
        assert 0 <= cache["bytes_current"] <= budget_bytes
        assert cache["bytes_peak"] <= budget_bytes
        for kind_stats in cache["by_kind"].values():
            assert kind_stats["hits"] + kind_stats["misses"] == kind_stats["lookups"]
