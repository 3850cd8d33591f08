"""Serving telemetry: latency percentiles, throughput, SLO accounting.

A :class:`ServingReport` is the outcome of one server run: the completed
requests (each carrying its queue/service/total latency split), the measured
window, and the hardware-utilization numbers read from the profiler capture
that wrapped the run.  Percentiles come from :mod:`repro.core.stats` so the
serving numbers use exactly the same interpolation as offline analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.stats import LatencySummary
from .request import Request


@dataclass
class ServingReport:
    """Telemetry of one serving run.

    Attributes:
        label: Human-readable run identifier.
        policy: ``describe()`` string of the scheduler policy.
        arrival: Arrival-process name.
        requests: The completed requests, in completion order.
        offered: Number of requests the workload offered (>= completed when
            a run is truncated).
        duration_ms: Measured simulated window (first arrival admission to
            last completion).
        gpu_utilization / cpu_utilization: Busy fractions over the window
            (``gpu_utilization`` names the first GPU, the seed's "the GPU").
        per_device_utilization: Busy fraction of *every* GPU, keyed by
            explicit device name -- the multi-GPU view.
        overlap: Whether the run used the sampling/compute overlap scheduler.
        placement: ``"single"``, ``"replicate"`` or ``"shard"``.
        router: ``describe()`` string of the batch router (replicated runs).
        num_replicas: Number of model replicas/shards serving the run.
        cache: Merged serving-cache telemetry (``None`` when uncached):
            policy/capacity/staleness configuration plus hit/miss/staleness/
            eviction counters and byte occupancy, as produced by
            :meth:`repro.cache.ModelCache.stats` (or the multi-replica merge).
        cluster: Cluster shape of the run (``None`` on single-machine runs):
            node count, NIC preset and total NIC bytes moved.
        autoscale: Elastic-fleet telemetry (``None`` on statically
            provisioned runs): replica bounds, scale events with their
            cold-start charges, and the fleet's GPU-time integral, as
            produced by :meth:`repro.serve.autoscale.Autoscaler.stats`.
        fidelity: Graceful-degradation telemetry (``None`` when adaptive
            fidelity is off): per-lever debt counters, the weighted debt
            score, and the controller's level trajectory, as produced by
            :meth:`repro.serve.fidelity.FidelityController.snapshot`.
        metrics: Metrics-registry snapshot (``None`` when no registry is
            attached): simulated-clock counters, gauges and histograms, as
            produced by :meth:`repro.obs.MetricsRegistry.snapshot`; one
            registry covers every replica and node of the run.
    """

    label: str
    policy: str
    arrival: str
    requests: List[Request] = field(default_factory=list)
    offered: int = 0
    duration_ms: float = 0.0
    gpu_utilization: float = 0.0
    cpu_utilization: float = 0.0
    overlap: bool = False
    placement: str = "single"
    router: str = ""
    num_replicas: int = 1
    per_device_utilization: Dict[str, float] = field(default_factory=dict)
    cache: Optional[Dict[str, Any]] = None
    cluster: Optional[Dict[str, Any]] = None
    autoscale: Optional[Dict[str, Any]] = None
    fidelity: Optional[Dict[str, Any]] = None
    metrics: Optional[Dict[str, Any]] = None

    # -- latency distributions -------------------------------------------------

    def _values(self, attribute: str) -> List[float]:
        return [getattr(r, attribute) for r in self.requests if r.is_completed]

    def total_latency(self) -> LatencySummary:
        return LatencySummary.from_values(self._values("total_ms"))

    def queue_latency(self) -> LatencySummary:
        return LatencySummary.from_values(self._values("queue_ms"))

    def service_latency(self) -> LatencySummary:
        return LatencySummary.from_values(self._values("service_ms"))

    # -- headline rates -----------------------------------------------------------

    @property
    def completed(self) -> int:
        return sum(1 for r in self.requests if r.is_completed)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        if self.duration_ms <= 0:
            return 0.0
        return self.completed / (self.duration_ms / 1000.0)

    @property
    def slo_violation_rate(self) -> float:
        """Fraction of completed requests that missed their SLO."""
        if self.completed == 0:
            return 0.0
        return sum(1 for r in self.requests if r.is_completed and r.slo_violated) / (self.completed)

    @property
    def mean_batch_size(self) -> float:
        sizes = [r.batch_size for r in self.requests if r.batch_size]
        return sum(sizes) / len(sizes) if sizes else 0.0

    def requests_per_replica(self) -> Dict[int, int]:
        """Completed-request counts keyed by serving replica index."""
        counts: Dict[int, int] = {}
        for request in self.requests:
            if request.is_completed and request.replica is not None:
                counts[request.replica] = counts.get(request.replica, 0) + 1
        return counts

    # -- presentation ---------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Flat dict of the headline numbers (one experiment row)."""
        row: Dict[str, Any] = {
            "label": self.label,
            "policy": self.policy,
            "arrival": self.arrival,
            "overlap": self.overlap,
            "offered": self.offered,
            "completed": self.completed,
            "duration_ms": round(self.duration_ms, 3),
            "throughput_rps": round(self.throughput_rps, 2),
            "slo_violation_rate": round(self.slo_violation_rate, 4),
            "mean_batch_size": round(self.mean_batch_size, 2),
            "gpu_utilization": round(self.gpu_utilization, 4),
            "cpu_utilization": round(self.cpu_utilization, 4),
        }
        if self.placement != "single":
            row["placement"] = self.placement
            row["num_replicas"] = self.num_replicas
            if self.router:
                row["router"] = self.router
        if self.per_device_utilization:
            row["per_device_utilization"] = {
                name: round(value, 4)
                for name, value in sorted(self.per_device_utilization.items())
            }
        if self.cache is not None:
            row["cache_hit_rate"] = self.cache.get("hit_rate", 0.0)
            # Footprint bound: the summed per-store peaks (equals the single
            # store's peak on unmerged reports).
            peak_sum = self.cache.get("bytes_peak_sum") or self.cache.get("bytes_peak", 0)
            row["cache_mb"] = round(peak_sum / 1e6, 3)
            row["cache"] = self.cache
        if self.cluster is not None:
            row["num_nodes"] = self.cluster.get("num_nodes", 1)
            row["nic"] = self.cluster.get("nic", "")
            row["nic_bytes"] = self.cluster.get("nic_bytes", 0)
            if "nic_busy" in self.cluster:
                row["nic_busy"] = self.cluster["nic_busy"]
        if self.autoscale is not None:
            row["autoscale_gpu_time_ms"] = round(self.autoscale.get("gpu_time_ms", 0.0), 3)
            row["scale_ups"] = self.autoscale.get("scale_ups", 0)
            row["scale_downs"] = self.autoscale.get("scale_downs", 0)
            row["autoscale"] = self.autoscale
        if self.fidelity is not None:
            row["fidelity_debt"] = self.fidelity.get("debt_score", 0.0)
            row["degraded_batches"] = self.fidelity.get("degraded_batches", 0)
            row["fidelity"] = self.fidelity
        if self.metrics is not None:
            row["metrics"] = self.metrics
        if self.completed:
            for prefix, summary in (
                ("", self.total_latency()),
                ("queue_", self.queue_latency()),
                ("service_", self.service_latency()),
            ):
                row.update({k: round(v, 3) for k, v in summary.as_dict(prefix).items()})
        return row

    def format_table(self) -> str:
        """Render the report for the CLI."""
        lines = [f"serving report: {self.label}"]
        lines.append(f"  policy:   {self.policy}")
        lines.append(f"  arrival:  {self.arrival}   overlap: {self.overlap}")
        if self.cluster is not None:
            lines.append(
                f"  cluster:  {self.cluster.get('num_nodes', 1)} nodes over "
                f"{self.cluster.get('nic', '?')}   NIC traffic: "
                f"{self.cluster.get('nic_bytes', 0) / 1e6:.2f} MB"
            )
            nic_busy = self.cluster.get("nic_busy")
            if nic_busy:
                shares = "  ".join(
                    f"{name}:{value * 100:.2f}%" for name, value in sorted(nic_busy.items())
                )
                lines.append(f"  NIC busy: {shares}")
        if self.placement != "single":
            spread = self.requests_per_replica()
            detail = f"   router: {self.router}" if self.router else ""
            lines.append(f"  placement: {self.placement} x{self.num_replicas}{detail}")
            if spread:
                shares = "  ".join(f"r{idx}:{count}" for idx, count in sorted(spread.items()))
                lines.append(f"  per-replica completions: {shares}")
        lines.append(
            f"  requests: {self.completed}/{self.offered} completed over "
            f"{self.duration_ms:.1f} ms (simulated)"
        )
        lines.append(
            f"  throughput: {self.throughput_rps:.1f} req/s   "
            f"mean batch: {self.mean_batch_size:.2f}   "
            f"SLO violations: {self.slo_violation_rate * 100:.1f}%"
        )
        if self.completed:
            for name, summary in (
                ("total", self.total_latency()),
                ("queue", self.queue_latency()),
                ("service", self.service_latency()),
            ):
                lines.append(
                    f"  {name:<8} latency (ms): mean {summary.mean_ms:8.3f}   "
                    f"p50 {summary.p50_ms:8.3f}   p95 {summary.p95_ms:8.3f}   "
                    f"p99 {summary.p99_ms:8.3f}   max {summary.max_ms:8.3f}"
                )
        if self.cache is not None:
            caches = self.cache.get("caches", 1)
            suffix = f" across {caches} caches" if caches > 1 else ""
            lines.append(
                f"  cache:    {self.cache.get('policy', '?')} "
                f"{self.cache.get('capacity_mb', 0):g} MB, staleness "
                f"{self.cache.get('staleness_ms', 0):g} ms{suffix}"
            )
            peak_mb = self.cache.get("bytes_peak", 0) / 1e6
            peak_sum = self.cache.get("bytes_peak_sum") or self.cache.get("bytes_peak", 0)
            if caches > 1:
                # Merged view: the peak is the max any one store reached; the
                # summed per-store peaks bound the total footprint.
                peak_text = (
                    f"(peak {peak_mb:.2f} MB/store, "
                    f"footprint <= {peak_sum / 1e6:.2f} MB)"
                )
            else:
                peak_text = f"(peak {peak_mb:.2f} MB)"
            lines.append(
                f"  cache hits: {self.cache.get('hits', 0)}/"
                f"{self.cache.get('lookups', 0)} "
                f"({self.cache.get('hit_rate', 0.0) * 100:.1f}%)   "
                f"evictions: {self.cache.get('evictions', 0)}   "
                f"stale: {self.cache.get('stale_rejects', 0)}   "
                f"invalidated: {self.cache.get('invalidations', 0)}   "
                f"occupancy: {self.cache.get('bytes_current', 0) / 1e6:.2f} MB "
                f"{peak_text}"
            )
        if self.autoscale is not None:
            lines.append(
                f"  autoscale: {self.autoscale.get('min_replicas', '?')}-"
                f"{self.autoscale.get('max_replicas', '?')} replicas   "
                f"ups: {self.autoscale.get('scale_ups', 0)}   "
                f"downs: {self.autoscale.get('scale_downs', 0)}   "
                f"GPU-time: {self.autoscale.get('gpu_time_ms', 0.0):.1f} ms   "
                f"cold-start: {self.autoscale.get('cold_start_ms', 0.0):.1f} ms"
            )
        if self.fidelity is not None:
            lines.append(
                f"  fidelity: debt {self.fidelity.get('debt_score', 0.0):g}   "
                f"degraded batches: {self.fidelity.get('degraded_batches', 0)}/"
                f"{self.fidelity.get('total_dispatches', 0)}   "
                f"fanout/stale/forced: {self.fidelity.get('fanout_requests', 0)}/"
                f"{self.fidelity.get('stale_requests', 0)}/"
                f"{self.fidelity.get('forced_requests', 0)}   "
                f"max level: {self.fidelity.get('max_level_seen', 0)}"
            )
        lines.append(
            f"  utilization: GPU {self.gpu_utilization * 100:.2f}%   "
            f"CPU {self.cpu_utilization * 100:.2f}%"
        )
        if len(self.per_device_utilization) > 1:
            per_gpu = "  ".join(
                f"{name}:{value * 100:.2f}%"
                for name, value in sorted(self.per_device_utilization.items())
            )
            lines.append(f"  per-GPU utilization: {per_gpu}")
        if self.metrics is not None:
            names = self.metrics.get("metrics", {})
            lines.append(f"  metrics:  {len(names)} series in registry snapshot")
        return "\n".join(lines)
