"""Random-but-reproducible fuzz configurations.

One :class:`FuzzConfig` is a point in the simulator's full configuration
cross-product: a machine topology preset, optionally wrapped in a multi-node
cluster (NIC preset), optionally fronted by a staleness cache (eviction
policy x capacity x staleness bound), optionally finished with a serving
episode (placement x router x batching policy), all under either execution
backend.  Configs are drawn from a seeded ``random.Random`` and round-trip
through plain JSON dicts, so a failing case is fully described by its config
dict plus its op list (see :mod:`repro.fuzz.program`) -- no RNG replay
needed to reproduce it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Machine topology presets the generator draws from (all carry >= 1 GPU, so
#: transfer/kernel ops always have two distinct devices to work with).
TOPOLOGIES = (
    "1xA6000",
    "1xA100",
    "2xA100-pcie",
    "2xA100-nvlink",
    "4xA100-pcie",
    "4xA100-nvlink",
)

#: Cluster presets (``None`` = plain single machine).  The 1-node preset is
#: deliberately over-weighted by appearing here explicitly: it is the config
#: under which the single-node-cluster identity invariant applies.
CLUSTERS = (
    None,
    "1n-2xA100",
    "2n-1xA100-eth",
    "2n-1xA100-ib",
    "2n-2xA100-eth",
    "2n-2xA100-ib",
    "4n-1xA100-eth",
)

BACKENDS = ("numeric", "shape")

CACHE_POLICIES = ("lru", "lfu", "degree")
#: Deliberately tight-to-roomy byte budgets so eviction paths actually run.
CACHE_CAPACITY_BYTES = (4_096, 65_536, 1_048_576)
#: Staleness bounds: 0 (write-bypass regime), tight, effectively unbounded.
CACHE_STALENESS_MS = (0.0, 2.0, 1e9)
CACHE_KINDS = ("embedding", "sample")

SERVING_PLACEMENTS = ("single", "replicate", "shard")
SERVING_POLICIES = ("fifo", "timeout", "slo")
SERVING_ROUTERS = ("round-robin", "least-latency", "jsq")


@dataclass
class FuzzConfig:
    """One drawn configuration (JSON-serializable via :meth:`as_dict`)."""

    topology: str = "1xA6000"
    backend: str = "numeric"
    #: Cluster preset name, or ``None`` for a plain machine.
    cluster: Optional[str] = None
    #: ``{"policy", "capacity_bytes", "staleness_ms", "kind"}`` or ``None``.
    cache: Optional[Dict[str, Any]] = None
    #: ``{"placement", "policy", "router", "overlap", "rate_rps",
    #: "duration_ms", "cache", "fidelity", "trace"}`` or ``None``.
    serving: Optional[Dict[str, Any]] = field(default=None)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "topology": self.topology,
            "backend": self.backend,
            "cluster": self.cluster,
            "cache": dict(self.cache) if self.cache else None,
            "serving": dict(self.serving) if self.serving else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzConfig":
        return cls(
            topology=data.get("topology", "1xA6000"),
            backend=data.get("backend", "numeric"),
            cluster=data.get("cluster"),
            cache=data.get("cache"),
            serving=data.get("serving"),
        )

    def describe(self) -> str:
        parts = [self.topology, self.backend]
        if self.cluster:
            parts.append(f"cluster={self.cluster}")
        if self.cache:
            parts.append(
                f"cache={self.cache['policy']}/"
                f"{self.cache['capacity_bytes']}B/"
                f"{self.cache['staleness_ms']:g}ms"
            )
        if self.serving:
            parts.append(
                f"serve={self.serving['placement']}/{self.serving['policy']}"
            )
            if self.serving.get("fidelity"):
                parts.append("fidelity")
        return " ".join(parts)


def draw_config(rng: random.Random) -> FuzzConfig:
    """Draw one configuration from the full cross-product."""
    cache = None
    if rng.random() < 0.5:
        cache = {
            "policy": rng.choice(CACHE_POLICIES),
            "capacity_bytes": rng.choice(CACHE_CAPACITY_BYTES),
            "staleness_ms": rng.choice(CACHE_STALENESS_MS),
            "kind": rng.choice(CACHE_KINDS),
        }
    serving = None
    if rng.random() < 0.25:
        placement = rng.choice(SERVING_PLACEMENTS)
        policy = rng.choice(SERVING_POLICIES)
        serving = {
            "placement": placement,
            "policy": policy,
            "router": rng.choice(SERVING_ROUTERS),
            # Overlap requires the overlap protocol; TGAT has it, and only
            # single-model serving takes the flag.
            "overlap": placement == "single" and rng.random() < 0.5,
            "rate_rps": rng.choice((200.0, 600.0, 1500.0)),
            "duration_ms": rng.choice((20.0, 40.0)),
            # Serving-tier cache exercises the ModelCache path end to end.
            "cache": (
                {
                    "policy": rng.choice(CACHE_POLICIES),
                    "capacity_mb": rng.choice((0.05, 4.0)),
                    "staleness_ms": rng.choice((0.0, 1e6)),
                }
                if rng.random() < 0.4
                else None
            ),
            # Adaptive fidelity rides only on the slo policy's deadline
            # signal; sharded serving has no per-shard degradation levers.
            "fidelity": (
                placement != "shard" and policy == "slo" and rng.random() < 0.5
            ),
            # Span tracer + metrics registry riding on the episode; the
            # trace-conservation invariant then checks span arithmetic and
            # that detaching the tracer leaves the run event-for-event
            # identical.
            "trace": rng.random() < 0.4,
        }
        if serving["fidelity"]:
            # Re-draw the rate with overload options so degradation episodes
            # actually trigger; the low end keeps the debt-free identity
            # branch of the fidelity-identity invariant reachable too.
            serving["rate_rps"] = rng.choice((600.0, 3000.0, 6000.0))
    return FuzzConfig(
        topology=rng.choice(TOPOLOGIES),
        backend=rng.choice(BACKENDS),
        cluster=rng.choice(CLUSTERS),
        cache=cache,
        serving=serving,
    )
