"""Adaptive-fidelity serving: graceful degradation under SLO pressure.

The SLO-aware batcher has one lever -- batch size.  When the oldest queued
request's deadline no longer fits even a batch of one at full quality, the
server can either batch for throughput and eat the violation (the death-
spiral guard in :class:`~repro.serve.policy.SLOAwarePolicy`) or *degrade
the answer* to make the deadline.  :class:`FidelityController` manages that
second axis: three modeled levers engaged in order of increasing
cost-to-quality, each with its service-cost benefit modeled and its
"fidelity debt" accounted.

Levers (cumulative -- level ``n`` keeps every lever below it engaged):

1. **Fan-out shrink** (level 1): scale per-layer neighbour fan-out by
   ``fanout_scale``.  Sampling draws, gather bytes and attention width all
   shrink with the neighbour count, so service cost drops roughly with the
   sampled fraction (``sampling_fraction`` of the per-request cost).
2. **Staleness widening** (level 2): multiply the cache staleness bound by
   ``staleness_scale`` for the batch, admitting embedding/sample hits past
   the strict window -- hits that would have been stale rejects skip the
   recompute (modeled as ``stale_benefit`` off the remaining cost).
3. **Forced cache hits** (level 3): rows whose deadline is *already lost*
   are answered straight from the embedding cache regardless of age
   (``forced_benefit`` off the remaining cost).  The answer is wrong-ish
   but on time for everyone behind it in the queue.

The controller is consulted (side-effect-free) by the policy when the
full-quality batch does not fit, and *advanced* exactly once per dispatch
by the server: escalate one level on a pressured dispatch, decay one level
after ``recovery_batches`` consecutive unpressured dispatches (hysteresis,
so one quiet batch does not bounce the fleet back to full cost mid-storm).
Every request served below full fidelity accrues per-lever debt counters
plus a weighted scalar score, reported in ``ServingReport`` and the CLI
table.

At level 0 -- or with no controller attached -- every code path is
untouched: scale 1.0 fan-out, base staleness, no forced hits, no debt.
The fuzz differential invariant (*zero pressure => zero debt =>
byte-identical serving*) and a regression test pin that down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Debt weights: one degraded request at lever ``n`` costs this many points.
#: Forced stale answers are the most visible quality loss, hence the spread.
DEBT_WEIGHTS = {"fanout": 1.0, "stale": 2.0, "forced": 4.0}


@dataclass(frozen=True)
class FidelityConfig:
    """Tuning knobs for the degradation controller.

    ``fanout_scale`` / ``staleness_scale`` set how hard levers 1 and 2 pull;
    the ``*_benefit`` fractions model how much of the per-request service
    cost each lever removes (multiplicative, so the modeled cost scale at
    level 3 is ``(1 - sampling_fraction*(1-fanout_scale)) * (1 -
    stale_benefit) * (1 - forced_benefit)``).  ``recovery_batches`` is the
    hysteresis: consecutive unpressured dispatches required before stepping
    one level back toward full fidelity.
    """

    fanout_scale: float = 0.5
    staleness_scale: float = 4.0
    recovery_batches: int = 3
    #: Fraction of per-request service cost attributable to sampling+gather
    #: (what lever 1 shrinks).  The TGAT profile puts sampling near 60%.
    sampling_fraction: float = 0.6
    #: Fractional cost removed by widened-staleness cache hits (lever 2).
    stale_benefit: float = 0.15
    #: Fractional cost removed by serving lost-deadline rows from cache (3).
    forced_benefit: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.fanout_scale <= 1.0:
            raise ValueError("fanout_scale must be in (0, 1]")
        if self.staleness_scale < 1.0:
            raise ValueError("staleness_scale must be >= 1")
        if self.recovery_batches < 1:
            raise ValueError("recovery_batches must be >= 1")
        for name in ("sampling_fraction", "stale_benefit", "forced_benefit"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")


@dataclass(frozen=True)
class FidelityDecision:
    """What one dispatch runs at: the levers to apply and the modeled cost.

    ``cost_scale`` multiplies the estimator's full-quality per-request cost;
    the server divides the observed service time back out before feeding the
    estimator, so the EWMA keeps tracking *full-quality* cost and recovery
    does not under-estimate it.
    """

    level: int
    fanout_scale: float
    staleness_scale: float
    force_hits: bool
    cost_scale: float

    @property
    def degraded(self) -> bool:
        return self.level > 0


#: The always-full-fidelity decision (level 0 / no controller attached).
FULL_FIDELITY = FidelityDecision(
    level=0, fanout_scale=1.0, staleness_scale=1.0, force_hits=False, cost_scale=1.0
)


@dataclass
class FidelityController:
    """Escalation/recovery state machine over the three degradation levers.

    The policy *consults* (:meth:`projected_cost_scale`) without side
    effects; the server *advances* (:meth:`on_dispatch`) exactly once per
    batch, so replaying a policy decision never double-counts debt.
    Cache-dependent levers (2 and 3) are capped out unless the server
    reports an attached cache via :meth:`set_cache_available` -- a lever
    that cannot change the answer must neither accrue debt nor promise a
    cost benefit the dispatch will not deliver.
    """

    config: FidelityConfig = field(default_factory=FidelityConfig)
    level: int = 0
    max_level: int = 1

    # Per-lever debt: requests served with the lever engaged.
    fanout_requests: int = 0
    stale_requests: int = 0
    forced_requests: int = 0
    # Dispatch bookkeeping.
    degraded_batches: int = 0
    pressured_dispatches: int = 0
    total_dispatches: int = 0
    max_level_seen: int = 0
    _clear_streak: int = 0

    def set_cache_available(self, available: bool) -> None:
        """Unlock (or cap out) the cache-dependent levers.

        The server calls this once at serve start: without an attached
        cache, widening staleness and forcing hits are no-ops, so the
        controller stops escalating at level 1.
        """
        self.max_level = 3 if available else 1

    def cost_scale(self, level: int) -> float:
        """Modeled per-request service-cost multiplier at ``level``."""
        scale = 1.0
        if level >= 1:
            scale *= 1.0 - self.config.sampling_fraction * (1.0 - self.config.fanout_scale)
        if level >= 2:
            scale *= 1.0 - self.config.stale_benefit
        if level >= 3:
            scale *= 1.0 - self.config.forced_benefit
        return scale

    def projected_cost_scale(self) -> float:
        """Cost scale of the level the next pressured dispatch would run at.

        Side-effect-free: the policy uses this to ask "would one more step
        of degradation make the deadline?" without committing to it.
        """
        return self.cost_scale(min(self.level + 1, self.max_level))

    def decision(self) -> FidelityDecision:
        """The levers in force at the current level (no state change)."""
        level = self.level
        return FidelityDecision(
            level=level,
            fanout_scale=self.config.fanout_scale if level >= 1 else 1.0,
            staleness_scale=self.config.staleness_scale if level >= 2 else 1.0,
            force_hits=level >= 3,
            cost_scale=self.cost_scale(level),
        )

    def on_dispatch(
        self, pressured: bool, batch_size: int, lost_deadlines: int = 0
    ) -> FidelityDecision:
        """Advance the state machine for one dispatched batch.

        Escalates one level when the batch is under deadline pressure,
        steps one level down after ``recovery_batches`` consecutive clear
        dispatches, accrues per-lever debt for the batch actually served,
        and returns the decision the server must apply.  ``lost_deadlines``
        counts rows whose deadline has already passed at dispatch time --
        the only rows lever 3 force-serves from cache.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.total_dispatches += 1
        if pressured:
            self.pressured_dispatches += 1
            self._clear_streak = 0
            if self.level < self.max_level:
                self.level += 1
        else:
            self._clear_streak += 1
            if self.level > 0 and self._clear_streak >= self.config.recovery_batches:
                self.level -= 1
                self._clear_streak = 0
        self.max_level_seen = max(self.max_level_seen, self.level)
        decision = self.decision()
        if decision.level >= 3 and lost_deadlines <= 0:
            # Nothing to force: the lever only fires on already-lost rows.
            decision = FidelityDecision(
                level=decision.level,
                fanout_scale=decision.fanout_scale,
                staleness_scale=decision.staleness_scale,
                force_hits=False,
                cost_scale=self.cost_scale(2),
            )
        if decision.degraded:
            self.degraded_batches += 1
            if decision.fanout_scale < 1.0:
                self.fanout_requests += batch_size
            if decision.staleness_scale > 1.0:
                self.stale_requests += batch_size
            if decision.force_hits:
                self.forced_requests += lost_deadlines
        return decision

    @property
    def debt_score(self) -> float:
        """Weighted scalar fidelity debt (see :data:`DEBT_WEIGHTS`)."""
        return (
            DEBT_WEIGHTS["fanout"] * self.fanout_requests
            + DEBT_WEIGHTS["stale"] * self.stale_requests
            + DEBT_WEIGHTS["forced"] * self.forced_requests
        )

    def snapshot(self) -> Dict[str, Any]:
        """The report-facing summary attached to ``ServingReport.fidelity``."""
        return {
            "debt_score": round(self.debt_score, 3),
            "fanout_requests": self.fanout_requests,
            "stale_requests": self.stale_requests,
            "forced_requests": self.forced_requests,
            "degraded_batches": self.degraded_batches,
            "pressured_dispatches": self.pressured_dispatches,
            "total_dispatches": self.total_dispatches,
            "max_level_seen": self.max_level_seen,
            "final_level": self.level,
            "fanout_scale": self.config.fanout_scale,
            "staleness_scale": self.config.staleness_scale,
        }


def make_fidelity_controller(
    enabled: bool = True,
    fanout_scale: Optional[float] = None,
    staleness_scale: Optional[float] = None,
    recovery_batches: Optional[int] = None,
) -> Optional[FidelityController]:
    """CLI/experiment helper: a controller from flag-style overrides.

    Returns ``None`` when ``enabled`` is false so callers can thread the
    result straight into ``InferenceServer(fidelity=...)``.
    """
    if not enabled:
        return None
    defaults = FidelityConfig()
    config = FidelityConfig(
        fanout_scale=fanout_scale if fanout_scale is not None else defaults.fanout_scale,
        staleness_scale=(
            staleness_scale if staleness_scale is not None else defaults.staleness_scale
        ),
        recovery_batches=(
            recovery_batches if recovery_batches is not None else defaults.recovery_batches
        ),
    )
    return FidelityController(config=config)
