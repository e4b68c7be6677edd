"""Admission control and fair scheduling across named tenants.

The serving loop multiplexes one continuous batch across *tenants* —
named traffic classes (interactive users, a batch ETL job, a fault-
injection campaign) that must not be able to starve each other.  This
module holds the policy pieces the pump consults at every admission
opportunity:

* :class:`TenantConfig` — per-tenant knobs: a scheduling ``weight``
  (long-run share of admissions), ``max_in_flight`` (cap on the
  tenant's concurrently decoding batch rows) and ``max_queue`` (bound
  on waiting requests; submissions beyond it are *shed* with a typed
  :class:`ServeRejected` instead of growing latency without bound).
* :class:`WeightedScheduler` — smooth weighted round-robin over the
  tenants that currently have runnable work.  Each pick adds every
  eligible tenant's weight to its credit, selects the largest credit,
  and charges the winner the total — the classic smooth-WRR invariant
  that admissions converge to the weight ratio while staying maximally
  interleaved (a weight-3 tenant is served A A B A, never A A A B).

The scheduler is deliberately lock-free: the owning
:class:`~repro.serve.server.InferenceServer` serializes all access
under its own lock, and tests drive the scheduler directly to pin the
deterministic pick order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["ServeRejected", "TenantConfig", "TenantState", "WeightedScheduler"]


class ServeRejected(RuntimeError):
    """Typed admission rejection.

    ``reason`` is machine-readable so load generators and clients can
    distinguish shedding from misuse:

    * ``"queue_full"`` — the tenant's bounded queue is at capacity
      (overload shedding; retry later);
    * ``"prompt_too_long"`` — prompt plus token budget exceeds the
      engine's context window (never retryable);
    * ``"bad_token"`` — a prompt token id lies outside the vocabulary
      (never retryable);
    * ``"shutdown"`` — the server is stopping and accepts no new work.
    """

    def __init__(self, tenant: str, reason: str, detail: str = "") -> None:
        self.tenant = tenant
        self.reason = reason
        message = f"request rejected for tenant {tenant!r}: {reason}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


@dataclass(frozen=True)
class TenantConfig:
    """Admission-control knobs for one named traffic class."""

    name: str
    weight: float = 1.0
    max_in_flight: int | None = None
    """Cap on the tenant's concurrently decoding batch rows (``None``:
    bounded only by the server's batch width)."""
    max_queue: int = 256
    """Waiting-request bound; submissions beyond it are shed with a
    typed :class:`ServeRejected` (``reason="queue_full"``)."""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"tenant weight must be > 0, got {self.weight}")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1 when set")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")


class TenantState:
    """One tenant's live bookkeeping: queue, in-flight count, credit."""

    __slots__ = (
        "config",
        "queue",
        "in_flight",
        "credit",
        "submitted",
        "completed",
        "rejected",
        "tokens",
    )

    def __init__(self, config: TenantConfig) -> None:
        self.config = config
        self.queue: deque = deque()
        self.in_flight = 0
        self.credit = 0.0
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.tokens = 0

    @property
    def name(self) -> str:
        return self.config.name

    def runnable(self) -> bool:
        """Whether this tenant can accept an admission right now."""
        if not self.queue:
            return False
        cap = self.config.max_in_flight
        return cap is None or self.in_flight < cap


class WeightedScheduler:
    """Smooth weighted round-robin over tenants with runnable work.

    Deterministic: credits are floats updated by fixed increments and
    ties break on registration order, so a given submission order
    always yields the same admission order (the property the fairness
    tests pin).
    """

    def __init__(self) -> None:
        self._tenants: dict[str, TenantState] = {}

    def add(self, config: TenantConfig) -> TenantState:
        if config.name in self._tenants:
            raise ValueError(f"tenant {config.name!r} already registered")
        state = TenantState(config)
        self._tenants[config.name] = state
        return state

    def get(self, name: str) -> TenantState | None:
        return self._tenants.get(name)

    def tenants(self) -> list[TenantState]:
        return list(self._tenants.values())

    def queued(self) -> int:
        """Total requests waiting across every tenant queue."""
        return sum(len(t.queue) for t in self._tenants.values())

    def pick(self) -> TenantState | None:
        """Choose the next tenant to admit from, or ``None`` if no
        tenant is runnable (all queues empty or at their in-flight
        cap)."""
        eligible = [t for t in self._tenants.values() if t.runnable()]
        if not eligible:
            return None
        total = 0.0
        best: TenantState | None = None
        for tenant in eligible:
            tenant.credit += tenant.config.weight
            total += tenant.config.weight
            if best is None or tenant.credit > best.credit:
                best = tenant
        assert best is not None
        best.credit -= total
        return best
