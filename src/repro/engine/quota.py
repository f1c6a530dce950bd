"""Per-tenant admission control: token buckets for the fleet router.

The service layer already refuses *saturation* with ``503`` (the
bounded-queue backpressure in :mod:`repro.engine.net`): that signal
means "the process is full, anyone may retry".  A multi-tenant fleet
needs a second, different refusal -- "*this tenant* is over its
budget" -- that fires before a request consumes a worker slot and that
well-behaved tenants never see.  This module provides it:

:class:`TokenBucket`
    The classic leaky-bucket admission test on a monotonic clock:
    a bucket holds at most ``burst`` tokens, refills at ``rate``
    tokens/second, and each admitted request spends one.  The clock is
    injectable so tests are deterministic.

:class:`QuotaPolicy`
    The per-tenant configuration (``rate``/``burst``), with
    ``unlimited()`` for fleets that do not meter.

:class:`TenantQuotas`
    The registry the router consults: one lazily created bucket per
    tenant id, ``admit(tenant)`` -> allowed / refused (with a
    retry-after hint), and counters (admitted / throttled, per tenant
    and total) surfaced in the router's ``/stats``.

Quota refusals travel as HTTP ``429 Too Many Requests`` -- distinct
from saturation ``503`` so clients and dashboards can tell "slow down
forever" from "retry in a moment".  :class:`~repro.engine.net.ReproClient`
retries idempotent 503s but **never** retries a 429: a quota refusal is
policy, not weather.

Like the rest of the engine this module imports nothing from
:mod:`repro.core`.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, Optional, Tuple

__all__ = ["QuotaPolicy", "TenantQuotas", "TokenBucket"]


class TokenBucket:
    """One tenant's admission bucket: ``burst`` capacity, ``rate``/s refill.

    The bucket starts full (a quiet tenant can always burst).  Not
    thread-safe on its own -- :class:`TenantQuotas` serializes access.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp", "_clock")

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Optional[Callable[[], float]] = None,
    ):
        # NaN passes every bare comparison: without the finiteness
        # test it would make a bucket that admits everything
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(
                f"rate must be a finite number > 0 tokens/sec, got {rate}"
            )
        if not (math.isfinite(burst) and burst >= 1):
            raise ValueError(
                f"burst must be a finite number >= 1 token, got {burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock if clock is not None else time.monotonic
        self._tokens = self.burst
        self._stamp = self._clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now

    def try_acquire(self) -> bool:
        """Spend one token if available; ``False`` means throttle."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until the next token exists (0 when one is ready)."""
        self._refill()
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        """The current (refilled) token balance."""
        self._refill()
        return self._tokens

    def __repr__(self) -> str:
        return f"TokenBucket(rate={self.rate:g}/s, burst={self.burst:g})"


class QuotaPolicy:
    """Per-tenant budget: ``rate`` requests/second, ``burst`` capacity.

    ``rate=None`` means unmetered (every tenant is always admitted);
    :meth:`unlimited` spells that out.  ``burst`` defaults to one
    second's worth of rate (at least 1).
    """

    __slots__ = ("rate", "burst")

    def __init__(self, rate: Optional[float] = None, burst: Optional[float] = None):
        # negated range tests: NaN fails every comparison, so it is
        # refused here instead of making a bucket that refills to full
        # on every call (metering silently off)
        if rate is not None and not 0 < rate < math.inf:
            raise ValueError(
                f"quota rate must be a finite number > 0 req/s, got {rate}"
            )
        if burst is not None and not 1 <= burst < math.inf:
            raise ValueError(
                f"quota burst must be a finite number >= 1, got {burst}"
            )
        self.rate = rate
        self.burst = burst if burst is not None else (
            max(1.0, rate) if rate is not None else None
        )

    @classmethod
    def unlimited(cls) -> "QuotaPolicy":
        """The no-metering policy (what a single-tenant fleet runs)."""
        return cls(rate=None)

    @property
    def metered(self) -> bool:
        """Whether this policy meters at all."""
        return self.rate is not None

    def bucket(self, clock=None) -> Optional[TokenBucket]:
        """A fresh bucket enforcing this policy (None when unmetered)."""
        if not self.metered:
            return None
        return TokenBucket(self.rate, self.burst, clock=clock)

    def as_dict(self) -> dict:
        """JSON-friendly form (the router's ``/stats`` quota block)."""
        return {"rate": self.rate, "burst": self.burst, "metered": self.metered}

    def __repr__(self) -> str:
        if not self.metered:
            return "QuotaPolicy(unlimited)"
        return f"QuotaPolicy(rate={self.rate:g}/s, burst={self.burst:g})"


class Admission(Tuple):
    """``(allowed, retry_after_seconds)`` -- named for readability."""


class TenantQuotas:
    """The router's per-tenant bucket registry.

    One :class:`TokenBucket` per tenant id, created lazily from the
    default :class:`QuotaPolicy` (per-tenant overrides via
    ``overrides={tenant: QuotaPolicy(...)}``).  Thread-safe: the router
    admits from asyncio callbacks, the stats endpoint reads from
    wherever.
    """

    def __init__(
        self,
        policy: Optional[QuotaPolicy] = None,
        overrides: Optional[Dict[str, QuotaPolicy]] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self._policy = policy if policy is not None else QuotaPolicy.unlimited()
        self._overrides = dict(overrides or {})
        self._clock = clock
        self._buckets: Dict[str, Optional[TokenBucket]] = {}
        self._admitted: Dict[str, int] = {}
        self._throttled: Dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def policy(self) -> QuotaPolicy:
        """The default policy tenants fall back to."""
        return self._policy

    def policy_for(self, tenant: str) -> QuotaPolicy:
        """The policy governing ``tenant`` (override or default)."""
        return self._overrides.get(tenant, self._policy)

    def _bucket_for(self, tenant: str) -> Optional[TokenBucket]:
        bucket = self._buckets.get(tenant, _MISSING)
        if bucket is _MISSING:
            bucket = self.policy_for(tenant).bucket(clock=self._clock)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str) -> Tuple[bool, float]:
        """Admission-test one request for ``tenant``.

        Returns ``(allowed, retry_after)``: ``retry_after`` is the
        ``Retry-After`` hint in seconds (whole seconds, >= 1) when
        refused, ``0.0`` when admitted.
        """
        with self._lock:
            bucket = self._bucket_for(tenant)
            if bucket is None or bucket.try_acquire():
                self._admitted[tenant] = self._admitted.get(tenant, 0) + 1
                return True, 0.0
            self._throttled[tenant] = self._throttled.get(tenant, 0) + 1
            return False, max(1.0, math.ceil(bucket.retry_after()))

    @property
    def throttled(self) -> int:
        """Total requests refused with 429 across all tenants."""
        with self._lock:
            return sum(self._throttled.values())

    @property
    def admitted(self) -> int:
        """Total requests admitted across all tenants."""
        with self._lock:
            return sum(self._admitted.values())

    def as_dict(self) -> dict:
        """The ``/stats`` quota block: policy + per-tenant counters."""
        with self._lock:
            tenants = sorted(set(self._admitted) | set(self._throttled))
            return {
                "policy": self._policy.as_dict(),
                "admitted": sum(self._admitted.values()),
                "throttled": sum(self._throttled.values()),
                "tenants": {
                    tenant: {
                        "admitted": self._admitted.get(tenant, 0),
                        "throttled": self._throttled.get(tenant, 0),
                    }
                    for tenant in tenants
                },
            }

    def __repr__(self) -> str:
        return (
            f"TenantQuotas({self._policy!r}, "
            f"tenants={len(self._buckets)})"
        )


_MISSING = object()
