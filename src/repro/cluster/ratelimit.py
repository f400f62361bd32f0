"""Per-client token-bucket rate limiting for the cluster router.

One :class:`TokenBucket` per client key (the peer ``ip:port``): capacity
``burst`` tokens, refilled at ``rate`` tokens/second, each ``INC n``
costing ``n`` tokens.  A request that cannot be paid for is rejected up
front with ``ERR throttled`` — it never reaches a shard, so rate limiting
composes with (rather than competes against) the shard-side load-shedding
queue.

The clock is injectable (``clock=``) so tests are deterministic; buckets
for idle clients are evicted lazily once they are back at full capacity.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["TokenBucket", "ClientRateLimiter"]


class TokenBucket:
    """The classic leaky-integrator token bucket."""

    def __init__(self, rate: float, burst: float, *, clock: Callable[[], float]) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        if now > self._stamp:
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def allow(self, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens if available; False means throttled."""
        self._refill()
        if self._tokens >= cost:
            self._tokens -= cost
            return True
        return False


class ClientRateLimiter:
    """A lazily-allocated bucket per client key.

    ``allow(key, cost)`` is the router's per-request gate.  ``rejected``
    counts throttled requests across all clients (mirrored into the
    router's METRICS).
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        *,
        clock: Callable[[], float] | None = None,
        max_clients: int = 4096,
    ) -> None:
        import time

        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock if clock is not None else time.monotonic
        self.max_clients = int(max_clients)
        self._buckets: dict[str, TokenBucket] = {}
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._buckets)

    def allow(self, key: str, cost: float = 1.0) -> bool:
        bucket = self._buckets.get(key)
        if bucket is None:
            if len(self._buckets) >= self.max_clients:
                self._evict_full()
            bucket = self._buckets[key] = TokenBucket(self.rate, self.burst, clock=self._clock)
        ok = bucket.allow(cost)
        if not ok:
            self.rejected += 1
        return ok

    def forget(self, key: str) -> None:
        """Drop a client's bucket (connection closed)."""
        self._buckets.pop(key, None)

    def _evict_full(self) -> None:
        """Evict buckets that have refilled to capacity (idle clients)."""
        idle = [k for k, b in self._buckets.items() if b.tokens >= b.burst]
        for k in idle:
            del self._buckets[k]
        if not idle and self._buckets:
            # Every client is active; drop an arbitrary one rather than grow
            # without bound (it re-enters with a full bucket, which only
            # under-throttles briefly).
            self._buckets.pop(next(iter(self._buckets)))
