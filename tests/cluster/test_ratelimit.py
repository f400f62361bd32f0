"""Token-bucket rate limiting with an injected clock (fully deterministic)."""

from __future__ import annotations

import pytest

from repro.cluster.ratelimit import ClientRateLimiter, TokenBucket


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestTokenBucket:
    def test_invalid_params(self):
        clock = FakeClock()
        with pytest.raises(ValueError):
            TokenBucket(0, 10, clock=clock)
        with pytest.raises(ValueError):
            TokenBucket(10, 0, clock=clock)

    def test_burst_then_throttle(self):
        clock = FakeClock()
        b = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert b.allow(1) and b.allow(1) and b.allow(1)
        assert not b.allow(1)

    def test_refill_at_rate(self):
        clock = FakeClock()
        b = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        assert b.allow(4)
        assert not b.allow(1)
        clock.advance(0.5)  # +1 token
        assert b.allow(1)
        assert not b.allow(1)

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        b = TokenBucket(rate=100.0, burst=5.0, clock=clock)
        clock.advance(1000.0)
        assert b.tokens == 5.0

    def test_cost_larger_than_one(self):
        clock = FakeClock()
        b = TokenBucket(rate=1.0, burst=10.0, clock=clock)
        assert b.allow(7)
        assert not b.allow(4)
        assert b.allow(3)


class TestClientRateLimiter:
    def test_keys_are_independent(self):
        clock = FakeClock()
        lim = ClientRateLimiter(1.0, 2.0, clock=clock)
        assert lim.allow("a", 2)
        assert not lim.allow("a", 1)
        assert lim.allow("b", 2)  # b has its own full bucket
        assert lim.rejected == 1
        assert len(lim) == 2

    def test_forget_drops_the_bucket(self):
        clock = FakeClock()
        lim = ClientRateLimiter(0.001, 1.0, clock=clock)
        assert lim.allow("a", 1)
        assert not lim.allow("a", 1)
        lim.forget("a")
        assert lim.allow("a", 1)  # fresh bucket, full again

    def test_idle_clients_are_evicted_at_capacity(self):
        clock = FakeClock()
        lim = ClientRateLimiter(1.0, 2.0, clock=clock, max_clients=4)
        for i in range(4):
            lim.allow(f"idle-{i}", 1)
        clock.advance(100.0)  # everyone refills to burst → evictable
        lim.allow("new", 1)
        assert len(lim) <= 4
        assert "new" in lim._buckets

    def test_all_active_evicts_one_rather_than_growing(self):
        clock = FakeClock()
        lim = ClientRateLimiter(0.001, 2.0, clock=clock, max_clients=3)
        for i in range(3):
            lim.allow(f"hot-{i}", 1)  # all below burst, none idle
        lim.allow("new", 1)
        assert len(lim) == 3
        assert "new" in lim._buckets
