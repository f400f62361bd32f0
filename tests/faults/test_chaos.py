"""Chaos layer: the exactly-once audit closes under injected faults, and
manufactured violations surface as typed FaultEscape reports — never
silently."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.faults.chaos import (
    ChaosService,
    FaultEscape,
    InjectedFault,
    audit_exactly_once,
    chaos_token_check,
    run_chaos,
)
from repro.faults.mutator import stuck_balancer
from repro.networks import k_network
from repro.serve.service import CountingService


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def net():
    return k_network([2, 2, 2])


class TestAudit:
    def test_clean_books(self):
        assert audit_exactly_once(10, list(range(10)), [], 0) == []

    def test_losses_and_cancels_are_accounted(self):
        # values 3,4 lost to a dropped batch; 7 cancelled (1 token allowance)
        escapes = audit_exactly_once(10, [0, 1, 2, 5, 6, 8, 9], [3, 4], 1)
        assert escapes == []

    def test_duplicate_delivery_detected(self):
        escapes = audit_exactly_once(5, [0, 1, 2, 3, 4, 2], [], 0)
        assert [e.kind for e in escapes] == ["duplicate-delivery"]
        assert 2 in escapes[0].values

    def test_out_of_range_detected(self):
        escapes = audit_exactly_once(5, [0, 1, 2, 3, 7], [], 1)
        assert "out-of-range" in [e.kind for e in escapes]

    def test_lost_value_delivered_detected(self):
        escapes = audit_exactly_once(5, [0, 1, 2, 3, 4], [3], 0)
        assert [e.kind for e in escapes] == ["lost-value-delivered"]

    def test_unaccounted_gap_detected(self):
        escapes = audit_exactly_once(6, [0, 1, 2], [], 1)  # 3 missing, 1 allowed
        assert [e.kind for e in escapes] == ["unaccounted-gap"]

    def test_escape_dict(self):
        e = FaultEscape("unaccounted-gap", "details", (1, 2))
        d = e.as_dict()
        assert d == {"kind": "unaccounted-gap", "detail": "details", "values": [1, 2]}


class TestChaosService:
    def test_drop_before_rejects_cleanly(self, net):
        async def main():
            svc = CountingService(net)
            chaos = ChaosService(svc, drop_before_rate=0.999, seed=0)
            async with chaos:
                with pytest.raises(InjectedFault):
                    await chaos.fetch_and_increment_many(3)
            assert chaos.dropped_before >= 1
            assert chaos.issued == 0  # drop-before never issues

        run(main())

    def test_drop_after_records_lost_values(self, net):
        async def main():
            svc = CountingService(net)
            chaos = ChaosService(svc, drop_after_rate=0.999, seed=0)
            async with chaos:
                with pytest.raises(InjectedFault):
                    await chaos.fetch_and_increment_many(4)
            assert chaos.dropped_after >= 1
            assert chaos.issued == 4  # issued, then lost...
            assert sorted(chaos.lost_values) == [0, 1, 2, 3]  # ...and recorded

        run(main())

    def test_no_injection_is_transparent(self, net):
        async def main():
            svc = CountingService(net)
            chaos = ChaosService(svc, seed=0)
            async with chaos:
                values = await chaos.fetch_and_increment_many(5)
            assert values == [0, 1, 2, 3, 4]
            assert chaos.batches == 1

        run(main())

    def test_bad_rates_rejected(self, net):
        svc = CountingService(net)
        with pytest.raises(ValueError, match="drop_before_rate"):
            ChaosService(svc, drop_before_rate=1.5)


class TestRunChaos:
    def test_exactly_once_survives_default_chaos(self, net):
        report = run_chaos(net_service(net), requests=400, clients=8, seed=3)
        assert report.exactly_once, [e.as_dict() for e in report.escapes]
        assert report.issued >= report.delivered
        assert report.requests >= 400  # dup submissions add requests

    def test_injections_actually_fired(self, net):
        report = run_chaos(net_service(net), requests=400, clients=8, seed=3)
        assert report.injected.get("drop_before", 0) + report.injected.get("drop_after", 0) > 0
        assert report.injected.get("cancel", 0) > 0
        assert report.retries > 0

    def test_quiet_run_delivers_everything(self, net):
        report = run_chaos(
            net_service(net),
            requests=100,
            clients=4,
            seed=1,
            drop_before_rate=0.0,
            drop_after_rate=0.0,
            delay_rate=0.0,
            dup_rate=0.0,
            cancel_rate=0.0,
        )
        assert report.exactly_once
        assert report.delivered == report.issued
        assert report.lost_to_drops == 0 and report.cancelled_requests == 0

    def test_report_dict_shape(self, net):
        d = run_chaos(net_service(net), requests=60, clients=4, seed=0).as_dict()
        assert {"issued", "delivered", "escapes", "exactly_once", "injected"} <= set(d)

    def test_deterministic_issuance(self, net):
        """Same seed, same injections (scheduling may reorder clients, but
        the injected fault counts and the audit outcome are stable)."""
        a = run_chaos(net_service(net), requests=100, clients=1, seed=7)
        b = run_chaos(net_service(net), requests=100, clients=1, seed=7)
        assert a.injected == b.injected
        assert a.exactly_once == b.exactly_once


def net_service(net) -> CountingService:
    return CountingService(net)


class TestChaosTokenCheck:
    def test_counting_network_passes(self, net):
        assert chaos_token_check(net, seed=0) is None
        assert chaos_token_check(net, tokens=17, seed=3) is None

    def test_stuck_mutant_caught(self, net):
        bad = stuck_balancer(net, net.layers()[-1][0].index, 0)
        escape = chaos_token_check(bad, seed=0)
        assert escape is not None
        assert escape.kind in ("step-violation", "schedule-dependence")

    def test_chaos_scheduler_registered(self):
        from repro.sim.schedulers import SCHEDULERS, get_scheduler

        assert "chaos" in SCHEDULERS
        sched = get_scheduler("chaos")
        rng = np.random.default_rng(0)
        assert sched([4, 5, 6], rng) in (4, 5, 6)
