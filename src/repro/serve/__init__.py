"""Serving layer: a concurrent counting service with batching & backpressure.

The paper builds counting networks because they make *low-contention shared
counters*; this package turns the repo's compiled networks into an actual
service.  Pieces:

* :mod:`repro.serve.batching` — :class:`Batcher`, the asyncio micro-batcher
  (``max_batch`` coalescing without a timer, bounded queue, load-shedding
  :class:`OverloadedError`);
* :mod:`repro.serve.service` — :class:`CountingService`, exactly-once
  ``fetch_and_increment`` over a counting network via vectorized
  quiescent-count batches;
* :mod:`repro.serve.protocol` — the TCP line protocol (``INC`` / ``STATS``
  / ``PING`` / ``METRICS`` / ``FLIGHT``) shared by server and client;
* :mod:`repro.serve.server` — :class:`CountingServer`, the asyncio TCP
  front-end;
* :mod:`repro.serve.loadgen` — :class:`LoadGenerator` (seeded open-/
  closed-loop load) and :class:`LoadReport`;
* :mod:`repro.serve.top` — the ``repro top`` live terminal dashboard
  (throughput, p50/p99, queue depth, shed rate and buffer reuse;
  per-shard rows when pointed at a cluster router).

The multi-process flavour of all of this — sharded workers behind a
consistent-hash router, with write-ahead durability — lives in
:mod:`repro.cluster` and speaks this exact protocol.

Quickstart::

    import asyncio
    from repro import k_network
    from repro.serve import CountingService

    async def main():
        async with CountingService(k_network([2, 3])) as svc:
            vals = await asyncio.gather(*(svc.fetch_and_increment() for _ in range(12)))
            assert sorted(vals) == list(range(12))

    asyncio.run(main())

From the shell: ``python -m repro serve`` and ``python -m repro loadgen``
(see ``docs/serving.md``).
"""

from .batching import Batcher, BatcherStats, OverloadedError
from .loadgen import (
    LoadGenerator,
    LoadReport,
    TCPCounterClient,
    audit_values,
    run_multiprocess_tcp,
)
from .protocol import ProtocolError, Request, ThrottledError, parse_request, parse_response
from .server import CountingServer
from .service import CountingService, ExactlyOnceError
from .top import TopSample, render_frame, run_top

__all__ = [
    "TopSample",
    "render_frame",
    "run_top",
    "Batcher",
    "BatcherStats",
    "OverloadedError",
    "CountingService",
    "ExactlyOnceError",
    "CountingServer",
    "ProtocolError",
    "ThrottledError",
    "Request",
    "parse_request",
    "parse_response",
    "LoadGenerator",
    "LoadReport",
    "TCPCounterClient",
    "audit_values",
    "run_multiprocess_tcp",
]
