"""repro.cluster — a sharded, durable counting cluster.

The paper's move is always the same: split a hot counter into ``w``
balancers so contention drops while the step property survives.  This
package applies the move one level up, across *processes*: ``S`` shard
workers each run a full :class:`~repro.serve.service.CountingService`
(their own network + :class:`~repro.core.plan.PlanExecutor`) over one
residue class of the value space — shard ``i`` dispenses
``i, i+S, i+2S, ...`` — and a consistent-hash router pins each client to
one shard while speaking the exact single-server line protocol.

Durability is per shard: every batch is appended to a checksummed
write-ahead token log *before* any client is acked, so a ``kill -9`` and
restart replays the log and resumes exactly where the acked prefix ended
— no value is ever dispensed twice (the exactly-once property, now
crash-tolerant).

Layout::

    wal.py        TokenWAL — fixed 32-byte CRC records, torn-tail repair
    hashing.py    stable_hash + HashRing (balance/stability properties)
    ratelimit.py  TokenBucket / ClientRateLimiter (router admission)
    shard.py      ShardSpec / shard_main / ShardWorker (one process each)
    router.py     ClusterRouter — line forwarding, aggregation
    cluster.py    ClusterConfig / Cluster — assembly, supervision, state
"""

from .cluster import Cluster, ClusterConfig
from .hashing import HashRing, stable_hash
from .ratelimit import ClientRateLimiter, TokenBucket
from .router import ClusterRouter
from .shard import ShardSpec, ShardWorker, make_shard_service, shard_main
from .wal import TokenWAL, WALCorruptionError, WALError, WALRecord, WALReplay, replay

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterRouter",
    "HashRing",
    "stable_hash",
    "ClientRateLimiter",
    "TokenBucket",
    "ShardSpec",
    "ShardWorker",
    "make_shard_service",
    "shard_main",
    "TokenWAL",
    "WALError",
    "WALCorruptionError",
    "WALRecord",
    "WALReplay",
    "replay",
]
