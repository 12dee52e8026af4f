"""``repro.serve``: the online checkpointing service.

Everything the repo can compute offline over a finished trace -- the
CIC forcing predicates, incremental R-graph closure, Z-cycle and
useless-checkpoint detection, online recovery lines -- is exposed here
as a long-running daemon that external processes talk to over a small
length-prefixed JSON wire protocol.  A *session* is one distributed
computation of ``n`` processes: the server runs the chosen protocol as
a sidecar (every ingest reply carries the ``force_checkpoint`` decision
and the indices; the piggyback stays in the session while its message
is in transit) and answers analysis queries incrementally, in O(update)
rather than O(replay).

Layers
------
* :mod:`repro.serve.wire` -- the frame codec and request/reply schema;
* :mod:`repro.serve.session` -- one session's live state + ingest log;
* :mod:`repro.serve.servercore` / :mod:`repro.serve.server` -- every
  daemon decision, sans-IO, and the asyncio driver that performs them;
* :mod:`repro.serve.snapshots` -- session snapshot/restore store;
* :mod:`repro.serve.wal` -- the durable ingest WAL (hash-chained
  append-only segments, fsync-batched group commit, crash recovery);
* :mod:`repro.serve.disk` -- the storage seam: every operation that
  makes a WAL, snapshot or layout file durable, over ``os`` or memory;
* :mod:`repro.serve.shardmap` -- deterministic consistent-hash session
  ownership for multi-process deployments, and the routing table
  clients build from a router's ``ping``;
* :mod:`repro.serve.routecore` / :mod:`repro.serve.router` -- every
  router decision, sans-IO (respawn backoff and parking, the ``ping``
  table and ``stats``, rebalance plans, the reconcile decision), and
  the asyncio driver that runs N shard processes (per-shard
  WAL/snapshots, snapshot-verified rebalance and re-home) and performs
  them; the router publishes the table, clients route;
* :mod:`repro.serve.clientcore` -- the client's sans-IO request core
  (direct-to-shard routing, unwritten refusals, seeded retry backoff,
  circuit breaking);
* :mod:`repro.serve.client` -- the one client transport over it
  (``AsyncClient``: sockets, per-request deadlines, pipelining) and
  its blocking face (``Client``);
* :mod:`repro.serve.loadgen` -- workload replay through N connections;
* :mod:`repro.serve.chaosproxy` -- seeded wire-level fault injection
  (latency/jitter, throttling, fragmentation, resets, stalls,
  truncation) for the chaos suites.

The blessed entrypoints are :func:`repro.api.serve` and
:func:`repro.api.connect`; the CLI verbs are ``repro serve``,
``repro client`` and ``repro loadgen``.
"""

from repro.serve.chaosproxy import ChaosConfig, ChaosProxy, ChaosSchedule
from repro.serve.client import (
    AsyncClient,
    CircuitOpen,
    Client,
    FrameTooLarge,
    ReplyError,
    RequestTimeout,
    parse_address,
)
from repro.serve.loadgen import LoadReport, run_load
from repro.serve.router import Router, RouterConfig
from repro.serve.server import CheckpointServer, ServerConfig, ServerHandle
from repro.serve.session import ServeSession, offline_answers
from repro.serve.shardmap import ShardMap
from repro.serve.snapshots import SnapshotStore
from repro.serve.wal import (
    IngestWal,
    WalCommitter,
    WalCorruption,
    WalError,
    WalRecord,
    read_wal,
    recover_sessions,
)
from repro.serve.wire import (
    MAX_FRAME,
    FrameBuffer,
    FrameError,
    decode_frame,
    encode_frame,
)

__all__ = [
    "AsyncClient",
    "ChaosConfig",
    "ChaosProxy",
    "ChaosSchedule",
    "CheckpointServer",
    "CircuitOpen",
    "Client",
    "FrameBuffer",
    "FrameError",
    "FrameTooLarge",
    "ReplyError",
    "RequestTimeout",
    "IngestWal",
    "LoadReport",
    "MAX_FRAME",
    "Router",
    "RouterConfig",
    "ServeSession",
    "ServerConfig",
    "ServerHandle",
    "ShardMap",
    "SnapshotStore",
    "WalCommitter",
    "WalCorruption",
    "WalError",
    "WalRecord",
    "decode_frame",
    "encode_frame",
    "offline_answers",
    "parse_address",
    "read_wal",
    "recover_sessions",
    "run_load",
]
