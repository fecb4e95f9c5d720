"""`repro.cluster` — the one execution engine behind every ``--engine``.

A campaign's fault list is cut into deterministic, checkpoint-aligned
:class:`FaultShard`s, golden runs and their checkpoint timelines are
shared machine-wide through a content-addressed :class:`ArtifactCache`,
per-shard outcomes are journaled append-only in a :class:`RunJournal`, and
the :class:`ClusterEngine` drives the shards of a whole batch through the
:class:`~repro.cluster.remote.Coordinator`, which leases, heartbeats and
work-steals over one :class:`~repro.cluster.transport.WorkerTransport`:

* :class:`InlineTransport` — in this process, through the executor that
  planned the batch (``--engine serial`` / ``checkpoint``);
* :class:`LocalPoolTransport` — a local worker-process pool
  (``--engine process`` / ``cluster``);
* :class:`TcpAgentTransport` — remote line-JSON agents
  (``--engine remote --hosts ...``);
* :class:`FakeTransport` — the seeded chaos harness used in tests.

``repro resume <run_id>`` restarts a killed run from exactly the shards
it was missing.  Merged outcomes are bit-identical to a cold
:meth:`Session.run <repro.api.session.Session.run>` on every transport.
"""

from repro.cluster.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactCache,
    golden_cache_key,
)
from repro.cluster.engine import DEFAULT_CACHE_DIR, ClusterEngine, ShardExecutor
from repro.cluster.journal import JournalError, RunJournal, journal_path
from repro.cluster.merge import MergeError, merge_shard_outcomes
from repro.cluster.remote import Coordinator
from repro.cluster.shards import DEFAULT_SHARD_SIZE, FaultShard, shard_faults
from repro.cluster.transport import (
    FakeTransport,
    InlineTransport,
    LocalPoolTransport,
    ShardTask,
    TcpAgentTransport,
    TransportError,
    WorkerTransport,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactCache",
    "ClusterEngine",
    "Coordinator",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_SHARD_SIZE",
    "FakeTransport",
    "FaultShard",
    "InlineTransport",
    "JournalError",
    "LocalPoolTransport",
    "MergeError",
    "RunJournal",
    "ShardExecutor",
    "ShardTask",
    "TcpAgentTransport",
    "TransportError",
    "WorkerTransport",
    "golden_cache_key",
    "journal_path",
    "merge_shard_outcomes",
    "shard_faults",
]
