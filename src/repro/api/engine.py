"""Engine names and the one execution engine behind them.

An :class:`ExecutionEngine` takes a list of independent campaign specs and
returns their outcomes in order.  There is one implementation,
:class:`~repro.cluster.engine.ClusterEngine`: plan, shard, journal,
coordinate, merge.  The ``--engine`` names are aliases that pick the
transport its shards run over:

* ``serial`` and ``checkpoint``: inline, shards run in this process one
  at a time;
* ``process`` and ``cluster``: pool, shards run in a local pool of
  ``max_workers`` worker processes;
* ``remote``: TCP, shards run on ``python -m repro.cluster.agent`` hosts.

Every alias fast-forwards injections from golden checkpoints, caches
goldens and journals shards under ``cache_dir``, resumes a killed run,
and reports ``progress(done, total)`` in shards.  Run ids never depend on
the alias, so stored outcomes stay valid whichever one produced them, and
every alias is bit-identical to a cold ``Session().run(spec)``.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Union

from repro.api.result import CampaignOutcome
from repro.api.spec import CampaignSpec
from repro.api.store import ResultStore
from repro.faults.campaign import ProgressCallback


class ExecutionEngine(Protocol):
    """Anything that can run a batch of campaign specs."""

    def run(
        self,
        specs: Sequence[CampaignSpec],
        store: Optional[ResultStore] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> List[CampaignOutcome]:
        """Run every spec and return outcomes in the input order."""
        ...


#: Engine names accepted by the CLI's ``--engine`` flag.
ENGINES = ("serial", "process", "checkpoint", "cluster", "remote")


def make_engine(name: str, max_workers: Optional[int] = None,
                checkpoint_interval: Optional[int] = None,
                shard_size: Optional[int] = None,
                cache_dir: Optional[str] = None,
                resume: bool = False,
                hosts: Optional[str] = None) -> ExecutionEngine:
    """Build the engine for an ``--engine`` alias.

    ``hosts`` applies only to ``remote`` and ``max_workers`` only to the
    pool aliases (``process``, ``cluster``); every other setting applies
    to all of them.
    """
    # Imported here: repro.cluster builds on this module's siblings.
    from repro.cluster.engine import ClusterEngine
    from repro.cluster.remote import parse_hosts
    from repro.cluster.transport import TcpAgentTransport, WorkerTransport

    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}")
    if hosts is not None and name != "remote":
        raise ValueError(
            f"hosts only applies to the remote engine, not {name!r}"
        )
    transport: Union[str, WorkerTransport]
    if name == "remote":
        addresses = parse_hosts(hosts)
        if not addresses:
            raise ValueError(
                "the remote engine needs --hosts HOST:PORT[,HOST:PORT...]"
            )
        transport = TcpAgentTransport(addresses)
    elif name in ("process", "cluster"):
        transport = "pool"
    else:
        transport = "inline"
    return ClusterEngine(
        max_workers=max_workers,
        shard_size=shard_size,
        cache_dir=cache_dir,
        resume=resume,
        checkpoint_interval=checkpoint_interval,
        transport=transport,
    )
