"""The one execution engine: plan, shard, journal, coordinate, merge.

Every ``--engine`` name runs a batch of campaign specs through the same
:class:`ClusterEngine` lifecycle; only the transport that carries shards
to their executor differs (see :func:`repro.api.engine.make_engine`):

1. **Plan.** Each spec resolves through a checkpointing
   :class:`~repro.api.session.Session` backed by the on-disk
   :class:`~repro.cluster.artifacts.ArtifactCache`, so each distinct golden
   run (and its checkpoint timeline) is built once per machine, and only
   one is held in memory at a time.
2. **Shard.** Injection targets (the full fault list for comprehensive or
   both, the MeRLiN group representatives for merlin-only) are cut into
   deterministic, checkpoint-aligned
   :class:`~repro.cluster.shards.FaultShard`s.
3. **Journal.** Every completed shard is appended to a
   :class:`~repro.cluster.journal.RunJournal`; a killed run resumes with
   ``resume=True`` (CLI: ``repro resume <run_id>``), re-executing only the
   missing shards.
4. **Coordinate.** The :class:`~repro.cluster.remote.Coordinator` leases
   the shards of all campaigns in the batch to a transport: in-process
   (:class:`~repro.cluster.transport.InlineTransport`), a local process
   pool (:class:`~repro.cluster.transport.LocalPoolTransport`) or remote
   agents (:class:`~repro.cluster.transport.TcpAgentTransport`).
5. **Merge.** Shard outcomes merge into a
   :class:`~repro.api.result.CampaignOutcome` bit-identical to a cold
   ``Session().run(spec)`` — enforced by ``tests/api/test_engine.py`` and
   ``tests/integration/test_cluster_equivalence.py``.

Progress reports in work units: one unit per shard, plus one per campaign
that is satisfied without sharding (reloaded from the result store).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.api.result import CampaignOutcome
from repro.api.session import Session
from repro.api.spec import CampaignSpec
from repro.api.store import ResultStore
from repro.cluster.artifacts import ArtifactCache, golden_cache_key
from repro.cluster.journal import JournalError, RunJournal, ShardOutcomes
from repro.cluster.merge import merge_shard_outcomes
from repro.cluster.remote import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_POLL_INTERVAL,
    Coordinator,
    validate_shard_payload,
)
from repro.cluster.shards import DEFAULT_SHARD_SIZE, FaultShard, shard_faults
from repro.cluster.transport import (
    InlineTransport,
    LocalPoolTransport,
    ShardTask,
    WorkerTransport,
)
from repro.core.grouping import GroupedFaults, group_faults
from repro.core.intervals import build_interval_set
from repro.faults.campaign import ComprehensiveCampaign, ProgressCallback
from repro.faults.golden import GoldenRecord
from repro.faults.model import FaultList
from repro.uarch.structures import TargetStructure, structure_geometry

#: Default on-disk location for golden artifacts and run journals.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Transports the engine builds itself; anything else is passed in as a
#: :class:`~repro.cluster.transport.WorkerTransport` object.
TRANSPORTS = ("inline", "pool")


# ----------------------------------------------------------------------
# Shard execution (in-process, pool workers, agents)
# ----------------------------------------------------------------------
class ShardExecutor:
    """Execute shard tasks in this process over the artifact cache.

    One golden (with its checkpoint timeline) stays in memory at a time:
    shards reach an executor grouped by campaign, and the artifact cache
    holds every other golden.  The inline transport, pool workers, agents
    and the fake transport all run shards through this class.
    """

    def __init__(self, cache_dir: Union[str, Path]):
        self.cache = ArtifactCache(cache_dir)
        self._resident: Optional[Tuple] = None
        self._session: Optional[Session] = None

    def session(self, spec: CampaignSpec,
                checkpoint_interval: Optional[int]) -> Session:
        """A checkpointing session over the cache, fresh for each new golden."""
        key = (spec.golden_key(), checkpoint_interval)
        if self._session is None or key != self._resident:
            self._resident = key
            self._session = Session(
                checkpointing=True,
                checkpoint_interval=checkpoint_interval,
                artifact_cache=self.cache,
            )
        return self._session

    def golden(self, spec: CampaignSpec,
               checkpoint_interval: Optional[int]) -> Tuple[GoldenRecord, bool]:
        """The golden for ``spec`` and whether it came without a simulation.

        Uses the *same* :meth:`Session.golden` lookup path as the
        coordinator (identical interval resolution and artifact identity),
        so the two can never drift.  The coordinator stores every golden
        before sharding, so a build here only happens when the artifact
        was evicted between planning and execution — correctness never
        depends on the cache.
        """
        misses = self.cache.misses
        golden = self.session(spec, checkpoint_interval).golden(spec)
        return golden, self.cache.misses == misses

    def execute(self, spec: CampaignSpec, shard: FaultShard,
                checkpoint_interval: Optional[int]) -> Dict[str, Any]:
        """Inject one shard and return its (observability-free) payload."""
        golden, cache_hit = self.golden(spec, checkpoint_interval)
        faults = shard.fault_specs()
        campaign = ComprehensiveCampaign(
            golden,
            FaultList(TargetStructure[shard.structure], faults),
            use_checkpoints=True,
        )
        outcomes = campaign.run_shard(faults)
        return {
            "shard_id": shard.shard_id(),
            "golden_cache_hit": cache_hit,
            "outcomes": {
                str(fault_id): [outcome.effect.value, outcome.result.cycles]
                for fault_id, outcome in outcomes.items()
            },
        }

    def __call__(self, task: ShardTask) -> Dict[str, Any]:
        """Run ``task``; with ``obs_enabled`` its metrics ride in ``"obs"``.

        Observed shards run under their own worker context, wherever they
        execute, so a delivery the coordinator drops (a duplicate, a torn
        copy) drops its measurements with it.
        """
        spec = CampaignSpec.from_dict(task.spec)
        shard = FaultShard.from_dict(task.shard)
        if not task.obs_enabled:
            return {**self.execute(spec, shard, task.checkpoint_interval),
                    "obs": None}
        with obs.observe(role="worker") as obs_ctx:
            started = time.perf_counter()
            with obs_ctx.span("shard", shard_id=shard.shard_id(),
                              run_id=spec.run_id()):
                payload = self.execute(spec, shard, task.checkpoint_interval)
            obs_ctx.shard_executed(time.perf_counter() - started)
            payload["obs"] = obs_ctx.drain_payload()
            return payload


#: Per-process executors keyed by cache dir: a long-lived pool worker or
#: agent loads a golden once per run of same-golden shards, not per shard.
_WORKER_EXECUTORS: Dict[str, ShardExecutor] = {}


def worker_executor(cache_dir: str) -> ShardExecutor:
    """This process's executor over the artifact cache at ``cache_dir``."""
    executor = _WORKER_EXECUTORS.get(str(cache_dir))
    if executor is None:
        executor = _WORKER_EXECUTORS[str(cache_dir)] = ShardExecutor(cache_dir)
    return executor


def _run_shard_worker(task: ShardTask, cache_dir: str) -> Dict[str, Any]:
    """Pool-worker entry point (module-level so it pickles by reference)."""
    return worker_executor(cache_dir)(task)


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
@dataclass
class _CampaignPlan:
    """One spec's fault list, shard plan and journal.

    The golden and (for MeRLiN) the fault grouping are resolved again for
    the merge rather than kept here, so a batch holds one golden and its
    checkpoint timeline in memory at a time, not all of them.
    """

    index: int
    spec: CampaignSpec
    fault_list: FaultList
    shards: List[FaultShard]
    journal: RunJournal
    outcomes: Dict[int, Tuple[str, int]] = field(default_factory=dict)
    pending: Dict[str, FaultShard] = field(default_factory=dict)
    started: float = 0.0


class ClusterEngine:
    """Run campaigns as journaled shards over one transport.

    ``transport`` is ``"inline"`` (shards run in this process through the
    executor that planned them: no fork, no pickling), ``"pool"`` (a local
    process pool of ``max_workers``, default one per core) or any
    :class:`~repro.cluster.transport.WorkerTransport` object, such as a
    :class:`~repro.cluster.transport.TcpAgentTransport` or, in tests, a
    :class:`~repro.cluster.transport.FakeTransport`.  ``lease_timeout``,
    ``poll_interval`` and ``max_attempts`` tune the
    :class:`~repro.cluster.remote.Coordinator`.

    ``shard_size`` bounds faults per shard (default
    :data:`~repro.cluster.shards.DEFAULT_SHARD_SIZE`); ``cache_dir`` holds
    the golden artifacts and run journals.  A killed run's journaled
    shards are always preserved and reused on the next run of the same
    plan (see :meth:`_journal_for`); ``resume=True`` makes that strict:
    the journal must exist and match the plan, or the run fails instead
    of starting over.  ``checkpoint_interval`` tunes golden snapshot
    spacing in cycles (default: ~32 checkpoints per golden run).  Custom
    (session-registered) programs are not resolvable here; run those
    through :meth:`Session.run <repro.api.session.Session.run>`.

    After each :meth:`run`, :attr:`stats` holds the run's bookkeeping
    (shards executed/reused, golden builds, worker cache hits, ...),
    deliberately *not* folded into the outcomes, which stay bit-identical
    across transports.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 shard_size: Optional[int] = None,
                 cache_dir: Union[str, Path, None] = None,
                 resume: bool = False,
                 checkpoint_interval: Optional[int] = None,
                 transport: Union[str, WorkerTransport] = "pool",
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS):
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1 cycle, got {checkpoint_interval}"
            )
        if isinstance(transport, str) and transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of "
                f"{TRANSPORTS} or a WorkerTransport"
            )
        if max_workers is not None and transport != "pool":
            raise ValueError(
                "workers only applies to the pool transport (the process "
                "and cluster engines)"
            )
        self.max_workers = max_workers
        self.shard_size = shard_size if shard_size is not None else DEFAULT_SHARD_SIZE
        self.cache_dir = Path(cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR)
        self.resume = resume
        self.checkpoint_interval = checkpoint_interval
        self.transport = transport
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.max_attempts = max_attempts
        self.stats: Dict[str, int] = {}

    @property
    def journal_dir(self) -> Path:
        return self.cache_dir / "journals"

    # ------------------------------------------------------------------
    def run(
        self,
        specs: Sequence[CampaignSpec],
        store: Optional[ResultStore] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> List[CampaignOutcome]:
        # Planning, merging and inline execution share one executor, so
        # only one golden and its checkpoint timeline is in memory at a time.
        executor = ShardExecutor(self.cache_dir)
        self.stats = {
            "campaigns": len(specs),
            "campaigns_from_store": 0,
            "golden_builds": 0,
            "shards_total": 0,
            "shards_executed": 0,
            "shards_reused": 0,
            "worker_cache_hits": 0,
            "worker_cache_misses": 0,
            # Coordinator bookkeeping (all zero for an undisturbed run).
            "shard_steals": 0,
            "heartbeat_misses": 0,
            "duplicate_results": 0,
            "torn_results": 0,
            "transport_retries": 0,
            "hosts_lost": 0,
            "host_warms": 0,
        }

        outcomes: List[Optional[CampaignOutcome]] = [None] * len(specs)
        plans: List[_CampaignPlan] = []
        obs_ctx = obs.active()

        # Phase 1: resolve and shard every campaign (coordinator, serial).
        with obs.span("cluster_plan", campaigns=len(specs)):
            for index, spec in enumerate(specs):
                if store is not None:
                    cached = store.get(spec.run_id())
                    if cached is not None:
                        outcomes[index] = cached
                        self.stats["campaigns_from_store"] += 1
                        if obs_ctx is not None:
                            obs_ctx.campaign_from_store()
                        continue
                plans.append(self._plan(index, spec, executor))
        self.stats["golden_builds"] = executor.cache.misses
        self.stats["shards_total"] = sum(len(plan.shards) for plan in plans)
        self.stats["shards_reused"] = sum(
            len(plan.shards) - len(plan.pending) for plan in plans
        )
        if obs_ctx is not None:
            obs_ctx.shards_reused(self.stats["shards_reused"])

        total_units = self.stats["campaigns_from_store"] + self.stats["shards_total"]
        done_units = (
            self.stats["campaigns_from_store"] + self.stats["shards_reused"]
        )
        # Seeding with the journaled/reused unit count (even when it is 0)
        # means a resumed run's first report already reflects prior work
        # and a fresh run starts visibly at 0/N rather than jumping in.
        if progress is not None and total_units:
            progress(done_units, total_units)

        # Campaigns whose shards are all journaled (or empty) merge now.
        for plan in plans:
            if not plan.pending:
                outcomes[plan.index] = self._finish(plan, store, executor)

        # Phase 2: execute the missing shards of all campaigns through
        # the transport.
        pending_plans = [plan for plan in plans if plan.pending]
        if pending_plans:
            self._execute_pending(
                pending_plans, executor, outcomes,
                store, progress, done_units, total_units, obs_ctx,
            )

        return [outcome for outcome in outcomes if outcome is not None]

    def _open_transport(self, executor: ShardExecutor) -> WorkerTransport:
        """The transport phase 2 fans out over."""
        if self.transport == "inline":
            return InlineTransport(executor)
        if self.transport == "pool":
            return LocalPoolTransport(max_workers=self.max_workers,
                                      cache_dir=str(self.cache_dir))
        assert not isinstance(self.transport, str)
        return self.transport

    def _execute_pending(
        self,
        pending_plans: List["_CampaignPlan"],
        executor: ShardExecutor,
        outcomes: List[Optional[CampaignOutcome]],
        store: Optional[ResultStore],
        progress: Optional[ProgressCallback],
        done_units: int,
        total_units: int,
        obs_ctx: Optional[Any],
    ) -> None:
        """Run every pending shard exactly once via the coordinator."""
        tasks: List[ShardTask] = []
        lookup: Dict[str, Tuple[_CampaignPlan, FaultShard]] = {}
        for plan in pending_plans:
            plan.started = time.perf_counter()
            spec_dict = plan.spec.to_dict()
            warm_key = golden_cache_key(plan.spec, self.checkpoint_interval)
            for shard in plan.pending.values():
                task = ShardTask(
                    task_id=f"{plan.index}:{shard.shard_id()}",
                    spec=spec_dict,
                    shard=shard.to_dict(),
                    checkpoint_interval=self.checkpoint_interval,
                    obs_enabled=obs_ctx is not None,
                    warm_key=warm_key,
                )
                tasks.append(task)
                lookup[task.task_id] = (plan, shard)

        # Shards complete in nondeterministic order; worker obs payloads
        # are buffered by (campaign, shard) index and absorbed sorted
        # after the coordinator drains, so the merged trace is stable.
        obs_payloads: Dict[Tuple[int, int], Dict[str, Any]] = {}
        state = {"done": done_units}

        def on_result(task: ShardTask, payload: Dict[str, Any]) -> None:
            plan, shard = lookup[task.task_id]
            worker_obs = payload.get("obs")
            if obs_ctx is not None and worker_obs is not None:
                obs_payloads[(plan.index, shard.index)] = worker_obs
            self._absorb(plan, shard, payload)
            state["done"] += 1
            if progress is not None:
                progress(state["done"], total_units)
            if not plan.pending:
                outcomes[plan.index] = self._finish(plan, store, executor)

        def validate(task: ShardTask,
                     payload: Dict[str, Any]) -> Optional[str]:
            return validate_shard_payload(lookup[task.task_id][1], payload)

        def describe(task: ShardTask) -> str:
            plan, shard = lookup[task.task_id]
            return f"campaign {plan.spec.describe()} {shard.describe()}"

        coordinator = Coordinator(
            self._open_transport(executor), describe=describe,
            lease_timeout=self.lease_timeout,
            poll_interval=self.poll_interval,
            max_attempts=self.max_attempts,
        )
        coordinator.run(tasks, on_result, validate=validate)

        for theirs, ours in (
            ("steals", "shard_steals"),
            ("heartbeat_misses", "heartbeat_misses"),
            ("duplicates", "duplicate_results"),
            ("torn_results", "torn_results"),
            ("retries", "transport_retries"),
            ("hosts_lost", "hosts_lost"),
            ("warms", "host_warms"),
        ):
            self.stats[ours] += coordinator.stats.get(theirs, 0)
        if obs_ctx is not None:
            for key in sorted(obs_payloads):
                obs_ctx.absorb_payload(obs_payloads[key])

    # ------------------------------------------------------------------
    @staticmethod
    def _grouping(spec: CampaignSpec, golden: GoldenRecord,
                  fault_list: FaultList) -> Optional[GroupedFaults]:
        """MeRLiN's fault grouping for ``spec``, ``None`` without MeRLiN."""
        if not spec.runs_merlin:
            return None
        if golden.tracer is None:
            raise ValueError(
                f"campaign {spec.run_id()}: merlin needs a traced golden run"
            )
        return group_faults(
            fault_list, build_interval_set(golden.tracer, spec.structure))

    def _plan(self, index: int, spec: CampaignSpec,
              executor: ShardExecutor) -> _CampaignPlan:
        """Cut one spec's injection targets into shards and open its journal."""
        session = executor.session(spec, self.checkpoint_interval)
        golden = session.golden(spec)
        fault_list = session.fault_list(spec)
        grouped = self._grouping(spec, golden, fault_list)
        if spec.runs_comprehensive:
            targets = list(fault_list)
        else:
            targets = [
                group.representative for group in grouped.groups
                if group.representative is not None
            ]
        shards = shard_faults(
            spec.run_id(), targets, golden.checkpoints, self.shard_size
        )

        journal = self._journal_for(spec, shards)

        plan = _CampaignPlan(index=index, spec=spec, fault_list=fault_list,
                             shards=shards, journal=journal)
        for shard in shards:
            journaled = journal.completed.get(shard.shard_id())
            if journaled is not None:
                plan.outcomes.update(journaled)
            else:
                plan.pending[shard.shard_id()] = shard
        return plan

    def _journal_for(self, spec: CampaignSpec,
                     shards: List[FaultShard]) -> RunJournal:
        """Open (preserving a killed run's shards) or start this run's journal.

        An *unmerged* journal whose plan matches is a killed run: its
        completed shards are reused even without ``resume=True`` — shard
        outcomes are deterministic, so reuse changes nothing but wall
        clock, and truncating it would destroy exactly the work the
        journal exists to protect.  A *merged* journal is a finished
        campaign: re-running the spec (past the store) is an explicit
        request to re-execute, so a fresh journal is started.  With
        ``resume=True`` the journal must exist and match the plan — a
        mismatch (different knobs) or a missing journal raises instead of
        silently starting over.
        """
        existing: Optional[RunJournal] = None
        if RunJournal.exists(self.journal_dir, spec.run_id()):
            try:
                existing = RunJournal.load(self.journal_dir, spec.run_id())
                existing.validate_plan(spec, shards)
            except JournalError:
                if self.resume:
                    raise
                existing = None  # unreadable or foreign plan: start over
        elif self.resume:
            raise JournalError(
                f"no journal for run {spec.run_id()!r} under "
                f"{self.journal_dir}; nothing to resume"
            )
        if existing is not None and (self.resume or not existing.merged):
            return existing
        return RunJournal.create(
            self.journal_dir, spec, shards,
            shard_size=self.shard_size,
            checkpoint_interval=self.checkpoint_interval,
        )

    def _absorb(self, plan: _CampaignPlan, shard: FaultShard,
                payload: Dict[str, Any]) -> None:
        """Journal and accumulate one completed shard's outcomes."""
        outcomes: ShardOutcomes = {
            int(fault_id): (effect, cycles)
            for fault_id, (effect, cycles) in payload["outcomes"].items()
        }
        cache_hit = bool(payload.get("golden_cache_hit"))
        plan.journal.record_shard(shard, outcomes, golden_cache_hit=cache_hit)
        plan.outcomes.update(outcomes)
        del plan.pending[shard.shard_id()]
        self.stats["shards_executed"] += 1
        key = "worker_cache_hits" if cache_hit else "worker_cache_misses"
        self.stats[key] += 1

    def _finish(self, plan: _CampaignPlan, store: Optional[ResultStore],
                executor: ShardExecutor) -> CampaignOutcome:
        """Merge a completed campaign, persist it, and close its journal."""
        elapsed = time.perf_counter() - plan.started if plan.started else 0.0
        with obs.span("merge", run_id=plan.spec.run_id()):
            golden, _ = executor.golden(plan.spec, self.checkpoint_interval)
            outcome = merge_shard_outcomes(
                plan.spec,
                golden,
                structure_geometry(plan.spec.structure, plan.spec.config),
                plan.fault_list,
                self._grouping(plan.spec, golden, plan.fault_list),
                plan.outcomes,
                wall_clock_seconds=elapsed,
            )
        if store is not None:
            store.save(outcome)
        plan.journal.record_merged({
            "shards": len(plan.shards),
            "wall_clock_seconds": round(elapsed, 3),
        })
        obs_ctx = obs.active()
        if obs_ctx is not None:
            obs_ctx.campaign_done()
        return outcome
