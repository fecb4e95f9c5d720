"""Coordinator semantics under injected chaos, and remote-engine wiring.

Every scenario drives the real :class:`~repro.cluster.remote.Coordinator`
over a :class:`~repro.cluster.transport.FakeTransport` with a synthetic
(instant) executor, so the lease/steal/retry logic is tested at unit
speed; the integration suite replays the same chaos against real shard
execution.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api.engine import ENGINES, make_engine
from repro.api import CampaignSpec
from repro.cluster import ClusterEngine
from repro.cluster.remote import (
    Coordinator,
    parse_hosts,
    validate_shard_payload,
)
from repro.cluster.shards import FaultShard
from repro.cluster.transport import FakeTransport, ShardTask, TcpAgentTransport
from repro.testing import small_config
from repro.uarch.structures import TargetStructure


def make_world(count: int):
    """``count`` synthetic single-fault shards plus their task lookup."""
    tasks, lookup = [], {}
    for index in range(count):
        shard = FaultShard("runX", index, "RF", ((index, 0, 0, 5),))
        task = ShardTask(
            task_id=f"0:{shard.shard_id()}",
            spec={}, shard=shard.to_dict(),
            checkpoint_interval=None, obs_enabled=False,
            warm_key="golden-key",
        )
        tasks.append(task)
        lookup[task.task_id] = shard
    return tasks, lookup


def synthetic_executor(task: ShardTask) -> dict:
    shard = FaultShard.from_dict(task.shard)
    return {
        "shard_id": shard.shard_id(),
        "golden_cache_hit": True,
        "outcomes": {str(fault_id): ["Masked", 100 + fault_id]
                     for fault_id in shard.fault_ids},
        "obs": None,
    }


def run_chaos(count: int, workers: int, schedule, *,
              lease_timeout: float = 3.0, max_attempts: int = 5,
              protect_last_host: bool = True):
    tasks, lookup = make_world(count)
    transport = FakeTransport(workers=workers, schedule=schedule,
                              executor=synthetic_executor,
                              protect_last_host=protect_last_host)
    sleeps: list = []
    coordinator = Coordinator(
        transport, lease_timeout=lease_timeout, poll_interval=0.0,
        max_attempts=max_attempts, sleep=sleeps.append,
        describe=lambda task: f"task {task.task_id}",
    )
    delivered: list = []
    coordinator.run(
        tasks,
        lambda task, payload: delivered.append((task.task_id, payload)),
        validate=lambda task, payload: validate_shard_payload(
            lookup[task.task_id], payload),
    )
    return coordinator, delivered, sleeps, tasks


def test_clean_run_completes_everything_exactly_once():
    coordinator, delivered, sleeps, tasks = run_chaos(6, 3, [])
    assert sorted(tid for tid, _ in delivered) == sorted(
        task.task_id for task in tasks)
    assert coordinator.stats["completed"] == 6
    assert coordinator.stats["steals"] == 0
    assert coordinator.stats["hosts_lost"] == 0
    assert coordinator.stats["duplicates"] == 0
    assert sleeps == []


def test_host_death_mid_shard_steals_the_lease():
    coordinator, delivered, _, tasks = run_chaos(4, 3, ["die"])
    assert sorted(tid for tid, _ in delivered) == sorted(
        task.task_id for task in tasks)
    assert coordinator.stats["hosts_lost"] == 1
    assert coordinator.stats["steals"] == 1
    # The lost shard was re-executed elsewhere, not dropped.
    assert coordinator.stats["completed"] == 4


def test_silent_host_misses_heartbeat_and_late_result_is_dropped():
    # Host 0 goes silent for 8 ticks (lease expires at 3); host 1 is
    # merely slow and must NOT be stolen from; the stale delivery at
    # tick 8 arrives after the steal completed the shard elsewhere.
    coordinator, delivered, _, tasks = run_chaos(
        3, 3, ["late:8", "slow:12", "run"])
    assert sorted(tid for tid, _ in delivered) == sorted(
        task.task_id for task in tasks)
    assert coordinator.stats["heartbeat_misses"] == 1
    assert coordinator.stats["steals"] == 1
    assert coordinator.stats["duplicates"] == 1
    assert coordinator.stats["completed"] == 3


def test_torn_result_is_requeued_not_journaled():
    coordinator, delivered, _, _ = run_chaos(1, 1, ["torn"])
    assert coordinator.stats["torn_results"] == 1
    assert coordinator.stats["completed"] == 1
    # Only the intact payload reached on_result.
    [(task_id, payload)] = delivered
    assert len(payload["outcomes"]) == 1


def test_duplicate_delivery_is_counted_and_dropped():
    coordinator, delivered, _, _ = run_chaos(2, 2, ["duplicate"])
    assert coordinator.stats["duplicates"] == 1
    assert len(delivered) == 2


def test_transient_failure_retries_with_backoff():
    coordinator, delivered, sleeps, _ = run_chaos(1, 1, ["fail", "fail"])
    assert coordinator.stats["retries"] == 2
    assert coordinator.stats["completed"] == 1
    assert len(sleeps) == 2
    assert sleeps[1] > sleeps[0], "backoff must grow"


def test_shard_gives_up_after_max_attempts():
    with pytest.raises(RuntimeError, match="failed 3 times, giving up"):
        run_chaos(1, 1, ["fail"] * 10, max_attempts=3)


def test_fatal_worker_failure_aborts_the_run():
    with pytest.raises(RuntimeError, match="failed in a worker"):
        run_chaos(2, 2, ["fatal"])


def test_all_hosts_lost_raises_with_resume_hint():
    with pytest.raises(RuntimeError, match="all 2 hosts lost"):
        run_chaos(4, 2, ["die", "die"], protect_last_host=False)


def test_hosts_are_warmed_once_per_golden_identity():
    tasks, lookup = make_world(8)
    transport = FakeTransport(workers=2, executor=synthetic_executor)
    coordinator = Coordinator(transport, poll_interval=0.0,
                              sleep=lambda _seconds: None)
    coordinator.run(tasks, lambda task, payload: None)
    # 8 shards share one warm key: each host warms at most once.
    assert len(transport.warms) == len(set(transport.warms))
    assert {key for _, key in transport.warms} == {"golden-key"}
    assert coordinator.stats["warms"] == len(transport.warms)


def test_coordinator_reports_chaos_to_obs():
    with obs.observe() as ctx:
        run_chaos(3, 3, ["late:8", "duplicate", "die"])
        totals = {
            name: ctx.registry.total(name)
            for name in (
                "repro_remote_shard_steals_total",
                "repro_remote_heartbeat_misses_total",
                "repro_remote_duplicate_results_total",
                "repro_remote_hosts_lost_total",
                "repro_remote_host_shards_total",
            )
        }
    assert totals["repro_remote_shard_steals_total"] >= 1
    assert totals["repro_remote_heartbeat_misses_total"] >= 1
    assert totals["repro_remote_duplicate_results_total"] >= 1
    assert totals["repro_remote_hosts_lost_total"] >= 1
    assert totals["repro_remote_host_shards_total"] == 3
    assert ctx.registry.value("repro_pool_queue_depth") == 0.0


def test_rejects_duplicate_task_ids():
    tasks, _ = make_world(1)
    transport = FakeTransport(workers=1, executor=synthetic_executor)
    coordinator = Coordinator(transport)
    with pytest.raises(ValueError, match="duplicate task ids"):
        coordinator.run(tasks + tasks, lambda task, payload: None)


def test_coordinator_validates_max_attempts():
    transport = FakeTransport(workers=1, executor=synthetic_executor)
    with pytest.raises(ValueError, match="max_attempts"):
        Coordinator(transport, max_attempts=0)


# ----------------------------------------------------------------------
# Payload validation
# ----------------------------------------------------------------------
def test_validate_shard_payload_catalogue():
    shard = FaultShard("runX", 0, "RF", ((1, 0, 0, 5), (2, 0, 1, 9)))
    good = {"shard_id": shard.shard_id(), "golden_cache_hit": True,
            "outcomes": {"1": ["Masked", 10], "2": ["SDC", 11]}}
    assert validate_shard_payload(shard, good) is None
    assert "mapping" in validate_shard_payload(shard, None)
    assert "claims shard" in validate_shard_payload(
        shard, {**good, "shard_id": "somebody-else"})
    assert "no outcomes" in validate_shard_payload(
        shard, {"shard_id": shard.shard_id()})
    assert "torn" in validate_shard_payload(
        shard, {**good, "outcomes": {"1": ["Masked", 10]}})
    assert "torn" in validate_shard_payload(
        shard, {**good, "outcomes": {**good["outcomes"],
                                     "3": ["Masked", 12]}})
    assert "non-integer" in validate_shard_payload(
        shard, {**good, "outcomes": {"one": ["Masked", 10]}})
    assert "malformed" in validate_shard_payload(
        shard, {**good, "outcomes": {"1": ["Masked", 10], "2": "SDC"}})


# ----------------------------------------------------------------------
# Engine construction and CLI wiring
# ----------------------------------------------------------------------
def test_remote_is_a_registered_engine():
    assert "remote" in ENGINES
    engine = make_engine("remote", hosts="127.0.0.1:7651")
    assert isinstance(engine, ClusterEngine)
    assert isinstance(engine.transport, TcpAgentTransport)
    assert engine.transport.hosts == ["127.0.0.1:7651"]


def test_remote_engine_requires_hosts_or_transport():
    with pytest.raises(ValueError, match="--hosts"):
        make_engine("remote")
    transport = FakeTransport(workers=1, executor=synthetic_executor)
    assert ClusterEngine(transport=transport).transport is transport
    with pytest.raises(ValueError, match="unknown transport"):
        ClusterEngine(transport="carrier-pigeon")


def test_make_engine_rejects_misplaced_flags():
    with pytest.raises(ValueError, match="hosts only applies"):
        make_engine("serial", hosts="127.0.0.1:7651")
    with pytest.raises(ValueError, match="workers only applies"):
        make_engine("remote", hosts="127.0.0.1:7651", max_workers=4)
    with pytest.raises(ValueError, match="workers only applies"):
        ClusterEngine(max_workers=2, transport=FakeTransport(
            workers=1, executor=synthetic_executor))
    with pytest.raises(ValueError):
        make_engine("remote")  # no hosts


def test_parse_hosts_formats():
    assert parse_hosts("10.0.0.5:7651, 10.0.0.6:7651,") == [
        "10.0.0.5:7651", "10.0.0.6:7651"]
    assert parse_hosts(["a:1", "b:2"]) == ["a:1", "b:2"]
    assert parse_hosts(None) == []
    with pytest.raises(ValueError, match="HOST:PORT"):
        parse_hosts("nocolon")
    with pytest.raises(ValueError, match="HOST:PORT"):
        parse_hosts("host:notaport")


def test_fake_transport_executes_with_the_cache_it_is_given(tmp_path):
    """The engine never reconfigures a transport it was handed: a fake
    given the coordinator's cache loads every golden from it."""
    cache = tmp_path / "cache"
    spec = CampaignSpec(workload="sha", structure=TargetStructure.RF,
                        config=small_config(), scale=1, faults=20, seed=4,
                        method="comprehensive")
    transport = FakeTransport(workers=2, cache_dir=str(cache))
    engine = ClusterEngine(transport=transport, shard_size=5, cache_dir=cache)
    engine.run([spec])
    shards = engine.stats["shards_executed"]
    assert shards == engine.stats["shards_total"] > 1
    assert engine.stats["worker_cache_misses"] == 0
    assert engine.stats["worker_cache_hits"] == shards


def test_fake_transport_needs_a_cache_or_an_executor():
    with pytest.raises(ValueError, match="cache_dir or an executor"):
        FakeTransport(workers=1)
