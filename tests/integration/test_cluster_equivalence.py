"""Differential harness: sharded execution must be bit-identical to cold.

Extends the checkpoint differential harness one level up: a campaign
sharded across worker processes — any worker count, any shard size, cold
or warm artifact cache, fresh or resumed after a simulated kill — must
merge into a :class:`~repro.api.result.CampaignOutcome` whose
classification fingerprint (everything except wall-clock timings) equals
a cold :meth:`Session.run <repro.api.session.Session.run>`'s, for
comprehensive, MeRLiN and combined campaigns alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.api import CampaignSpec, ResultStore, Session
from repro.cluster import ClusterEngine, journal_path
from repro.cluster.transport import FakeTransport
from repro.testing import small_config
from repro.uarch.structures import TargetStructure

SMALL = small_config()


@dataclass(frozen=True)
class Combo:
    label: str
    method: str
    structure: TargetStructure
    workload: str
    scale: int
    faults: int
    seed: int
    workers: int
    shard_size: int


COMBOS = [
    Combo("comprehensive-RF-w2-s7", "comprehensive", TargetStructure.RF,
          "sha", 1, 60, 0, 2, 7),
    Combo("merlin-RF-w3-s5", "merlin", TargetStructure.RF,
          "sha", 1, 80, 1, 3, 5),
    Combo("both-RF-w2-s16", "both", TargetStructure.RF,
          "sha", 1, 50, 2, 2, 16),
    Combo("comprehensive-SQ-w2-s9", "comprehensive", TargetStructure.SQ,
          "qsort", 1, 50, 3, 2, 9),
    Combo("merlin-L1D-w2-s11", "merlin", TargetStructure.L1D,
          "stringsearch", 1, 60, 4, 2, 11),
]


def spec_of(combo: Combo) -> CampaignSpec:
    return CampaignSpec(
        workload=combo.workload, structure=combo.structure, config=SMALL,
        scale=combo.scale, faults=combo.faults, seed=combo.seed,
        method=combo.method,
    )


@pytest.fixture(scope="module")
def serial_outcomes():
    """One cold reference run per combo (goldens shared via the session)."""
    session = Session()
    outcomes = [session.run(spec_of(combo)) for combo in COMBOS]
    return {combo.label: outcome for combo, outcome in zip(COMBOS, outcomes)}


@pytest.mark.parametrize("combo", COMBOS, ids=lambda combo: combo.label)
def test_cluster_matches_serial_cold_and_warm(combo, serial_outcomes, tmp_path):
    spec = spec_of(combo)
    reference = serial_outcomes[combo.label].classification_fingerprint()

    engine = ClusterEngine(max_workers=combo.workers,
                           shard_size=combo.shard_size,
                           cache_dir=tmp_path / "cache")
    cold = engine.run([spec])[0]
    assert cold.classification_fingerprint() == reference
    assert engine.stats["golden_builds"] >= 1

    warm = engine.run([spec])[0]
    assert warm.classification_fingerprint() == reference
    assert engine.stats["golden_builds"] == 0, "warm cache must not rebuild"


def test_resumed_run_is_bit_identical(tmp_path):
    """Kill simulation: drop shards from the journal, resume, compare."""
    combo = COMBOS[0]
    spec = spec_of(combo)
    store = ResultStore(tmp_path / "store")
    cache = tmp_path / "cache"
    engine = ClusterEngine(max_workers=2, shard_size=5, cache_dir=cache)
    reference = engine.run([spec], store=store)[0].classification_fingerprint()
    assert engine.stats["shards_total"] >= 4

    # A killed run: the stored outcome never landed and the journal holds
    # only some shards, the last one torn mid-append.
    store.delete(spec.run_id())
    path = journal_path(engine.journal_dir, spec.run_id())
    lines = [line for line in path.read_text().splitlines(True)
             if json.loads(line).get("kind") != "merged"]
    survivors = lines[:1] + lines[1:3]
    path.write_text("".join(survivors) + '{"kind":"shard","shard_id":"to')

    resumed = ClusterEngine(max_workers=2, shard_size=5, cache_dir=cache,
                            resume=True)
    outcome = resumed.run([spec], store=store)[0]
    assert outcome.classification_fingerprint() == reference
    assert resumed.stats["shards_reused"] == 2
    assert resumed.stats["shards_executed"] == resumed.stats["shards_total"] - 2
    assert store.get(spec.run_id()).classification_fingerprint() == reference


def test_sweep_through_cluster_matches_serial(tmp_path):
    """Shards of several campaigns interleave in one pool, bit-identically."""
    specs = [
        spec_of(COMBOS[0]).replace(seed=7),
        spec_of(COMBOS[0]).replace(structure=TargetStructure.SQ, seed=8),
    ]
    session = Session()
    serial = [session.run(spec) for spec in specs]
    engine = ClusterEngine(max_workers=2, shard_size=8,
                           cache_dir=tmp_path / "cache")
    clustered = engine.run(specs, store=ResultStore(tmp_path / "store"))
    assert len(clustered) == len(serial)
    for left, right in zip(serial, clustered):
        assert left.classification_fingerprint() == right.classification_fingerprint()
    # Both campaigns share one workload/config identity: one golden build.
    assert engine.stats["golden_builds"] == 1


# ----------------------------------------------------------------------
# Remote transport differential: same fingerprints through the
# coordinator/lease/steal path, chaos included.
# ----------------------------------------------------------------------
def remote_engine(tmp_path, combo, schedule=(), workers=3, **kwargs):
    return ClusterEngine(
        transport=FakeTransport(workers=workers, schedule=list(schedule),
                                cache_dir=str(tmp_path / "cache")),
        shard_size=combo.shard_size, cache_dir=tmp_path / "cache",
        lease_timeout=4.0, **kwargs,
    )


def journaled_shard_ids(engine, spec):
    path = journal_path(engine.journal_dir, spec.run_id())
    return [json.loads(line)["shard_id"]
            for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "shard"]


@pytest.mark.parametrize("combo", COMBOS[:2], ids=lambda combo: combo.label)
def test_remote_matches_serial_cold_and_warm(combo, serial_outcomes, tmp_path):
    spec = spec_of(combo)
    reference = serial_outcomes[combo.label].classification_fingerprint()

    engine = remote_engine(tmp_path, combo)
    cold = engine.run([spec])[0]
    assert cold.classification_fingerprint() == reference
    assert engine.stats["golden_builds"] >= 1
    assert engine.stats["host_warms"] >= 1, "hosts must warm their caches"

    warm = remote_engine(tmp_path, combo)
    assert warm.run([spec])[0].classification_fingerprint() == reference
    assert warm.stats["golden_builds"] == 0, "warm cache must not rebuild"


def test_remote_survives_host_deaths_bit_identically(serial_outcomes, tmp_path):
    """Kill/steal mid-run: >= 2 injected host deaths, identical merge, and
    every shard exactly once in the journal."""
    combo = COMBOS[0]
    spec = spec_of(combo)
    reference = serial_outcomes[combo.label].classification_fingerprint()

    engine = remote_engine(
        tmp_path, combo,
        schedule=["die", "run", "die", "slow:3", "torn", "duplicate", "fail"],
    )
    outcome = engine.run([spec])[0]
    assert outcome.classification_fingerprint() == reference
    assert engine.stats["hosts_lost"] == 2
    assert engine.stats["shard_steals"] >= 2
    assert engine.stats["torn_results"] == 1
    assert engine.stats["duplicate_results"] == 1
    assert engine.stats["transport_retries"] >= 1

    shard_ids = journaled_shard_ids(engine, spec)
    assert len(shard_ids) == engine.stats["shards_total"]
    assert len(shard_ids) == len(set(shard_ids)), (
        "a stolen or duplicated shard must never be journaled twice")


def test_remote_seeded_chaos_campaign_matches_serial(serial_outcomes, tmp_path):
    combo = COMBOS[1]
    spec = spec_of(combo)
    schedule = FakeTransport.seeded_schedule(1234, 24)
    engine = remote_engine(tmp_path, combo, schedule=schedule, workers=4)
    outcome = engine.run([spec])[0]
    assert (outcome.classification_fingerprint()
            == serial_outcomes[combo.label].classification_fingerprint())
    shard_ids = journaled_shard_ids(engine, spec)
    assert len(shard_ids) == len(set(shard_ids)) == engine.stats["shards_total"]


def test_remote_resumes_torn_journal_bit_identically(tmp_path):
    """The remote engine resumes a killed run's torn journal exactly like
    the local cluster engine: journaled shards are never re-executed."""
    combo = COMBOS[0]
    spec = spec_of(combo)
    store = ResultStore(tmp_path / "store")
    engine = remote_engine(tmp_path, combo)
    reference = engine.run([spec], store=store)[0].classification_fingerprint()

    store.delete(spec.run_id())
    path = journal_path(engine.journal_dir, spec.run_id())
    lines = [line for line in path.read_text().splitlines(True)
             if json.loads(line).get("kind") != "merged"]
    survivors = lines[:1] + lines[1:3]
    path.write_text("".join(survivors) + '{"kind":"shard","shard_id":"to')

    resumed = remote_engine(tmp_path, combo, schedule=["die"], resume=True)
    outcome = resumed.run([spec], store=store)[0]
    assert outcome.classification_fingerprint() == reference
    assert resumed.stats["shards_reused"] == 2
    assert resumed.stats["shards_executed"] == resumed.stats["shards_total"] - 2
    assert store.get(spec.run_id()).classification_fingerprint() == reference


@pytest.mark.parametrize("model,params", [
    ("multi-bit", {"width": 2}),
    ("intermittent", {}),
    ("stuck-at-0", {}),
    ("stuck-at-1", {}),
], ids=lambda value: value if isinstance(value, str) else "")
def test_remote_chaos_matches_serial_across_fault_models(
        model, params, tmp_path):
    spec = CampaignSpec(
        workload="sha", structure=TargetStructure.RF, config=SMALL, scale=1,
        faults=30, seed=11, method="comprehensive",
        fault_model=model, model_params=params,
    )
    reference = Session().run(spec).classification_fingerprint()
    engine = ClusterEngine(
        transport=FakeTransport(workers=3, schedule=["die", "torn", "die"],
                                cache_dir=str(tmp_path / "cache")),
        shard_size=6, cache_dir=tmp_path / "cache", lease_timeout=4.0,
    )
    outcome = engine.run([spec])[0]
    assert outcome.classification_fingerprint() == reference
    assert engine.stats["hosts_lost"] == 2
    shard_ids = journaled_shard_ids(engine, spec)
    assert len(shard_ids) == len(set(shard_ids)) == engine.stats["shards_total"]


def test_error_margin_derived_fault_list_matches(tmp_path):
    """faults=None (Leveugle-derived size) flows through sharding unchanged."""
    spec = CampaignSpec(
        workload="sha", structure=TargetStructure.RF, config=SMALL, scale=1,
        faults=None, error_margin=0.2, confidence=0.9, seed=5,
        method="comprehensive",
    )
    serial = Session().run(spec)
    engine = ClusterEngine(max_workers=2, shard_size=6,
                           cache_dir=tmp_path / "cache")
    outcome = engine.run([spec])[0]
    assert outcome.classification_fingerprint() == serial.classification_fingerprint()
