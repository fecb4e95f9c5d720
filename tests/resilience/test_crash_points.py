"""Crash-point harness: crash at every registered point, reopen, resume.

For every crash point registered by the persistence layer, a campaign is
run under a :class:`FaultFs` armed to crash there.  :meth:`FaultFs.reopen`
then rolls the disk back to what a real ``kill -9`` could have left
(unfsynced bytes truncated, un-dirsynced renames undone), and a fresh
engine on the real filesystem re-runs the campaign.  The recovered
outcome — and the stored one — must be bit-identical (classification
fingerprint) to an undisturbed cold ``Session().run``.

Every local engine alias crosses the full matrix: the inline aliases
(serial, checkpoint) and the pool aliases (process, cluster) all write
the same artifact cache, journal and store.  The remote coordinator path
is crossed over :class:`FakeTransport` at representative points.
"""

from __future__ import annotations

import pytest

import repro.api.store  # noqa: F401  (registers store.save.* crash points)
import repro.cluster.artifacts  # noqa: F401  (cache.store.*)
import repro.cluster.journal  # noqa: F401  (journal.append.*)
from repro.api import CampaignSpec, ResultStore, Session
from repro.api.engine import make_engine
from repro.cluster import ClusterEngine
from repro.cluster.transport import FakeTransport
from repro.resilience import FaultFs, SimulatedCrash, crash_points, use_fs
from repro.testing import small_config
from repro.uarch.structures import TargetStructure

SMALL = small_config()

ALL_POINTS = (
    "store.save.pre_replace",
    "store.save.post_replace",
    "cache.store.pre_replace",
    "cache.store.post_replace",
    "journal.append.pre_write",
    "journal.append.pre_fsync",
    "journal.append.post_fsync",
)

#: (point, hit): every point on its first hit, and the journal points
#: again mid-campaign (the 3rd append is the 2nd shard record).
CRASH_MATRIX = [(point, 1) for point in ALL_POINTS] + [
    ("journal.append.pre_write", 3),
    ("journal.append.pre_fsync", 3),
    ("journal.append.post_fsync", 3),
]


def spec() -> CampaignSpec:
    return CampaignSpec(
        workload="sha", structure=TargetStructure.RF, config=SMALL,
        scale=1, faults=40, seed=0, method="comprehensive",
    )


@pytest.fixture(scope="module")
def reference():
    return Session().run(spec()).classification_fingerprint()


def test_registry_matches_harness_matrix():
    """New crash points must be added to this harness to ship."""
    assert sorted(crash_points()) == sorted(ALL_POINTS)


def crash_then_recover(tmp_path, make, point, hit, reference):
    """Run ``make()`` under an armed FaultFs, crash, reopen, re-run clean."""
    fs = FaultFs(crash_at=point, crash_on_hit=hit)
    with use_fs(fs):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(SimulatedCrash) as crash:
            make().run([spec()], store=store)
    assert crash.value.point == point
    assert fs.crash_hits[point] == hit
    fs.reopen()  # the kill: unfsynced bytes and un-dirsynced renames gone

    recovery_store = ResultStore(tmp_path / "store")
    outcome = make().run([spec()], store=recovery_store)[0]
    assert outcome.classification_fingerprint() == reference
    stored = recovery_store.get(spec().run_id())
    assert stored.classification_fingerprint() == reference
    return outcome


#: Every local alias: two inline, two pool.
ALIASES = ["serial", "checkpoint", "process", "cluster"]


def local_engine(alias, cache_dir):
    workers = {"max_workers": 2} if alias in ("process", "cluster") else {}
    return make_engine(alias, shard_size=5, cache_dir=str(cache_dir), **workers)


# ----------------------------------------------------------------------
# Every local alias: the full matrix.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("point,hit", CRASH_MATRIX,
                         ids=[f"{p}@{h}" for p, h in CRASH_MATRIX])
@pytest.mark.parametrize("alias", ALIASES)
def test_every_alias_recovers_from_every_crash_point(
        alias, point, hit, reference, tmp_path):
    def make():
        return local_engine(alias, tmp_path / "cache")

    crash_then_recover(tmp_path, make, point, hit, reference)


@pytest.mark.parametrize("alias", ["serial", "cluster"])
def test_recovery_reuses_durably_journaled_shards(alias, reference, tmp_path):
    """A mid-campaign journal crash must not re-execute journaled shards."""
    fs = FaultFs(crash_at="journal.append.pre_write", crash_on_hit=4)
    with use_fs(fs):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(SimulatedCrash):
            local_engine(alias, tmp_path / "cache").run([spec()], store=store)
    fs.reopen()
    recovered = local_engine(alias, tmp_path / "cache")
    recovery_store = ResultStore(tmp_path / "store")
    outcome = recovered.run([spec()], store=recovery_store)[0]
    assert outcome.classification_fingerprint() == reference
    # Hits 1-3 were the header and two shard appends, all fsynced whole.
    assert recovered.stats["shards_reused"] == 2
    assert recovered.stats["shards_executed"] == (
        recovered.stats["shards_total"] - 2)


# ----------------------------------------------------------------------
# Remote coordinator path (FakeTransport): representative points on the
# coordinator's persistence path.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("point,hit", [
    ("store.save.pre_replace", 1),
    ("store.save.post_replace", 1),
    ("journal.append.pre_fsync", 3),
], ids=lambda value: f"{value}" if isinstance(value, str) else "")
def test_remote_engine_recovers_via_fake_transport(
        point, hit, reference, tmp_path):
    def make():
        return ClusterEngine(
            transport=FakeTransport(workers=3, schedule=[],
                                    cache_dir=str(tmp_path / "cache")),
            shard_size=5, cache_dir=tmp_path / "cache", lease_timeout=4.0,
        )

    crash_then_recover(tmp_path, make, point, hit, reference)
