"""The progress(done, total) contract, asserted uniformly for every alias.

Every engine alias reports in shards and promises: ``done`` is monotonic, never exceeds ``total``,
``total`` never shrinks, and the final report says the work completed.
:class:`repro.testing.ProgressRecorder` is the shared assertion harness.
"""

import json

import pytest

from repro.api import CampaignSpec, Session, make_engine
from repro.cluster import journal_path
from repro.testing import ProgressRecorder, small_config
from repro.uarch.structures import TargetStructure


def tiny_spec(**overrides):
    payload = dict(workload="sha", structure=TargetStructure.RF,
                   config=small_config(), scale=1, faults=20, seed=0,
                   method="comprehensive")
    payload.update(overrides)
    return CampaignSpec(**payload)


#: Every alias except remote (which needs agent hosts; it shares the
#: coordinator loop these exercise).
ALIASES = ["serial", "checkpoint", "process", "cluster"]


@pytest.mark.parametrize("alias", ALIASES)
def test_every_alias_reports_complete_monotonic_progress_in_shards(
        alias, tmp_path):
    specs = [tiny_spec(seed=21), tiny_spec(seed=22)]
    recorder = ProgressRecorder()
    engine = make_engine(alias, shard_size=5, cache_dir=str(tmp_path / "cache"))
    engine.run(specs, progress=recorder)
    shards = engine.stats["shards_total"]
    assert shards > len(specs)
    assert recorder.calls[0] == (0, shards), (
        "a fresh run must seed progress at 0/N, not jump in mid-count"
    )
    recorder.assert_contract(expect_total=shards)


@pytest.mark.parametrize("alias", ALIASES)
def test_resume_seeds_progress_with_journaled_shards(alias, tmp_path):
    spec = tiny_spec(seed=24)
    cache = str(tmp_path / "cache")
    first = make_engine(alias, shard_size=5, cache_dir=cache)
    first.run([spec])
    shards = first.stats["shards_total"]

    # Fake a kill: no merged marker, one shard missing from the journal.
    path = journal_path(first.journal_dir, spec.run_id())
    lines = [line for line in path.read_text().splitlines(True)
             if json.loads(line).get("kind") != "merged"]
    path.write_text("".join(lines[:-1]))

    recorder = ProgressRecorder()
    rerun = make_engine(alias, shard_size=5, cache_dir=cache, resume=True)
    rerun.run([spec], progress=recorder)
    assert recorder.calls[0] == (shards - 1, shards), (
        "a resumed run's first report must already count the journaled shards"
    )
    recorder.assert_contract(expect_total=shards)


@pytest.mark.parametrize("alias", ALIASES)
def test_store_satisfied_batch_still_reports_completion(alias, tmp_path):
    from repro.api import ResultStore

    spec = tiny_spec(seed=25)
    store = ResultStore(tmp_path / "store")
    cache = str(tmp_path / "cache")
    make_engine(alias, shard_size=5, cache_dir=cache).run([spec], store=store)

    recorder = ProgressRecorder()
    make_engine(alias, shard_size=5, cache_dir=cache).run(
        [spec], store=store, progress=recorder)
    # One work unit: the campaign reloaded from the store.
    recorder.assert_contract(expect_total=1)


def test_both_method_progress_stays_monotonic_across_campaign_halves():
    """With method='both' the comprehensive half's counts continue from the
    MeRLiN half's instead of restarting at zero."""
    spec = tiny_spec(seed=26, method="both")
    recorder = ProgressRecorder()
    Session().run(spec, progress=recorder)
    recorder.assert_contract()
    # Both halves actually reported: the total must have grown mid-run
    # when the comprehensive half extended the MeRLiN half's plan.
    totals = sorted({total for _, total in recorder.calls})
    assert len(totals) >= 2, "expected the total to grow when the second " \
                             "campaign half started"
