"""Concurrent writers on the persistence layer.

Two mechanisms, each documented where it is implemented:

* the **journal** serialises appends with ``fcntl.flock`` around the
  write+fsync, so records from concurrent processes interleave whole,
  never torn;
* the **store** (and the artifact cache) use write-then-replace: each
  writer builds a complete temp file and renames it over the target, so
  concurrent saves of the same run id race benignly — last rename wins
  and every intermediate state is a complete artifact.
"""

from __future__ import annotations

import json
import multiprocessing

from repro.api import CampaignSpec, ResultStore, Session
from repro.cluster.journal import RunJournal, journal_path
from repro.cluster.shards import FaultShard
from repro.testing import small_config
from repro.uarch.structures import TargetStructure

SMALL = small_config()

WRITERS = 4
APPENDS = 25


def spec() -> CampaignSpec:
    return CampaignSpec(
        workload="sha", structure=TargetStructure.RF, config=SMALL,
        scale=1, faults=10, seed=0, method="comprehensive",
    )


def _journal_writer(journal_dir, run_id, writer):
    journal = RunJournal.load(journal_dir, run_id)
    for seq in range(APPENDS):
        journal._append_record({
            "kind": "note", "writer": writer, "seq": seq,
            # Big enough that an unserialised append would tear.
            "payload": "x" * 512,
        })


def _store_writer(store_dir, outcome, saves):
    store = ResultStore(store_dir)
    for _ in range(saves):
        store.save(outcome)


def test_concurrent_journal_appends_interleave_whole(tmp_path):
    campaign_spec = spec()
    shard = FaultShard(campaign_run_id=campaign_spec.run_id(), index=0,
                       structure="RF",
                       faults=tuple((pos, 0, pos, pos) for pos in range(5)))
    RunJournal.create(tmp_path, campaign_spec, [shard], shard_size=5)

    context = multiprocessing.get_context("fork")
    processes = [
        context.Process(target=_journal_writer,
                        args=(tmp_path, campaign_spec.run_id(), writer))
        for writer in range(WRITERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
        assert process.exitcode == 0

    lines = journal_path(
        tmp_path, campaign_spec.run_id()).read_text().splitlines(True)
    assert all(line.endswith("\n") for line in lines), "no torn tail"
    records = [json.loads(line) for line in lines]  # every line parses whole
    notes = {(record["writer"], record["seq"])
             for record in records if record["kind"] == "note"}
    assert len(notes) == WRITERS * APPENDS, "every append landed exactly once"
    assert all(record["payload"] == "x" * 512
               for record in records if record["kind"] == "note"), (
        "no record lost bytes to an interleaved writer")


def test_concurrent_store_saves_race_benignly(tmp_path):
    outcome = Session().run(spec())
    reference = outcome.classification_fingerprint()
    store_dir = tmp_path / "store"
    ResultStore(store_dir)  # create the root before the race

    context = multiprocessing.get_context("fork")
    processes = [
        context.Process(target=_store_writer, args=(store_dir, outcome, 10))
        for _ in range(WRITERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
        assert process.exitcode == 0

    final = ResultStore(store_dir)
    loaded = final.load(outcome.run_id)  # raises StoreError if torn
    assert loaded.classification_fingerprint() == reference
    assert final.run_ids() == [outcome.run_id]
    # No failed-attempt temp files leak from the race.
    assert list(store_dir.glob(".tmp-*")) == []
