"""One batch of one workload, in a fresh interpreter (a single closed-loop client).

Run by ``run.py``; not meant to be started by hand.  The process times its
own phases on the system-wide monotonic clock (``time.perf_counter`` is
CLOCK_MONOTONIC on Linux), so the parent can measure from the moment it
spawned the process:

* ``setup``: ``repro`` is imported and the specs, store and session or
  engine exist, just before the first call into the session or engine;
* ``done``: the last outcome has been returned and stored.

Rusage is read at ``done``; fingerprints and per-layer metrics are computed
after it, and everything is written as JSON to ``--out``.

Modes: ``batch`` runs the workload; ``verify`` runs the cross-engine cells
through the *other* engine.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import ExitStack, nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import ledger
import plan


def _cells(definition: Dict[str, Any], all_names) -> List[Tuple[str, str]]:
    cells = []
    for workload, structure in definition["cells"]:
        names = all_names() if workload == "*" else [workload]
        cells.extend((name, structure) for name in names)
    return cells


class Client:
    """Runs one path (session, reduce or cluster) over a list of specs."""

    def __init__(self, api: Any, workdir: Path, recorder: Optional[Any]):
        self.api = api
        self.workdir = workdir
        self.workers = plan.CLUSTER_WORKERS
        self.recorder = recorder
        self.progress: List[float] = []
        self.cells: List[Dict[str, Any]] = []
        self.engine: Any = None

    def span(self, name: str, cell: str) -> Any:
        if self.recorder is None:
            return nullcontext()
        self.recorder.cell = cell
        return self.recorder.span(name, "api")

    # -- construction (setup) -------------------------------------------
    def prepare(self, path: str) -> None:
        api = self.api
        if path == "session":
            self.store = api.ResultStore(self.workdir / "store")
            self.session = api.Session(checkpointing=True, store=self.store)
        elif path == "reduce":
            self.session = api.Session()
        else:
            self.store = api.ResultStore(self.workdir / "store")
            self.engine = api.make_engine(
                "cluster", max_workers=self.workers,
                shard_size=plan.CLUSTER_SHARD_SIZE,
                cache_dir=str(self.workdir / "cache"))

    # -- the batch ------------------------------------------------------
    def run(self, path: str, specs: List[Any], names: List[str]) -> None:
        getattr(self, f"_run_{path}")(specs, names)

    def _run_session(self, specs: List[Any], names: List[str]) -> None:
        # Session.run's own steps, inlined so the live campaign result (the
        # per-fault classification) stays visible to the output check.
        for spec, name in zip(specs, names):
            stamps: List[float] = []
            cell: Dict[str, Any] = {"cell": name, "run_id": spec.run_id()}
            try:
                with self.span("api.session.run", name):
                    if self.store.get(spec.run_id()) is not None:
                        raise RuntimeError("stale outcome in a fresh store")
                    execution = self.session.execute(
                        spec, progress=lambda done, total: stamps.append(
                            time.perf_counter()))
                    self.store.save(execution.outcome)
            except Exception as failure:  # noqa: BLE001 - counted as a failed cell
                cell["error"] = repr(failure)
            else:
                outcome = execution.outcome
                cell["raw"] = (outcome.golden_cycles,
                               outcome.committed_instructions,
                               {fault_id: effect.value for fault_id, effect
                                in execution.comprehensive.outcomes.items()},
                               outcome.classification_fingerprint())
                cell["resolved"] = outcome.comprehensive.injections
            self.progress.extend(b - a for a, b in zip(stamps, stamps[1:]))
            self.cells.append(cell)

    def _run_reduce(self, specs: List[Any], names: List[str]) -> None:
        for spec, name in zip(specs, names):
            cell: Dict[str, Any] = {"cell": name, "run_id": spec.run_id()}
            started = time.perf_counter()
            try:
                with self.span("api.session.prepare_reduce", name):
                    prepared = self.session.prepare(spec)
                    grouped = prepared.merlin_campaign().reduce()
            except Exception as failure:  # noqa: BLE001 - counted as a failed cell
                cell["error"] = repr(failure)
            else:
                self.progress.append(time.perf_counter() - started)
                cell["raw"] = (prepared.golden.cycles,
                               prepared.golden.committed_instructions,
                               len(grouped.masked_fault_ids),
                               [[*group.key, group.size] for group in grouped.groups],
                               grouped.injections_required)
                cell["resolved"] = (len(grouped.masked_fault_ids)
                                    + grouped.faults_in_groups)
            self.cells.append(cell)

    def _run_cluster(self, specs: List[Any], names: List[str]) -> None:
        try:
            with self.span("api.engine.run", "all"):
                outcomes = self.engine.run(specs, store=self.store)
        except Exception as failure:  # noqa: BLE001 - every cell of the call failed
            self.cells = [{"cell": name, "run_id": spec.run_id(),
                           "error": repr(failure)}
                          for spec, name in zip(specs, names)]
            return
        # The engine reports progress per shard, and shard completions are
        # too irregular for a stable p99; the unit of progress here is a
        # campaign: fan-out start to its merged, stored outcome.
        self.progress = [outcome.comprehensive.wall_clock_seconds
                         for outcome in outcomes]
        for spec, name, outcome in zip(specs, names, outcomes):
            self.cells.append({
                "cell": name, "run_id": spec.run_id(),
                "raw": (outcome.golden_cycles, outcome.committed_instructions,
                        None, outcome.classification_fingerprint()),
                "resolved": outcome.comprehensive.injections,
            })

    # -- after the timed region -------------------------------------------
    def fingerprints(self, path: str) -> None:
        journal = None
        if path == "cluster":
            from repro.cluster.journal import RunJournal
            journal = RunJournal
        for cell in self.cells:
            raw = cell.pop("raw", None)
            if raw is None:
                continue
            if path == "reduce":
                cell["fingerprint"] = ledger.reduce_fingerprint(*raw)
                continue
            golden_cycles, committed, classes, merged = raw
            if journal is not None:
                # The cluster engine's per-fault outcomes live in its
                # journal: shard_id -> fault_id -> (effect, cycles).
                loaded = journal.load(self.engine.journal_dir, cell["run_id"])
                classes = {fault_id: effect
                           for shard in loaded.completed.values()
                           for fault_id, (effect, _) in shard.items()}
            cell["fingerprint"] = ledger.comprehensive_fingerprint(
                golden_cycles, committed, classes, merged)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("batch", "verify"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    import_started = time.perf_counter()
    import repro.api as api
    from repro.uarch.structures import TargetStructure
    from repro.workloads import all_names
    imported = time.perf_counter()

    recorder = obs_ctx = None
    with ExitStack() as traced:
        if args.trace_out is not None:
            from repro import obs
            import layers

            recorder = layers.SpanRecorder()
            recorder.add("cli.start_and_import", "cli", args.spawned, imported)
            traced.callback(layers.install(recorder).undo)
            obs_ctx = traced.enter_context(obs.observe(role="main"))

        definition = plan.definition(args.workload)
        path = definition["path"]
        cells = _cells(definition, all_names)
        if args.mode == "verify":
            path = definition["verify"]
            cells = list(plan.CROSS_ENGINE_CELLS)
        specs = [api.CampaignSpec(workload=name,
                                  structure=TargetStructure[structure],
                                  faults=definition["faults"], seed=args.seed,
                                  method=definition["method"])
                 for name, structure in cells]
        names = [f"{name}/{structure}" for name, structure in cells]
        client = Client(api, args.workdir, recorder)
        client.prepare(path)
        setup = time.perf_counter()

        client.run(path, specs, names)
        done = time.perf_counter()

    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    client.fingerprints(path)
    result: Dict[str, Any] = {
        "import_s": imported - import_started,
        "setup": setup,
        "done": done,
        "cpu_s": own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime,
        "peak_rss_kb": max(own.ru_maxrss, children.ru_maxrss),
        "cells": client.cells,
        "progress_s": client.progress,
    }
    if recorder is not None:
        result["layers"] = layers.layer_metrics(
            recorder, obs_ctx, done - args.spawned, result["import_s"],
            client.workers)
        events = layers.chrome_events(recorder.spans, recorder.pid)
        events.extend(obs_ctx.tracer.events())
        layers.write_trace(str(args.trace_out), events)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
