"""Workload definitions of the layered benchmark, as plain data.

Nothing here imports ``repro``: ``run.py`` must be able to describe, hash
and validate a workload without loading the program under test.  The
child process turns a definition plus the run seed into
``CampaignSpec`` values (see ``child.py``); the program receives only
those specs.

Why each workload exists (see README.md for the layer map):

* ``ckpt-inject`` spends nearly all its time in checkpoint restore,
  reconvergence checks and faulty-tail simulation.  RF runs reconverge
  early, L1D runs mostly simulate to the end, so a change that helps one
  and hurts the other moves the p99 progress latency.
* ``merlin-reduce`` runs MeRLiN phases 1-2 only (golden tracing,
  sampling, interval building, grouping) and never touches injection or
  checkpoint code: the "predict no change" workload for injection work.
* ``cluster-sweep`` is the only workload that journals, caches golden
  artifacts, pickles shards, starts a worker pool and merges results.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: The seed whose fingerprints and exact counts are recorded in
#: ``reference.json``.
DEFAULT_SEED = 1

#: Comprehensive fault budget per cell.  ``ckpt-inject`` and
#: ``cluster-sweep`` share it so their ``mcf`` cells are the same specs
#: (same run id), which makes the cross-engine check possible.  Sized so
#: one batch takes ~11 s on a 2-core container.
INJECT_FAULTS = 90

#: Initial fault-list size per ``merlin-reduce`` cell.  The paper's
#: statistical lists are ~60k faults; 6000 keeps one batch (20 golden
#: runs plus 60 reductions) near 10 s while sampling and grouping still
#: take a large share of it.
REDUCE_FAULTS = 6000

#: Worker processes of the cluster engine (within a 2-core machine's nproc).
CLUSTER_WORKERS = 2

#: Faults per cluster shard.  The engine's default (250) exceeds the
#: per-cell budget, which would leave every campaign in one shard: no
#: fan-out within a campaign, which is what the cluster engine is for.
CLUSTER_SHARD_SIZE = 15

#: ``cells`` are ``[workload, STRUCTURE]`` pairs; ``"*"`` is every workload
#: of the registry, expanded in the child.  ``batch_seconds`` is the
#: expected duration of one batch: a run makes ``seconds // batch_seconds``
#: batches, so every run of a workload repeats the same number of times.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "ckpt-inject": {
        "path": "session",
        "method": "comprehensive",
        "faults": INJECT_FAULTS,
        "cells": [["mcf", "RF"], ["mcf", "SQ"], ["mcf", "L1D"]],
        "verify": "cluster",
        "batch_seconds": 11.0,
    },
    "merlin-reduce": {
        "path": "reduce",
        "method": "merlin",
        "faults": REDUCE_FAULTS,
        "cells": [["*", "RF"], ["*", "SQ"], ["*", "L1D"]],
        "verify": None,
        "batch_seconds": 10.5,
    },
    "cluster-sweep": {
        "path": "cluster",
        "method": "comprehensive",
        "faults": INJECT_FAULTS,
        "workers": CLUSTER_WORKERS,
        "shard_size": CLUSTER_SHARD_SIZE,
        "cells": [[name, structure]
                  for name in ("sha", "qsort", "mcf", "libquantum")
                  for structure in ("RF", "SQ")],
        "verify": "session",
        "batch_seconds": 10.5,
    },
}

#: Cells both engines run at the same budget; their fingerprints must be
#: identical under every seed.
CROSS_ENGINE_CELLS: List[Tuple[str, str]] = [("mcf", "RF"), ("mcf", "SQ")]


def batches(workload: str, seconds: float) -> int:
    """How many batches a run of ``seconds`` makes (at least one)."""
    return max(1, int(seconds // definition(workload)["batch_seconds"]))


def definition(workload: str) -> Dict[str, Any]:
    """The definition of ``workload``; ``KeyError`` names the known ones."""
    try:
        return WORKLOADS[workload]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"unknown workload {workload!r}; known: {known}") from None
