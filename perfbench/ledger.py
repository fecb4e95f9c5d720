"""Run identity, calibration, correctness checks and the run record.

Pure Python with no ``repro`` import, so ``run.py`` can hash, check and
record without loading the program under test.

Run identity follows scfuzzbench's ``benchmark_uuid``: a hash over
everything that defines the measurement (source tree, Python version,
``nproc``, workload definition, seed).  Records of runs with the same
manifest must agree exactly on every fingerprint and exact count.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple


def digest(payload: Any) -> str:
    """A short stable hash of a JSON-serialisable value."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def comprehensive_fingerprint(golden_cycles: int, committed: int,
                              classes: Dict[int, str],
                              outcome: Dict[str, Any]) -> str:
    """Golden counts, the per-fault classification keyed by fault id, and
    the returned outcome's ``classification_fingerprint()``.

    The per-fault classes are the merge's input; the outcome is what the
    engine merged, counted and stored from them, so both are covered.
    """
    return digest({
        "golden_cycles": golden_cycles,
        "committed_instructions": committed,
        "faults": {str(fault_id): classes[fault_id]
                   for fault_id in sorted(classes)},
        "outcome": outcome,
    })


def reduce_fingerprint(golden_cycles: int, committed: int, ace_masked: int,
                       groups: Iterable[List[int]],
                       injections_required: int) -> str:
    """Golden counts, ACE-masked count, group keys and sizes, injections."""
    return digest({
        "golden_cycles": golden_cycles,
        "committed_instructions": committed,
        "ace_masked": ace_masked,
        "groups": sorted(list(group) for group in groups),
        "injections_required": injections_required,
    })


#: Iterations of one calibration measurement (about 0.3 s on a 2-vCPU VM).
CALIBRATION_ITERATIONS = 2_000_000


def calibration_score() -> float:
    """Machine-speed reference: iterations/s of a fixed pure-Python LCG.

    The same kernel as the simulator-core throughput gate, copied so the
    benchmark does not depend on the program under test.  ``run.py``
    measures it before the first batch and after every batch and records
    the scores beside the run, so machine drift is visible in the record.
    No metric is divided by it: the kernel's speed swings by about 20%
    even over 5-second windows, far more than the batches' own times do.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    return CALIBRATION_ITERATIONS / (time.perf_counter() - started)


def source_digest(src: Path) -> str:
    """Content hash of the program's source tree (the commit identity).

    The benchmark runs from exported checkouts that are not git
    repositories, so the tree is hashed instead of asking git.
    """
    sha = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        sha.update(path.relative_to(src).as_posix().encode("utf-8"))
        sha.update(b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def manifest(src: Path, workload: str, definition: Dict[str, Any],
             seed: int) -> Dict[str, Any]:
    fields = {
        "commit": source_digest(src),
        "benchmark": source_digest(Path(__file__).resolve().parent),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "workload": workload,
        "definition": definition,
        "seed": seed,
    }
    return {"id": digest(fields), **fields}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
#: A failure: the cell it condemns, as (where, cell name), and a message.
Failure = Tuple[Tuple[str, str], str]


def check_cells(batches: List[List[Dict[str, Any]]],
                reference: Dict[str, str]) -> List[Failure]:
    """Failures among the cells of every batch, at most one per cell.

    A cell fails when it raised, when its fingerprint differs from the same
    cell in the first batch (the program is deterministic), or when
    ``reference`` holds a fingerprint for its run id and it differs.
    """
    failures = []
    first = {cell["cell"]: cell.get("fingerprint") for cell in batches[0]}
    for number, batch in enumerate(batches):
        for cell in batch:
            key = (f"batch {number}", cell["cell"])
            if cell.get("error"):
                failures.append((key, f"raised {cell['error']}"))
            elif cell["fingerprint"] != first.get(cell["cell"]):
                failures.append((key, "fingerprint differs from batch 0"))
            elif cell["fingerprint"] != reference.get(cell["run_id"],
                                                      cell["fingerprint"]):
                failures.append((key, f"fingerprint {cell['fingerprint']} != "
                                      f"expected {reference[cell['run_id']]}"))
    return failures


def check_cross_engine(batch: List[Dict[str, Any]],
                       verify: List[Dict[str, Any]]) -> List[Failure]:
    """The other engine must fingerprint the shared cells identically."""
    ours = {cell["run_id"]: cell for cell in batch}
    failures = []
    for cell in verify:
        key = ("cross-engine", cell["cell"])
        mine = ours.get(cell["run_id"])
        if cell.get("error"):
            failures.append((key, f"raised {cell['error']}"))
        elif mine is None:
            failures.append((key, "not in the batch"))
        elif cell["fingerprint"] != mine.get("fingerprint"):
            failures.append((key, f"{cell['fingerprint']} != "
                                  f"{mine.get('fingerprint')}"))
    return failures


def check_counts(runs: List[Dict[str, float]], names: Iterable[str],
                 expected: Optional[Dict[str, float]], source: str) -> List[str]:
    """Exact simulated statistics must repeat between runs and match ``expected``."""
    failures = []
    for name in names:
        values = {run[name] for run in runs}
        if len(values) > 1:
            failures.append(f"{name}: differs between traced runs {sorted(values)}")
        elif expected is not None and name in expected and \
                runs[0][name] != expected[name]:
            failures.append(
                f"{name}: {runs[0][name]} != {expected[name]} ({source})")
    return failures


def failed_cells(failures: List[Failure]) -> int:
    """How many distinct cells the failures condemn."""
    return len({key for key, _ in failures})


def failed_ratio(failed: int, attempted: int) -> float:
    return failed / attempted


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def load_records(directory: Path, manifest_id: str) -> List[Dict[str, Any]]:
    path = directory / f"{manifest_id}.jsonl"
    if not path.exists():
        return []
    with path.open(encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]


def append_record(directory: Path, manifest_id: str,
                  record: Dict[str, Any]) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{manifest_id}.jsonl"
    with path.open("a", encoding="utf-8") as stream:
        stream.write(json.dumps(record, sort_keys=True) + "\n")
    return path
