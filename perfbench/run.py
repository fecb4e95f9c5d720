#!/usr/bin/env python3
"""Layered end-to-end benchmark of the MeRLiN pipeline.

    python3 perfbench/run.py --workload ckpt-inject --seed 1 --seconds 36 --trace 0

Each batch runs in a fresh interpreter (``child.py``) driven by a single
closed-loop client; a run makes as many identical batches as
``--seconds`` holds at the workload's expected batch duration, and
records a calibration score between them.  With ``--trace 0`` the run
reports the end-to-end metrics (medians over batches); with ``--trace 1``
it alternates untraced and traced batches and reports the per-layer
metrics of the traced ones.  Every run checks the
program's outputs (fingerprints, cross-engine agreement, exact simulated
statistics) and prints, as its last stdout line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every check passed, 1 when a check failed (the JSON
line is still printed), 2 when nothing could be measured (usage error, no
program source, a crashed batch process).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
import ledger
import plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch, records and traces, inside the checkout (git-ignored).
STATE = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: A batch that takes longer than this is a hung program, not a data point.
CHILD_TIMEOUT_S = 60.0

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END: List[Tuple[str, str]] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("faults_per_s", "1/s"),
    ("progress_ms_p99", "ms"),
]

#: What the generic metric names stand for on each workload.
ALIASES: Dict[str, Dict[str, str]] = {
    "ckpt-inject": {"faults_per_s": "injections_per_s",
                    "progress_ms_p50": "injection_ms_p50",
                    "progress_ms_p99": "injection_ms_p99"},
    "merlin-reduce": {"faults_per_s": "faults_reduced_per_s",
                      "progress_ms_p50": "cell_ms_p50",
                      "progress_ms_p99": "cell_ms_p99"},
    "cluster-sweep": {"faults_per_s": "injections_per_s",
                      "progress_ms_p50": "campaign_ms_p50",
                      "progress_ms_p99": "campaign_ms_p99"},
}


class HarnessError(Exception):
    """A batch process could not produce a measurement."""


class Runner:
    """Spawns the child processes of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spawned = 0

    def spawn(self, mode: str, trace_out: Optional[Path] = None) -> Dict[str, Any]:
        workdir = STATE / "work" / f"{self.workload}-{os.getpid()}-{self.spawned}"
        self.spawned += 1
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        out = workdir / "result.json"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        command = [sys.executable, str(HERE / "child.py"), "--mode", mode,
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--workdir", str(workdir), "--out", str(out)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        try:
            spawned = time.perf_counter()
            process = subprocess.Popen(
                command + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                start_new_session=True)
            try:
                _, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                # The child's own pool workers share its session.
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
                raise HarnessError(
                    f"{mode} batch exceeded {CHILD_TIMEOUT_S:.0f} s") from None
            if process.returncode != 0:
                tail = stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
                raise HarnessError(f"{mode} batch exited {process.returncode}: "
                                   + " | ".join(tail))
            result = json.loads(out.read_text(encoding="utf-8"))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result["wall_s"] = result["done"] - spawned
        result["setup_s"] = result["setup"] - spawned
        return result


def calibrated_batches(runner: Runner,
                       traces: List[Optional[Path]]) -> List[Dict[str, Any]]:
    """One batch per entry of ``traces`` (traced into it unless ``None``),
    each with the calibration scores measured just before and after it.
    """
    scores = [ledger.calibration_score()]
    batches = []
    for trace_out in traces:
        batch = runner.spawn("batch", trace_out=trace_out)
        scores.append(ledger.calibration_score())
        batch["calibration"] = scores[-2:]
        batches.append(batch)
    return batches


def end_to_end(batches: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median over the run's batches of each end-to-end metric."""
    def median(value) -> float:
        return statistics.median(value(batch) for batch in batches)

    def progress_ms(share: float):
        return lambda batch: 1000 * layers.percentile(batch["progress_s"], share)

    return {
        "wall_s": median(lambda batch: batch["wall_s"]),
        "setup_s": median(lambda batch: batch["setup_s"]),
        "cpu_s": median(lambda batch: batch["cpu_s"]),
        "peak_rss_mb": median(lambda batch: batch["peak_rss_kb"] / 1024),
        "faults_per_s": median(
            lambda batch: sum(cell.get("resolved", 0) for cell in batch["cells"])
            / batch["wall_s"]),
        "progress_ms_p50": median(progress_ms(0.5)),
        "progress_ms_p99": median(progress_ms(0.99)),
    }


def load_reference() -> Dict[str, Any]:
    if not REFERENCE.exists():
        return {"fingerprints": {}, "counts": {}}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def expected_fingerprints(seed: int, reference: Dict[str, Any],
                          records: List[Dict[str, Any]]) -> Dict[str, str]:
    """What earlier runs say each cell must fingerprint to."""
    expected: Dict[str, str] = {}
    for record in records:
        expected.update(record.get("fingerprints", {}))
    if seed == plan.DEFAULT_SEED:
        expected.update(reference["fingerprints"])
    return expected


def check_outputs(seed: int, batches: List[Dict[str, Any]],
                  verify: Optional[Dict[str, Any]],
                  expected: Dict[str, str], writing: bool) -> List[ledger.Failure]:
    cells = [batch["cells"] for batch in batches]
    failures = ledger.check_cells(cells, expected)
    if seed == plan.DEFAULT_SEED and not writing:
        failures += [(("batch 0", cell["cell"]), "no reference fingerprint")
                     for cell in cells[0] if cell["run_id"] not in expected]
    if verify is not None:
        failures += ledger.check_cross_engine(cells[0], verify["cells"])
    return failures


def expected_counts(args: argparse.Namespace, reference: Dict[str, Any],
                    records: List[Dict[str, Any]]) -> Tuple[Optional[Dict], str]:
    """The exact counts a traced run must reproduce, and where they come from."""
    if args.seed == plan.DEFAULT_SEED and not args.write_reference:
        return reference["counts"].get(args.workload), "reference.json"
    counts = None
    for record in records:
        counts = record.get("counts") or counts
    return counts, "an earlier run of this manifest"


def traced_metrics(pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]]
                   ) -> Tuple[Dict[str, float], List[Dict[str, float]]]:
    """Median per-layer metrics of the traced batches, plus each batch's own."""
    runs = [traced["layers"] for _, traced in pairs]
    metrics = layers.median_metrics(runs)
    metrics["trace.overhead_s"] = (
        metrics["trace.wall_s"]
        - statistics.median(untraced["wall_s"] for untraced, _ in pairs))
    return metrics, runs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    parser.add_argument("--seed", type=int, default=plan.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's fingerprints (and, traced, its "
                             "exact counts) as the default seed's reference")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != plan.DEFAULT_SEED:
        print(f"perfbench: the reference is for seed {plan.DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    definition = plan.definition(args.workload)
    count = plan.batches(args.workload, args.seconds)
    # Byte-compile once, untimed: users pay it once per install, not per run.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
                   check=True, stdout=subprocess.DEVNULL)
    run_manifest = ledger.manifest(SRC, args.workload, definition, args.seed)
    records = [record for record in
               ledger.load_records(STATE / "records", run_manifest["id"])
               if record["correct"]]
    reference = load_reference()
    runner = Runner(args.workload, args.seed)
    trace_path = STATE / "traces" / f"{args.workload}-{run_manifest['id']}.jsonl"

    verify = None
    try:
        if args.trace:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            batches = calibrated_batches(
                runner, [None, trace_path] * max(1, count // 2))
            pairs = list(zip(batches[0::2], batches[1::2]))
        else:
            batches = calibrated_batches(runner, [None] * count)
            if definition["verify"]:
                verify = runner.spawn("verify")
    except HarnessError as failure:
        print(f"perfbench: {failure}", file=sys.stderr)
        return 2

    expected = expected_fingerprints(
        args.seed, {"fingerprints": {}} if args.write_reference else reference,
        records)
    failures = check_outputs(args.seed, batches, verify, expected,
                             args.write_reference)
    attempted = sum(len(batch["cells"]) for batch in batches)
    if verify is not None:
        attempted += len(verify["cells"])
    record: Dict[str, Any] = {
        "manifest": run_manifest,
        "batch_values": [{name: batch[name] for name in
                          ("wall_s", "setup_s", "cpu_s", "calibration")}
                         for batch in batches],
        "time": time.time(),
        "trace": args.trace,
        "batches": len(batches),
        "fingerprints": {cell["run_id"]: cell["fingerprint"]
                         for cell in batches[0]["cells"] if "fingerprint" in cell},
    }

    if args.trace:
        metrics, runs = traced_metrics(pairs)
        counts, source = expected_counts(args, reference, records)
        wrong = ledger.check_counts(runs, layers.EXACT_COUNTS, counts, source)
        if counts is None and source == "reference.json":
            wrong.append("no reference counts")
        # The counts add up every cell of a traced batch, so a wrong count
        # condemns every cell of every traced batch.
        failures += [((f"batch {number}", cell["cell"]), message)
                     for message in wrong
                     for number in range(1, len(batches), 2)
                     for cell in batches[number]["cells"]]
        record["counts"] = {name: runs[0][name] for name in layers.EXACT_COUNTS}
        catalogue = [(name, unit) for name, unit, _ in layers.PER_LAYER]
        with trace_path.open(encoding="utf-8") as stream:
            events = sum(1 for line in stream if json.loads(line))
        summary = [f"trace: {trace_path} ({events} events)"]
    else:
        metrics = end_to_end(batches)
        catalogue = END_TO_END
        samples = sum(len(batch["progress_s"]) for batch in batches)
        summary = [f"samples: {len(batches)} batches (one set-up each), "
                   f"{samples} progress intervals",
                   "batch wall_s: " + " ".join(f"{batch['wall_s']:.3f}"
                                               for batch in batches)]
        # The p50 is printed but not gated: the per-injection latency is
        # bimodal (early-reconverging RF runs against SQ/L1D runs that
        # simulate to the end), so its median moves ~30% between seeds.
        summary += [f"{alias:>24} = {name} {metrics[name]:.6g}"
                    for name, alias in ALIASES[args.workload].items()]
    metrics = {name: metrics[name] for name, _ in catalogue}
    correct = not failures
    failed = ledger.failed_cells(failures)
    summary.append(f"{'failed_ratio':>24} = {ledger.failed_ratio(failed, attempted):.6g}"
                   f" ({failed}/{attempted} cells)")
    ledger.append_record(STATE / "records", run_manifest["id"],
                         {**record, "metrics": metrics, "correct": correct})
    if args.write_reference and correct:
        reference["fingerprints"].update(record["fingerprints"])
        if args.trace:
            reference["counts"][args.workload] = record["counts"]
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")

    scores = [batches[0]["calibration"][0]] + [batch["calibration"][1]
                                               for batch in batches]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"manifest={run_manifest['id']} calibration (M/s, around batches): "
          + " ".join(f"{score / 1e6:.2f}" for score in scores))
    for name, unit in catalogue:
        print(f"{name:>34} {metrics[name]:>14.6g} {unit}")
    for line in summary:
        print(line)
    for (where, cell), message in failures:
        print(f"FAILED {where} {cell}: {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in catalogue},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
