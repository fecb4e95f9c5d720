"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(span_id, layer, start, end, parent=None):
    return layers.Span(span_id, f"{layer}.call", layer, start, end, parent, "c")


def test_self_times_subtract_child_spans():
    # api [0, 10] holds golden [1, 4] (which holds checkpoint [2, 3]) and
    # injector [5, 9]; cli [-1, 0] is a second top-level span.
    spans = [
        span(0, "api", 0.0, 10.0),
        span(1, "faults.golden", 1.0, 4.0, parent=0),
        span(2, "uarch.checkpoint", 2.0, 3.0, parent=1),
        span(3, "faults.injector", 5.0, 9.0, parent=0),
        span(4, "cli", -1.0, 0.0),
    ]
    own = layers.self_times(spans)
    assert own["api"] == pytest.approx(3.0)
    assert own["faults.golden"] == pytest.approx(2.0)
    assert own["uarch.checkpoint"] == pytest.approx(1.0)
    assert own["faults.injector"] == pytest.approx(4.0)
    assert own["cli"] == pytest.approx(1.0)
    assert own["cluster"] == 0.0
    assert sum(own.values()) == pytest.approx(layers.top_level_seconds(spans))


def test_recorder_nests_spans_and_exports_chrome_events():
    ticks = iter(range(100))
    recorder = layers.SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.cell = "mcf/RF"
    with recorder.span("outer", "api"):
        with recorder.span("inner", "faults.injector"):
            assert recorder.innermost_layer() == "faults.injector"
    outer, inner = recorder.spans
    assert inner.parent == outer.span_id and outer.parent is None
    assert layers.self_times(recorder.spans)["api"] == pytest.approx(2.0)
    events = layers.chrome_events(recorder.spans, pid=7)
    assert [event["ph"] for event in events] == ["X", "X"]
    assert events[1]["args"] == {"layer": "faults.injector", "span_id": 1,
                                 "parent": 0, "cell": "mcf/RF"}


def test_metric_names_and_units_are_valid_and_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = [(metric["name"], metric["unit"]) for metric in spec["end_to_end"]]
    per_layer = [(metric["name"], metric["unit"], metric["better"])
                 for metric in spec["per_layer"]]
    assert end_to_end == run.END_TO_END
    assert per_layer == layers.PER_LAYER
    names = [name for name, _ in end_to_end] + [name for name, _, _ in per_layer]
    names += [workload["name"] for workload in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for _, unit in end_to_end:
        assert UNIT.match(unit), unit
    for _, unit, better in per_layer:
        assert UNIT.match(unit) and better in ("higher", "lower"), unit
    assert "setup_s" in dict(end_to_end)
    assert max(metric["bound"] for metric in spec["end_to_end"]) <= 0.25
    assert set(layers.EXACT_COUNTS) <= {name for name, _, _ in per_layer}


def cells(fingerprint_of_rf):
    return [{"cell": "mcf/RF", "run_id": "a", "fingerprint": fingerprint_of_rf},
            {"cell": "mcf/SQ", "run_id": "b", "fingerprint": "f-sq"}]


def test_fingerprint_check_fires_on_a_perturbed_outcome():
    classes = {0: "Masked", 1: "SDC", 2: "Masked"}
    outcome = {"comprehensive": {"counts": {"Masked": 2, "SDC": 1}}}
    reference = ledger.comprehensive_fingerprint(2307, 900, classes, outcome)
    perturbed = ledger.comprehensive_fingerprint(
        2307, 900, {**classes, 1: "Masked"}, outcome)
    assert perturbed != reference

    expected = {"a": reference, "b": "f-sq"}
    assert ledger.check_cells([cells(reference), cells(reference)], expected) == []
    # Against the reference, against the run's first batch, and across engines.
    assert len(ledger.check_cells([cells(perturbed)], expected)) == 1
    assert len(ledger.check_cells([cells(reference), cells(perturbed)], {})) == 1
    assert len(ledger.check_cross_engine(cells(reference), cells(perturbed)[:1])) == 1


def tiny_specs():
    from repro.api import CampaignSpec
    from repro.uarch.structures import TargetStructure

    spec = CampaignSpec(workload="sha", structure=TargetStructure.RF, faults=6,
                        seed=3, method="comprehensive")
    return [spec], ["sha/RF"]


def perturb(outcome):
    """Move one fault between classes in the merged counts only."""
    counts = outcome.comprehensive.counts
    source = next(name for name, count in sorted(counts.items()) if count)
    target = next(name for name in sorted(counts) if name != source)
    counts[source] -= 1
    counts[target] += 1
    return outcome


class PerturbingSession:
    """A session whose returned outcome miscounts its own per-fault classes."""

    def __init__(self, session):
        self.session = session

    def execute(self, spec, progress=None):
        execution = self.session.execute(spec, progress=progress)
        perturb(execution.outcome)
        return execution


class PerturbingEngine:
    """A cluster engine whose merged outcomes are miscounted."""

    def __init__(self, engine):
        self.engine = engine
        self.journal_dir = engine.journal_dir

    def run(self, specs, store=None):
        return [perturb(outcome) for outcome in self.engine.run(specs, store=store)]


@pytest.mark.parametrize("path", ["session", "cluster"])
def test_a_miscounted_merged_outcome_fails_the_check(tmp_path, path):
    """Same per-fault classes, wrong merged counts: the fingerprint differs."""
    import repro.api as api

    specs, names = tiny_specs()
    fingerprints = []
    for number, wrap in enumerate([lambda inner: inner,
                                   PerturbingSession if path == "session"
                                   else PerturbingEngine]):
        client = child.Client(api, tmp_path / str(number), recorder=None)
        client.prepare(path)
        if path == "session":
            client.session = wrap(client.session)
        else:
            client.engine = wrap(client.engine)
        client.run(path, specs, names)
        client.fingerprints(path)
        assert "error" not in client.cells[0], client.cells[0]
        fingerprints.append(client.cells)
    reference = {cell["run_id"]: cell["fingerprint"] for cell in fingerprints[0]}
    assert ledger.check_cells([fingerprints[0]], reference) == []
    assert len(ledger.check_cells([fingerprints[1]], reference)) == 1


def test_reduce_fingerprint_covers_groups():
    base = ledger.reduce_fingerprint(100, 50, 7, [[1, 2, 3, 4]], 1)
    assert base == ledger.reduce_fingerprint(100, 50, 7, [[1, 2, 3, 4]], 1)
    assert base != ledger.reduce_fingerprint(100, 50, 7, [[1, 2, 3, 5]], 1)
    assert base != ledger.reduce_fingerprint(100, 50, 8, [[1, 2, 3, 4]], 1)


class FakeStore:
    def get(self, run_id):
        return None

    def save(self, outcome):
        return None


class RaisingSession:
    def execute(self, spec, progress=None):
        raise RuntimeError(f"boom in {spec.run_id()}")


class Spec:
    def __init__(self, run_id):
        self._run_id = run_id

    def run_id(self):
        return self._run_id


def test_raising_cell_counts_toward_failed_ratio():
    client = child.Client(api=None, workdir=HERE, recorder=None)
    client.store, client.session = FakeStore(), RaisingSession()
    client.run("session", [Spec("a")], ["mcf/RF"])
    client.fingerprints("session")
    assert "boom" in client.cells[0]["error"]
    failures = ledger.check_cells([client.cells], {})
    assert ledger.failed_cells(failures) == 1
    assert ledger.failed_ratio(ledger.failed_cells(failures), 3) == pytest.approx(1 / 3)


def test_failed_counts_cells_not_messages():
    # Two checks fail for one cell, one for another: two failed cells.
    failures = [(("batch 0", "mcf/RF"), "raised"),
                (("batch 0", "mcf/RF"), "no reference fingerprint"),
                (("cross-engine", "mcf/RF"), "differs")]
    assert ledger.failed_cells(failures) == 2


def test_end_to_end_takes_medians_over_batches():
    def batch(wall_s, setup_s):
        return {"wall_s": wall_s, "setup_s": setup_s, "cpu_s": wall_s,
                "peak_rss_kb": 2048, "progress_s": [0.1] * 100,
                "cells": [{"resolved": 50}, {"resolved": 50}]}

    metrics = run.end_to_end([batch(10.0, 0.5), batch(20.0, 0.3),
                              batch(12.5, 0.4)])
    assert metrics["wall_s"] == pytest.approx(12.5)
    assert metrics["setup_s"] == pytest.approx(0.4)
    assert metrics["faults_per_s"] == pytest.approx(100 / 12.5)
    assert metrics["peak_rss_mb"] == pytest.approx(2.0)
    assert metrics["progress_ms_p99"] == pytest.approx(100.0)


def test_exact_counts_must_repeat():
    runs = [{"faults.golden.cycles": 10.0}, {"faults.golden.cycles": 10.0}]
    assert ledger.check_counts(runs, ["faults.golden.cycles"],
                               {"faults.golden.cycles": 10.0}, "ref") == []
    assert len(ledger.check_counts(runs, ["faults.golden.cycles"],
                                   {"faults.golden.cycles": 11.0}, "ref")) == 1
    runs[1]["faults.golden.cycles"] = 12.0
    assert len(ledger.check_counts(runs, ["faults.golden.cycles"], None, "")) == 1


def test_percentile_interpolates():
    assert layers.percentile([], 0.5) == 0.0
    assert layers.percentile([3.0], 0.99) == 3.0
    assert layers.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert layers.percentile([0.0, 10.0], 0.99) == pytest.approx(9.9)


def test_wrappers_record_every_layer_and_undo_cleanly():
    from repro import obs
    from repro.api import CampaignSpec, Session
    from repro.faults import injector
    from repro.uarch.structures import TargetStructure

    original = injector.inject_fault
    recorder = layers.SpanRecorder()
    installation = layers.install(recorder)
    try:
        with obs.observe() as obs_ctx:
            with recorder.span("api.session.run", "api"):
                Session(checkpointing=True).execute(CampaignSpec(
                    workload="sha", structure=TargetStructure.RF, faults=6,
                    seed=3, method="comprehensive"))
    finally:
        installation.undo()
    assert injector.inject_fault is original

    metrics = layers.layer_metrics(recorder, obs_ctx, wall_s=100.0,
                                   import_s=0.1, workers=2)
    assert metrics["faults.golden.count"] == 1
    assert metrics["faults.sampling.faults"] == 6
    assert metrics["faults.injector.injections"] == 6
    assert metrics["faults.injector.inject_s.RF"] == pytest.approx(
        metrics["faults.injector.inject_s"])
    assert metrics["uarch.checkpoint.timeline_bytes"] > 0
    assert metrics["faults.injector.tail_cycles"] > 0
    own = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert own == pytest.approx(metrics["api.engine.run_s"])
    assert metrics["trace.residual_s"] == pytest.approx(100.0 - own)
