"""CLI observability surface: --metrics-out/--trace-out and `repro metrics`."""

import json

import pytest

from repro import cli
from repro.api import ResultStore
from repro.obs import (
    validate_prometheus_file,
    validate_prometheus_text,
    validate_trace_file,
)


def run_args(tmp_path, extra):
    return [
        "run", "--workload", "sha", "--structure", "RF", "--registers", "64",
        "--faults", "30", "--scale", "1", "--method", "comprehensive",
        "--cache-dir", str(tmp_path / "cache"),
    ] + extra


def test_run_writes_valid_metrics_and_trace_files(tmp_path, capsys):
    metrics = tmp_path / "out" / "metrics.prom"
    trace = tmp_path / "out" / "trace.jsonl"
    code = cli.main(run_args(tmp_path, [
        "--metrics-out", str(metrics), "--trace-out", str(trace),
    ]))
    assert code == 0
    types = validate_prometheus_file(metrics)
    assert types["repro_injections_total"] == "counter"
    assert types["repro_faults_per_second"] == "gauge"
    assert types["repro_fault_classifications_total"] == "counter"
    assert validate_trace_file(trace) >= 4
    names = {json.loads(line)["name"]
             for line in trace.read_text().splitlines()}
    # Plan (with its golden build), each shard, then the merge.
    assert {"cluster_plan", "golden_build", "shard", "merge"} <= names


def test_run_with_store_persists_a_metrics_sidecar(tmp_path, capsys):
    store_dir = tmp_path / "store"
    metrics = tmp_path / "metrics.prom"
    code = cli.main(run_args(tmp_path, [
        "--metrics-out", str(metrics), "--store", str(store_dir),
    ]))
    assert code == 0
    store = ResultStore(store_dir)
    (run_id,) = store.run_ids()  # the sidecar must not pollute the listing
    assert store.has_metrics(run_id)
    snapshot = store.load_metrics(run_id)
    assert snapshot["schema"] == 1

    capsys.readouterr()
    assert cli.main(["metrics", run_id, "--store", str(store_dir)]) == 0
    rendered = capsys.readouterr().out
    assert validate_prometheus_text(rendered)
    assert "repro_injections_total 30" in rendered

    assert cli.main(["metrics", run_id, "--store", str(store_dir),
                     "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == snapshot


def test_metrics_command_without_a_snapshot_fails_cleanly(tmp_path, capsys):
    store_dir = tmp_path / "store"
    ResultStore(store_dir)  # empty store
    code = cli.main(["metrics", "0123456789abcdef", "--store", str(store_dir)])
    assert code == 1
    assert "no metrics snapshot" in capsys.readouterr().err


def test_cluster_run_emits_the_cluster_metric_families(tmp_path, capsys):
    metrics = tmp_path / "cluster.prom"
    trace = tmp_path / "cluster-trace.jsonl"
    code = cli.main(run_args(tmp_path, [
        "--engine", "cluster",
        "--shard-size", "10", "--workers", "2",
        "--metrics-out", str(metrics), "--trace-out", str(trace),
    ]))
    assert code == 0
    types = validate_prometheus_file(metrics)
    assert types["repro_faults_per_second"] == "gauge"
    assert types["repro_pool_queue_depth"] == "gauge"
    assert types["repro_artifact_cache_hit_ratio"] == "gauge"
    assert types["repro_shard_wall_seconds"] == "histogram"
    assert types["repro_journal_appends_total"] == "counter"
    text = metrics.read_text()
    assert 'repro_artifact_cache_hits_total{role="worker"}' in text
    # Worker spans merged home in deterministic shard order.
    names = [json.loads(line)["name"]
             for line in trace.read_text().splitlines()]
    assert names.count("shard") == names.count("run_shard") >= 1


def test_sweep_persists_one_sidecar_per_run(tmp_path, capsys):
    store_dir = tmp_path / "store"
    metrics = tmp_path / "sweep.prom"
    code = cli.main([
        "sweep", "--workloads", "sha,fft", "--structures", "RF",
        "--registers", "64", "--faults", "20", "--scale", "1",
        "--method", "comprehensive", "--json",
        "--metrics-out", str(metrics), "--store", str(store_dir),
        "--cache-dir", str(tmp_path / "cache"),
    ])
    assert code == 0
    store = ResultStore(store_dir)
    run_ids = store.run_ids()
    assert len(run_ids) == 2
    for run_id in run_ids:
        assert store.has_metrics(run_id)
    # Multi-campaign runs label throughput with the batch sentinel.
    text = metrics.read_text()
    assert 'repro_faults_per_second{run_id="batch"}' in text


def test_parser_rejects_obs_flags_on_commands_without_them():
    with pytest.raises(SystemExit):
        cli.main(["report", "--store", "x", "--metrics-out", "y"])
