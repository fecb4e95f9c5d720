"""Golden artifacts written under an earlier artifact schema.

Schema 1 artifacts pickled the golden's access trace as per-structure lists
of ``AccessEvent`` objects; the current tracer stores column arrays.  Such
an artifact must be a counted cache miss — whether it sits under its own
(schema-1) key or under the current key — after which the golden is
rebuilt and the campaign outcome is identical to a cold run.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

import repro.cluster.artifacts as artifacts_module
from repro.api import CampaignSpec
from repro.cluster import ClusterEngine
from repro.cluster.artifacts import ArtifactCache
from repro.core.intervals import build_interval_set
from repro.uarch.checkpoint import DEFAULT_INTERVAL
from repro.uarch.structures import TargetStructure
from repro.uarch.trace import AccessTracer

SPEC = CampaignSpec(workload="sha", structure=TargetStructure.RF, faults=30,
                    scale=1, seed=4, method="merlin")


def _legacy_tracer(tracer: AccessTracer) -> AccessTracer:
    """``tracer`` in the schema-1 layout: event lists per structure."""
    legacy = AccessTracer.__new__(AccessTracer)
    legacy.__dict__.update(
        enabled=tracer.enabled,
        _events={structure: tracer.events(structure) for structure in TargetStructure},
    )
    return legacy


def _write_schema_1_artifact(cache_dir, monkeypatch):
    """Run ``SPEC`` under schema 1 and rewrite its artifact in the old layout.

    Returns the cold run's outcome and the artifact's path.
    """
    with monkeypatch.context() as patch:
        patch.setattr(artifacts_module, "ARTIFACT_SCHEMA_VERSION", 1)
        outcome = ClusterEngine(max_workers=1, shard_size=10, cache_dir=cache_dir).run([SPEC])[0]
        path = ArtifactCache(cache_dir).golden_path(SPEC, DEFAULT_INTERVAL)
    payload = pickle.loads(path.read_bytes())
    assert payload["schema"] == 1
    payload["golden"] = dataclasses.replace(
        payload["golden"], tracer=_legacy_tracer(payload["golden"].tracer))
    path.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    return outcome, path


def _comparable(outcome):
    payload = outcome.to_dict()
    payload["merlin"]["wall_clock_seconds"] = None
    return payload


def test_schema_1_trace_layout_is_unusable_by_the_interval_builder(tmp_path, monkeypatch):
    _, path = _write_schema_1_artifact(tmp_path / "cache", monkeypatch)
    legacy = pickle.loads(path.read_bytes())["golden"]
    with pytest.raises(AttributeError):
        build_interval_set(legacy.tracer, TargetStructure.RF)


def test_schema_1_artifact_under_its_own_key_is_a_counted_miss(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    cold, stale = _write_schema_1_artifact(cache_dir, monkeypatch)
    current = ArtifactCache(cache_dir).golden_path(SPEC, DEFAULT_INTERVAL)
    assert current != stale and not current.exists()

    engine = ClusterEngine(max_workers=1, shard_size=10, cache_dir=cache_dir)
    outcome = engine.run([SPEC])[0]
    assert engine.stats["golden_builds"] == 1
    assert current.exists()
    assert outcome.classification_fingerprint() == cold.classification_fingerprint()
    assert _comparable(outcome) == _comparable(cold)


def test_schema_1_payload_under_the_current_key_is_a_counted_miss(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    cold, stale = _write_schema_1_artifact(cache_dir, monkeypatch)
    current = ArtifactCache(cache_dir).golden_path(SPEC, DEFAULT_INTERVAL)
    current.write_bytes(stale.read_bytes())

    cache = ArtifactCache(cache_dir)
    assert cache.load_golden(SPEC, DEFAULT_INTERVAL) is None
    assert cache.misses == 1 and not current.exists()

    current.write_bytes(stale.read_bytes())
    engine = ClusterEngine(max_workers=1, shard_size=10, cache_dir=cache_dir)
    outcome = engine.run([SPEC])[0]
    assert engine.stats["golden_builds"] == 1
    assert pickle.loads(current.read_bytes())["schema"] == artifacts_module.ARTIFACT_SCHEMA_VERSION
    assert _comparable(outcome) == _comparable(cold)
