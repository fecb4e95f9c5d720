"""Traced mode: spans around each layer's public calls, and what they add up to.

Only the traced child process calls :func:`install`; untraced runs never
load a wrapper, so end-to-end metrics are measured on the unmodified
program.  Spans are kept in memory (name, layer, start, end, parent, cell
id) and written once at the end as Chrome ``trace_event`` JSON Lines, the
format ``repro.obs`` emits.

Layer times are inclusive sums over the wrapped calls; a layer's *self*
time subtracts the part of each span its child spans cover.  The self
times of all layers add up to the time covered by top-level spans, and
``trace.residual_s`` is what the wall clock has beyond that.

Pool workers of the cluster engine are forked from the traced process and
inherit the wrappers; those bypass recording outside the process that
installed them.  Worker-side numbers come from the ``repro.obs`` payloads
the coordinator absorbs (``shard`` and ``run_shard`` spans, counters).
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The layers spans are attributed to, in report order.
LAYERS = (
    "cli",
    "workloads",
    "faults.golden",
    "faults.sampling",
    "core.intervals",
    "core.grouping",
    "faults.injector",
    "uarch.checkpoint",
    "api",
    "cluster",
)

STRUCTURES = ("RF", "SQ", "L1D")

#: (name, unit, better) of every per-layer metric the traced run reports.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("import.repro_s", "s", "lower"),
    ("workloads.build_s", "s", "lower"),
    ("workloads.builds", "count", "lower"),
    ("faults.golden.capture_s", "s", "lower"),
    ("faults.golden.count", "count", "lower"),
    ("faults.golden.cycles", "cycles", "lower"),
    ("faults.golden.cycles_per_s", "cycles/s", "higher"),
    ("faults.sampling.fault_list_s", "s", "lower"),
    ("faults.sampling.faults", "count", "lower"),
    ("core.intervals.build_s", "s", "lower"),
    ("core.intervals.count", "count", "lower"),
    ("core.grouping.reduce_s", "s", "lower"),
    ("core.grouping.after_ace", "count", "lower"),
    ("core.grouping.groups", "count", "lower"),
    ("core.grouping.injection_ratio", "ratio", "lower"),
    ("faults.injector.inject_s", "s", "lower"),
] + [
    (f"faults.injector.inject_s.{structure}", "s", "lower")
    for structure in STRUCTURES
] + [
    ("faults.injector.injections", "count", "lower"),
    ("faults.injector.tail_cycles", "cycles", "lower"),
    ("uarch.checkpoint.timeline_bytes", "bytes", "lower"),
    ("uarch.checkpoint.restores", "count", "lower"),
    ("uarch.checkpoint.restore_s", "s", "lower"),
    ("uarch.checkpoint.ff_cycles", "cycles", "higher"),
    ("uarch.checkpoint.reconv_checks", "count", "lower"),
    ("uarch.checkpoint.capture_calls", "count", "lower"),
    ("uarch.checkpoint.capture_s", "s", "lower"),
    ("api.engine.run_s", "s", "lower"),
    ("api.store.save_s", "s", "lower"),
    ("api.store.saves", "count", "lower"),
    ("api.store.bytes", "bytes", "lower"),
    ("cluster.shards", "count", "lower"),
    ("cluster.shard_s_p50", "s", "lower"),
    ("cluster.shard_s_p99", "s", "lower"),
    ("cluster.worker_busy_s", "s", "lower"),
    ("cluster.parallel_eff", "ratio", "higher"),
    ("cluster.journal.appends", "count", "lower"),
    ("cluster.journal.append_s", "s", "lower"),
    ("cluster.artifacts.store_s", "s", "lower"),
    ("cluster.artifacts.hit_ratio", "ratio", "higher"),
    ("cluster.coordinator_s", "s", "lower"),
    ("cluster.merge_s", "s", "lower"),
    ("resilience.disk_retries", "count", "lower"),
] + [
    (f"{layer}.self_s", "s", "lower") for layer in LAYERS
] + [
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.residual_s", "s", "lower"),
    ("trace.residual_share", "ratio", "lower"),
]

#: Simulated statistics that are a pure function of the specs: they must
#: repeat exactly between runs, and any difference is a correctness
#: failure.
EXACT_COUNTS = (
    "workloads.builds",
    "faults.golden.count",
    "faults.golden.cycles",
    "faults.sampling.faults",
    "core.intervals.count",
    "core.grouping.after_ace",
    "core.grouping.groups",
    "core.grouping.injection_ratio",
    "faults.injector.injections",
    "faults.injector.tail_cycles",
    "uarch.checkpoint.timeline_bytes",
    "uarch.checkpoint.restores",
    "uarch.checkpoint.ff_cycles",
    "uarch.checkpoint.reconv_checks",
    "uarch.checkpoint.capture_calls",
    "api.store.saves",
    "cluster.shards",
    "cluster.journal.appends",
    "resilience.disk_retries",
)


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    cell: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span tree plus exact counters of one traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: The cell id stamped on spans opened from now on.
        self.cell: Optional[str] = None
        self.pid = os.getpid()
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        opened = Span(len(self.spans), name, layer, self.clock(), 0.0,
                      parent, self.cell)
        self.spans.append(opened)
        self._stack.append(opened)
        try:
            yield opened
        finally:
            opened.end = self.clock()
            self._stack.pop()

    def add(self, name: str, layer: str, start: float, end: float) -> Span:
        """Record a finished top-level span (e.g. process start to imports)."""
        span = Span(len(self.spans), name, layer, start, end, None, self.cell)
        self.spans.append(span)
        return span

    def innermost_layer(self) -> Optional[str]:
        return self._stack[-1].layer if self._stack else None

    def total(self, name: str) -> float:
        """Summed inclusive seconds of every span called ``name``."""
        return sum(span.duration for span in self.spans if span.name == name)


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds each layer spent outside its own child spans.

    Spans nest strictly (one thread), so a span's children cover disjoint
    parts of it and its self time is its duration minus theirs.
    """
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    result = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        result[span.layer] = (result.get(span.layer, 0.0)
                              + span.duration - covered[span.span_id])
    return result


def top_level_seconds(spans: List[Span]) -> float:
    return sum(span.duration for span in spans if span.parent is None)


def chrome_events(spans: List[Span], pid: int) -> List[Dict[str, Any]]:
    """Spans as Chrome ``trace_event`` complete events (microseconds)."""
    events = []
    for span in spans:
        args: Dict[str, Any] = {"layer": span.layer, "span_id": span.span_id}
        if span.parent is not None:
            args["parent"] = span.parent
        if span.cell is not None:
            args["cell"] = span.cell
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": int(span.start * 1e6),
            "dur": max(0, int(span.duration * 1e6)),
            "pid": pid,
            "tid": 0,
            "args": args,
        })
    return events


def write_trace(path: str, events: List[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        for event in events:
            stream.write(json.dumps(event, sort_keys=True,
                                    separators=(",", ":")) + "\n")


def percentile(values: List[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in [0, 1]); 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
class Installation:
    """The patches :func:`install` made, so tests can undo them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _rebind(installation: Installation, original: Any, wrapped: Any) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at ``wrapped``.

    Functions imported by name (``from x import f``) live in several
    module namespaces; each must see the wrapper.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                installation.set(module, attr, wrapped)


def _spanned(recorder: SpanRecorder, original: Callable, name: str, layer: str,
             after: Optional[Callable[..., None]] = None) -> Callable:
    """``original`` inside a span; ``after(result, args, kwargs)`` runs outside it."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if os.getpid() != recorder.pid:
            return original(*args, **kwargs)
        with recorder.span(name, layer):
            result = original(*args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    return wrapper


def install(recorder: SpanRecorder) -> Installation:
    """Wrap each layer's public calls so they record into ``recorder``."""
    import repro.api  # noqa: F401 - load every module whose bindings we patch
    import repro.cluster.engine  # noqa: F401
    import repro.core.merlin  # noqa: F401
    from repro.api.store import ResultStore
    from repro.cluster import merge as merge_module
    from repro.cluster.artifacts import ArtifactCache
    from repro.cluster.journal import RunJournal
    from repro.cluster.remote import Coordinator
    from repro.core import grouping, intervals
    from repro.faults import golden, injector, sampling
    from repro.uarch import checkpoint
    from repro.uarch.pipeline import OutOfOrderCpu
    from repro.workloads import registry

    counts = recorder.counts
    installation = Installation()

    def function(module: Any, attr: str, name: str, layer: str,
                 after: Optional[Callable[..., None]] = None) -> None:
        original = getattr(module, attr)
        _rebind(installation, original,
                _spanned(recorder, original, name, layer, after))

    def method(cls: type, attr: str, name: str, layer: str,
               after: Optional[Callable[..., None]] = None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(_spanned(recorder, original.__func__,
                                           name, layer, after))
        else:
            wrapped = _spanned(recorder, original, name, layer, after)
        installation.set(cls, attr, wrapped)

    # workloads: decoded-program cache misses are the builds.
    build_cached = registry.build_cached
    misses = {"seen": build_cached.cache_info().misses}

    def after_build(result: Any, args: Any, kwargs: Any) -> None:
        now = build_cached.cache_info().misses
        counts["workloads.builds"] += now - misses["seen"]
        misses["seen"] = now

    function(registry, "build_cached", "workloads.build_cached", "workloads",
             after_build)

    def after_golden(record: Any, args: Any, kwargs: Any) -> None:
        counts["faults.golden.count"] += 1
        counts["faults.golden.cycles"] += record.cycles
        if record.checkpoints is not None:
            counts["uarch.checkpoint.timeline_bytes"] += len(pickle.dumps(
                record.checkpoints.to_payload(),
                protocol=pickle.HIGHEST_PROTOCOL))

    function(golden, "capture_golden", "faults.golden.capture_golden",
             "faults.golden", after_golden)

    def after_sampling(fault_list: Any, args: Any, kwargs: Any) -> None:
        counts["faults.sampling.faults"] += len(fault_list)

    function(sampling, "generate_fault_list",
             "faults.sampling.generate_fault_list", "faults.sampling",
             after_sampling)

    def after_intervals(interval_set: Any, args: Any, kwargs: Any) -> None:
        counts["core.intervals.count"] += interval_set.num_intervals

    function(intervals, "build_interval_set", "core.intervals.build_interval_set",
             "core.intervals", after_intervals)

    def after_grouping(grouped: Any, args: Any, kwargs: Any) -> None:
        counts["core.grouping.initial"] += grouped.initial_faults
        counts["core.grouping.after_ace"] += grouped.faults_after_ace
        counts["core.grouping.groups"] += grouped.num_groups
        counts["core.grouping.injections_required"] += grouped.injections_required

    function(grouping, "group_faults", "core.grouping.group_faults",
             "core.grouping", after_grouping)

    # faults.injector: one span per injection, timed per structure.
    inject_fault = injector.inject_fault

    def inject_wrapper(golden_record: Any, fault: Any, *args: Any,
                       **kwargs: Any) -> Any:
        if os.getpid() != recorder.pid:
            return inject_fault(golden_record, fault, *args, **kwargs)
        with recorder.span("faults.injector.inject_fault",
                           "faults.injector") as span:
            outcome = inject_fault(golden_record, fault, *args, **kwargs)
        counts[f"faults.injector.inject_s.{fault.structure.name}"] += span.duration
        return outcome

    _rebind(installation, inject_fault, inject_wrapper)

    make_hook = injector.make_reconvergence_hook

    def counted_hook_factory(*args: Any, **kwargs: Any) -> Any:
        hook = make_hook(*args, **kwargs)
        if os.getpid() != recorder.pid:
            return hook

        def counted(cpu: Any) -> Any:
            counts["uarch.checkpoint.reconv_checks"] += 1
            return hook(cpu)

        return counted

    _rebind(installation, make_hook, counted_hook_factory)

    def after_capture(state: Any, args: Any, kwargs: Any) -> None:
        counts["uarch.checkpoint.capture_calls"] += 1

    function(checkpoint, "capture_state", "uarch.checkpoint.capture_state",
             "uarch.checkpoint", after_capture)
    method(OutOfOrderCpu, "restore", "uarch.checkpoint.restore",
           "uarch.checkpoint")

    # Simulated cycles of injection runs after their restore point.
    cpu_run = OutOfOrderCpu.__dict__["run"]

    def run_wrapper(cpu: Any, *args: Any, **kwargs: Any) -> Any:
        if (os.getpid() != recorder.pid
                or recorder.innermost_layer() != "faults.injector"):
            return cpu_run(cpu, *args, **kwargs)
        started = cpu.cycle
        result = cpu_run(cpu, *args, **kwargs)
        counts["faults.injector.tail_cycles"] += cpu.cycle - started
        return result

    installation.set(OutOfOrderCpu, "run", run_wrapper)

    def after_save(path: Any, args: Any, kwargs: Any) -> None:
        counts["api.store.saves"] += 1
        counts["api.store.bytes"] += os.path.getsize(path)

    method(ResultStore, "save", "api.store.save", "api", after_save)

    method(ArtifactCache, "store_golden", "cluster.artifacts.store_golden",
           "cluster")

    def after_append(result: Any, args: Any, kwargs: Any) -> None:
        counts["cluster.journal.appends"] += 1

    for attr in ("create", "record_shard", "record_merged"):
        method(RunJournal, attr, "cluster.journal.append", "cluster",
               after_append)
    method(Coordinator, "run", "cluster.coordinator.run", "cluster")
    function(merge_module, "merge_shard_outcomes", "cluster.merge", "cluster")
    return installation


# ----------------------------------------------------------------------
# Metric assembly
# ----------------------------------------------------------------------
def obs_total(obs_ctx: Any, name: str) -> float:
    return float(obs_ctx.registry.total(name)) if obs_ctx is not None else 0.0


def layer_metrics(recorder: SpanRecorder, obs_ctx: Any, wall_s: float,
                  import_s: float, workers: int) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s`` (needs two runs)."""
    counts = recorder.counts
    # Events from other processes are the cluster workers' own spans.
    worker_events = [event for event in
                     (obs_ctx.tracer.events() if obs_ctx is not None else [])
                     if event.get("pid") != recorder.pid]
    shard_s = [event["dur"] / 1e6 for event in worker_events
               if event.get("name") == "shard"]
    worker_inject: Dict[str, float] = defaultdict(float)
    for event in worker_events:
        if event.get("name") == "run_shard":
            structure = (event.get("args") or {}).get("structure", "")
            worker_inject[structure] += event["dur"] / 1e6

    engine_s = sum(span.duration for span in recorder.spans
                   if span.layer == "api" and span.parent is None)
    golden_s = recorder.total("faults.golden.capture_golden")
    golden_cycles = counts["faults.golden.cycles"]
    initial = counts["core.grouping.initial"]
    busy = sum(shard_s)
    hits = obs_total(obs_ctx, "repro_artifact_cache_hits_total")
    lookups = hits + obs_total(obs_ctx, "repro_artifact_cache_misses_total")

    metrics: Dict[str, float] = {
        "import.repro_s": import_s,
        "workloads.build_s": recorder.total("workloads.build_cached"),
        "workloads.builds": counts["workloads.builds"],
        "faults.golden.capture_s": golden_s,
        "faults.golden.count": counts["faults.golden.count"],
        "faults.golden.cycles": golden_cycles,
        "faults.golden.cycles_per_s": golden_cycles / golden_s if golden_s else 0.0,
        "faults.sampling.fault_list_s": recorder.total(
            "faults.sampling.generate_fault_list"),
        "faults.sampling.faults": counts["faults.sampling.faults"],
        "core.intervals.build_s": recorder.total(
            "core.intervals.build_interval_set"),
        "core.intervals.count": counts["core.intervals.count"],
        "core.grouping.reduce_s": recorder.total("core.grouping.group_faults"),
        "core.grouping.after_ace": counts["core.grouping.after_ace"],
        "core.grouping.groups": counts["core.grouping.groups"],
        "core.grouping.injection_ratio": (
            counts["core.grouping.injections_required"] / initial
            if initial else 0.0),
        "faults.injector.inject_s": (recorder.total("faults.injector.inject_fault")
                                     + sum(worker_inject.values())),
    }
    for structure in STRUCTURES:
        metrics[f"faults.injector.inject_s.{structure}"] = (
            counts[f"faults.injector.inject_s.{structure}"]
            + worker_inject[structure])
    metrics.update({
        "faults.injector.injections": obs_total(obs_ctx, "repro_injections_total"),
        "faults.injector.tail_cycles": counts["faults.injector.tail_cycles"],
        "uarch.checkpoint.timeline_bytes": counts["uarch.checkpoint.timeline_bytes"],
        "uarch.checkpoint.restores": obs_total(
            obs_ctx, "repro_checkpoint_restores_total"),
        "uarch.checkpoint.restore_s": recorder.total("uarch.checkpoint.restore"),
        "uarch.checkpoint.ff_cycles": obs_total(
            obs_ctx, "repro_checkpoint_cycles_fast_forwarded_total"),
        "uarch.checkpoint.reconv_checks": counts["uarch.checkpoint.reconv_checks"],
        "uarch.checkpoint.capture_calls": counts["uarch.checkpoint.capture_calls"],
        "uarch.checkpoint.capture_s": recorder.total(
            "uarch.checkpoint.capture_state"),
        "api.engine.run_s": engine_s,
        "api.store.save_s": recorder.total("api.store.save"),
        "api.store.saves": counts["api.store.saves"],
        "api.store.bytes": counts["api.store.bytes"],
        "cluster.shards": float(len(shard_s)),
        "cluster.shard_s_p50": percentile(shard_s, 0.5),
        "cluster.shard_s_p99": percentile(shard_s, 0.99),
        "cluster.worker_busy_s": busy,
        "cluster.parallel_eff": (busy / (workers * engine_s)
                                 if shard_s and engine_s else 0.0),
        "cluster.journal.appends": counts["cluster.journal.appends"],
        "cluster.journal.append_s": recorder.total("cluster.journal.append"),
        "cluster.artifacts.store_s": recorder.total(
            "cluster.artifacts.store_golden"),
        "cluster.artifacts.hit_ratio": hits / lookups if lookups else 0.0,
        "cluster.coordinator_s": recorder.total("cluster.coordinator.run"),
        "cluster.merge_s": recorder.total("cluster.merge"),
        "resilience.disk_retries": obs_total(obs_ctx, "repro_disk_retries_total"),
    })
    for layer, seconds in self_times(recorder.spans).items():
        metrics[f"{layer}.self_s"] = seconds
    residual = wall_s - top_level_seconds(recorder.spans)
    metrics["trace.wall_s"] = wall_s
    metrics["trace.residual_s"] = residual
    metrics["trace.residual_share"] = residual / wall_s if wall_s else 0.0
    return metrics


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over several traced runs."""
    return {name: statistics.median(run[name] for run in runs)
            for name in runs[0]}
