"""The per-object MeRLiN reduction, kept as a test oracle.

A copy of the reduction as it was before it became columnar: per-entry
interval building over ``AccessEvent`` objects, a per-fault bisection over
each entry's end cycles, and dictionary grouping with the time-diversity
representative rule.  The column kernels of :mod:`repro.core.intervals`
and :mod:`repro.core.grouping` are checked against it.
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

from repro.core.intervals import VulnerableInterval
from repro.faults.model import FaultList, FaultSpec
from repro.uarch.structures import TargetStructure
from repro.uarch.trace import AccessEvent, AccessTracer


def reference_intervals_for_entry(structure: TargetStructure, entry: int,
                                  events: List[AccessEvent]) -> List[VulnerableInterval]:
    ordered = sorted(events, key=lambda e: (e.cycle, e.is_write))
    intervals: List[VulnerableInterval] = []
    previous: Optional[AccessEvent] = None
    for event in ordered:
        if event.is_read and previous is not None:
            intervals.append(VulnerableInterval(
                structure=structure, entry=entry, start_cycle=previous.cycle,
                end_cycle=event.cycle, rip=event.rip, upc=event.upc,
            ))
        previous = event
    return intervals


class ReferenceIntervals:
    """Per-entry interval lists with a bisection over their end cycles."""

    def __init__(self, tracer: AccessTracer, structure: TargetStructure):
        self.by_entry: Dict[int, List[VulnerableInterval]] = {}
        for entry, events in tracer.events_by_entry(structure).items():
            intervals = reference_intervals_for_entry(structure, entry, events)
            if intervals:
                self.by_entry[entry] = sorted(intervals, key=lambda iv: iv.end_cycle)
        self.ends = {entry: [iv.end_cycle for iv in intervals]
                     for entry, intervals in self.by_entry.items()}

    def find(self, entry: int, cycle: int) -> Optional[VulnerableInterval]:
        ends = self.ends.get(entry)
        if not ends:
            return None
        index = bisect.bisect_left(ends, cycle)
        if index >= len(ends):
            return None
        interval = self.by_entry[entry][index]
        return interval if interval.contains(cycle) else None

    def rows(self) -> List[Tuple[int, int, int, int, int]]:
        return sorted((iv.entry, iv.end_cycle, iv.start_cycle, iv.rip, iv.upc)
                      for intervals in self.by_entry.values() for iv in intervals)


def reference_first_vulnerable_interval(
        fault: FaultSpec, intervals: ReferenceIntervals) -> Optional[VulnerableInterval]:
    entries = fault.flip_entries()
    for cycle in fault.active_cycles():
        for entry in entries:
            interval = intervals.find(entry, cycle)
            if interval is not None:
                return interval
    return None


def reference_group_faults(fault_list: FaultList, intervals: ReferenceIntervals):
    """(masked ids, [(key, member ids, representative id)]) of the two steps."""
    masked: List[int] = []
    step1: Dict[Tuple[int, int], List[Tuple[FaultSpec, VulnerableInterval]]] = defaultdict(list)
    for fault in fault_list:
        interval = reference_first_vulnerable_interval(fault, intervals)
        if interval is None:
            masked.append(fault.fault_id)
        else:
            step1[interval.reader_key].append((fault, interval))
    groups = []
    for (rip, upc), members in sorted(step1.items()):
        by_byte: Dict[int, list] = defaultdict(list)
        for fault, interval in members:
            by_byte[fault.byte].append((fault, interval))
        usage: Counter = Counter()
        for byte, byte_members in sorted(by_byte.items()):
            fault, interval = min(byte_members, key=lambda m: (
                usage[m[1].end_cycle], m[1].end_cycle, m[0].fault_id))
            usage[interval.end_cycle] += 1
            groups.append(((rip, upc, byte),
                           [f.fault_id for f, _ in byte_members], fault.fault_id))
    return masked, groups
