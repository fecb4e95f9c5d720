"""MeRLiN's two-step fault-grouping algorithm (Section 3.2).

Step 1 classifies every fault of the initial list:

* faults landing outside every vulnerable interval are Masked without any
  injection (the ACE-like pruning);
* the remaining faults are grouped by the (RIP, uPC) of the committed
  micro-operation that reads the faulty entry at the end of the interval
  the fault falls in.

Step 2 splits each (RIP, uPC) group by the byte position of the flipped bit
(logical masking differs across bytes) and picks one representative per
byte sub-group, preferring representatives from *different dynamic
instances* of the same static instruction to increase time diversity
(Figure 5).

Generalized fault models flow through both steps keyed by their *first
vulnerable application* — the earliest (active cycle, flip entry) pair in
plan order that lands inside a vulnerable interval (for the paper's
single-bit transients this is the classic single anchor lookup).  A fault
is ACE-masked only when *every* application of its window misses every
interval; grouping and the byte split then use the keying interval and
the anchor's byte.  Representative propagation within a group stays exact
because every member of a group applies the same model with the same
geometry relative to its anchor.

The reduction runs on column arrays: every fault application is looked up
in one batched :meth:`~repro.core.intervals.IntervalSet.lookup`, the
surviving faults are ordered by one stable sort on (RIP, uPC, byte), and
only the representative choice loops in Python, once per group.  Groups
are views over those arrays: apart from each group's representative, no
:class:`GroupedFault` or :class:`~repro.faults.model.FaultSpec` object
exists until a caller reads a group's members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.intervals import IntervalSet, VulnerableInterval
from repro.faults.model import FaultList, FaultSpec


@dataclass
class GroupedFault:
    """A fault together with the vulnerable interval it landed in."""

    fault: FaultSpec
    interval: VulnerableInterval

    @property
    def byte(self) -> int:
        return self.fault.byte

    @property
    def dynamic_instance(self) -> int:
        """The interval end cycle identifies the dynamic instance of the reader."""
        return self.interval.end_cycle


class _GroupingTable:
    """The columns one grouping run shares with all of its group views."""

    def __init__(self, fault_list: FaultList, intervals: IntervalSet, hits: np.ndarray):
        self.fault_list = fault_list
        self.intervals = intervals
        #: Per fault row, the index of its keying interval (-1: ACE-masked).
        self.hits = hits

    def member(self, row: int) -> GroupedFault:
        return GroupedFault(fault=self.fault_list[row],
                            interval=self.intervals.interval(self.hits[row]))


class FaultGroup:
    """A final group produced by step 2 (one (RIP, uPC, byte) combination).

    Built either from explicit ``members`` or, by :func:`group_faults`, as a
    view over the grouping's columns whose members are materialised on
    each access.
    """

    def __init__(self, rip: int, upc: int, byte: int,
                 members: Sequence[GroupedFault] = (),
                 representative: Optional[FaultSpec] = None):
        self.rip = rip
        self.upc = upc
        self.byte = byte
        self.representative = representative
        self._members = list(members)
        self._table: Optional[_GroupingTable] = None
        self._rows: Optional[np.ndarray] = None

    @classmethod
    def _view(cls, rip: int, upc: int, byte: int, table: _GroupingTable,
              rows: np.ndarray, representative_row: int) -> "FaultGroup":
        group = cls(rip, upc, byte, representative=table.fault_list[representative_row])
        group._table = table
        group._rows = rows
        return group

    @property
    def members(self) -> List[GroupedFault]:
        if self._rows is None:
            return self._members
        return [self._table.member(row) for row in self._rows.tolist()]

    @property
    def key(self) -> Tuple[int, int, int]:
        return self.rip, self.upc, self.byte

    @property
    def reader_key(self) -> Tuple[int, int]:
        return self.rip, self.upc

    @property
    def size(self) -> int:
        return len(self._members) if self._rows is None else len(self._rows)

    def member_fault_ids(self) -> List[int]:
        if self._rows is None:
            return [member.fault.fault_id for member in self._members]
        return self._table.fault_list.columns.fault_id[self._rows].tolist()


@dataclass
class GroupedFaults:
    """Output of the two-step grouping algorithm."""

    structure_name: str
    initial_faults: int
    masked_fault_ids: List[int]
    groups: List[FaultGroup]

    @property
    def faults_in_groups(self) -> int:
        return sum(group.size for group in self.groups)

    @property
    def faults_after_ace(self) -> int:
        """Faults that survived the ACE-like pruning (hit vulnerable intervals)."""
        return self.initial_faults - len(self.masked_fault_ids)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def injections_required(self) -> int:
        """Number of representatives that must actually be injected."""
        return sum(1 for group in self.groups if group.representative is not None)

    @property
    def ace_speedup(self) -> float:
        """Fault-list reduction achieved by the ACE-like step alone."""
        if self.faults_after_ace == 0:
            return float(self.initial_faults) if self.initial_faults else 1.0
        return self.initial_faults / self.faults_after_ace

    @property
    def total_speedup(self) -> float:
        """Fault-list reduction achieved by ACE-like pruning plus grouping."""
        injections = self.injections_required
        if injections == 0:
            return float(self.initial_faults) if self.initial_faults else 1.0
        return self.initial_faults / injections

    @property
    def grouping_speedup(self) -> float:
        """Reduction contributed by grouping on top of the ACE-like step."""
        injections = self.injections_required
        if injections == 0:
            return float(self.faults_after_ace) if self.faults_after_ace else 1.0
        return self.faults_after_ace / injections

    def group_of_fault(self) -> Dict[int, FaultGroup]:
        """Map every grouped fault id to its final group."""
        mapping: Dict[int, FaultGroup] = {}
        for group in self.groups:
            for member in group.members:
                mapping[member.fault.fault_id] = group
        return mapping

    def group_sizes(self) -> List[int]:
        return [group.size for group in self.groups]

    def describe(self) -> str:
        return (
            f"GroupedFaults({self.structure_name}: {self.initial_faults} initial, "
            f"{len(self.masked_fault_ids)} ACE-masked, {self.num_groups} groups, "
            f"{self.injections_required} injections, "
            f"speedup {self.total_speedup:.1f}x)"
        )


def first_vulnerable_intervals(fault_list: FaultList, intervals: IntervalSet) -> np.ndarray:
    """Per fault row, the first vulnerable interval any application lands in.

    Returns interval indices into ``intervals`` (-1 where every application
    misses).  Applications are scanned in plan order — active cycles
    outermost, flip entries in spec order within a cycle — so a single-bit
    transient reduces to the classic one-lookup anchor check, while a
    windowed fault (intermittent re-application, stuck-at pin) is prunable
    only if *every* application misses every vulnerable interval: a pin
    whose anchor lands in dead time but whose window covers a later
    interval of the entry corrupts a consumed value and must not be
    ACE-masked.
    """
    rows, entries, cycles = fault_list.applications()
    found = intervals.lookup(entries, cycles)
    hit = found >= 0
    hit_rows = rows[hit]
    # Applications are row-major in plan order: a row's first hit is its
    # first occurrence among the hits.
    first = np.ones(len(hit_rows), dtype=bool)
    first[1:] = hit_rows[1:] != hit_rows[:-1]
    hits = np.full(len(fault_list), -1, dtype=np.int64)
    hits[hit_rows[first]] = found[hit][first]
    return hits


def _representative(positions: List[int], instances: List[int], usage: Dict[int, int]) -> int:
    """Pick the member whose dynamic instance is least used by this static instruction.

    ``positions`` and ``instances`` list the group's members ordered by
    (dynamic instance, fault id); the winner minimises (usage, instance,
    fault id).  This realises the time-diversity rule of step 2:
    representatives of the byte sub-groups of one static instruction are
    drawn from different dynamic instances whenever possible.
    """
    best, best_usage = 0, None
    for index, instance in enumerate(instances):
        used = usage.get(instance, 0)
        if best_usage is None or used < best_usage:
            best, best_usage = index, used
            if used == 0:
                break
    usage[instances[best]] = best_usage + 1
    return positions[best]


def group_faults(fault_list: FaultList, intervals: IntervalSet) -> GroupedFaults:
    """Run both grouping steps over ``fault_list``."""
    hits = first_vulnerable_intervals(fault_list, intervals)
    columns = fault_list.columns
    table = _GroupingTable(fault_list, intervals, hits)

    # Step 1 and the step-2 byte split as one stable sort: members stay in
    # fault-list order within their (RIP, uPC, byte) group.
    rows = np.flatnonzero(hits >= 0)
    found = hits[rows]
    rips, upcs = intervals.rips[found], intervals.upcs[found]
    byte = columns.bit[rows] // 8
    order = np.lexsort((byte, upcs, rips))
    rows, found, rips, upcs, byte = (a[order] for a in (rows, found, rips, upcs, byte))
    count = len(rows)
    new_reader = np.ones(count, dtype=bool)
    new_reader[1:] = (rips[1:] != rips[:-1]) | (upcs[1:] != upcs[:-1])
    new_group = new_reader.copy()
    new_group[1:] |= byte[1:] != byte[:-1]
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], count)

    # Representative candidates: each group's members by (instance, id).
    instances = intervals.ends[found]
    candidates = np.lexsort((columns.fault_id[rows], instances, np.cumsum(new_group)))
    candidate_instances = instances[candidates].tolist()
    candidates = candidates.tolist()

    groups: List[FaultGroup] = []
    usage: Dict[int, int] = {}
    reader_starts = new_reader.tolist()
    keys = zip(rips[starts].tolist(), upcs[starts].tolist(), byte[starts].tolist())
    for (rip, upc, byte_value), start, end in zip(keys, starts.tolist(), ends.tolist()):
        if reader_starts[start]:
            usage = {}
        chosen = _representative(candidates[start:end], candidate_instances[start:end], usage)
        groups.append(FaultGroup._view(rip, upc, byte_value, table,
                                       rows[start:end], int(rows[chosen])))

    return GroupedFaults(
        structure_name=fault_list.structure.short_name,
        initial_faults=len(fault_list),
        masked_fault_ids=columns.fault_id[hits < 0].tolist(),
        groups=groups,
    )
