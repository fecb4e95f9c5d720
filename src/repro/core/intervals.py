"""ACE-like vulnerable-interval profiling (Section 3.1.1).

A vulnerable interval of a structure entry

* starts with a write and ends with a committed read of the same entry, or
* starts with a committed read and ends with another committed read.

Unlike classic ACE analysis, intermediate committed reads split an interval
(Figure 3) — this is what allows MeRLiN to attribute every interval to the
single (RIP, uPC) that reads the entry at its end.  Squashed (wrong-path)
reads never appear in the trace, so they cannot terminate an interval.

A fault injected at the beginning of cycle ``c`` lies in the interval
``(previous_access_cycle, read_cycle]``: a flip in the same cycle as the
preceding write is overwritten by it, while a flip in the same cycle as the
terminating read is consumed by it.

Intervals are built and queried as column arrays: one stable sort of the
structure's access trace by (entry, cycle, reads before writes) turns every
read with a predecessor in its entry into one interval, and
:meth:`IntervalSet.lookup` resolves a whole batch of (entry, cycle) probes
with one ``searchsorted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.uarch.structures import TargetStructure
from repro.uarch.trace import (
    CYCLE,
    ENTRY,
    IS_READ,
    RIP,
    TRACE_WIDTH,
    UPC,
    AccessEvent,
    AccessTracer,
)

#: Columns of an interval index: (entry, start, end, rip, upc) arrays.
IntervalColumns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class VulnerableInterval:
    """A single ACE-like vulnerable interval of one entry."""

    structure: TargetStructure
    entry: int
    start_cycle: int
    end_cycle: int
    rip: int
    upc: int

    @property
    def length(self) -> int:
        """Number of cycles in which a flip is visible to the terminating read."""
        return self.end_cycle - self.start_cycle

    def contains(self, cycle: int) -> bool:
        """True when a fault injected at the start of ``cycle`` lands in this interval."""
        return self.start_cycle < cycle <= self.end_cycle

    @property
    def reader_key(self) -> Tuple[int, int]:
        """The (RIP, uPC) grouping key of MeRLiN's first step."""
        return self.rip, self.upc


def _int64(values: Iterable[int]) -> np.ndarray:
    return np.asarray(values, dtype=np.int64).reshape(-1)


class IntervalSet:
    """All vulnerable intervals of one structure, as sorted column arrays.

    ``entries``, ``starts``, ``ends``, ``rips`` and ``upcs`` are parallel
    int64 arrays ordered by (entry, end cycle); intervals of one entry that
    share an end cycle keep their construction order.
    """

    def __init__(self, structure: TargetStructure,
                 intervals_by_entry: Dict[int, List[VulnerableInterval]]):
        flat = [(entry, iv.start_cycle, iv.end_cycle, iv.rip, iv.upc)
                for entry, intervals in intervals_by_entry.items()
                for iv in intervals]
        columns = np.array(flat, dtype=np.int64).reshape(-1, 5).T
        self._index(structure, tuple(columns))

    @classmethod
    def from_columns(cls, structure: TargetStructure,
                     columns: IntervalColumns) -> "IntervalSet":
        """Build a set from (entry, start, end, rip, upc) arrays."""
        interval_set = cls.__new__(cls)
        interval_set._index(structure, columns)
        return interval_set

    def _index(self, structure: TargetStructure, columns: IntervalColumns) -> None:
        self.structure = structure
        entries, starts, ends, rips, upcs = (_int64(column) for column in columns)
        order = np.lexsort((ends, entries))
        self.entries = entries[order]
        self.starts = starts[order]
        self.ends = ends[order]
        self.rips = rips[order]
        self.upcs = upcs[order]
        # One combined (entry, end) search key: probes clip their cycle into
        # [min_end - 1, max_end + 1], which keeps every in-entry bisection
        # result and cannot spill into a neighbouring entry.
        if len(self.ends):
            self._low = int(self.ends.min()) - 1
            self._stride = int(self.ends.max()) - self._low + 2
        else:
            self._low, self._stride = 0, 1
        self._keys = self.entries * self._stride + (self.ends - self._low)

    # ------------------------------------------------------------------
    def interval(self, index: int) -> VulnerableInterval:
        """The interval at position ``index`` of the columns."""
        return VulnerableInterval(
            structure=self.structure,
            entry=int(self.entries[index]),
            start_cycle=int(self.starts[index]),
            end_cycle=int(self.ends[index]),
            rip=int(self.rips[index]),
            upc=int(self.upcs[index]),
        )

    def _span_of(self, entry: int) -> range:
        low = int(np.searchsorted(self.entries, entry, side="left"))
        high = int(np.searchsorted(self.entries, entry, side="right"))
        return range(low, high)

    def intervals_of(self, entry: int) -> List[VulnerableInterval]:
        return [self.interval(index) for index in self._span_of(entry)]

    def all_intervals(self) -> Iterable[VulnerableInterval]:
        """Every interval, ordered by entry then end cycle."""
        for index in range(len(self.ends)):
            yield self.interval(index)

    @property
    def num_intervals(self) -> int:
        return len(self.ends)

    @property
    def entries_with_intervals(self) -> List[int]:
        return np.unique(self.entries).tolist()

    # ------------------------------------------------------------------
    def lookup(self, entries: np.ndarray, cycles: np.ndarray) -> np.ndarray:
        """Index of the interval covering each (entry, cycle) probe, or -1.

        Per probe this is a bisection over the entry's end cycles followed
        by a containment check, exactly as :meth:`find`, for the whole
        batch at once.
        """
        entries = _int64(entries)
        cycles = _int64(cycles)
        found = np.full(len(cycles), -1, dtype=np.int64)
        if not len(self.ends) or not len(cycles):
            return found
        clipped = np.clip(cycles, self._low, self._low + self._stride - 1)
        index = np.searchsorted(self._keys, entries * self._stride + (clipped - self._low))
        index = np.minimum(index, len(self.ends) - 1)
        hit = ((self.entries[index] == entries)
               & (self.starts[index] < cycles) & (cycles <= self.ends[index]))
        found[hit] = index[hit]
        return found

    def find(self, entry: int, cycle: int) -> Optional[VulnerableInterval]:
        """Return the vulnerable interval covering a fault at (entry, cycle)."""
        (index,) = self.lookup([entry], [cycle])
        return self.interval(index) if index >= 0 else None

    def vulnerable_cycles(self, entry: int) -> int:
        """Total vulnerable time of an entry (sum of its interval lengths)."""
        span = self._span_of(entry)
        return int((self.ends[span.start:span.stop] - self.starts[span.start:span.stop]).sum())

    def total_vulnerable_cycles(self) -> int:
        return int((self.ends - self.starts).sum())

    def reader_keys(self) -> List[Tuple[int, int]]:
        """Distinct (RIP, uPC) pairs that terminate at least one interval."""
        return sorted(set(zip(self.rips.tolist(), self.upcs.tolist())))

    def describe(self) -> str:
        return (
            f"IntervalSet({self.structure.short_name}: {self.num_intervals} intervals "
            f"over {len(self.entries_with_intervals)} entries, "
            f"{self.total_vulnerable_cycles()} vulnerable cycles)"
        )


def interval_columns(trace: np.ndarray) -> IntervalColumns:
    """The ACE-like intervals of one structure's ``(n, 5)`` access trace.

    One stable sort orders the accesses by entry, then cycle, with reads
    before writes within a cycle (a value read and overwritten in the same
    cycle was still consumed by that read); recording order breaks the
    remaining ties.  Every read that follows another access of its entry
    then closes the interval ``(previous access cycle, read cycle]`` and
    carries the read's (RIP, uPC).
    """
    trace = trace[np.lexsort((1 - trace[:, IS_READ], trace[:, CYCLE], trace[:, ENTRY]))]
    entries = trace[:, ENTRY]
    closes = np.flatnonzero((trace[1:, IS_READ] == 1) & (entries[1:] == entries[:-1])) + 1
    return (entries[closes], trace[closes - 1, CYCLE], trace[closes, CYCLE],
            trace[closes, RIP], trace[closes, UPC])


def build_intervals_for_entry(structure: TargetStructure, entry: int,
                              events: List[AccessEvent]) -> List[VulnerableInterval]:
    """Turn the access events of one entry into its intervals."""
    trace = np.array([(entry, event.cycle, event.is_read, event.rip, event.upc)
                      for event in events], dtype=np.int64).reshape(-1, TRACE_WIDTH)
    intervals = IntervalSet.from_columns(structure, interval_columns(trace))
    return list(intervals.all_intervals())


def build_interval_set(tracer: AccessTracer, structure: TargetStructure) -> IntervalSet:
    """Build the ACE-like interval set of ``structure`` from a profiling trace."""
    return IntervalSet.from_columns(structure, interval_columns(tracer.columns(structure)))


def classic_ace_intervals(tracer: AccessTracer, structure: TargetStructure) -> IntervalSet:
    """Classic ACE intervals: write .. *last* committed read before overwrite.

    Used only to corroborate that the overall vulnerable time matches the
    ACE-like definition (the paper makes the same observation in
    Section 3.1.1); the per-interval reader attribution is that of the last
    read of the chain.
    """
    fine = build_interval_set(tracer, structure)
    entries, starts, ends = fine.entries, fine.starts, fine.ends
    # A chain continues while the next interval of the entry starts where
    # the previous one ended.
    first = np.ones(len(ends), dtype=bool)
    first[1:] = (entries[1:] != entries[:-1]) | (starts[1:] != ends[:-1])
    last = np.ones(len(ends), dtype=bool)
    last[:-1] = first[1:]
    heads, tails = np.flatnonzero(first), np.flatnonzero(last)
    return IntervalSet.from_columns(structure, (
        entries[heads], starts[heads], ends[tails], fine.rips[tails], fine.upcs[tails],
    ))
