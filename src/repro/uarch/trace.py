"""Structure access tracing for the ACE-like analysis.

During the profiling (golden) run the pipeline records every *physical*
write and every *committed* read of the three fault-target structures.  The
trace is later turned into vulnerable intervals by
:mod:`repro.core.intervals`.

Each access carries the cycle of the access and — for reads — the RIP and
uPC of the micro-operation that performed it, which is MeRLiN's grouping
key.  Dirty L1D write-backs read a line on behalf of no instruction; they
carry the sentinel RIP :data:`WRITEBACK_RIP`.

The trace is columnar: one flat ``int64`` array per structure holding
``(entry, cycle, is_read, rip, upc)`` rows in recording order
(:meth:`AccessTracer.columns`).  :class:`AccessEvent` objects exist only
when a caller asks for them (:meth:`AccessTracer.events`).
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.uarch.structures import TargetStructure

#: Sentinel RIP used for reads performed by dirty cache write-backs.
WRITEBACK_RIP = -1

#: Column positions of one trace row (see :meth:`AccessTracer.columns`).
TRACE_WIDTH = 5
ENTRY, CYCLE, IS_READ, RIP, UPC = range(TRACE_WIDTH)


class AccessKind(enum.Enum):
    """Kind of a structure access."""

    WRITE = "write"
    READ = "read"


@dataclass(frozen=True)
class AccessEvent:
    """A single access to an entry of a fault-target structure."""

    structure: TargetStructure
    entry: int
    cycle: int
    kind: AccessKind
    rip: int = WRITEBACK_RIP
    upc: int = 0

    @property
    def is_read(self) -> bool:
        return self.kind is AccessKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is AccessKind.WRITE


class AccessTracer:
    """Collects structure accesses during a profiling run.

    The tracer is disabled by default (injection runs do not pay the tracing
    cost); the golden profiling run enables it.  Accesses are stored per
    structure in recording order, which is chronological for writes and
    commit-ordered for reads — the interval builder re-sorts by cycle.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._rows: Dict[TargetStructure, array] = {
            structure: array("q") for structure in TargetStructure
        }
        # Direct handles for the per-structure hot paths.
        self._rf = self._rows[TargetStructure.RF]
        self._sq = self._rows[TargetStructure.SQ]
        self._l1d = self._rows[TargetStructure.L1D]

    # ------------------------------------------------------------------
    def record(self, event: AccessEvent) -> None:
        """Record an arbitrary event (used by tests and generic callers)."""
        if not self.enabled:
            return
        self._rows[event.structure].extend(
            (event.entry, event.cycle, event.is_read, event.rip, event.upc)
        )

    def record_rf(self, entry: int, cycle: int, kind: AccessKind, rip: int = WRITEBACK_RIP,
                  upc: int = 0) -> None:
        if not self.enabled:
            return
        self._rf.extend((entry, cycle, kind is AccessKind.READ, rip, upc))

    def record_sq(self, entry: int, cycle: int, kind: AccessKind, rip: int = WRITEBACK_RIP,
                  upc: int = 0) -> None:
        if not self.enabled:
            return
        self._sq.extend((entry, cycle, kind is AccessKind.READ, rip, upc))

    def record_l1d(self, entry: int, cycle: int, kind: AccessKind, rip: int = WRITEBACK_RIP,
                   upc: int = 0) -> None:
        if not self.enabled:
            return
        self._l1d.extend((entry, cycle, kind is AccessKind.READ, rip, upc))

    # ------------------------------------------------------------------
    def columns(self, structure: TargetStructure) -> np.ndarray:
        """The accesses of ``structure`` as an ``(n, 5)`` int64 array.

        Rows are in recording order; columns are :data:`ENTRY`,
        :data:`CYCLE`, :data:`IS_READ`, :data:`RIP` and :data:`UPC`.  The
        array is a copy, so recording may continue while it is in use.
        """
        return np.array(self._rows[structure], dtype=np.int64).reshape(-1, TRACE_WIDTH)

    def events(self, structure: TargetStructure) -> List[AccessEvent]:
        """Return all recorded events of ``structure`` (insertion order)."""
        return [
            AccessEvent(structure, entry, cycle,
                        AccessKind.READ if is_read else AccessKind.WRITE, rip, upc)
            for entry, cycle, is_read, rip, upc in self.columns(structure).tolist()
        ]

    def events_by_entry(self, structure: TargetStructure) -> Dict[int, List[AccessEvent]]:
        """Group the events of ``structure`` by entry, sorted by cycle."""
        grouped: Dict[int, List[AccessEvent]] = {}
        for event in self.events(structure):
            grouped.setdefault(event.entry, []).append(event)
        for events in grouped.values():
            events.sort(key=lambda e: e.cycle)
        return grouped

    def counts(self) -> Dict[TargetStructure, Tuple[int, int]]:
        """Return (writes, reads) counts per structure."""
        result = {}
        for structure in TargetStructure:
            trace = self.columns(structure)
            reads = int(trace[:, IS_READ].sum())
            result[structure] = (len(trace) - reads, reads)
        return result

    def clear(self) -> None:
        """Drop all recorded events."""
        for rows in self._rows.values():
            del rows[:]
