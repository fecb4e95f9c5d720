"""The generalized fault specification and fault-list container.

A :class:`FaultSpec` describes one fault scenario as an ordered set of
``(entry, bit)`` flip sites plus an active-cycle window: the flips are
applied at the start of ``cycle`` and re-applied every ``period`` cycles
while the window (``window`` cycles long) is open.  ``stuck_value`` turns
the application from an XOR flip into pinning the bit to 0 or 1.

The classic single-bit transient of the paper is the degenerate case —
one flip site, a one-cycle window, no pinning — and every piece of
downstream machinery (plan building, scheduling, grouping, shard
payloads) reduces to its pre-generalization behaviour for it, bit for
bit.  Concrete scenario constructors live in :mod:`repro.faults.models`;
this module only defines the carrier type, so specs reconstruct from
payloads without consulting the model registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.uarch.structures import BitOp, StructureGeometry, TargetStructure

if TYPE_CHECKING:
    from repro.faults.models import FaultModel

#: Registry name of the degenerate single-flip model (kept here so the
#: carrier type does not import the registry).
SINGLE_BIT_MODEL = "single"

#: One fault-plan application: (structure, entry, bit, op).
PlanFlip = Tuple[TargetStructure, int, int, BitOp]


@dataclass(frozen=True)
class FaultSpec:
    """One fault scenario: an ordered flip set over an active-cycle window.

    ``(entry, bit)`` is the *anchor* — the first flip site — and ``cycle``
    the first active cycle; MeRLiN grouping, checkpoint scheduling and the
    ACE-like pruning all key off the anchor, exactly as they keyed off the
    whole fault when it had a single site.  ``flips`` lists every site in
    application order (it always starts with the anchor; leaving it empty
    means "just the anchor").  ``fault_id`` is a stable identifier within
    its fault list, unique by construction (used to map outcomes back to
    faults after grouping).
    """

    fault_id: int
    structure: TargetStructure
    entry: int
    bit: int
    cycle: int
    model: str = SINGLE_BIT_MODEL
    flips: Tuple[Tuple[int, int], ...] = ()
    window: int = 1
    period: int = 1
    stuck_value: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.flips:
            object.__setattr__(self, "flips", ((self.entry, self.bit),))
        else:
            normalized = tuple(
                (int(entry), int(bit)) for entry, bit in self.flips
            )
            object.__setattr__(self, "flips", normalized)
            if normalized[0] != (self.entry, self.bit):
                raise ValueError(
                    f"fault#{self.fault_id}: first flip {normalized[0]} must "
                    f"be the anchor ({self.entry}, {self.bit})"
                )
        if self.window < 1:
            raise ValueError(f"fault#{self.fault_id}: window must be >= 1")
        if self.period < 1:
            raise ValueError(f"fault#{self.fault_id}: period must be >= 1")
        if self.stuck_value not in (None, 0, 1):
            raise ValueError(
                f"fault#{self.fault_id}: stuck_value must be None, 0 or 1"
            )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def byte(self) -> int:
        """Byte position of the anchor bit inside its 64-bit entry."""
        return self.bit // 8

    @property
    def last_active_cycle(self) -> int:
        """The final cycle of the active window (== ``cycle`` for window 1)."""
        return self.cycle + self.window - 1

    @property
    def op(self) -> BitOp:
        """The bit operation the plan applies at each flip site."""
        if self.stuck_value is None:
            return BitOp.FLIP
        return BitOp.SET1 if self.stuck_value else BitOp.SET0

    @property
    def is_single_transient(self) -> bool:
        """True iff this spec is a canonical single-bit transient."""
        return (
            self.model == SINGLE_BIT_MODEL
            and self.window == 1
            and self.period == 1
            and self.stuck_value is None
            and self.flips == ((self.entry, self.bit),)
        )

    def flip_entries(self) -> Tuple[int, ...]:
        """The distinct entries touched, in first-appearance order."""
        seen: List[int] = []
        for entry, _ in self.flips:
            if entry not in seen:
                seen.append(entry)
        return tuple(seen)

    def active_cycles(self) -> List[int]:
        """The cycles the plan fires at: every ``period``-th window cycle."""
        return list(range(self.cycle, self.cycle + self.window, self.period))

    # ------------------------------------------------------------------
    # Fault-plan construction
    # ------------------------------------------------------------------
    def plan(self) -> Dict[int, List[PlanFlip]]:
        """The cycle -> applications map consumed by the pipeline.

        Single-bit transients produce the familiar one-cycle/one-flip
        plan; windowed models repeat their whole flip set at every active
        cycle (flips in spec order within a cycle).
        """
        op = self.op
        per_cycle = [
            (self.structure, entry, bit, op) for entry, bit in self.flips
        ]
        return {cycle: list(per_cycle) for cycle in self.active_cycles()}

    # ------------------------------------------------------------------
    # Payload round-trip (cluster shards, journals, property tests)
    # ------------------------------------------------------------------
    def to_payload(self) -> Tuple:
        """Pure-data encoding; single-bit faults keep the seed's 4-tuple.

        The 4-tuple compatibility matters: cluster shard ids content-hash
        their fault payloads, so single-bit shard ids (and therefore
        journaled runs) survive the generalization unchanged.
        """
        if self.is_single_transient:
            return (self.fault_id, self.entry, self.bit, self.cycle)
        return (
            self.fault_id, self.entry, self.bit, self.cycle,
            self.model, tuple(self.flips), self.window, self.period,
            self.stuck_value,
        )

    @classmethod
    def from_payload(cls, structure: TargetStructure,
                     payload: Sequence) -> "FaultSpec":
        """Inverse of :meth:`to_payload`; tolerates JSON's tuples-as-lists."""
        if len(payload) == 4:
            fault_id, entry, bit, cycle = payload
            return cls(fault_id=int(fault_id), structure=structure,
                       entry=int(entry), bit=int(bit), cycle=int(cycle))
        (fault_id, entry, bit, cycle, model, flips, window, period,
         stuck_value) = payload
        return cls(
            fault_id=int(fault_id), structure=structure,
            entry=int(entry), bit=int(bit), cycle=int(cycle),
            model=str(model),
            flips=tuple((int(fe), int(fb)) for fe, fb in flips),
            window=int(window), period=int(period),
            stuck_value=None if stuck_value is None else int(stuck_value),
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        base = (
            f"fault#{self.fault_id} {self.structure.short_name} "
            f"entry={self.entry} bit={self.bit} cycle={self.cycle}"
        )
        if self.is_single_transient:
            return base
        extras = [f"model={self.model}"]
        if len(self.flips) > 1:
            extras.append(f"flips={len(self.flips)}")
        if self.window > 1:
            extras.append(f"window={self.window}")
        if self.period > 1:
            extras.append(f"period={self.period}")
        if self.stuck_value is not None:
            extras.append(f"stuck={self.stuck_value}")
        return f"{base} {' '.join(extras)}"


class FaultColumns(NamedTuple):
    """The anchor of every fault of a list, as parallel int64 arrays."""

    fault_id: np.ndarray
    entry: np.ndarray
    bit: np.ndarray
    cycle: np.ndarray


class FaultList:
    """An ordered collection of faults targeting a single structure.

    A list is backed either by the :class:`FaultSpec` objects it was built
    from, or — for sampled lists (:meth:`from_columns`) — by anchor columns
    plus the fault model that materialises them, in which case a
    :class:`FaultSpec` is built only when a caller iterates or indexes.

    Fault ids are unique by construction: duplicates are rejected at
    ``append``/construction time, so :meth:`by_id` can never silently
    collapse two faults onto one id (which would corrupt outcome
    propagation after grouping and shard merging).
    """

    def __init__(self, structure: TargetStructure, faults: Iterable[FaultSpec] = ()):
        self.structure = structure
        self.model: Optional[FaultModel] = None
        self._specs: Optional[List[FaultSpec]] = []
        self._ids: set = set()
        self._columns: Optional[FaultColumns] = None
        for fault in faults:
            self.append(fault)

    @classmethod
    def from_columns(cls, structure: TargetStructure, model: FaultModel,
                     fault_ids: np.ndarray, entries: np.ndarray, bits: np.ndarray,
                     cycles: np.ndarray) -> "FaultList":
        """A list of ``model`` faults anchored at the given columns.

        Row ``i`` stands for ``model.make_fault(fault_ids[i], structure, entries[i],
        bits[i], cycles[i])``.
        """
        columns = FaultColumns(*(np.asarray(column, dtype=np.int64)
                                 for column in (fault_ids, entries, bits, cycles)))
        if len(np.unique(columns.fault_id)) != len(columns.fault_id):
            raise ValueError(
                f"duplicate fault id in {structure.short_name} fault list"
            )
        fault_list = cls(structure)
        fault_list.model = model
        fault_list._specs = None
        fault_list._ids = None
        fault_list._columns = columns
        return fault_list

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._specs is not None:
            return len(self._specs)
        return len(self._columns.fault_id)

    def __iter__(self) -> Iterator[FaultSpec]:
        if self._specs is not None:
            return iter(self._specs)
        return (self._make(*row) for row in zip(*(c.tolist() for c in self._columns)))

    def __getitem__(self, index: int) -> FaultSpec:
        if self._specs is not None:
            return self._specs[index]
        return self._make(*(int(column[index]) for column in self._columns))

    def _make(self, fault_id: int, entry: int, bit: int, cycle: int) -> FaultSpec:
        return self.model.make_fault(fault_id, self.structure, entry, bit, cycle)

    @property
    def columns(self) -> FaultColumns:
        """The (fault_id, entry, bit, cycle) anchor columns, in list order."""
        if self._columns is None:
            anchors = np.array([(f.fault_id, f.entry, f.bit, f.cycle) for f in self._specs],
                               dtype=np.int64).reshape(-1, 4)
            self._columns = FaultColumns(*anchors.T)
        return self._columns

    def applications(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (row, entry, cycle) application of the list's fault plans.

        Ordered by row, then in plan order within a fault: active cycles
        outermost, flip entries in spec order within a cycle.  Column lists
        expand from their model's geometry relative to the anchor, which is
        anchor-independent for every registered model.
        """
        if self._specs is None:
            template = self._make(0, 0, 0, 0)
            cycle_offsets = np.array(template.active_cycles(), dtype=np.int64)
            entry_offsets = np.array(template.flip_entries(), dtype=np.int64)
            shape = (len(self), len(cycle_offsets), len(entry_offsets))
            rows = np.arange(len(self), dtype=np.int64)[:, None, None]
            cycles = self.columns.cycle[:, None, None] + cycle_offsets[None, :, None]
            entries = self.columns.entry[:, None, None] + entry_offsets[None, None, :]
            return tuple(np.broadcast_to(column, shape).ravel()
                         for column in (rows, entries, cycles))
        rows, entries, cycles = [], [], []
        for row, fault in enumerate(self._specs):
            flip_entries = fault.flip_entries()
            for cycle in fault.active_cycles():
                for entry in flip_entries:
                    rows.append(row)
                    entries.append(entry)
                    cycles.append(cycle)
        return tuple(np.array(values, dtype=np.int64) for values in (rows, entries, cycles))

    def append(self, fault: FaultSpec) -> None:
        if fault.structure is not self.structure:
            raise ValueError("fault targets a different structure")
        if self._specs is None:
            # A column list turns into a spec list on its first append.
            self._specs = list(self)
            self._ids = set(self._columns.fault_id.tolist())
            self.model = None
        if fault.fault_id in self._ids:
            raise ValueError(
                f"duplicate fault id {fault.fault_id} in "
                f"{self.structure.short_name} fault list"
            )
        self._ids.add(fault.fault_id)
        self._specs.append(fault)
        self._columns = None

    def by_id(self) -> Dict[int, FaultSpec]:
        """Return a mapping from fault id to fault (ids are unique)."""
        return {fault.fault_id: fault for fault in self}

    def subset(self, fault_ids: Iterable[int]) -> "FaultList":
        """Return a new list containing only the given fault ids (original order)."""
        wanted = set(fault_ids)
        return FaultList(self.structure, [f for f in self if f.fault_id in wanted])

    def validate(self, geometry: StructureGeometry, total_cycles: int) -> None:
        """Check that every flip site targets a legal (entry, bit) pair and
        the window opens inside the run.

        Windows may *extend* past ``total_cycles`` (late re-applications
        simply never land), but an anchor cycle outside the run means the
        fault can never fire at all — that is a list-construction bug.
        """
        for fault in self:
            for entry, bit in fault.flips:
                if not 0 <= entry < geometry.num_entries:
                    raise ValueError(f"{fault.describe()}: entry out of range")
                if not 0 <= bit < geometry.bits_per_entry:
                    raise ValueError(f"{fault.describe()}: bit out of range")
            if not 0 <= fault.cycle < total_cycles:
                raise ValueError(f"{fault.describe()}: cycle out of range")

    def describe(self) -> str:
        return f"FaultList({self.structure.short_name}, {len(self)} faults)"
