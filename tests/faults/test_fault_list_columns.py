"""Column-backed fault lists (:meth:`FaultList.from_columns`).

Sampled lists store anchor columns plus their model and build
:class:`FaultSpec` objects only on iteration and indexing.  They must
behave exactly like a list built from the same specs: same faults, same
plan-order applications, same duplicate-id rejection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.model import FaultList
from repro.faults.models import get_model
from repro.uarch.structures import TargetStructure

STRUCTURE = TargetStructure.RF
IDS = np.array([4, 0, 9, 2])
ENTRIES = np.array([1, 3, 0, 3])
BITS = np.array([0, 17, 62, 5])
CYCLES = np.array([10, 0, 7, 31])

MODELS = [get_model("single"), get_model("multi-bit", width=3),
          get_model("intermittent", count=3, period=4), get_model("stuck-at-1", duration=5)]


def _both(model):
    columns = FaultList.from_columns(STRUCTURE, model, IDS, ENTRIES, BITS, CYCLES)
    specs = FaultList(STRUCTURE, [
        model.make_fault(int(i), STRUCTURE, int(e), int(b), int(c))
        for i, e, b, c in zip(IDS, ENTRIES, BITS, CYCLES)])
    return columns, specs


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
def test_column_list_materialises_the_same_faults(model):
    columns, specs = _both(model)
    assert len(columns) == len(specs) == 4
    assert list(columns) == list(specs)
    assert [columns[i] for i in range(-4, 4)] == [specs[i] for i in range(-4, 4)]
    assert columns.by_id() == specs.by_id()
    assert list(columns.subset([9, 4])) == list(specs.subset([9, 4]))
    for left, right in zip(columns.columns, specs.columns):
        assert left.tolist() == right.tolist()


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
def test_applications_follow_plan_order(model):
    columns, specs = _both(model)
    expected = [(row, entry, cycle) for row, fault in enumerate(specs)
                for cycle in fault.active_cycles() for entry in fault.flip_entries()]
    for fault_list in (columns, specs):
        rows, entries, cycles = fault_list.applications()
        assert list(zip(rows.tolist(), entries.tolist(), cycles.tolist())) == expected


def test_duplicate_ids_rejected_and_append_keeps_the_list_whole():
    model = get_model("intermittent")
    with pytest.raises(ValueError, match="duplicate fault id"):
        FaultList.from_columns(STRUCTURE, model, [1, 1], [0, 0], [0, 0], [0, 0])
    columns, specs = _both(model)
    extra = model.make_fault(7, STRUCTURE, 2, 2, 2)
    columns.append(extra)
    assert list(columns) == list(specs) + [extra]
    assert columns.columns.fault_id.tolist() == IDS.tolist() + [7]
    with pytest.raises(ValueError, match="duplicate fault id"):
        columns.append(model.make_fault(0, STRUCTURE, 1, 1, 1))
