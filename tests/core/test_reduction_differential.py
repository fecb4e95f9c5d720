"""Registry-wide differential test of the columnar MeRLiN reduction.

The per-object reduction in :mod:`tests.core.reduction_reference` is the
oracle.  The column kernels in :mod:`repro.core.intervals` and
:mod:`repro.core.grouping` must reproduce it exactly on every registry
workload, every fault-target structure and four fault models: interval
count and vulnerable time, ACE-masked ids, group keys, sizes and members,
and representatives.
"""

from __future__ import annotations

import pytest

from repro.api import CampaignSpec, Session
from repro.core.grouping import group_faults
from repro.core.intervals import build_interval_set
from repro.faults.models import get_model
from repro.faults.sampling import generate_fault_list
from repro.uarch.structures import TargetStructure, structure_geometry
from repro.workloads import all_names

from tests.core.reduction_reference import ReferenceIntervals, reference_group_faults

#: Initial faults per (workload, structure, model) cell.
FAULTS = 1500

MODELS = {
    "single": get_model("single"),
    "multi-bit": get_model("multi-bit", width=2),
    "intermittent": get_model("intermittent"),
    "stuck-at": get_model("stuck-at-0"),
}


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def goldens():
    session = Session()
    return {name: session.golden(CampaignSpec(workload=name, structure=TargetStructure.RF))
            for name in all_names()}


@pytest.mark.parametrize("structure", list(TargetStructure), ids=lambda s: s.short_name)
def test_columnar_reduction_matches_per_object_reference(goldens, structure):
    assert len(goldens) == 20
    for seed, (name, golden) in enumerate(sorted(goldens.items())):
        reference = ReferenceIntervals(golden.tracer, structure)
        intervals = build_interval_set(golden.tracer, structure)
        reference_rows = reference.rows()
        assert intervals.num_intervals == len(reference_rows), name
        assert intervals.total_vulnerable_cycles() == sum(
            end - start for _, end, start, _, _ in reference_rows), name
        assert sorted(zip(intervals.entries.tolist(), intervals.ends.tolist(),
                          intervals.starts.tolist(), intervals.rips.tolist(),
                          intervals.upcs.tolist())) == reference_rows, name

        geometry = structure_geometry(structure, golden.config)
        for model_name, model in MODELS.items():
            cell = f"{name}/{structure.short_name}/{model_name}"
            fault_list = generate_fault_list(geometry, golden.cycles, sample_size=FAULTS,
                                             seed=seed, model=model)
            masked, groups = reference_group_faults(fault_list, reference)
            grouped = group_faults(fault_list, intervals)
            assert grouped.masked_fault_ids == masked, cell
            assert [group.key for group in grouped.groups] == [key for key, _, _ in groups], cell
            assert [group.member_fault_ids() for group in grouped.groups] == [
                members for _, members, _ in groups], cell
            assert [group.size for group in grouped.groups] == [
                len(members) for _, members, _ in groups], cell
            assert [group.representative.fault_id for group in grouped.groups] == [
                representative for _, _, representative in groups], cell
