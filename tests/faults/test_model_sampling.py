"""Tests for the fault model and the Leveugle statistical sampling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.model import FaultList, FaultSpec
from repro.faults.sampling import (
    BASELINE_CONFIDENCE,
    BASELINE_ERROR_MARGIN,
    SCALING_ERROR_MARGIN,
    SamplingPlan,
    exhaustive_population,
    generate_fault_list,
    required_sample_size,
)
from repro.uarch.config import MicroarchConfig
from repro.uarch.structures import BitOp, TargetStructure, structure_geometry


def _geometry(structure=TargetStructure.RF, regs=64):
    return structure_geometry(structure, MicroarchConfig().with_register_file(regs))


def test_fault_spec_byte_and_plan_entry():
    fault = FaultSpec(3, TargetStructure.RF, entry=7, bit=20, cycle=100)
    assert fault.byte == 2
    assert fault.plan() == {100: [(TargetStructure.RF, 7, 20, BitOp.FLIP)]}
    assert "RF" in fault.describe()


def test_fault_list_rejects_mixed_structures():
    fault = FaultSpec(0, TargetStructure.SQ, 0, 0, 0)
    with pytest.raises(ValueError):
        FaultList(TargetStructure.RF, [fault])
    flist = FaultList(TargetStructure.RF)
    with pytest.raises(ValueError):
        flist.append(fault)


def test_fault_list_subset_and_by_id():
    faults = [FaultSpec(i, TargetStructure.RF, i, 0, i) for i in range(10)]
    flist = FaultList(TargetStructure.RF, faults)
    subset = flist.subset([2, 5])
    assert len(subset) == 2
    assert [f.fault_id for f in subset] == [2, 5]
    assert flist.by_id()[7].cycle == 7
    assert flist[3].fault_id == 3


def test_fault_list_validate_bounds():
    geometry = _geometry()
    good = FaultList(TargetStructure.RF, [FaultSpec(0, TargetStructure.RF, 1, 1, 1)])
    good.validate(geometry, total_cycles=10)
    bad = FaultList(TargetStructure.RF, [FaultSpec(0, TargetStructure.RF, 999, 1, 1)])
    with pytest.raises(ValueError):
        bad.validate(geometry, total_cycles=10)


def test_paper_baseline_sample_sizes():
    """The paper's 2000 / 60K / 600K fault counts follow from the formula."""
    population = 256 * 64 * 100_000_000   # 256 64-bit registers, 100M cycles
    assert required_sample_size(population, 0.0288, 0.99) == pytest.approx(2000, rel=0.05)
    assert required_sample_size(
        population, BASELINE_ERROR_MARGIN, BASELINE_CONFIDENCE
    ) == pytest.approx(60_000, rel=0.05)
    # The paper rounds the fault count to 600,000 rather than the margin
    # (footnote 5), so the formula output sits slightly above it.
    assert required_sample_size(
        population, SCALING_ERROR_MARGIN, BASELINE_CONFIDENCE
    ) == pytest.approx(600_000, rel=0.15)


def test_sample_size_bounded_by_population():
    assert required_sample_size(50, 0.01, 0.998) == 50


def test_sample_size_monotone_in_error_margin():
    population = 10 ** 12
    sizes = [required_sample_size(population, margin, 0.99)
             for margin in (0.05, 0.02, 0.01, 0.005)]
    assert sizes == sorted(sizes)


def test_sample_size_rejects_bad_arguments():
    with pytest.raises(ValueError):
        required_sample_size(0, 0.01, 0.99)
    with pytest.raises(ValueError):
        required_sample_size(100, 1.5, 0.99)
    with pytest.raises(ValueError):
        required_sample_size(100, 0.01, 1.5)


def test_sampling_plan_describes_population():
    geometry = _geometry()
    plan = SamplingPlan(
        structure=TargetStructure.RF,
        num_entries=geometry.num_entries,
        bits_per_entry=geometry.bits_per_entry,
        total_cycles=1000,
    )
    assert plan.population == 64 * 64 * 1000
    assert plan.sample_size > 0
    assert "RF" in plan.describe()
    fixed = SamplingPlan(
        structure=TargetStructure.RF, num_entries=4, bits_per_entry=64,
        total_cycles=10, sample_size_override=17,
    )
    assert fixed.sample_size == 17


def test_exhaustive_population():
    geometry = _geometry()
    assert exhaustive_population(geometry, 1000) == 64 * 64 * 1000


def test_generate_fault_list_is_deterministic_and_in_bounds():
    geometry = _geometry()
    first = generate_fault_list(geometry, total_cycles=500, sample_size=200, seed=3)
    second = generate_fault_list(geometry, total_cycles=500, sample_size=200, seed=3)
    different = generate_fault_list(geometry, total_cycles=500, sample_size=200, seed=4)
    assert len(first) == 200
    assert [(f.entry, f.bit, f.cycle) for f in first] == [
        (f.entry, f.bit, f.cycle) for f in second
    ]
    assert [(f.entry, f.bit, f.cycle) for f in first] != [
        (f.entry, f.bit, f.cycle) for f in different
    ]
    first.validate(geometry, total_cycles=500)
    assert [f.fault_id for f in first] == list(range(200))


def test_generate_fault_list_rejects_zero_cycles():
    with pytest.raises(ValueError):
        generate_fault_list(_geometry(), total_cycles=0, sample_size=10)


@settings(max_examples=25)
@given(
    margin=st.floats(min_value=0.001, max_value=0.2),
    confidence=st.floats(min_value=0.8, max_value=0.999),
    population=st.integers(min_value=1000, max_value=10 ** 14),
)
def test_sample_size_properties(margin, confidence, population):
    size = required_sample_size(population, margin, confidence)
    assert 1 <= size <= population
    # Higher confidence at the same margin never shrinks the sample.
    assert required_sample_size(population, margin, min(0.999, confidence + 0.0005)) >= size
