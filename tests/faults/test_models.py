"""Unit tests for the pluggable fault-model zoo and the generalized spec."""

import pytest

from repro.faults.model import SINGLE_BIT_MODEL, FaultSpec
from repro.faults.models import (
    DEFAULT_MODEL,
    FaultModel,
    IntermittentBurst,
    MultiBitAdjacent,
    SingleBitTransient,
    StuckAt0,
    StuckAt1,
    get_model,
    model_names,
)
from repro.faults.sampling import generate_fault_list
from repro.uarch.config import MicroarchConfig
from repro.uarch.structures import BitOp, TargetStructure, structure_geometry

GEOMETRY = structure_geometry(TargetStructure.RF, MicroarchConfig().with_register_file(64))

ALL_MODELS = [
    SingleBitTransient(),
    MultiBitAdjacent(width=2),
    MultiBitAdjacent(width=4),
    IntermittentBurst(count=3, period=2),
    StuckAt0(duration=8),
    StuckAt1(duration=8),
]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_names_and_default():
    names = model_names()
    assert names == ("single", "multi-bit", "intermittent",
                     "stuck-at-0", "stuck-at-1")
    assert DEFAULT_MODEL == "single" == SINGLE_BIT_MODEL


def test_get_model_builds_each_registered_model():
    assert get_model("single") == SingleBitTransient()
    assert get_model("multi-bit", width=4) == MultiBitAdjacent(4)
    assert get_model("intermittent", count=5, period=3) == IntermittentBurst(5, 3)
    assert get_model("stuck-at-0", duration=7) == StuckAt0(7)
    assert get_model("stuck-at-1") == StuckAt1()


def test_get_model_rejects_unknown_name_and_params():
    with pytest.raises(ValueError, match="unknown fault model"):
        get_model("cosmic-ray")
    with pytest.raises(ValueError, match="does not accept"):
        get_model("single", width=2)
    with pytest.raises(ValueError, match="does not accept"):
        get_model("multi-bit", wdith=2)  # typo'd parameter name


def test_get_model_value_errors_keep_their_real_cause():
    """Constructor rejections surface as themselves, not as unknown params."""
    with pytest.raises(ValueError, match="width must be in 2..8"):
        get_model("multi-bit", width=99)
    with pytest.raises(ValueError, match="duration must be >= 1"):
        get_model("stuck-at-0", duration=0)


def test_get_model_on_parameterless_model_names_real_parameter_set():
    """No object.__init__ args/kwargs leakage; *args names are unknown."""
    with pytest.raises(ValueError, match=r"it accepts \[\]") as failure:
        get_model("single", width=2)
    assert "args" not in str(failure.value).replace("'width'", "")
    with pytest.raises(ValueError, match="does not accept"):
        get_model("single", args=1)


def test_model_equality_and_hash_by_value():
    assert MultiBitAdjacent(2) == MultiBitAdjacent(2)
    assert MultiBitAdjacent(2) != MultiBitAdjacent(4)
    assert hash(StuckAt0(8)) == hash(StuckAt0(8))
    assert StuckAt0(8) != StuckAt1(8)
    assert SingleBitTransient() != object()  # NotImplemented fallback


def test_model_describe_renders_params():
    assert SingleBitTransient().describe() == "single"
    assert MultiBitAdjacent(4).describe() == "multi-bit(width=4)"
    assert "count=3" in IntermittentBurst(3, 2).describe()


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        MultiBitAdjacent(width=1)
    with pytest.raises(ValueError):
        MultiBitAdjacent(width=9)
    with pytest.raises(ValueError):
        IntermittentBurst(count=1)
    with pytest.raises(ValueError):
        IntermittentBurst(count=3, period=0)
    with pytest.raises(ValueError):
        StuckAt0(duration=0)


# ----------------------------------------------------------------------
# Fault construction
# ----------------------------------------------------------------------
def test_single_bit_faults_are_canonical():
    fault = SingleBitTransient().make_fault(7, TargetStructure.RF, 3, 20, 100)
    assert fault == FaultSpec(7, TargetStructure.RF, entry=3, bit=20, cycle=100)
    assert fault.is_single_transient
    assert fault.flips == ((3, 20),)
    assert fault.window == 1
    assert fault.last_active_cycle == 100
    assert fault.op is BitOp.FLIP
    assert fault.plan() == {100: [(TargetStructure.RF, 3, 20, BitOp.FLIP)]}


def test_multi_bit_burst_is_adjacent_within_entry():
    fault = MultiBitAdjacent(4).make_fault(0, TargetStructure.SQ, 5, 10, 50)
    assert fault.flips == ((5, 10), (5, 11), (5, 12), (5, 13))
    assert fault.flip_entries() == (5,)
    assert fault.window == 1
    assert not fault.is_single_transient
    plan = fault.plan()
    assert list(plan) == [50]
    assert len(plan[50]) == 4
    assert "flips=4" in fault.describe()


def test_multi_bit_anchor_range_shrinks():
    model = MultiBitAdjacent(4)
    assert model.bit_positions(GEOMETRY) == 64 - 3
    assert model.population(GEOMETRY, 100) == 64 * 61 * 100
    # A burst anchored at the last legal position stays inside the entry.
    fault = model.make_fault(0, TargetStructure.RF, 0, 60, 0)
    assert max(bit for _, bit in fault.flips) == 63


def test_intermittent_reapplies_over_window():
    fault = IntermittentBurst(count=3, period=4).make_fault(
        1, TargetStructure.RF, 2, 7, 30
    )
    assert fault.window == 9
    assert fault.period == 4
    assert fault.active_cycles() == [30, 34, 38]
    assert fault.last_active_cycle == 38
    plan = fault.plan()
    assert sorted(plan) == [30, 34, 38]
    assert all(flips == [(TargetStructure.RF, 2, 7, BitOp.FLIP)]
               for flips in plan.values())


def test_stuck_at_pins_every_window_cycle():
    fault = StuckAt1(duration=3).make_fault(2, TargetStructure.L1D, 9, 1, 10)
    assert fault.stuck_value == 1
    assert fault.op is BitOp.SET1
    assert fault.active_cycles() == [10, 11, 12]
    assert fault.plan()[11] == [(TargetStructure.L1D, 9, 1, BitOp.SET1)]
    zero = StuckAt0(duration=2).make_fault(3, TargetStructure.RF, 0, 0, 5)
    assert zero.op is BitOp.SET0
    assert "stuck=0" in zero.describe()


# ----------------------------------------------------------------------
# FaultSpec validation and payload round-trip
# ----------------------------------------------------------------------
def test_fault_spec_rejects_bad_shapes():
    with pytest.raises(ValueError, match="anchor"):
        FaultSpec(0, TargetStructure.RF, 1, 2, 3, flips=((9, 9), (1, 2)))
    with pytest.raises(ValueError, match="window"):
        FaultSpec(0, TargetStructure.RF, 1, 2, 3, window=0)
    with pytest.raises(ValueError, match="period"):
        FaultSpec(0, TargetStructure.RF, 1, 2, 3, period=0)
    with pytest.raises(ValueError, match="stuck_value"):
        FaultSpec(0, TargetStructure.RF, 1, 2, 3, stuck_value=2)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.describe())
def test_payload_round_trip(model):
    fault = model.make_fault(11, TargetStructure.RF, 4, 13, 77)
    back = FaultSpec.from_payload(TargetStructure.RF, fault.to_payload())
    assert back == fault


def test_single_bit_payload_keeps_seed_four_tuple():
    fault = FaultSpec(5, TargetStructure.L1D, entry=8, bit=3, cycle=44)
    assert fault.to_payload() == (5, 8, 3, 44)


def test_base_model_make_fault_is_abstract():
    with pytest.raises(NotImplementedError):
        FaultModel().make_fault(0, TargetStructure.RF, 0, 0, 0)


def test_multi_bit_rejects_entry_too_narrow_for_burst():
    from repro.uarch.structures import StructureGeometry

    narrow = StructureGeometry(TargetStructure.RF, num_entries=4,
                               bits_per_entry=4)
    with pytest.raises(ValueError, match="cannot host"):
        MultiBitAdjacent(8).bit_positions(narrow)


def test_fault_spec_describe_variants():
    single = FaultSpec(1, TargetStructure.RF, 2, 3, 4)
    assert single.describe() == "fault#1 RF entry=2 bit=3 cycle=4"
    burst = MultiBitAdjacent(2).make_fault(2, TargetStructure.SQ, 1, 0, 9)
    assert "model=multi-bit" in burst.describe()
    glitch = IntermittentBurst(3, 2).make_fault(3, TargetStructure.RF, 0, 0, 0)
    assert "window=5" in glitch.describe() and "period=2" in glitch.describe()
    pinned = StuckAt1(4).make_fault(4, TargetStructure.L1D, 0, 0, 0)
    assert "stuck=1" in pinned.describe()


def test_fault_list_describe_counts_faults():
    from repro.faults.model import FaultList

    flist = FaultList(TargetStructure.RF,
                      [FaultSpec(0, TargetStructure.RF, 0, 0, 0)])
    assert flist.describe() == "FaultList(RF, 1 faults)"


# ----------------------------------------------------------------------
# Sampling integration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.describe())
def test_generate_fault_list_materialises_model(model):
    faults = generate_fault_list(GEOMETRY, total_cycles=500,
                                 sample_size=50, seed=1, model=model)
    assert len(faults) == 50
    faults.validate(GEOMETRY, total_cycles=500)
    for fault in faults:
        assert fault.model == model.name
        if isinstance(model, MultiBitAdjacent):
            assert len(fault.flips) == model.width
        if isinstance(model, IntermittentBurst):
            assert fault.window == (model.count - 1) * model.period + 1
        if isinstance(model, (StuckAt0, StuckAt1)):
            assert fault.window == model.duration


def test_model_draws_share_anchor_sequence_with_single_bit():
    """Same seed, same anchors: only the materialisation differs.

    (The anchor-bit range differs for multi-bit, so this holds exactly for
    models with full bit range — intermittent and stuck-at.)
    """
    single = generate_fault_list(GEOMETRY, 400, sample_size=30, seed=9)
    stuck = generate_fault_list(GEOMETRY, 400, sample_size=30, seed=9,
                                model=StuckAt1(duration=5))
    assert [(f.entry, f.bit, f.cycle) for f in single] == [
        (f.entry, f.bit, f.cycle) for f in stuck
    ]


def test_model_population_override_reaches_the_sampler():
    """A model's own population() is what sizes the statistical sample."""

    class TinyPopulation(SingleBitTransient):
        def population(self, geometry, total_cycles):
            return 50  # the formula caps the sample at the population

    shrunk = generate_fault_list(GEOMETRY, 1000, seed=0,
                                 error_margin=0.01, confidence=0.998,
                                 model=TinyPopulation())
    assert len(shrunk) == 50


def test_per_model_population_sizing_feeds_sample_size():
    wide = generate_fault_list(GEOMETRY, 1000, seed=0,
                               error_margin=0.05, confidence=0.95)
    narrow = generate_fault_list(GEOMETRY, 1000, seed=0,
                                 error_margin=0.05, confidence=0.95,
                                 model=MultiBitAdjacent(8))
    # The multi-bit population is smaller (57/64 of the anchors), and at
    # these loose margins the formula is population-sensitive.
    assert len(narrow) <= len(wide)
