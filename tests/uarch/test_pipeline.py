"""Tests for the out-of-order pipeline: architectural equivalence and behaviour."""

import pytest

from repro.isa.builder import ProgramBuilder
from repro.isa.functional import run_functional
from repro.isa.memory import MEM_LIMIT
from repro.isa.registers import Reg
from repro.uarch.config import MicroarchConfig
from repro.uarch.pipeline import OutOfOrderCpu, TerminationKind
from repro.uarch.structures import BitOp, TargetStructure
from repro.uarch.trace import AccessTracer
from repro.workloads import MIBENCH_NAMES, SPEC_NAMES, get_workload

from tests.conftest import build_call_program, build_loop_program


def test_loop_program_matches_functional(loop_program):
    functional = run_functional(loop_program)
    result = OutOfOrderCpu(loop_program, MicroarchConfig()).run()
    assert result.termination is TerminationKind.HALTED
    assert result.output == functional.output
    assert result.committed_instructions == functional.instructions
    assert result.exceptions == functional.exceptions


def test_call_program_matches_functional(call_program):
    functional = run_functional(call_program)
    result = OutOfOrderCpu(call_program, MicroarchConfig()).run()
    assert result.output == functional.output
    assert result.committed_instructions == functional.instructions


@pytest.mark.parametrize("name", list(MIBENCH_NAMES) + list(SPEC_NAMES))
def test_every_workload_matches_functional_at_test_scale(name, small_config):
    program = get_workload(name).build_for_test()
    functional = run_functional(program)
    assert functional.halted and not functional.crashed
    result = OutOfOrderCpu(program, small_config).run()
    assert result.termination is TerminationKind.HALTED
    assert result.output == functional.output
    assert result.committed_instructions == functional.instructions
    assert result.exceptions == functional.exceptions


def test_small_structures_still_produce_correct_results(loop_program):
    config = MicroarchConfig().with_register_file(24).with_store_queue(2).with_l1d(16)
    functional = run_functional(loop_program)
    result = OutOfOrderCpu(loop_program, config).run()
    assert result.output == functional.output


def test_deterministic_across_runs(loop_program):
    first = OutOfOrderCpu(loop_program, MicroarchConfig()).run()
    second = OutOfOrderCpu(loop_program, MicroarchConfig()).run()
    assert first.cycles == second.cycles
    assert first.output == second.output
    assert first.stats.branch_mispredicts == second.stats.branch_mispredicts


def test_branch_mispredictions_and_squashes_occur():
    """A data-dependent branch pattern must exercise squash/recovery."""
    b = ProgramBuilder("branchy")
    values = b.alloc_words("values", [(i * 37) % 7 for i in range(64)])
    b.movi(Reg.RDI, values)
    b.movi(Reg.RAX, 0)
    b.movi(Reg.RCX, 0)
    b.label("loop")
    b.load(Reg.RDX, Reg.RDI, 0)
    b.bge(Reg.RDX, 4, "skip")
    b.add(Reg.RAX, Reg.RAX, Reg.RDX)
    b.label("skip")
    b.add(Reg.RDI, Reg.RDI, 8)
    b.add(Reg.RCX, Reg.RCX, 1)
    b.blt(Reg.RCX, 64, "loop")
    b.out(Reg.RAX)
    b.halt()
    program = b.build()
    functional = run_functional(program)
    cpu = OutOfOrderCpu(program, MicroarchConfig())
    result = cpu.run()
    assert result.output == functional.output
    assert result.stats.branch_mispredicts > 0
    assert result.stats.squashes > 0
    assert result.stats.squashed_uops > 0


def test_store_forwarding_happens_for_call_return(call_program):
    result = OutOfOrderCpu(call_program, MicroarchConfig()).run()
    assert result.stats.store_forwards > 0


def test_timeout_termination_on_infinite_loop():
    b = ProgramBuilder("spin")
    b.label("spin")
    b.jmp("spin")
    b.halt()
    result = OutOfOrderCpu(b.build(), MicroarchConfig()).run(max_cycles=2000)
    assert result.termination in (TerminationKind.TIMEOUT, TerminationKind.DEADLOCK)


def test_crash_on_wild_store():
    b = ProgramBuilder("wildstore")
    b.movi(Reg.RAX, MEM_LIMIT + 1024)
    b.store(Reg.RAX, Reg.RAX, 0)
    b.halt()
    result = OutOfOrderCpu(b.build(), MicroarchConfig()).run()
    assert result.termination is TerminationKind.CRASH
    assert "write" in result.crash_reason


def test_crash_on_division_by_zero():
    b = ProgramBuilder("div0")
    b.movi(Reg.RAX, 5)
    b.movi(Reg.RBX, 0)
    b.div(Reg.RAX, Reg.RAX, Reg.RBX)
    b.out(Reg.RAX)
    b.halt()
    result = OutOfOrderCpu(b.build(), MicroarchConfig()).run()
    assert result.termination is TerminationKind.CRASH


def test_wrong_path_faulting_load_does_not_crash():
    """A load on a mispredicted path to a wild address must be squashed silently."""
    b = ProgramBuilder("wrongpath")
    flags = b.alloc_words("flags", [0] * 32)
    b.movi(Reg.RDI, flags)
    b.movi(Reg.R12, MEM_LIMIT + 4096)   # wild pointer used only on the untaken path
    b.movi(Reg.RCX, 0)
    b.movi(Reg.RAX, 0)
    b.label("loop")
    b.load(Reg.RDX, Reg.RDI, 0)
    b.beq(Reg.RDX, 0, "safe")           # always taken (all flags are zero)
    b.load(Reg.RAX, Reg.R12, 0)         # would crash if architecturally executed
    b.label("safe")
    b.add(Reg.RDI, Reg.RDI, 8)
    b.add(Reg.RCX, Reg.RCX, 1)
    b.blt(Reg.RCX, 32, "loop")
    b.out(Reg.RAX)
    b.halt()
    program = b.build()
    result = OutOfOrderCpu(program, MicroarchConfig()).run()
    assert result.termination is TerminationKind.HALTED
    assert result.output == [0]


def test_demand_exceptions_counted_once_per_committed_access():
    b = ProgramBuilder("demand")
    heap = b.alloc_words("heap", [5])
    b.movi(Reg.RDI, heap + 8192)
    b.load(Reg.RAX, Reg.RDI, 0)
    b.store(Reg.RAX, Reg.RDI, 64)
    b.out(Reg.RAX)
    b.halt()
    program = b.build()
    functional = run_functional(program)
    result = OutOfOrderCpu(program, MicroarchConfig()).run()
    assert functional.exceptions == 2
    assert result.exceptions == 2


def test_max_instructions_stops_at_interval_end(loop_program):
    result = OutOfOrderCpu(loop_program, MicroarchConfig()).run(max_instructions=50)
    assert result.termination is TerminationKind.INTERVAL_END
    assert result.committed_instructions >= 50


def test_commit_log_recorded_only_when_tracing(loop_program):
    traced = OutOfOrderCpu(loop_program, MicroarchConfig(), tracer=AccessTracer(enabled=True))
    traced_result = traced.run()
    assert len(traced.commit_log) == traced_result.committed_instructions
    untraced = OutOfOrderCpu(loop_program, MicroarchConfig())
    untraced.run()
    assert untraced.commit_log == []


def test_fault_plan_flip_changes_architectural_result(loop_program):
    """Flipping a register bit right before a read should usually corrupt output."""
    config = MicroarchConfig().with_register_file(64)
    golden = OutOfOrderCpu(loop_program, config).run()
    # Flip a low bit of many physical registers mid-run; renaming cycles
    # through the free list, so at least one of them must hold a live value
    # and corrupt the output (or crash/timeout the run).  Most flips are
    # masked — that asymmetry is exactly what MeRLiN exploits.
    differences = 0
    masked = 0
    for phys in range(16, 64, 2):
        for cycle in (30, 80):
            fault_plan = {cycle: [(TargetStructure.RF, phys, 0, BitOp.FLIP)]}
            cpu = OutOfOrderCpu(loop_program, config, fault_plan=fault_plan)
            result = cpu.run(max_cycles=golden.cycles * 3)
            if result.output != golden.output or result.termination is not TerminationKind.HALTED:
                differences += 1
            else:
                masked += 1
    assert differences >= 1
    assert masked > differences


def test_ipc_within_sane_bounds(loop_program):
    result = OutOfOrderCpu(loop_program, MicroarchConfig()).run()
    assert 0.1 < result.stats.ipc <= 8.0


def test_stats_dictionary_contains_derived_rates(loop_program):
    result = OutOfOrderCpu(loop_program, MicroarchConfig()).run()
    stats = result.stats.as_dict()
    assert "ipc" in stats and "l1d_miss_rate" in stats
    assert stats["cycles"] == result.cycles
    assert isinstance(result.stats.summary(), str)
