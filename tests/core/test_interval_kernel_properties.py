"""Property tests of the interval kernel and batched lookup.

Random access streams — few entries and few cycles, so same-cycle reads
and writes, several reads in one cycle (zero-length intervals with equal
end cycles), write-only and read-first entries and empty structures all
occur — are fed through a tracer.  The columnar :class:`IntervalSet` must
hold exactly the per-object reference's intervals in the same per-entry
order, and :meth:`IntervalSet.lookup` / :meth:`IntervalSet.find` must
answer every (entry, cycle) probe as the reference's bisection does.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.intervals import build_interval_set
from repro.uarch.structures import TargetStructure
from repro.uarch.trace import AccessKind, AccessTracer

from tests.core.reduction_reference import ReferenceIntervals

STRUCTURE = TargetStructure.SQ
ENTRIES = 4
CYCLES = 12

EVENTS = st.lists(
    st.tuples(
        st.integers(0, ENTRIES - 1),       # entry
        st.integers(0, CYCLES),            # cycle
        st.booleans(),                     # is_read
        st.integers(-1, 3),                # rip (-1: write-back sentinel)
        st.integers(0, 2),                 # upc
    ),
    max_size=40,
)

# (entry, cycle, is_read, rip, upc) streams for the named edge cases.
SAME_CYCLE_READ_AND_WRITE = [(0, 2, False, 0, 0), (0, 5, False, 0, 0), (0, 5, True, 1, 0)]
SEVERAL_READS_ONE_CYCLE = [(1, 1, False, 0, 0), (1, 4, True, 1, 0), (1, 4, True, 2, 1),
                           (1, 4, True, 3, 2), (1, 6, True, 0, 0)]
WRITE_ONLY_AND_READ_FIRST = [(2, 3, False, 0, 0), (2, 7, False, 0, 0),
                             (3, 2, True, 1, 0), (3, 8, True, 2, 0)]


def _tracer(events) -> AccessTracer:
    tracer = AccessTracer(enabled=True)
    for entry, cycle, is_read, rip, upc in events:
        kind = AccessKind.READ if is_read else AccessKind.WRITE
        tracer.record_sq(entry, cycle, kind, rip, upc)
    return tracer


def _row(interval):
    if interval is None:
        return None
    return (interval.entry, interval.start_cycle, interval.end_cycle,
            interval.rip, interval.upc)


@settings(max_examples=200, deadline=None)
@given(events=EVENTS)
@example(events=[])
@example(events=SAME_CYCLE_READ_AND_WRITE)
@example(events=SEVERAL_READS_ONE_CYCLE)
@example(events=WRITE_ONLY_AND_READ_FIRST)
def test_interval_kernel_matches_reference(events):
    tracer = _tracer(events)
    reference = ReferenceIntervals(tracer, STRUCTURE)
    intervals = build_interval_set(tracer, STRUCTURE)
    assert intervals.entries_with_intervals == sorted(reference.by_entry)
    for entry in range(ENTRIES):
        assert ([_row(iv) for iv in intervals.intervals_of(entry)]
                == [_row(iv) for iv in reference.by_entry.get(entry, [])])
        assert intervals.vulnerable_cycles(entry) == sum(
            iv.length for iv in reference.by_entry.get(entry, []))
    assert intervals.num_intervals == sum(len(v) for v in reference.by_entry.values())


@settings(max_examples=200, deadline=None)
@given(events=EVENTS)
@example(events=[])
@example(events=SAME_CYCLE_READ_AND_WRITE)
@example(events=SEVERAL_READS_ONE_CYCLE)
@example(events=WRITE_ONLY_AND_READ_FIRST)
def test_batched_lookup_matches_reference_bisection(events):
    tracer = _tracer(events)
    reference = ReferenceIntervals(tracer, STRUCTURE)
    intervals = build_interval_set(tracer, STRUCTURE)
    probes = [(entry, cycle) for entry in range(-1, ENTRIES + 1)
              for cycle in range(-2, CYCLES + 3)]
    found = intervals.lookup([e for e, _ in probes], [c for _, c in probes]).tolist()
    for (entry, cycle), index in zip(probes, found):
        expected = _row(reference.find(entry, cycle))
        assert _row(intervals.interval(index) if index >= 0 else None) == expected
        assert _row(intervals.find(entry, cycle)) == expected
