"""Heap regression: MeRLiN phases 1-2 keep no per-fault or per-access objects.

The session memo holds every golden (with its access trace) and every
initial fault list for the rest of the session, so any per-event or
per-fault Python object they kept would stay on the heap — and in every
garbage-collector pass — for the whole session.  After reducing every
registry cell in one :class:`~repro.api.Session`, the only such objects
alive must be the ones a caller asked for: each group's representative
(picked by the reduction) and the members of a group the caller reads.
"""

from __future__ import annotations

import gc
from collections import Counter

from repro.api import CampaignSpec, Session
from repro.core.grouping import GroupedFault
from repro.core.intervals import VulnerableInterval
from repro.faults.model import FaultSpec
from repro.uarch.structures import TargetStructure
from repro.uarch.trace import AccessEvent
from repro.workloads import all_names

TRACKED = (FaultSpec, AccessEvent, VulnerableInterval, GroupedFault)


def _new_instances(before):
    gc.collect()
    return Counter(type(obj).__name__ for obj in gc.get_objects()
                   if isinstance(obj, TRACKED) and id(obj) not in before)


def test_reducing_every_registry_cell_leaves_no_per_object_state():
    gc.collect()
    existing = [obj for obj in gc.get_objects() if isinstance(obj, TRACKED)]
    before = {id(obj) for obj in existing}

    session = Session()
    results = []
    for name in all_names():
        for structure in TargetStructure:
            spec = CampaignSpec(workload=name, structure=structure, faults=2000,
                                seed=1, method="merlin")
            results.append(session.prepare(spec).merlin_campaign().reduce())
    assert len(results) == 60
    assert session.cache_info()["goldens"] == 20

    representatives = sum(grouped.injections_required for grouped in results)
    assert representatives > 0
    assert _new_instances(before) == Counter(FaultSpec=representatives)

    # Reading a group's members materialises exactly that group's members,
    # and only for as long as the caller holds them.
    group = max(results[0].groups, key=lambda g: g.size)
    members = group.members
    assert _new_instances(before) == Counter(
        FaultSpec=representatives + group.size,
        GroupedFault=group.size, VulnerableInterval=group.size)
    del members

    del results, group
    assert _new_instances(before) == Counter()
    assert session.cache_info()["fault_lists"] == 60
