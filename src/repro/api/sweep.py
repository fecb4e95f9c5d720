"""Design-space sweep builder: cross-products of specs.

:func:`sweep` expands workloads x structures x configurations into a flat
list of :class:`~repro.api.spec.CampaignSpec` — the unit every execution
engine consumes.  This is how the paper's evaluation is shaped (Figures
8-10: three structures, three sizes each, ten benchmarks), and how any
design-space exploration plugs into the façade.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.api.spec import CampaignSpec
from repro.faults.models import DEFAULT_MODEL
from repro.faults.sampling import BASELINE_CONFIDENCE, BASELINE_ERROR_MARGIN
from repro.uarch.config import MicroarchConfig
from repro.uarch.structures import TargetStructure

StructureLike = Union[str, TargetStructure]


def _as_structure(value: StructureLike) -> TargetStructure:
    if isinstance(value, TargetStructure):
        return value
    try:
        return TargetStructure[value]
    except KeyError:
        names = ", ".join(s.name for s in TargetStructure)
        raise ValueError(f"unknown structure {value!r}; expected one of {names}") from None


def sweep(
    workloads: Iterable[str],
    structures: Iterable[StructureLike] = (TargetStructure.RF,),
    configs: Optional[Sequence[MicroarchConfig]] = None,
    *,
    faults: Optional[int] = None,
    error_margin: float = BASELINE_ERROR_MARGIN,
    confidence: float = BASELINE_CONFIDENCE,
    seed: int = 0,
    scale: Optional[int] = None,
    method: str = "merlin",
    fault_model: str = DEFAULT_MODEL,
    model_params: Optional[Dict[str, int]] = None,
) -> List[CampaignSpec]:
    """Expand a cross-product of campaign axes into a spec list.

    The expansion order is workloads-major (all structures and configs of
    one workload are adjacent), which keeps a session's golden-run cache
    hot: every (workload, config) pair's profiling run is captured
    once and shared by its structures.  ``fault_model``/``model_params``
    apply to every spec of the sweep (sweeping the model axis itself is a
    matter of concatenating sweeps).
    """
    config_axis: Sequence[MicroarchConfig] = (
        configs if configs is not None else (MicroarchConfig(),)
    )
    structure_axis = [_as_structure(value) for value in structures]
    specs: List[CampaignSpec] = []
    for workload in workloads:
        for config in config_axis:
            for structure in structure_axis:
                specs.append(CampaignSpec(
                    workload=workload,
                    structure=structure,
                    config=config,
                    scale=scale,
                    faults=faults,
                    error_margin=error_margin,
                    confidence=confidence,
                    seed=seed,
                    method=method,
                    fault_model=fault_model,
                    model_params=model_params or {},
                ))
    return specs


def config_axis(
    registers: Iterable[int] = (),
    sq_entries: Iterable[int] = (),
    l1d_kb: Iterable[int] = (),
    base: Optional[MicroarchConfig] = None,
) -> List[MicroarchConfig]:
    """Cross-product the Table 1 sizing knobs into a configuration axis.

    Empty axes contribute the base value, so ``config_axis()`` is just
    ``[MicroarchConfig()]`` and ``config_axis(registers=(256, 128, 64))``
    is the Figure 8 register-file sweep.
    """
    configs = [base if base is not None else MicroarchConfig()]
    if registers:
        configs = [c.with_register_file(size) for c in configs for size in registers]
    if sq_entries:
        configs = [c.with_store_queue(size) for c in configs for size in sq_entries]
    if l1d_kb:
        configs = [c.with_l1d(size) for c in configs for size in l1d_kb]
    return configs
