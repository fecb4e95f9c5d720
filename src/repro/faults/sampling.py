"""Statistical fault sampling (Leveugle et al., DATE 2009 — paper ref. [26]).

The initial fault-list size for a statistically significant campaign is

.. math::

    n = \\frac{N}{1 + e^2 \\cdot \\frac{N - 1}{t^2 \\cdot p (1 - p)}}

where ``N`` is the size of the exhaustive fault population (structure bits
times execution cycles), ``e`` the error margin, ``t`` the normal-quantile
of the confidence level, and ``p`` the estimated proportion (0.5 worst
case).  The paper's baseline campaign uses a 0.63% error margin at a 99.8%
confidence level — about 60,000 faults — and the scaling study (Figure 13)
a 0.19% margin — about 600,000 faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.faults.model import FaultList
from repro.faults.models import FaultModel, SingleBitTransient
from repro.uarch.structures import StructureGeometry, TargetStructure

#: Error margin / confidence level of the paper's baseline 60K-fault campaign.
BASELINE_ERROR_MARGIN = 0.0063
BASELINE_CONFIDENCE = 0.998

#: Error margin of the 600K-fault scaling campaign (Figure 13).
SCALING_ERROR_MARGIN = 0.0019


def _normal_quantile(probability: float) -> float:
    """Two-sided normal quantile via the inverse error function."""
    if not 0.0 < probability < 1.0:
        raise ValueError("confidence level must be in (0, 1)")
    # t such that P(|Z| <= t) = probability for Z ~ N(0, 1).
    return math.sqrt(2.0) * _erfinv(probability)


def _erfinv(x: float) -> float:
    """Inverse error function (Winitzki's approximation refined by Newton steps)."""
    if not -1.0 < x < 1.0:
        raise ValueError("erfinv domain is (-1, 1)")
    a = 0.147
    ln_term = math.log(1.0 - x * x)
    first = 2.0 / (math.pi * a) + ln_term / 2.0
    estimate = math.copysign(
        math.sqrt(math.sqrt(first * first - ln_term / a) - first), x
    )
    # Two Newton-Raphson refinements on erf(y) - x = 0.
    for _ in range(2):
        error = math.erf(estimate) - x
        derivative = 2.0 / math.sqrt(math.pi) * math.exp(-estimate * estimate)
        estimate -= error / derivative
    return estimate


def exhaustive_population(geometry: StructureGeometry, total_cycles: int) -> int:
    """Size of the exhaustive fault list: every bit at every cycle."""
    return geometry.total_bits * total_cycles


def required_sample_size(
    population: int,
    error_margin: float = BASELINE_ERROR_MARGIN,
    confidence: float = BASELINE_CONFIDENCE,
    proportion: float = 0.5,
) -> int:
    """Number of faults required for the given statistical significance."""
    if population <= 0:
        raise ValueError("population must be positive")
    if not 0.0 < error_margin < 1.0:
        raise ValueError("error margin must be in (0, 1)")
    t = _normal_quantile(confidence)
    numerator = float(population)
    denominator = 1.0 + (error_margin ** 2) * (population - 1) / (
        t ** 2 * proportion * (1.0 - proportion)
    )
    return max(1, math.ceil(numerator / denominator))


@dataclass(frozen=True)
class SamplingPlan:
    """A fully specified statistical sampling of the exhaustive fault list.

    ``bit_positions`` is the number of legal anchor-bit positions per
    entry under the campaign's fault model (``None`` means every bit, the
    single-bit default); population sizing is per-model, so a multi-bit
    burst that cannot anchor in the top bits has a correspondingly
    smaller exhaustive population.
    """

    structure: TargetStructure
    num_entries: int
    bits_per_entry: int
    total_cycles: int
    error_margin: float = BASELINE_ERROR_MARGIN
    confidence: float = BASELINE_CONFIDENCE
    sample_size_override: Optional[int] = None
    model_name: str = "single"
    bit_positions: Optional[int] = None
    population_override: Optional[int] = None

    @property
    def anchor_bits(self) -> int:
        """Legal anchor-bit positions per entry (model-dependent)."""
        return (self.bit_positions if self.bit_positions is not None
                else self.bits_per_entry)

    @property
    def population(self) -> int:
        """Exhaustive population: the model's own sizing when provided."""
        if self.population_override is not None:
            return self.population_override
        return self.num_entries * self.anchor_bits * self.total_cycles

    @property
    def sample_size(self) -> int:
        if self.sample_size_override is not None:
            return self.sample_size_override
        return required_sample_size(self.population, self.error_margin, self.confidence)

    def describe(self) -> str:
        return (
            f"{self.structure.short_name}[{self.model_name}]: "
            f"population={self.population:.3e}, "
            f"margin={self.error_margin:.2%}, confidence={self.confidence:.1%}, "
            f"sample={self.sample_size}"
        )


def generate_fault_list(
    geometry: StructureGeometry,
    total_cycles: int,
    sample_size: Optional[int] = None,
    error_margin: float = BASELINE_ERROR_MARGIN,
    confidence: float = BASELINE_CONFIDENCE,
    seed: int = 0,
    model: Optional[FaultModel] = None,
) -> FaultList:
    """Draw a uniform random fault list over (entry, anchor bit, cycle).

    When ``sample_size`` is None it is computed from the sampling formula
    over the *model's* exhaustive population (Leveugle sizing is
    per-model); experiments at reduced scale pass an explicit size and
    report the statistically required size separately.

    ``model`` (default :class:`~repro.faults.models.SingleBitTransient`)
    turns each drawn anchor into a full fault scenario; the list stores
    only the drawn anchor columns and builds a scenario when it is
    iterated or indexed.  The draw sequence itself is model-independent
    except for the anchor-bit range, so the single-bit model reproduces
    the seed's draws bit for bit.
    """
    if total_cycles <= 0:
        raise ValueError("total_cycles must be positive")
    if model is None:
        model = SingleBitTransient()
    plan = SamplingPlan(
        structure=geometry.structure,
        num_entries=geometry.num_entries,
        bits_per_entry=geometry.bits_per_entry,
        total_cycles=total_cycles,
        error_margin=error_margin,
        confidence=confidence,
        sample_size_override=sample_size,
        model_name=model.name,
        bit_positions=model.bit_positions(geometry),
        population_override=model.population(geometry, total_cycles),
    )
    count = plan.sample_size
    rng = np.random.default_rng(seed)
    entries = rng.integers(0, geometry.num_entries, size=count)
    bits = rng.integers(0, plan.anchor_bits, size=count)
    cycles = rng.integers(0, total_cycles, size=count)
    return FaultList.from_columns(
        geometry.structure, model, np.arange(count, dtype=np.int64), entries, bits, cycles
    )
