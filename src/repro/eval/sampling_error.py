"""Sampled vs exhaustive classification rates — the sampling-error table.

For each circuit this experiment grades the exhaustive campaign (the
ground truth the paper reports) and one sampled campaign per requested
sample size, then tabulates, per fault class:

* the exhaustive rate,
* the sampled point estimate with its confidence interval,
* the absolute estimation error, and
* whether the interval **covers** the true rate — the property the
  statistical machinery exists to provide.

The default circuits are the CI trio (b04, b06, b14); any registered
circuit works. Oracles flow through the shared runner path, so exhaustive
grades are reused from the results store when present.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.faults.classify import FaultClass
from repro.faults.sampling import SampleEstimate, classification_estimates
from repro.run.runner import CampaignRunner
from repro.run.spec import CampaignSpec
from repro.util.tables import Table

DEFAULT_CIRCUITS = ("b04", "b06", "b14")
DEFAULT_SAMPLES = (200, 500, 1000)


@dataclass
class SamplingErrorRow:
    """One (circuit, sample size, fault class) comparison."""

    circuit: str
    sample: int
    population: int
    fault_class: FaultClass
    exhaustive_rate: float
    estimate: SampleEstimate

    @property
    def error(self) -> float:
        """|sampled − exhaustive| in rate units."""
        return abs(self.estimate.proportion - self.exhaustive_rate)

    @property
    def covered(self) -> bool:
        """Whether the interval contains the exhaustive rate."""
        return self.estimate.covers(self.exhaustive_rate)


@dataclass
class SamplingErrorReport:
    """All rows plus the rendering/aggregation helpers."""

    rows: List[SamplingErrorRow]
    confidence: float
    ci_method: str
    fault_model: str
    sampling: str

    def coverage(self) -> float:
        """Fraction of rows whose interval covers the true rate."""
        if not self.rows:
            return 0.0
        return sum(row.covered for row in self.rows) / len(self.rows)

    def worst_error(self) -> float:
        return max((row.error for row in self.rows), default=0.0)

    def render(self) -> str:
        table = Table(
            [
                "circuit",
                "n / N",
                "class",
                "exhaustive",
                "sampled [CI]",
                "|error|",
                "covered",
            ],
            title=(
                f"Sampling error — {self.fault_model} faults, "
                f"{self.sampling} sampling, {self.ci_method} "
                f"@{int(self.confidence * 100)}%"
            ),
        )
        for row in self.rows:
            table.add_row(
                [
                    row.circuit,
                    f"{row.sample}/{row.population}",
                    row.fault_class.value,
                    f"{100 * row.exhaustive_rate:.2f} %",
                    row.estimate.describe(),
                    f"{100 * row.error:.2f} pp",
                    "yes" if row.covered else "NO",
                ]
            )
        footer = (
            f"\ninterval coverage: {100 * self.coverage():.0f}% of rows "
            f"(nominal {int(self.confidence * 100)}%), worst error "
            f"{100 * self.worst_error():.2f} pp"
        )
        return table.render() + footer


def sampling_error_report(
    circuits: Sequence[str] = DEFAULT_CIRCUITS,
    samples: Sequence[int] = DEFAULT_SAMPLES,
    fault_model: str = "seu",
    sampling: str = "uniform",
    seed: int = 0,
    num_cycles: Optional[int] = None,
    confidence: float = 0.95,
    ci_method: str = "wilson",
    engine: Optional[str] = None,
    runner: Optional[CampaignRunner] = None,
) -> SamplingErrorReport:
    """Build the sampled-vs-exhaustive comparison for several circuits.

    Sample sizes larger than a circuit's population are skipped for that
    circuit (they would not be samples). The exhaustive oracle is graded
    once per circuit and shared by every sample-size row.
    """
    runner = runner or CampaignRunner()
    rows: List[SamplingErrorRow] = []
    for circuit in circuits:
        spec = CampaignSpec(
            circuit=circuit,
            technique="time_multiplexed",
            fault_model=fault_model,
            sampling=sampling,
            seed=seed,
            num_cycles=num_cycles,
            **({"engine": engine} if engine else {}),
        )
        exhaustive = runner.grade(spec)
        population = exhaustive.num_faults
        counts = exhaustive.counts()
        true_rates: Dict[FaultClass, float] = {
            fault_class: count / population
            for fault_class, count in counts.items()
        }
        for sample in samples:
            if sample >= population:
                continue
            sampled = runner.grade(replace(spec, sample=sample))
            estimates = classification_estimates(
                sampled.counts(), confidence=confidence, method=ci_method
            )
            for fault_class in FaultClass:
                rows.append(
                    SamplingErrorRow(
                        circuit=circuit,
                        sample=sample,
                        population=population,
                        fault_class=fault_class,
                        exhaustive_rate=true_rates[fault_class],
                        estimate=estimates[fault_class],
                    )
                )
    return SamplingErrorReport(
        rows=rows,
        confidence=confidence,
        ci_method=ci_method,
        fault_model=fault_model,
        sampling=sampling,
    )
