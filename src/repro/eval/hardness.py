"""The hardness-evaluation report: plain vs hardened classification.

This is the paper's motivating workload: the accelerator exists so a
designer can grade a protected circuit version against the unprotected
one — per fault model — and weigh the sensitivity gain against the area
price. ``run_hardness_experiment`` grades one circuit plain and under
any set of :mod:`repro.hardening` schemes, for any set of fault models,
through the ordinary campaign machinery (sharded, store-backed, any
grading engine), and renders the comparison as one table.

Reading the numbers:

* **tmr** masks: its failure rate should collapse toward zero (the
  ``failure_reduction_pct`` metric quantifies how much of the plain
  failure rate the scheme removed).
* **dwc** / **parity** detect: their error flags are primary outputs, so
  a raised flag *is* an output mismatch and classifies as FAILURE — for
  detection schemes the failure column reads as detection coverage, and
  the interesting comparison is how little silent/latent residue is left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import CampaignError
from repro.faults.classify import FaultClass, classification_percentages
from repro.faults.sampling import SampleEstimate, classification_estimates
from repro.hardening import available_schemes
from repro.run import worker
from repro.run.runner import CampaignRunner
from repro.run.spec import CampaignSpec
from repro.sim.parallel import DEFAULT_BACKEND
from repro.synth.area import AreaOverhead, AreaReport, area_of
from repro.util.tables import Table

#: default comparison axes: the paper's SEU model, a multi-bit upset
#: (which defeats per-flop TMR when both hits land in one voter group)
#: and a permanent fault.
DEFAULT_SCHEMES = ("tmr", "dwc", "parity")
DEFAULT_FAULT_MODELS = ("seu", "mbu:2", "stuck_at_1")

#: schemes whose protection is an error flag rather than masking; their
#: failure column is detection coverage.
DETECTION_SCHEMES = ("dwc", "parity")


@dataclass
class HardnessRow:
    """One circuit version (plain or hardened) across all fault models.

    ``populations`` is the complete fault-population size per model;
    ``samples`` is how many faults were actually graded (equal under
    exhaustive grading, the ``--sample`` size otherwise). For sampled
    campaigns ``estimates`` carries per-class Wilson
    :class:`~repro.faults.sampling.SampleEstimate` intervals, so the
    rendered cells show sampling uncertainty instead of point estimates
    that look exact.
    """

    scheme: Optional[str]
    label: str
    area: AreaReport
    overhead: AreaOverhead
    num_flops: int
    rates: Dict[str, Dict[FaultClass, float]] = field(default_factory=dict)
    populations: Dict[str, int] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    estimates: Dict[str, Dict[FaultClass, "SampleEstimate"]] = field(
        default_factory=dict
    )

    def rate_cell(self, fault_model: str) -> str:
        rates = self.rates[fault_model]
        estimates = self.estimates.get(fault_model)
        if estimates is not None:
            cells = []
            for fault_class in (
                FaultClass.FAILURE,
                FaultClass.LATENT,
                FaultClass.SILENT,
            ):
                estimate = estimates[fault_class]
                cells.append(
                    f"{rates[fault_class]:.1f}±{100 * estimate.half_width:.1f}"
                )
            return " / ".join(cells)
        return (
            f"{rates[FaultClass.FAILURE]:5.1f} / "
            f"{rates[FaultClass.LATENT]:4.1f} / "
            f"{rates[FaultClass.SILENT]:5.1f}"
        )


@dataclass
class HardnessReport:
    """Structured hardness data plus the rendered comparison table."""

    circuit: str
    num_cycles: int
    seed: int
    engine: str
    sample: Optional[int]
    fault_models: List[str]
    rows: List[HardnessRow]

    def row(self, scheme: Optional[str]) -> HardnessRow:
        for row in self.rows:
            if row.scheme == scheme:
                return row
        raise CampaignError(f"no hardness row for scheme {scheme!r}")

    def failure_reduction_pct(
        self, scheme: str, fault_model: str
    ) -> Optional[float]:
        """Share of the plain failure rate the scheme eliminated.

        100 means every plain-circuit failure became non-failing (for
        TMR: masked to silent/latent); 0 means no improvement; negative
        means the scheme *raised* the failure rate (detection schemes do,
        by design — their flag turns silent corruption into a detected,
        failing output). ``None`` when the plain rate is zero but the
        hardened one is not — there is no baseline to reduce, so a
        percentage would be meaningless.
        """
        plain = self.row(None).rates[fault_model][FaultClass.FAILURE]
        hardened = self.row(scheme).rates[fault_model][FaultClass.FAILURE]
        if plain == 0.0:
            return 0.0 if hardened == 0.0 else None
        return 100.0 * (plain - hardened) / plain

    def render(self) -> str:
        sampled = "" if self.sample is None else f", sample={self.sample}"
        table = Table(
            ["version", "LUTs", "FFs"]
            + [f"{model} fail/lat/sil %" for model in self.fault_models],
            title=(
                f"Hardness evaluation — {self.circuit} "
                f"({self.num_cycles} cycles, seed {self.seed}, "
                f"engine {self.engine}{sampled})"
            ),
        )
        for row in self.rows:
            if row.scheme is None:
                luts, ffs = f"{row.area.luts:,}", f"{row.area.ffs:,}"
            else:
                luts, ffs = row.overhead.lut_cell(), row.overhead.ff_cell()
            table.add_row(
                [row.label, luts, ffs]
                + [row.rate_cell(model) for model in self.fault_models]
            )
        lines = [table.render()]
        for row in self.rows:
            if row.scheme is None or row.scheme in DETECTION_SCHEMES:
                continue
            for model in self.fault_models:
                reduction = self.failure_reduction_pct(row.scheme, model)
                plain_rate = self.row(None).rates[model][FaultClass.FAILURE]
                if reduction is None:
                    hardened_rate = row.rates[model][FaultClass.FAILURE]
                    lines.append(
                        f"  {row.scheme}: n/a for {model} — plain failure "
                        f"rate is 0.0% but the hardened rate is "
                        f"{hardened_rate:.1f}%"
                    )
                else:
                    lines.append(
                        f"  {row.scheme}: removes {reduction:.1f}% of the "
                        f"plain {model} failure rate ({plain_rate:.1f}%)"
                    )
        if any(row.scheme in DETECTION_SCHEMES for row in self.rows):
            lines.append(
                "  note: dwc/parity error flags are primary outputs — their "
                "failure column is detection coverage, not damage"
            )
        if any(row.estimates for row in self.rows):
            parts = []
            for row in self.rows:
                if not row.estimates:
                    continue
                sizes = sorted(
                    {
                        (row.samples[model], row.populations[model])
                        for model in row.estimates
                    }
                )
                parts.append(
                    f"{row.label} "
                    + ", ".join(
                        f"{sample:,}/{population:,}"
                        for sample, population in sizes
                    )
                )
            lines.append(
                "  note: ±x.x cells are Wilson 95% half-widths from sampled "
                "campaigns (graded/population: " + "; ".join(parts) + ")"
            )
        return "\n".join(lines)


def run_hardness_experiment(
    circuit: str,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    fault_models: Sequence[str] = DEFAULT_FAULT_MODELS,
    engine: str = DEFAULT_BACKEND,
    seed: int = 0,
    num_cycles: Optional[int] = None,
    sample: Optional[int] = None,
    sampling: str = "uniform",
    technique: str = "mask_scan",
    runner: Optional[CampaignRunner] = None,
) -> HardnessReport:
    """Grade ``circuit`` plain and under every scheme, per fault model.

    All campaigns route through ``runner`` (sharded and resumable when it
    has workers/a store root), one oracle per (version, model); areas are
    measured on the same built netlists the campaigns grade.
    """
    if not fault_models:
        raise CampaignError("hardness report needs at least one fault model")
    if circuit.startswith("hardened:"):
        raise CampaignError(
            f"the hardness report hardens its own baseline; pass the plain "
            f"circuit name instead of {circuit!r} (schemes are chosen via "
            "the schemes argument / --schemes)"
        )
    for scheme in schemes:
        if scheme not in available_schemes():
            raise CampaignError(
                f"unknown hardening scheme {scheme!r}; available: "
                + ", ".join(available_schemes())
            )
    runner = runner or CampaignRunner()
    versions: List[Optional[str]] = [None, *schemes]
    rows: List[HardnessRow] = []
    plain_area: Optional[AreaReport] = None
    num_cycles_resolved = None
    for scheme in versions:
        base_spec = CampaignSpec(
            circuit=circuit,
            technique=technique,
            engine=engine,
            num_cycles=num_cycles,
            seed=seed,
            sample=sample,
            sampling=sampling,
            fault_model=fault_models[0],
            hardening=scheme,
        )
        netlist = worker.scenario_for(base_spec).netlist
        area = area_of(netlist)
        if plain_area is None:
            plain_area = area
        num_cycles_resolved = base_spec.resolved_cycles()
        row = HardnessRow(
            scheme=scheme,
            label="plain" if scheme is None else f"hardened:{scheme}",
            area=area,
            overhead=area.overhead_vs(plain_area),
            num_flops=netlist.num_ffs,
        )
        for model in fault_models:
            spec = CampaignSpec.from_dict(
                {**base_spec.to_dict(), "fault_model": model}
            )
            oracle = runner.grade(spec)
            counts = oracle.counts()
            row.rates[model] = classification_percentages(counts)
            # num_faults is how many faults were *graded*; under --sample
            # that is the sample size, not the population, so both are
            # recorded and sampled cells get Wilson intervals.
            row.samples[model] = oracle.num_faults
            row.populations[model] = spec.population_size(netlist)
            if oracle.num_faults < row.populations[model]:
                row.estimates[model] = classification_estimates(counts)
        rows.append(row)
    return HardnessReport(
        circuit=circuit,
        num_cycles=num_cycles_resolved,
        seed=seed,
        engine=engine,
        sample=sample,
        fault_models=list(fault_models),
        rows=rows,
    )
