"""Shared scenario resolution for the eval experiments.

Every experiment accepts either an explicit ``(netlist, testbench)`` pair
(the test suite's path — any ad-hoc circuit works) or a registered
circuit *name*, in which case the experiment builds a
:class:`~repro.run.spec.CampaignSpec` and consumes the sharded,
store-backed :class:`~repro.run.runner.CampaignRunner`. This module is
the one place that precedence lives, so every paper table resolves
scenarios — and therefore supports every registered circuit — the same
way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.circuits.registry import build_circuit
from repro.emu.campaign import run_campaign
from repro.faults.faultlist import FaultList
from repro.faults.models import get_fault_model
from repro.netlist.netlist import Netlist
from repro.run import worker
from repro.run.runner import CampaignRunner
from repro.run.spec import CampaignSpec, default_testbench_for
from repro.sim.parallel import DEFAULT_BACKEND, FaultGradingResult
from repro.sim.vectors import Testbench


@dataclass
class EvalScenario:
    """A resolved experiment scenario.

    ``spec`` is set when the scenario came from a circuit name and the
    experiment can route work through the runner and its results store;
    ``None`` marks an ad-hoc netlist/testbench with no declarative
    description.
    """

    netlist: Netlist
    testbench: Testbench
    faults: FaultList
    spec: Optional[CampaignSpec]


def resolve_scenario(
    netlist: Optional[Netlist] = None,
    testbench: Optional[Testbench] = None,
    circuit: Optional[str] = None,
    seed: int = 0,
    num_cycles: Optional[int] = None,
    engine: str = DEFAULT_BACKEND,
    technique: str = "mask_scan",
) -> EvalScenario:
    """Resolve experiment inputs into a concrete scenario.

    Explicit ``netlist``/``testbench`` objects win (an explicit
    testbench alone runs against the named circuit, built on the spot);
    only when *both* are absent is ``circuit`` (default b14) resolved
    through a spec. ``technique`` only seeds the spec (grading is
    technique-independent); experiments that sweep techniques swap it
    per campaign.
    """
    if netlist is None and testbench is None:
        spec = CampaignSpec(
            circuit=circuit or "b14",
            technique=technique,
            engine=engine,
            num_cycles=num_cycles,
            seed=seed,
        )
        scenario = worker.scenario_for(spec)  # memoized across experiments
        return EvalScenario(
            netlist=scenario.netlist,
            testbench=scenario.testbench,
            faults=scenario.faults,
            spec=spec,
        )
    if netlist is None:
        netlist = build_circuit(circuit or "b14")
    bench = testbench
    if bench is None:
        bench = default_testbench_for(
            netlist, num_cycles=num_cycles, seed=seed, circuit=circuit
        )
    faults = get_fault_model("seu").population(netlist, bench.num_cycles)
    return EvalScenario(netlist=netlist, testbench=bench, faults=faults, spec=None)


def grade_eval_scenario(
    scenario: EvalScenario,
    runner: Optional[CampaignRunner],
    engine: str = DEFAULT_BACKEND,
) -> FaultGradingResult:
    """Grade a resolved scenario through the runner.

    Spec-described scenarios take the sharded (and, when the runner has
    a store root, resumable) path; ad-hoc ones grade serially in-process.
    """
    runner = runner or CampaignRunner()
    if scenario.spec is not None:
        return runner.grade(scenario.spec)
    return runner.grade_scenario(
        scenario.netlist, scenario.testbench, scenario.faults, engine=engine
    )


def run_eval_campaign(
    scenario: EvalScenario,
    technique: str,
    runner: CampaignRunner,
    board,
    oracle: FaultGradingResult,
):
    """One technique's campaign over a resolved scenario.

    The spec/ad-hoc dispatch twin of :func:`grade_eval_scenario`, so
    experiments that sweep techniques (Table 2, the speed comparison)
    share one execution path.
    """
    if scenario.spec is not None:
        return runner.run(
            scenario.spec.with_technique(technique), board=board, oracle=oracle
        )
    return run_campaign(
        scenario.netlist,
        scenario.testbench,
        technique,
        board=board,
        faults=scenario.faults,
        oracle=oracle,
    )
