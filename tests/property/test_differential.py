"""Differential grading over seeded random netlists.

The library's core correctness claim: for *any* netlist, fault model and
fault, the fused and bigint engines produce bit-identical
(fail_cycle, vanish_cycle) verdicts — and agree with the scalar
reference replay. This suite drives that claim over the random-netlist
generator, plain and under every hardening transform, for every fault
model family (seu, mbu:2, stuck_at_0/1, intermittent).
"""

import pytest

from repro.faults.models import get_fault_model
from repro.hardening import apply_hardening, available_schemes
from repro.sim.cycle import replay_fault, run_golden
from repro.sim.parallel import grade_faults
from repro.sim.vectors import random_testbench

from tests.property.randnet import random_netlist

ENGINES = ("fused", "bigint")
MODELS = ("seu", "mbu:2", "stuck_at_0", "stuck_at_1", "intermittent")
CYCLES = 20


def _population(netlist, model_name, stride=1):
    model = get_fault_model(model_name)
    faults = model.population(netlist, CYCLES)
    return faults[::stride]


def _verdicts(netlist, bench, faults, engine):
    result = grade_faults(netlist, bench, faults, backend=engine)
    return list(zip(result.fail_cycles, result.vanish_cycles))


class TestPlainNetlists:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("model_name", MODELS)
    def test_engines_bit_exact(self, seed, model_name):
        netlist = random_netlist(seed)
        bench = random_testbench(netlist, CYCLES, seed=seed)
        faults = _population(netlist, model_name)
        reference = _verdicts(netlist, bench, faults, ENGINES[0])
        for engine in ENGINES[1:]:
            assert _verdicts(netlist, bench, faults, engine) == reference, (
                f"{engine} disagrees with {ENGINES[0]} on seed={seed}, "
                f"model={model_name}"
            )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("model_name", ("seu", "stuck_at_1", "intermittent"))
    def test_engines_match_serial_replay(self, seed, model_name):
        """The bit-parallel verdicts equal the one-fault-at-a-time
        scalar reference, fault by fault."""
        netlist = random_netlist(seed)
        bench = random_testbench(netlist, CYCLES, seed=seed)
        faults = _population(netlist, model_name, stride=5)
        golden = run_golden(netlist, bench)
        graded = _verdicts(netlist, bench, faults, "fused")
        for fault, (fail_cycle, vanish_cycle) in zip(faults, graded):
            replayed = replay_fault(netlist, bench, fault, golden=golden)
            assert (fail_cycle, vanish_cycle) == (
                replayed["fail_cycle"],
                replayed["vanish_cycle"],
            ), f"seed={seed}, model={model_name}, fault={fault.describe()}"


class TestHardenedNetlists:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    @pytest.mark.parametrize("model_name", ("seu", "mbu:2", "stuck_at_0"))
    def test_engines_bit_exact_on_hardened(self, seed, scheme, model_name):
        netlist = apply_hardening(scheme, random_netlist(100 + seed))
        bench = random_testbench(netlist, CYCLES, seed=seed)
        faults = _population(netlist, model_name, stride=3)
        reference = _verdicts(netlist, bench, faults, ENGINES[0])
        for engine in ENGINES[1:]:
            assert _verdicts(netlist, bench, faults, engine) == reference, (
                f"{engine} disagrees on seed={seed}, scheme={scheme}, "
                f"model={model_name}"
            )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_hardened_golden_run_matches_plain(self, seed, scheme):
        """Hardening never changes the fault-free function: the original
        output bits agree cycle by cycle."""
        plain = random_netlist(100 + seed)
        hardened = apply_hardening(scheme, plain)
        bench = random_testbench(plain, CYCLES, seed=seed)
        plain_outputs = run_golden(plain, bench).outputs
        hardened_outputs = run_golden(hardened, bench).outputs
        original = (1 << len(plain.outputs)) - 1
        assert [word & original for word in hardened_outputs] == plain_outputs

    @pytest.mark.parametrize("seed", range(2))
    def test_tmr_masks_random_netlists(self, seed):
        """TMR's masking claim holds beyond the ITC benchmarks: on any
        random netlist, the complete single-fault set is failure-free."""
        netlist = apply_hardening("tmr", random_netlist(200 + seed))
        bench = random_testbench(netlist, CYCLES, seed=seed)
        faults = _population(netlist, "seu")
        result = grade_faults(netlist, bench, faults)
        assert all(cycle == -1 for cycle in result.fail_cycles)
        assert all(cycle != -1 for cycle in result.vanish_cycles)


def test_generator_is_deterministic():
    from repro.netlist.textio import dumps_netlist

    assert dumps_netlist(random_netlist(42)) == dumps_netlist(random_netlist(42))


def test_generator_meets_floor():
    for seed in range(10):
        netlist = random_netlist(seed)
        assert netlist.num_ffs >= 2  # mbu:2 needs two flops
        assert netlist.outputs
