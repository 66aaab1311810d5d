"""Round-trip property tests and malformed-input fuzzing.

Satellite contract: for every registered circuit, ``dumps_netlist`` ->
``loads_netlist`` preserves structure and produces bit-exact
fault-grading results across both engines; malformed ``.bnet`` /
``.bench`` / BLIF input always surfaces as :class:`ParseError` (or at
worst another :class:`ReproError`) with a line number — never a raw
traceback.
"""

import pytest

from repro.circuits.registry import available_circuits, build_circuit
from repro.errors import ParseError, ReproError
from repro.faults.model import exhaustive_fault_list
from repro.frontend import load_netlist
from repro.frontend.corpus import corpus_files
from repro.netlist.textio import dumps_netlist, loads_netlist
from repro.run.spec import default_testbench_for
from repro.sim.parallel import grade_faults
from repro.util.rng import DeterministicRng

ENGINES = ("fused", "bigint")
#: grading caps that keep every-circuit x every-engine affordable
ROUNDTRIP_CYCLES = 12
ROUNDTRIP_FAULTS = 48


def _structure(netlist):
    return (
        netlist.inputs,
        netlist.outputs,
        {n: (g.gate_type, g.inputs, g.output) for n, g in netlist.gates.items()},
        {n: (d.d, d.q, d.init) for n, d in netlist.dffs.items()},
    )


@pytest.mark.parametrize("circuit", available_circuits())
def test_bnet_roundtrip_structure_and_grading(circuit):
    original = build_circuit(circuit)
    reparsed = loads_netlist(dumps_netlist(original))
    assert _structure(reparsed) == _structure(original)

    testbench = default_testbench_for(original, num_cycles=ROUNDTRIP_CYCLES)
    faults = exhaustive_fault_list(original, ROUNDTRIP_CYCLES)[:ROUNDTRIP_FAULTS]
    reference = None
    for engine in ENGINES:
        for netlist in (original, reparsed):
            result = grade_faults(netlist, testbench, faults, backend=engine)
            signature = (
                [int(v) for v in result.fail_cycles],
                [int(v) for v in result.vanish_cycles],
            )
            if reference is None:
                reference = signature
            assert signature == reference, (circuit, engine, netlist.name)


@pytest.mark.parametrize("name", ["s27", "s298"])
def test_bench_corpus_roundtrip_grading(name):
    """The .bench writer/parser pair is behaviour-preserving too."""
    from repro.frontend.bench import dumps_bench

    original = load_netlist(corpus_files()[name].read_text(), fmt="bench",
                            name=name)
    reparsed = load_netlist(dumps_bench(original), fmt="bench", name=name)
    testbench = default_testbench_for(original, num_cycles=ROUNDTRIP_CYCLES)
    faults = exhaustive_fault_list(original, ROUNDTRIP_CYCLES)[:ROUNDTRIP_FAULTS]
    grade = lambda n: grade_faults(n, testbench, faults, backend="fused")  # noqa: E731
    first, second = grade(original), grade(reparsed)
    assert list(first.fail_cycles) == list(second.fail_cycles)
    assert list(first.vanish_cycles) == list(second.vanish_cycles)


# ----------------------------------------------------------------------
# fuzzing
# ----------------------------------------------------------------------
VALID_BNET = dumps_netlist  # applied to a registered circuit below

GARBAGE_TOKENS = ["???", "=", "->", "(", ")", ".bogus", "11-", "dff", "AND("]


def _mutations(text: str, seed: int, count: int):
    """Deterministic single-line corruptions of a valid netlist file."""
    rng = DeterministicRng(seed)
    lines = text.splitlines()
    candidates = [
        index for index, line in enumerate(lines)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    for _ in range(count):
        target = candidates[rng.integer(0, len(candidates) - 1)]
        mutated = list(lines)
        style = rng.integer(0, 2)
        if style == 0:  # replace the line with garbage
            mutated[target] = " ".join(
                rng.choice(GARBAGE_TOKENS)
                for _ in range(rng.integer(1, 4))
            )
        elif style == 1:  # truncate the line mid-token
            keep = max(1, len(mutated[target]) // 2)
            mutated[target] = mutated[target][:keep]
        else:  # inject a garbage token into the line
            tokens = mutated[target].split()
            tokens.insert(rng.integer(0, len(tokens)), rng.choice(GARBAGE_TOKENS))
            mutated[target] = " ".join(tokens)
        yield "\n".join(mutated) + "\n"


def _assert_clean_failure(parse, text):
    """Parsing may succeed (some corruptions stay legal) but must never
    escape as anything but a ReproError; ParseErrors carry a line."""
    try:
        parse(text)
    except ParseError as error:
        assert error.line is None or error.line >= 1
        assert "line" in str(error) or error.line is None
    except ReproError:
        pass  # structural error without a position: still a clean failure


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_bnet(seed):
    text = dumps_netlist(build_circuit("b02"))
    for mutated in _mutations(text, seed, 25):
        _assert_clean_failure(lambda t: loads_netlist(t), mutated)


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_bench(seed):
    text = corpus_files()["s27"].read_text()
    for mutated in _mutations(text, seed, 25):
        _assert_clean_failure(
            lambda t: load_netlist(t, fmt="bench", name="fuzz"), mutated
        )


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_blif(seed):
    text = corpus_files()["s344"].read_text()
    for mutated in _mutations(text, seed, 25):
        _assert_clean_failure(
            lambda t: load_netlist(t, fmt="blif", name="fuzz"), mutated
        )


def test_targeted_malformations_report_lines():
    """Known-bad lines must be pinpointed, format by format."""
    cases = [
        ("bnet", "circuit c\ninput a\nfrobnicate x\n", 3),
        ("bench", "INPUT(a)\nOUTPUT(y)\ny = AND(a\n", 3),
        ("blif", ".model m\n.inputs a\n.latch\n", 3),
    ]
    for fmt, text, line in cases:
        with pytest.raises(ParseError) as info:
            load_netlist(text, fmt=fmt, name="bad")
        assert info.value.line == line, fmt
