"""FaultList: the columnar population, its sampling and its verdicts.

A population is held as (cycle, flop) columns and creates fault objects
only on demand; everything it feeds — samplers, the verdict histogram,
the outcome digest — must agree exactly with the object-list code it
replaced.
"""

import hashlib
from array import array
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.registry import build_circuit
from repro.errors import CampaignError
from repro.faults.classify import classification_counts
from repro.faults.faultlist import FaultList
from repro.faults.model import SeuFault, exhaustive_fault_list
from repro.faults.models import get_fault_model
from repro.faults.sampling import draw_sample
from repro.sim.parallel import FaultGradingResult
from repro.util.rng import DeterministicRng

from tests.property.test_differential import MODELS

CYCLES = 12


@pytest.fixture(scope="module")
def b04():
    return build_circuit("b04")


# ----------------------------------------------------------------------
# the object-list samplers the index samplers replaced, kept verbatim as
# the reference (they drew from, and sorted, the fault objects)
# ----------------------------------------------------------------------
def _object_uniform(faults, count, seed=0) -> List[SeuFault]:
    rng = DeterministicRng(seed).fork("fault-sample")
    chosen = rng.sample(list(faults), count)
    chosen.sort()
    return chosen


def _object_stratified(faults, count, seed=0) -> List[SeuFault]:
    strata: Dict[int, List[SeuFault]] = {}
    for fault in faults:
        strata.setdefault(fault.flop_index, []).append(fault)
    total = len(faults)
    quotas: Dict[int, int] = {}
    remainders = []
    allocated = 0
    for flop_index in sorted(strata):
        exact = count * len(strata[flop_index]) / total
        quotas[flop_index] = int(exact)
        allocated += int(exact)
        remainders.append((exact - int(exact), flop_index))
    remainders.sort(key=lambda pair: (-pair[0], pair[1]))
    for _, flop_index in remainders[: count - allocated]:
        quotas[flop_index] += 1
    spill = 0
    for flop_index in sorted(strata):
        over = quotas[flop_index] - len(strata[flop_index])
        if over > 0:
            quotas[flop_index] -= over
            spill += over
    while spill:
        for flop_index in sorted(
            strata, key=lambda f: len(strata[f]) - quotas[f], reverse=True
        ):
            if not spill:
                break
            if quotas[flop_index] < len(strata[flop_index]):
                quotas[flop_index] += 1
                spill -= 1
    rng = DeterministicRng(seed)
    chosen: List[SeuFault] = []
    for flop_index in sorted(strata):
        quota = quotas[flop_index]
        if not quota:
            continue
        stream = rng.fork(f"fault-stratum-{flop_index}")
        chosen.extend(stream.sample(strata[flop_index], quota))
    chosen.sort()
    return chosen


_OBJECT_SAMPLERS = {"uniform": _object_uniform, "stratified": _object_stratified}


class TestColumns:
    @pytest.mark.parametrize("name", MODELS)
    def test_objects_match_the_columns(self, b04, name):
        population = get_fault_model(name).population(b04, CYCLES)
        assert isinstance(population, FaultList)
        objects = list(population)
        assert [fault.cycle for fault in objects] == population.cycles.tolist()
        assert [fault.flop_index for fault in objects] == population.flops.tolist()
        assert population[5] == objects[5]
        assert population[-1] == objects[-1]
        assert all(type(fault) is population.fault_type for fault in objects)
        assert population.persistent == any(fault.persistent for fault in objects)
        labels = [fault.flop_name or f"flop[{fault.flop_index}]" for fault in objects]
        assert population.flop_labels().tolist() == labels

    def test_seu_population_equals_the_legacy_list(self, b04):
        population = get_fault_model("seu").population(b04, CYCLES)
        legacy = exhaustive_fault_list(b04, CYCLES)
        assert population == legacy
        assert legacy == population
        assert population != legacy[:-1]
        assert population != legacy[1:] + legacy[:1]

    def test_slices_and_take_stay_columnar(self, b04):
        population = get_fault_model("mbu:2").population(b04, CYCLES)
        objects = list(population)
        window = population[10:40:3]
        assert isinstance(window, FaultList)
        assert window == objects[10:40:3]
        picked = population.take([7, 2, 30])
        assert isinstance(picked, FaultList)
        assert picked == [objects[7], objects[2], objects[30]]

    def test_columns_are_read_only(self, b04):
        population = get_fault_model("seu").population(b04, CYCLES)
        with pytest.raises(ValueError):
            population.cycles[0] = 3

    def test_object_lists_convert_once_and_keep_their_objects(self):
        faults = [
            SeuFault(cycle=2, flop_index=1),
            get_fault_model("stuck_at_1").fault(3, 0, "q"),
        ]
        wrapped = FaultList.of(faults)
        assert FaultList.of(wrapped) is wrapped
        assert wrapped[0] is faults[0] and wrapped[1] is faults[1]
        assert wrapped.cycles.tolist() == [2, 3]
        assert wrapped.fault_type is None
        assert wrapped.persistent
        assert not wrapped[:1].persistent
        assert wrapped.flop_labels().tolist() == ["flop[1]", "q"]


class TestIndexSampling:
    @pytest.mark.parametrize("method", sorted(_OBJECT_SAMPLERS))
    @pytest.mark.parametrize("name", MODELS)
    def test_samples_equal_the_object_samples(self, b04, name, method):
        population = get_fault_model(name).population(b04, CYCLES)
        objects = list(population)
        for count, seed in ((1, 0), (37, 3), (len(objects) // 2, 11)):
            sample = draw_sample(population, count, seed=seed, method=method)
            assert isinstance(sample, FaultList)
            assert sample == _OBJECT_SAMPLERS[method](objects, count, seed=seed)

    @pytest.mark.parametrize("method", sorted(_OBJECT_SAMPLERS))
    def test_object_lists_sample_the_same(self, b04, method):
        population = get_fault_model("seu").population(b04, CYCLES)
        assert draw_sample(list(population), 50, seed=5, method=method) == (
            draw_sample(population, 50, seed=5, method=method)
        )

    def test_oversized_sample_rejected(self, b04):
        population = get_fault_model("seu").population(b04, 2)
        with pytest.raises(CampaignError, match="cannot sample"):
            draw_sample(population, len(population) + 1)


outcomes = st.lists(
    st.tuples(st.integers(-1, 300), st.integers(-1, 300)), min_size=1, max_size=200
)


class TestVectorizedVerdicts:
    @settings(max_examples=60, deadline=None)
    @given(outcomes)
    def test_counts_and_digest_match_the_scalar_code(self, pairs):
        fail = [fail for fail, _ in pairs]
        vanish = [vanish for _, vanish in pairs]
        faults = FaultList.of(SeuFault(cycle=0, flop_index=0) for _ in pairs)
        result = FaultGradingResult(
            faults=faults,
            num_cycles=301,
            flop_names=["q"],
            golden=None,
            fail_cycles=fail,
            vanish_cycles=vanish,
        )
        assert result.counts() == classification_counts(result.verdicts())
        legacy = hashlib.blake2b(digest_size=16)
        legacy.update(array("i", map(int, fail)).tobytes())
        legacy.update(b"|")
        legacy.update(array("i", map(int, vanish)).tobytes())
        assert result.outcome_digest() == legacy.hexdigest()
