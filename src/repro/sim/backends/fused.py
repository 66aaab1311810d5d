"""The fused grading engine: a lowered op table run by a native cycle kernel.

This is the default oracle backend. For every fault model it runs the
lazily compiled C kernel of :mod:`repro.sim.backends._native`, driven by
the fault list's :class:`~repro.sim.inject.InjectionSchedule`:

* **Compilation** — the levelized op program is lowered once per netlist
  into a flat ``(code, a, b, c, out)`` op table: buffers alias away,
  gates are rewritten to 2-input form, inverting gates (nand/nor/xnor
  and inv) become their base op plus an invert flag, and a stage
  scheduler orders independent gates of the same base op together and
  gives their outputs contiguous slots. Programs are cached per
  :class:`CompiledNetlist`.
* **Golden re-unpacking** — golden input/output/state words are
  pre-expanded once into uint64 mask rows (0 or ~0 per bit), so per-cycle
  compares are one XOR and an OR-reduction, with ``np.unpackbits`` only
  on the (usually sparse) newly-resolved words.
* **Injection** — fault lanes are (stably) sorted by injection cycle and
  seeded with the golden state when injected, then get their flips (one
  XOR for an SEU, several for an MBU). Forces (stuck-at, intermittent)
  live in per-flop ``(mask, set)`` planes that the kernel re-applies at
  the start of every cycle; the schedule's transitions update them.
* **Dead lanes and dead cycles** — transient lanes are packed as they
  are injected and repacked as they re-converge, so the kernel streams
  only live lanes. When every injected fault has vanished and no
  injections remain, the cycle loop exits early — resolved campaigns do
  not pay for the tail of the testbench. Persistent lanes can re-diverge,
  so they run to the end of the bench unpacked.

Without a C compiler (or with ``REPRO_FUSED_NATIVE=0``) the engine runs
the :mod:`~repro.sim.backends.bigint_engine` loops, which grade
bit-identically and exit early under the same contract;
``last_stats["native"]`` says which path ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.faults.model import SeuFault
from repro.sim.backends._native import native_kernel
from repro.sim.backends.base import GradingEngine, register_engine
from repro.sim.backends.bigint_engine import grade_scheduled
from repro.sim.inject import InjectionSchedule, schedule_for
from repro.sim.compile import (
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_INV,
    OP_MUX2,
    OP_NAND,
    OP_NOR,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    CompiledNetlist,
)
from repro.sim.cycle import GoldenTrace
from repro.sim.vectors import Testbench

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)

# Kernel shapes a group can take.
_K_BIN = 0  # base 2-input gate (optionally inverted)
_K_MUX = 1  # 2:1 mux

#: base (non-inverting) op of every 2-input gate family
_BASE_OP = {
    OP_AND: OP_AND,
    OP_NAND: OP_AND,
    OP_OR: OP_OR,
    OP_NOR: OP_OR,
    OP_XOR: OP_XOR,
    OP_XNOR: OP_XOR,
}
_INVERTING = frozenset((OP_NAND, OP_NOR, OP_XNOR))
#: native op table codes: base code + 3 when inverted; 6 = mux
_NATIVE_CODE = {OP_AND: 0, OP_OR: 1, OP_XOR: 2}
_NATIVE_MUX = 6


@dataclass
class FusedProgram:
    """A compiled netlist lowered to the native kernel's op table.

    ``native_ops`` is the program as a flat ``(code, a, b, c, out)`` int32
    table in execution order. Slots are renumbered: primary inputs first,
    then flop q's, then the remaining source slots, then one produced
    slot per gate in group order, so each group's outputs occupy one
    contiguous range.
    """

    num_slots: int
    native_ops: np.ndarray
    ones_rows: np.ndarray  # rows held at ~0 (const1 gates)
    num_inputs: int
    q_start: int
    q_stop: int
    input_slots: np.ndarray
    output_slots: np.ndarray
    d_slots: np.ndarray
    q_slots: np.ndarray
    #: golden mask rows per stimulus digest — see _masks_for
    masks: Dict[str, tuple] = field(default_factory=dict, repr=False)


_PROGRAM_CACHE: "WeakKeyDictionary[CompiledNetlist, FusedProgram]" = (
    WeakKeyDictionary()
)


def clear_program_cache() -> None:
    """Drop all cached fused programs (used by benchmarks and tests)."""
    _PROGRAM_CACHE.clear()


def fused_program_for(compiled: CompiledNetlist) -> FusedProgram:
    """Session-cached :class:`FusedProgram` for ``compiled``."""
    try:
        return _PROGRAM_CACHE[compiled]
    except KeyError:
        program = build_fused_program(compiled)
        _PROGRAM_CACHE[compiled] = program
        return program


def build_fused_program(compiled: CompiledNetlist) -> FusedProgram:
    """Lower the levelized op list into the native kernel's op table."""
    next_slot = compiled.num_slots
    const0_old: List[int] = []
    const1_old: List[int] = []
    alias = {}  # buf output -> the slot it forwards
    entries: List[Tuple[int, Tuple[int, ...], int]] = []

    def resolve(slot: int) -> int:
        while slot in alias:
            slot = alias[slot]
        return slot

    # ---- pass 1: 2-input normal form ---------------------------------
    # Buffers (and degenerate 1-input and/or/xor) alias to their input;
    # inverters (and 1-input inverting gates) become NOR(a, a) so they
    # ride the OR family with just an invert-mask row; multi-input
    # associative gates become chains through temp slots.
    for opcode, in_slots, out_slot in compiled.ops:
        in_slots = tuple(resolve(slot) for slot in in_slots)
        if opcode == OP_CONST0:
            const0_old.append(out_slot)
            continue
        if opcode == OP_CONST1:
            const1_old.append(out_slot)
            continue
        if opcode == OP_MUX2:
            entries.append((OP_MUX2, in_slots, out_slot))
            continue
        if opcode == OP_BUF or (
            len(in_slots) == 1 and opcode not in _INVERTING and opcode != OP_INV
        ):
            alias[out_slot] = in_slots[0]
            continue
        if opcode == OP_INV or len(in_slots) == 1:
            entries.append((OP_NOR, (in_slots[0], in_slots[0]), out_slot))
            continue
        chain_op = _BASE_OP[opcode]
        accumulator = in_slots[0]
        for middle in in_slots[1:-1]:
            temp = next_slot
            next_slot += 1
            entries.append((chain_op, (accumulator, middle), temp))
            accumulator = temp
        entries.append((opcode, (accumulator, in_slots[-1]), out_slot))

    # ---- pass 2: stage scheduling ------------------------------------
    # Every gate lands in stage 1 + max(stage of producers); gates of one
    # base-op family at the same stage share a group. Groups of a stage
    # are mutually independent, so executing groups in (stage, family)
    # order preserves dataflow and keeps like ops adjacent in the table.
    slot_stage = {}  # produced slot -> pipeline stage
    stage_groups: dict = {}  # (stage, family) -> group index
    groups_members: List[List[Tuple[int, Tuple[int, ...], int]]] = []
    groups_key: List[tuple] = []

    for opcode, in_slots, out_slot in entries:
        stage = 0
        for slot in in_slots:
            producer = slot_stage.get(slot, -1)
            if producer >= stage:
                stage = producer + 1
        family = (
            (_K_MUX, OP_MUX2)
            if opcode == OP_MUX2
            else (_K_BIN, _BASE_OP[opcode])
        )
        key = (stage, family)
        group_index = stage_groups.get(key)
        if group_index is None:
            group_index = len(groups_members)
            stage_groups[key] = group_index
            groups_members.append([])
            groups_key.append(key)
        groups_members[group_index].append((opcode, in_slots, out_slot))
        slot_stage[out_slot] = stage

    group_order = sorted(range(len(groups_members)), key=lambda i: groups_key[i])
    groups_members = [groups_members[i] for i in group_order]
    groups_family = [groups_key[i][1] for i in group_order]

    # ---- pass 3: slot renumbering ------------------------------------
    # Sources keep their relative order (inputs, then q's, then the
    # rest); each group's outputs become one contiguous range.
    skip = set(const0_old)
    skip.update(const1_old)
    skip.update(alias)
    new_of = {}
    for slot in range(compiled.num_slots):
        if slot not in slot_stage and slot not in skip:
            new_of[slot] = len(new_of)
    for old in const0_old:
        new_of[old] = len(new_of)
    for old in const1_old:
        new_of[old] = len(new_of)
    cursor = len(new_of)
    for members in groups_members:
        # Sort members by their operands' already-renumbered slots: buses
        # that flow through the circuit in order keep their outputs in
        # order too, so downstream operand reads walk adjacent slots
        # (every producer ran in an earlier group, so its new ids are
        # known here).
        members.sort(
            key=lambda member: tuple(new_of[slot] for slot in member[1])
        )
        for _, _, out_slot in members:
            new_of[out_slot] = cursor
            cursor += 1
    num_slots = cursor

    # ---- pass 4: emit the native op table ----------------------------
    native_rows: List[Tuple[int, int, int, int, int]] = []
    for (kind, base_key), members in zip(groups_family, groups_members):
        for opcode, in_slots, out_slot in members:
            if kind == _K_BIN:
                first = new_of[in_slots[0]]
                second = new_of[in_slots[1]]
                code = _NATIVE_CODE[base_key] + (3 if opcode in _INVERTING else 0)
                native_rows.append((code, first, second, second, new_of[out_slot]))
            else:
                native_rows.append(
                    (
                        _NATIVE_MUX,
                        new_of[in_slots[0]],
                        new_of[in_slots[1]],
                        new_of[in_slots[2]],
                        new_of[out_slot],
                    )
                )

    def renumber(slot: int) -> int:
        return new_of[resolve(slot)]

    input_slots = np.array(
        [renumber(slot) for slot in compiled.input_slots], dtype=np.int64
    )
    q_slots = np.array(
        [renumber(flop.q_index) for flop in compiled.flops], dtype=np.int64
    )
    num_inputs = len(input_slots)
    num_flops = len(q_slots)
    # compile_netlist assigns inputs then q's first; renumbering keeps
    # source order, so both blocks stay contiguous at the front.
    assert list(input_slots) == list(range(num_inputs))
    assert list(q_slots) == list(range(num_inputs, num_inputs + num_flops))

    return FusedProgram(
        num_slots=num_slots,
        native_ops=np.array(native_rows, dtype=np.int32).reshape(-1, 5),
        ones_rows=np.array(
            [new_of[slot] for slot in const1_old], dtype=np.int64
        ),
        num_inputs=num_inputs,
        q_start=num_inputs,
        q_stop=num_inputs + num_flops,
        input_slots=input_slots,
        output_slots=np.array(
            [renumber(slot) for slot in compiled.output_slots], dtype=np.int64
        ),
        d_slots=np.array(
            [renumber(flop.d_index) for flop in compiled.flops], dtype=np.int64
        ),
        q_slots=q_slots,
    )


def _mask_rows(words: Sequence[int], num_bits: int) -> np.ndarray:
    """Expand packed golden words into per-bit uint64 mask rows (0 / ~0)."""
    rows = np.zeros((len(words), num_bits), dtype=np.uint64)
    for index, word in enumerate(words):
        row = rows[index]
        position = 0
        while word:
            if word & 1:
                row[position] = _ONES
            word >>= 1
            position += 1
    return rows


#: golden mask-row sets kept per program (keyed by stimulus digest)
_MAX_CACHED_MASKS = 4


def _masks_for(
    program: FusedProgram, testbench: Testbench, golden: GoldenTrace
) -> tuple:
    """The (input, output, state) mask rows, cached on the program.

    The expansion is pure Python over every golden word and costs
    milliseconds at b14 scale — a fixed per-grade-call tax that the
    sharded runner would otherwise pay once per shard. The golden trace
    is a function of (netlist, stimulus) and the program is per-netlist,
    so the stimulus digest alone keys the memo.
    """
    key = testbench.stimulus_digest()
    masks = program.masks.get(key)
    if masks is None:
        masks = (
            _mask_rows(testbench.vectors, program.num_inputs),
            _mask_rows(golden.outputs, len(program.output_slots)),
            _mask_rows(golden.states, len(program.q_slots)),
        )
        if len(program.masks) >= _MAX_CACHED_MASKS:
            program.masks.clear()
        program.masks[key] = masks
    return masks


class _LaneOrder:
    """Fault lanes stably sorted by injection cycle.

    Sorting makes the injected lane set a prefix at every cycle, which
    keeps the active word window contiguous and lets injections index the
    per-cycle slice ``[starts[t], ends[t])``. The schedule's event tables
    are relabeled in place from fault-list lanes to sorted lane indices.
    """

    def __init__(self, schedule: InjectionSchedule):
        num_faults = schedule.num_faults
        self.order = np.argsort(schedule.first_active, kind="stable")
        sorted_lane = np.empty(num_faults, dtype=np.int64)
        sorted_lane[self.order] = np.arange(num_faults)
        sorted_cycles = schedule.first_active[self.order]
        span = np.arange(schedule.num_cycles)
        self.starts = np.searchsorted(sorted_cycles, span, side="left")
        self.ends = np.searchsorted(sorted_cycles, span, side="right")
        self.flips = schedule.flips
        self.force_on = schedule.force_on
        self.force_off = schedule.force_off
        for events in (self.flips, self.force_on, self.force_off):
            events.relabel(sorted_lane)


def _lane_bits(positions: np.ndarray) -> tuple:
    """(word column, one-bit mask) of each packed lane position."""
    return positions >> 6, np.left_shift(_ONE, (positions & 63).astype(np.uint64))


def _lanes_in(words: np.ndarray) -> np.ndarray:
    """Packed positions of the set bits of ``words``, ascending (only the
    nonzero words are unpacked)."""
    nonzero = np.flatnonzero(words)
    bits = np.flatnonzero(
        np.unpackbits(words[nonzero].view(np.uint8), bitorder="little")
    )
    return (nonzero[bits >> 6] << 6) | (bits & 63)


def _set_prefix(words: np.ndarray, count: int) -> None:
    """Set bits ``[0, count)`` of ``words`` and clear the rest."""
    full = count >> 6
    words[:full] = _ONES
    words[full:] = 0
    if count & 63:
        words[full] = np.uint64((1 << (count & 63)) - 1)


def _row_addresses(rows: np.ndarray) -> List[int]:
    """Base address of every row of a C-contiguous 2-D array."""
    return (rows.ctypes.data + rows.strides[0] * np.arange(len(rows))).tolist()


class _CycleKernel:
    """The native ``grade_cycle`` bound to one grade call's buffers.

    ``values`` holds one row per slot and one uint64 column per 64 lanes.
    Forced runs also own the per-flop force planes ``force_mask`` and
    ``force_set`` (one row per flop, same columns as ``values``). Buffer
    and golden-row addresses are resolved once, not per cycle.
    """

    def __init__(
        self,
        kernel,
        program: FusedProgram,
        masks: tuple,
        num_words: int,
        forced: bool,
    ):
        in_masks, out_masks, self.state_masks = masks
        self.kernel = kernel
        self.program = program
        self.num_words = num_words
        num_flops = program.q_stop - program.q_start
        self.values = np.zeros((program.num_slots, num_words), dtype=np.uint64)
        if len(program.ones_rows):
            self.values[program.ones_rows, :] = _ONES
        self.out_diff = np.zeros(num_words, dtype=np.uint64)
        self.state_diff = np.zeros(num_words, dtype=np.uint64)
        self.force_mask = self.force_set = None
        planes = (None, None)
        if forced:
            self.force_mask = np.zeros((num_flops, num_words), dtype=np.uint64)
            self.force_set = np.zeros_like(self.force_mask)
            planes = (self.force_mask.ctypes.data, self.force_set.ctypes.data)
        scratch = np.empty(num_flops * (num_words + kernel.threads), dtype=np.uint64)
        ops = np.ascontiguousarray(program.native_ops)
        out_slots = program.output_slots.astype(np.int32)
        d_slots = program.d_slots.astype(np.int32)
        # owns every buffer whose address the kernel receives
        self._keep = (scratch, ops, out_slots, d_slots, in_masks, out_masks)
        self._in_rows = _row_addresses(in_masks)
        self._out_rows = _row_addresses(out_masks)
        self._state_rows = _row_addresses(self.state_masks)
        # grade_cycle's arguments; None marks the per-cycle ones
        self._args = [
            self.values.ctypes.data, num_words, 0, None,  # w_stop
            ops.ctypes.data, len(ops),
            None, program.num_inputs,  # in_mask
            out_slots.ctypes.data, None, len(out_slots),  # out_mask
            self.out_diff.ctypes.data,
            d_slots.ctypes.data, None, len(d_slots),  # state_mask
            program.q_start, self.state_diff.ctypes.data, scratch.ctypes.data,
            *planes,
        ]

    def __call__(self, cycle: int, state_cycle: int, n_act: int) -> None:
        """Run ``cycle`` over word columns ``[0, n_act)``; the state
        compare is against the golden state of ``state_cycle``."""
        args = self._args
        args[3] = n_act
        args[6] = self._in_rows[cycle]
        args[9] = self._out_rows[cycle]
        args[13] = self._state_rows[state_cycle]
        self.kernel.grade_cycle(*args)


@register_engine
class FusedEngine(GradingEngine):
    """Native-kernel grading with lane compaction and early exit."""

    name = "fused"

    def grade(
        self,
        compiled: CompiledNetlist,
        testbench: Testbench,
        faults: Sequence[SeuFault],
        golden: GoldenTrace,
    ) -> Tuple[List[int], List[int]]:
        num_faults = len(faults)
        num_words = (num_faults + 63) // 64
        num_cycles = testbench.num_cycles

        schedule = schedule_for(faults, num_cycles, compiled.num_flops)
        kernel = native_kernel()
        if kernel is None:
            # No C kernel: the bigint loops, called directly so one
            # grade stays one call.
            fail_cycle, vanish_cycle, executed = grade_scheduled(
                compiled, testbench, golden, schedule
            )
            self.last_stats = {
                "cycles_executed": executed,
                "num_cycles": num_cycles,
                "native": False,
            }
            return fail_cycle, vanish_cycle

        program = fused_program_for(compiled)
        lanes = _LaneOrder(schedule)
        step = _CycleKernel(
            kernel,
            program,
            # Golden words pre-unpacked to mask rows, cached per stimulus.
            _masks_for(program, testbench, golden),
            num_words,
            forced=schedule.persistent,
        )

        fail_sorted = np.full(num_faults, -1, dtype=np.int64)
        vanish_sorted = np.full(num_faults, -1, dtype=np.int64)

        run = self._run_forced if schedule.persistent else self._run_transient
        executed, extra = run(
            step, lanes, (num_faults, num_cycles), fail_sorted, vanish_sorted
        )
        del step  # free the lane matrix before the result lists are built

        self.last_stats = {
            "cycles_executed": executed,
            "num_cycles": num_cycles,
            "num_words": num_words,
            "native": True,
            "threads": kernel.threads,
            **extra,
        }

        fail_cycle = np.empty(num_faults, dtype=np.int64)
        vanish_cycle = np.empty(num_faults, dtype=np.int64)
        fail_cycle[lanes.order] = fail_sorted
        vanish_cycle[lanes.order] = vanish_sorted
        return fail_cycle.tolist(), vanish_cycle.tolist()

    # ------------------------------------------------------------------
    # transient schedules (SEU, MBU): a compacting packed lane window
    # ------------------------------------------------------------------
    @staticmethod
    def _run_transient(
        step: _CycleKernel,
        lanes: _LaneOrder,
        shape: tuple,
        fail_sorted: np.ndarray,
        vanish_sorted: np.ndarray,
    ) -> tuple:
        """Simulate only live lanes, repacking them as they resolve.

        Lanes occupy *packed positions*: injections append at the packed
        end (so before any repack, position == sorted lane index), and
        once enough lanes have re-converged the kept bits of every flop
        row are squeezed to the front by the native PEXT compactor. The
        ``lane_map`` indirection (packed position -> sorted lane index)
        keeps fail/vanish writes exact across repacks. On convergence-
        heavy campaigns this cuts the streamed word columns by ~2x over
        the old contiguous word window, because a word column stayed
        active while *any* of its 64 lanes was unresolved.

        A transient lane that matches the golden state tracks it from
        then on, so vanish is the first match, compared at the latch.
        """
        num_faults, num_cycles = shape
        num_words = step.num_words
        values = step.values
        state_masks = step.state_masks
        q_start = step.program.q_start
        q_stop = step.program.q_stop
        compact_rows = step.kernel.compact_rows

        # per packed position: does the lane still await fail / vanish?
        not_failed = np.zeros(num_words, dtype=np.uint64)
        not_vanished = np.zeros(num_words, dtype=np.uint64)
        lane_map = np.empty(num_words * 64, dtype=np.int64)

        starts = lanes.starts
        ends = lanes.ends
        flips = lanes.flips

        packed = 0  # packed positions in use (live + not-yet-compacted)
        live = 0  # unresolved lanes among them
        n_act = 0  # active word columns: ceil(packed / 64)
        repacks = 0
        executed = 0

        for cycle in range(num_cycles):
            # plain ints: numpy scalars would poison the shift arithmetic
            first, last = int(starts[cycle]), int(ends[cycle])
            count = last - first
            if count:
                # Seed the new positions with this cycle's golden state
                # (mask-merged: boundary words may hold live lanes),
                # then apply the injected lanes' flips.
                new_packed = packed + count
                lo_word = packed >> 6
                n_act = (new_packed + 63) >> 6
                golden_col = state_masks[cycle]
                for word in range(lo_word, n_act):
                    lo_bit = max(packed - (word << 6), 0)
                    hi_bit = min(new_packed - (word << 6), 64)
                    new_bits = np.uint64(
                        ((1 << hi_bit) - (1 << lo_bit))
                        & 0xFFFFFFFFFFFFFFFF
                    )
                    column = values[q_start:q_stop, word]
                    values[q_start:q_stop, word] = (column & ~new_bits) | (
                        golden_col & new_bits
                    )
                    not_failed[word] |= new_bits
                    not_vanished[word] |= new_bits
                rows = flips.at(cycle)
                words, bits = _lane_bits(packed + rows[:, 1] - first)
                np.bitwise_xor.at(values, (q_start + rows[:, 0], words), bits)
                lane_map[packed:new_packed] = np.arange(first, last, dtype=np.int64)
                packed = new_packed
                live += count

            if live == 0:
                if last == num_faults:
                    executed = cycle
                    break
                continue
            executed = cycle + 1

            step(cycle, cycle + 1, n_act)

            window_nf = not_failed[:n_act]
            newly_failed = step.out_diff[:n_act] & window_nf
            if newly_failed.any():
                fail_sorted[lane_map[_lanes_in(newly_failed)]] = cycle
                window_nf &= ~newly_failed

            window_nv = not_vanished[:n_act]
            newly_vanished = ~step.state_diff[:n_act] & window_nv
            if newly_vanished.any():
                hits = _lanes_in(newly_vanished)
                vanish_sorted[lane_map[hits]] = cycle
                window_nv &= ~newly_vanished
                # A vanished lane tracks golden forever, so it can never
                # fail later — clearing it here keeps its (now possibly
                # stale) bits inert through skipped cycles and repacks.
                window_nf &= ~newly_vanished
                live -= len(hits)

            if live == 0 and last == num_faults:
                break

            # Repack once 1/16 of the packed lanes (and at least a
            # word's worth) have resolved: squeeze the kept bits of the
            # flop rows and the fail bookkeeping to the front, remap.
            dead = packed - live
            if dead >= 64 and dead * 16 >= packed:
                kept = _lanes_in(window_nv)
                compact_rows(
                    values.ctypes.data,
                    num_words,
                    q_start,
                    q_stop,
                    not_vanished.ctypes.data,
                    n_act,
                )
                compact_rows(
                    not_failed.ctypes.data,
                    n_act,
                    0,
                    1,
                    not_vanished.ctypes.data,
                    n_act,
                )
                lane_map[: len(kept)] = lane_map[kept]
                packed = live
                old_n_act = n_act
                n_act = (packed + 63) >> 6
                not_failed[n_act:old_n_act] = 0
                _set_prefix(not_vanished[:old_n_act], packed)
                repacks += 1
        return executed, {"repacks": repacks}

    # ------------------------------------------------------------------
    # persistent schedules (stuck-at, intermittent): forced lanes
    # ------------------------------------------------------------------
    @staticmethod
    def _run_forced(
        step: _CycleKernel,
        lanes: _LaneOrder,
        shape: tuple,
        fail_sorted: np.ndarray,
        vanish_sorted: np.ndarray,
    ) -> tuple:
        """Simulate every injected lane to the end of the bench.

        A forced lane that matches the golden state can diverge again, so
        lanes are never repacked (packed position == sorted lane index)
        and the loop never exits early. Each cycle the schedule's flips
        hit the Q rows and its force transitions update the per-flop
        ``(mask, set)`` planes; the kernel then re-applies the planes and
        compares the post-force held state with the golden state. A lane
        becomes a vanish candidate when it converges and loses candidacy
        when it diverges again; the post-bench state gets the same
        compare after the last cycle.
        """
        _, num_cycles = shape
        num_words = step.num_words
        values = step.values
        force_mask = step.force_mask
        force_set = step.force_set
        q_start = step.program.q_start
        q_stop = step.program.q_stop

        not_failed = np.zeros(num_words, dtype=np.uint64)
        injected = np.zeros(num_words, dtype=np.uint64)
        candidate = np.zeros(num_words, dtype=np.uint64)

        def apply_events(cycle: int) -> None:
            rows = lanes.flips.at(cycle)
            if len(rows):
                words, bits = _lane_bits(rows[:, 1])
                np.bitwise_xor.at(values, (q_start + rows[:, 0], words), bits)
            rows = lanes.force_on.at(cycle)
            if len(rows):
                words, bits = _lane_bits(rows[:, 1])
                np.bitwise_or.at(force_mask, (rows[:, 0], words), bits)
                ones = rows[:, 2] != 0
                np.bitwise_or.at(
                    force_set, (rows[ones, 0], words[ones]), bits[ones]
                )
            rows = lanes.force_off.at(cycle)
            if len(rows):
                words, bits = _lane_bits(rows[:, 1])
                np.bitwise_and.at(force_mask, (rows[:, 0], words), ~bits)
                np.bitwise_and.at(force_set, (rows[:, 0], words), ~bits)

        def update_vanish(diff: np.ndarray, end_cycle: int) -> None:
            # vanish_sorted holds each candidate's convergence cycle; a
            # lane that diverges just drops its candidate bit, and stale
            # values of non-candidates are cleared after the last compare.
            held = candidate[: len(diff)]
            newly = ~diff & injected[: len(diff)] & ~held
            if newly.any():
                vanish_sorted[_lanes_in(newly)] = end_cycle
            held |= newly
            held &= ~diff

        n_act = 0
        executed = 0
        starts = lanes.starts
        ends = lanes.ends
        for cycle in range(num_cycles):
            first, last = int(starts[cycle]), int(ends[cycle])
            if last > first:
                # Seed the new lanes with this cycle's golden state.
                golden_col = step.state_masks[cycle][:, None]
                new_bits = np.zeros(num_words, dtype=np.uint64)
                _set_prefix(new_bits, last)
                new_bits &= ~injected
                n_act = (last + 63) >> 6
                window = values[q_start:q_stop, :n_act]
                window &= ~new_bits[:n_act]
                window |= golden_col & new_bits[:n_act]
                not_failed |= new_bits
            apply_events(cycle)
            if last == 0:
                continue
            executed = cycle + 1

            step(cycle, cycle, n_act)
            update_vanish(step.state_diff[:n_act], cycle - 1)
            _set_prefix(injected, last)

            window_nf = not_failed[:n_act]
            newly_failed = step.out_diff[:n_act] & window_nf
            if newly_failed.any():
                fail_sorted[_lanes_in(newly_failed)] = cycle
                window_nf &= ~newly_failed

        # The post-bench state: last transitions, forces, compare.
        apply_events(num_cycles)
        held = values[q_start:q_stop, :n_act]
        held &= ~force_mask[:, :n_act]
        held |= force_set[:, :n_act]
        update_vanish(
            np.bitwise_or.reduce(
                held ^ step.state_masks[num_cycles][:, None], axis=0
            ),
            num_cycles - 1,
        )
        final = np.unpackbits(candidate.view(np.uint8), bitorder="little")
        vanish_sorted[final[: len(vanish_sorted)] == 0] = -1
        return executed, {}
