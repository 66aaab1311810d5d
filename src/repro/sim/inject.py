"""Model-agnostic injection schedules for the grading engines.

A fault is, generically, a set of one-shot bit *flips* at its injection
cycle plus an optional per-cycle *force* on its flop (see
:class:`~repro.faults.model.SeuFault`). :func:`schedule_for` turns a fault
list into the per-cycle work of that protocol, as cycle-bucketed int
arrays (:class:`CycleEvents`) that every engine consumes:

* ``flips``      — rows ``(flop_index, lane)``: one-shot XOR events;
* ``force_on`` / ``force_off`` — rows ``(flop_index, lane, value)`` /
  ``(flop_index, lane)``: transitions of the per-lane force. Engines
  accumulate them into per-flop ``(mask, set)`` bit-planes and re-apply
  those planes to the held state every cycle, ``q = (q & ~mask) | set``
  — the per-cycle re-application that one-shot XOR cannot express. Cycle
  ``num_cycles`` carries the transitions governing the *post-bench*
  state, which the final SILENT/LATENT compare uses;
* ``first_active`` — each lane's injection cycle (fail/vanish gating).
  No event of a lane precedes it, so an engine may seed a lane with the
  golden state at its injection cycle.

Each cycle the engines apply, in order: flips, force on, force off, the
force re-application, the vanish compare, then drive inputs, evaluate,
compare outputs and latch.

Vanish semantics differ for persistent schedules (any fault that forces
or is marked persistent): a forced lane that matches the golden state can
diverge again, so ``vanish_cycle`` is the start of the lane's *final*
golden-equal suffix (candidate set on convergence, reset on
re-divergence) rather than the first match, and the engines never retire
its lane early. For transient faults the two definitions coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import CampaignError
from repro.faults.faultlist import FaultList
from repro.faults.model import SeuFault


@dataclass
class CycleEvents:
    """Event rows bucketed by cycle: cycle ``t`` owns
    ``rows[bounds[t]:bounds[t + 1]]`` for ``t`` in ``0..num_cycles``."""

    #: (events, columns) int32, stably sorted by cycle
    rows: np.ndarray
    #: (num_cycles + 2,) bucket offsets into ``rows``
    bounds: np.ndarray

    @classmethod
    def build(
        cls, cycles: np.ndarray, rows: np.ndarray, num_cycles: int
    ) -> "CycleEvents":
        order = np.argsort(cycles, kind="stable")
        return cls(
            rows=rows[order],
            bounds=np.searchsorted(
                cycles[order], np.arange(num_cycles + 2), side="left"
            ),
        )

    def at(self, cycle: int) -> np.ndarray:
        """The rows of ``cycle``'s events."""
        return self.rows[self.bounds[cycle] : self.bounds[cycle + 1]]

    def relabel(self, lanes: np.ndarray) -> None:
        """Map column 1 (the lane) through ``lanes``, in place."""
        self.rows[:, 1] = lanes[self.rows[:, 1]]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class InjectionSchedule:
    """Per-cycle injection work for one graded fault list."""

    num_faults: int
    num_cycles: int
    #: every fault is a plain one-flop transient flip
    simple: bool
    #: at least one fault forces a flop (or is marked persistent)
    persistent: bool
    #: per-lane injection cycle, fault-list order
    first_active: np.ndarray
    #: rows (flop_index, lane): one-shot XOR flips
    flips: CycleEvents
    #: rows (flop_index, lane, value): force becomes active
    force_on: CycleEvents
    #: rows (flop_index, lane): force releases
    force_off: CycleEvents


def _events(
    cycles: np.ndarray, columns: Sequence[np.ndarray], num_cycles: int
) -> CycleEvents:
    rows = np.empty((len(cycles), len(columns)), dtype=np.int32)
    for index, column in enumerate(columns):
        rows[:, index] = column
    return CycleEvents.build(cycles, rows, num_cycles)


def _force_events(
    forcers: Sequence[SeuFault], lanes: np.ndarray, num_cycles: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The events of the forcing faults ``forcers`` (on ``lanes``): each
    event's lane, and its ``(cycle, turned_on)`` pair.

    Models may share one event sequence between faults with the same
    timing (intermittent faults do), so each distinct sequence object is
    converted once and gathered per lane with array indexing.
    """
    sequences = [fault.force_events(num_cycles) for fault in forcers]
    identities = np.fromiter(map(id, sequences), dtype=np.uint64, count=len(sequences))
    _, first, pattern_of = np.unique(
        identities, return_index=True, return_inverse=True
    )
    patterns = [sequences[index] for index in first.tolist()]
    lengths = np.fromiter(map(len, patterns), dtype=np.int64, count=len(patterns))
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(patterns)),
        dtype=np.int32,
        count=2 * int(lengths.sum()),
    ).reshape(-1, 2)
    lane_lengths = lengths[pattern_of]
    total = int(lane_lengths.sum())
    # index of each lane's k-th event in `flat`: its pattern's offset + k
    shift = (np.cumsum(lengths) - lengths)[pattern_of] - (
        np.cumsum(lane_lengths) - lane_lengths
    )
    index = np.repeat(shift, lane_lengths)
    index += np.arange(total)
    return np.repeat(lanes, lane_lengths), flat[index]


def schedule_for(
    faults: Sequence[SeuFault], num_cycles: int, num_flops: int
) -> InjectionSchedule:
    """Build the schedule for ``faults`` (validating flip/force targets).

    Plain SEU lists are scheduled from their columns alone; other models
    create each fault object once and call its protocol methods once,
    and everything after that is array work.
    """
    faults = FaultList.of(faults)
    num_faults = len(faults)
    lanes = np.arange(num_faults, dtype=np.int64)
    first_active = faults.cycles
    flop_indices = faults.flops

    if faults.fault_type is SeuFault:
        flip_flops, flip_lanes, flip_cycles = flop_indices, lanes, first_active
        single_flips = True
        forces: Dict[int, int] = {}
        objects: Sequence[SeuFault] = faults
    else:
        objects = list(faults)
        flip_lists = [fault.flip_flops() for fault in objects]
        flip_counts = np.fromiter(
            map(len, flip_lists), dtype=np.int64, count=num_faults
        )
        flip_flops = np.fromiter(
            chain.from_iterable(flip_lists),
            dtype=np.int64,
            count=int(flip_counts.sum()),
        )
        # lane -> forced value, for the faults that force their flop
        forces = {
            lane: force
            for lane, fault in enumerate(objects)
            if (force := fault.force_value()) is not None
        }
        flip_lanes = np.repeat(lanes, flip_counts)
        flip_cycles = first_active[flip_lanes]
        single_flips = bool((flip_counts == 1).all())

    bad = np.flatnonzero((flip_flops < 0) | (flip_flops >= num_flops))
    if len(bad):
        fault = faults[int(flip_lanes[bad[0]])]
        raise CampaignError(
            f"{fault.describe()} flips flop {int(flip_flops[bad[0]])}; "
            f"circuit has only {num_flops} flops"
        )
    forcing = np.fromiter(forces, dtype=np.int64, count=len(forces))
    bad = forcing[flop_indices[forcing] >= num_flops]
    if len(bad):
        raise CampaignError(
            f"{objects[int(bad[0])].describe()}: circuit has only "
            f"{num_flops} flops"
        )
    forcers = [objects[lane] for lane in forcing.tolist()]
    force_values = np.zeros(num_faults, dtype=np.int64)
    force_values[forcing] = list(forces.values())
    event_lanes, events = _force_events(forcers, forcing, num_cycles)
    on = events[:, 1] != 0
    on_lanes, off_lanes = event_lanes[on], event_lanes[~on]
    persistent = faults.persistent or bool(forces)
    return InjectionSchedule(
        num_faults=num_faults,
        num_cycles=num_cycles,
        simple=not persistent and single_flips,
        persistent=persistent,
        first_active=first_active,
        flips=_events(flip_cycles, (flip_flops, flip_lanes), num_cycles),
        force_on=_events(
            events[on, 0],
            (flop_indices[on_lanes], on_lanes, force_values[on_lanes]),
            num_cycles,
        ),
        force_off=_events(
            events[~on, 0], (flop_indices[off_lanes], off_lanes), num_cycles
        ),
    )


__all__ = ["CycleEvents", "InjectionSchedule", "schedule_for"]
