"""The SEU fault model: a single bit-flip in one flip-flop at one cycle.

The paper adopts the standard bit-flip model for single-event upsets: only
memory elements are affected, and a fault is the pair (flip-flop, clock
cycle). The *complete set of single faults* for a circuit with N flops and
a T-cycle testbench therefore has N x T members — 215 x 160 = 34,400 for
the b14 experiment.

:class:`SeuFault` doubles as the base class for every other fault model
(:mod:`repro.faults.models`): a fault is, generically, a set of one-shot
bit *flips* at its injection cycle plus an optional per-cycle *force* on
its flop. The grading engines consume exactly that protocol
(:meth:`SeuFault.flip_flops`, :meth:`SeuFault.force_value`,
:meth:`SeuFault.force_events`, via :mod:`repro.sim.inject`), so SEUs,
multi-bit, stuck-at and intermittent faults share the same campaign
machinery and the same native kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import CampaignError
from repro.netlist.netlist import Netlist


@dataclass(frozen=True, order=True)
class SeuFault:
    """One single-event upset: flip flop ``flop_index`` at the start of
    cycle ``cycle`` (i.e. perturb the state the flop holds during that
    cycle).

    ``flop_index`` refers to the netlist's deterministic flop order (the
    same order used for state packing and scan chains).
    """

    cycle: int
    flop_index: int
    flop_name: str = ""

    #: True for models whose effect is re-applied every cycle (stuck-at,
    #: intermittent) rather than a one-shot state perturbation. Persistent
    #: faults can re-diverge after matching the golden state, so engines
    #: must not retire their lanes early.
    persistent = False

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise CampaignError(f"fault cycle must be non-negative, got {self.cycle}")
        if self.flop_index < 0:
            raise CampaignError(
                f"fault flop index must be non-negative, got {self.flop_index}"
            )

    # ------------------------------------------------------------------
    # the generic injection protocol (overridden by other fault models)
    # ------------------------------------------------------------------
    def flip_flops(self) -> Tuple[int, ...]:
        """Flop indices whose bits are flipped once, at ``self.cycle``."""
        return (self.flop_index,)

    def force_value(self) -> Optional[int]:
        """The value this fault forces onto its flop (None: no forcing)."""
        return None

    def force_active(self, cycle: int) -> bool:
        """Whether the force is applied during ``cycle`` (state held at
        the start of that cycle). Transient faults never force."""
        return False

    def force_events(self, num_cycles: int) -> Sequence[Tuple[int, bool]]:
        """``(cycle, turned_on)`` transitions of the force over cycles
        ``0..num_cycles`` inclusive — ``num_cycles`` covers the state the
        circuit is left in after the bench, which classification compares
        against the golden final state. None precedes ``self.cycle``.
        Faults with the same timing may return one shared (immutable)
        sequence; the schedule builder converts each distinct one once."""
        return []

    def apply_force(self, state: int, cycle: int) -> int:
        """Packed-state helper for the serial reference replay."""
        if not self.force_active(cycle):
            return state
        bit = 1 << self.flop_index
        if self.force_value():
            return state | bit
        return state & ~bit

    def describe(self) -> str:
        """Human-readable fault identity."""
        name = self.flop_name or f"flop[{self.flop_index}]"
        return f"SEU({name} @ cycle {self.cycle})"


def exhaustive_fault_list(
    netlist: Netlist, num_cycles: int, flop_names: Optional[List[str]] = None
) -> List[SeuFault]:
    """The complete single-fault set: every (flop, cycle) pair.

    Faults are ordered cycle-major — the order the time-multiplexed
    technique processes them in, so the golden state only ever advances.
    """
    if num_cycles <= 0:
        raise CampaignError("fault list needs a positive number of cycles")
    names = flop_names if flop_names is not None else netlist.ff_names()
    faults = []
    for cycle in range(num_cycles):
        for flop_index, name in enumerate(names):
            faults.append(SeuFault(cycle=cycle, flop_index=flop_index, flop_name=name))
    return faults


def faults_for_flop(
    netlist: Netlist, flop_index: int, num_cycles: int
) -> List[SeuFault]:
    """All faults targeting one flop (used for per-flop vulnerability
    reports)."""
    names = netlist.ff_names()
    if not 0 <= flop_index < len(names):
        raise CampaignError(f"no flop with index {flop_index}")
    return [
        SeuFault(cycle=cycle, flop_index=flop_index, flop_name=names[flop_index])
        for cycle in range(num_cycles)
    ]
