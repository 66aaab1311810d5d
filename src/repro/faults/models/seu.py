"""The paper's fault model: transient single-bit SEU.

The population equals :func:`repro.faults.model.exhaustive_fault_list`
— the same :class:`~repro.faults.model.SeuFault` values, in the same
cycle-major order — held as columns, so campaigns described through the
model registry are bit-exact with the original hard-coded path.
"""

from __future__ import annotations

from repro.faults.models.base import FaultModel, register_model


@register_model
class SeuModel(FaultModel):
    """Single-event upset: one flop flipped for one cycle."""

    name = "seu"
    transient = True

    def describe(self) -> str:
        return "transient single-bit flip: one flop XOR-ed at one cycle"
