"""Columnar fault populations.

Every fault model's population is a uniform (cycle, flop) grid plus a few
model constants (an MBU's width, a stuck-at value), so a campaign's fault
set is carried as two int columns — injection ``cycles`` and ``flops`` —
with the flop names and the :class:`~repro.faults.models.FaultModel`
that made it. Sampling, window slicing, grading and accounting read the
columns; a fault *object* is created only when a caller indexes or
iterates the list.

:class:`FaultList` is a read-only :class:`~collections.abc.Sequence` of
fault objects, and compares equal, element by element, to any sequence
of faults — code written against ``List[SeuFault]`` keeps working. An
ad-hoc list of fault objects (a test's hand-built faults, an explicit
``run_campaign(faults=...)``) is wrapped once by :meth:`FaultList.of`,
which keeps the objects themselves.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Tuple, Type

import numpy as np

from repro.faults.model import SeuFault

if TYPE_CHECKING:
    from repro.faults.models.base import FaultModel


def _column(values) -> np.ndarray:
    column = np.asarray(values, dtype=np.int64)
    column.setflags(write=False)
    return column


class FaultList(Sequence):
    """An immutable fault population held as ``(cycle, flop)`` columns.

    ``cycles[i]`` and ``flops[i]`` are fault ``i``'s injection cycle and
    (first) flop index; ``flop_names[flop]`` labels a flop. Model-built
    lists create fault ``i`` on demand with ``model.fault``; lists wrapped
    from objects (:meth:`of`) hand back those objects.
    """

    __slots__ = ("cycles", "flops", "flop_names", "model", "_objects")

    def __init__(
        self,
        cycles,
        flops,
        flop_names: Iterable[str],
        model: Optional["FaultModel"],
        objects: Optional[Tuple[SeuFault, ...]] = None,
    ):
        self.cycles = _column(cycles)
        self.flops = _column(flops)
        self.flop_names = tuple(flop_names)
        self.model = model
        self._objects = objects

    @classmethod
    def grid(
        cls,
        num_cycles: int,
        num_sites: int,
        flop_names: Iterable[str],
        model: "FaultModel",
    ) -> "FaultList":
        """Every (cycle, site) pair, cycle-major: site ``0..num_sites-1``
        at cycle 0, then at cycle 1, and so on."""
        return cls(
            np.repeat(np.arange(num_cycles, dtype=np.int64), num_sites),
            np.tile(np.arange(num_sites, dtype=np.int64), num_cycles),
            flop_names,
            model,
        )

    @classmethod
    def of(cls, faults: Iterable[SeuFault]) -> "FaultList":
        """``faults`` as a :class:`FaultList` — itself when it already is
        one, else its fault objects read into columns once."""
        if isinstance(faults, FaultList):
            return faults
        objects = tuple(faults)
        count = len(objects)
        return cls(
            np.fromiter((fault.cycle for fault in objects), np.int64, count),
            np.fromiter((fault.flop_index for fault in objects), np.int64, count),
            (),
            None,
            objects,
        )

    # ------------------------------------------------------------------
    # model-level facts, answered without creating faults
    # ------------------------------------------------------------------
    @property
    def persistent(self) -> bool:
        """Whether any fault re-applies a force every cycle."""
        if self._objects is None:
            return not self.model.transient
        return any(fault.persistent for fault in self._objects)

    @property
    def fault_type(self) -> Optional[Type[SeuFault]]:
        """The class of every fault in the list (None: mixed classes)."""
        if self._objects is None:
            return self.model.fault_type
        types = {type(fault) for fault in self._objects}
        return types.pop() if len(types) == 1 else None

    def flop_labels(self) -> np.ndarray:
        """Each fault's flop label (its name, ``flop[i]`` when unnamed),
        fault-list order, as an object array."""
        if self._objects is not None:
            return np.array(
                [
                    fault.flop_name or f"flop[{fault.flop_index}]"
                    for fault in self._objects
                ],
                dtype=object,
            )
        table = np.empty(len(self.flop_names), dtype=object)
        table[:] = [
            name or f"flop[{index}]" for index, name in enumerate(self.flop_names)
        ]
        return table[self.flops]

    # ------------------------------------------------------------------
    # the Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cycles)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._select(index)
        if self._objects is not None:
            return self._objects[index]
        flop = int(self.flops[index])
        return self.model.fault(int(self.cycles[index]), flop, self.flop_names[flop])

    def take(self, indices) -> "FaultList":
        """The faults at ``indices`` (an int sequence), in that order."""
        return self._select(np.asarray(indices, dtype=np.int64))

    def _select(self, key) -> "FaultList":
        objects = None
        if self._objects is not None:
            if isinstance(key, slice):
                objects = self._objects[key]
            else:
                objects = tuple(self._objects[i] for i in key.tolist())
        return FaultList(
            self.cycles[key], self.flops[key], self.flop_names, self.model, objects
        )

    def __iter__(self) -> Iterator[SeuFault]:
        if self._objects is not None:
            yield from self._objects
            return
        make, names = self.model.fault, self.flop_names
        for cycle, flop in zip(self.cycles.tolist(), self.flops.tolist()):
            yield make(cycle, flop, names[flop])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        if len(self) != len(other):
            return False
        if (
            isinstance(other, FaultList)
            and self._objects is None
            and other._objects is None
            and self.model is other.model
            and self.flop_names == other.flop_names
        ):
            return bool(
                np.array_equal(self.cycles, other.cycles)
                and np.array_equal(self.flops, other.flops)
            )
        return all(mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None  # equal to lists, which are unhashable

    def __repr__(self) -> str:
        source = self.model.name if self._objects is None else "objects"
        return f"FaultList({len(self)} faults, {source})"


__all__ = ["FaultList"]
