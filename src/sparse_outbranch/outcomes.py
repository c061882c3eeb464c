"""Shared result types for the two kernelization pipelines.

A pipeline run ends in one of three ways: the instance was resolved
positively (with a certificate or witness), resolved negatively (with a
reason), or reduced to an equivalent smaller instance. Both pipelines
return the replayable trace of what was done beside the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union


@dataclass(frozen=True)
class YesOutcome:
    certificate: Any = None

    status = "yes"


@dataclass(frozen=True)
class NoOutcome:
    reason: str

    status = "no"


@dataclass(frozen=True)
class ReducedOutcome:
    """A reduced instance; its trace is returned beside it. The iob kernel
    adds the ``NeighborhoodClassing`` of its last crown pass, which fired
    nothing; its modulator is that pass's vertex cover, and the report
    reads it. It also adds ``origin``, the input id of each kernel vertex,
    which the trace fixes too but only step by step."""

    instance: Any
    classing: Any = None
    origin: Any = None

    status = "reduced"


KernelOutcome = Union[YesOutcome, NoOutcome, ReducedOutcome]


@dataclass
class ReductionTrace:
    """Ordered log of reduction steps. Each step records only what its
    rule did and renders to one text line; the old -> new vertex map of a
    contraction or removal is derived from the graph the step replays on."""

    steps: list[Any] = field(default_factory=list)

    def append(self, step: Any) -> None:
        self.steps.append(step)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def serialize(self) -> str:
        return "".join(step.line() + "\n" for step in self.steps)
