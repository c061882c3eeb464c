"""Shared result types for the two kernelization pipelines.

A pipeline run ends in one of three ways: the instance was resolved
positively (with a certificate or witness), resolved negatively (with a
reason), or reduced to an equivalent smaller instance together with a
replayable trace of what was done.
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
    """A reduced instance and its trace. The iob kernel adds the
    ``NeighborhoodClassing`` of its last crown pass, which fired nothing;
    its modulator is that pass's vertex cover, and the report reads it."""

    instance: Any
    trace: "ReductionTrace"
    classing: Any = None

    status = "reduced"


KernelOutcome = Union[YesOutcome, NoOutcome, ReducedOutcome]


@dataclass
class ReductionTrace:
    """Ordered log of reduction steps. Each step renders to one text line
    and may carry an old->new vertex mapping for contractions/removals."""

    steps: list[Any] = field(default_factory=list)

    def append(self, step: Any) -> None:
        self.steps.append(step)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def serialize(self) -> str:
        return "".join(step.line() + "\n" for step in self.steps)
