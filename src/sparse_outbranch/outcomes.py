"""Shared result types for the two kernelization pipelines.

A pipeline run ends in one of three ways: the instance was resolved
positively (with a certificate or witness), resolved negatively (with a
reason), or reduced to an equivalent smaller instance. Both pipelines
return the replayable trace of what was done beside the outcome.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple, Union


def value_type(cls: type) -> type:
    """Make the NamedTuple `cls` a value type of the package: immutable,
    unpackable, hashed as its field tuple, and equal only to a value of its
    own type, never to a plain tuple or another type with the same fields."""
    cls.__eq__ = lambda self, other: type(other) is type(self) and tuple.__eq__(self, other)
    cls.__ne__ = lambda self, other: type(other) is not type(self) or tuple.__ne__(self, other)
    cls.__hash__ = tuple.__hash__
    return cls


class RootedInstance(NamedTuple("RootedInstance", [("graph", Any), ("k", int)])):
    """``LobInstance`` and ``IobInstance``: a ``RootedDigraph`` and a k >= 0."""

    __slots__ = ()

    def __new__(cls, graph: Any, k: int):
        if k < 0:
            raise ValueError("k must be nonnegative")
        return super().__new__(cls, graph, k)


@value_type
class YesOutcome(NamedTuple):
    certificate: Any = None

    status = "yes"


@value_type
class NoOutcome(NamedTuple):
    reason: str

    status = "no"


@value_type
class ReducedOutcome(NamedTuple):
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


class ReductionTrace:
    """Ordered log of reduction steps. Each step records only what its
    rule did and renders to one text line; the old -> new vertex map of a
    contraction or removal is derived from the graph the step replays on."""

    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[Any] = ()):
        self.steps = list(steps)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.steps == other.steps

    def __repr__(self) -> str:
        return f"ReductionTrace(steps={self.steps!r})"

    def append(self, step: Any) -> None:
        self.steps.append(step)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def serialize(self) -> str:
        return "".join(step.line() + "\n" for step in self.steps)
