"""Kernelization toolkit for rooted out-branching problems on sparse digraphs.

The package root exports the names of the README's library quick start;
every other name is imported from its own module.
"""

from .digraph import RootedDigraph
from .iob_kernel import IobInstance, kernelize_iob
from .lob_analyzer import analyze
from .lob_reducer import LobInstance, reduce_to_fixpoint
from .oracle import SolveMode, solve_branch_and_bound

__version__ = "0.1.0"
