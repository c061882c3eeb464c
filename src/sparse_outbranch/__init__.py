"""Kernelization toolkit for rooted out-branching problems on sparse digraphs."""

from .digraph import (
    Arc,
    Dominators,
    OutBranching,
    RootedDigraph,
    bfs_out_branching,
    contract_arc,
    cut_structure,
    dominators,
    is_connected,
    reachable,
    remove_vertices,
    split_lonely_branching,
)
from .instance_io import (
    InstanceFile,
    ParseError,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from .iob_kernel import (
    AuxiliaryBipartite,
    CrownDecomposition,
    IobInstance,
    apply_crown_rule,
    build_aux_graph,
    crown_in_class,
    kernelize_iob,
    vc_or_solution,
)
from .lob_analyzer import (
    Bag,
    BipathDecomposition,
    ContractedGraph,
    LobCertificate,
    WeakBipath,
    analyze,
    build_contracted,
    classify_masters_slaves,
    decompose_bipaths,
    isolated_vertices,
    size_report,
    special_vertices,
)
from .lob_reducer import (
    LobInstance,
    ReductionTrace,
    RuleApplication,
    find_rule,
    reduce_to_fixpoint,
    replay_trace,
)
from .oracle import (
    BudgetExceeded,
    SolveMode,
    SolveResult,
    brute_force_out_branchings,
    enumerate_out_branchings,
    solve_branch_and_bound,
)
from .outcomes import KernelOutcome, NoOutcome, ReducedOutcome, YesOutcome
from .sparsity import (
    DegeneracyOrdering,
    NeighborhoodClassing,
    classify_by_modulator,
    degeneracy,
    heavy_degree_sum_check,
)

__version__ = "0.1.0"
