"""The package's result, step and trace types are NamedTuple records under
``outcomes.value_type``: each keeps the repr its dataclass had, equals
only a value of its own type, hashes as its field tuple and refuses
assignment. ``sparse_outbranch.cli`` imports none of ``dataclasses``,
``inspect`` and ``csv``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparse_outbranch
from sparse_outbranch.digraph import RootedDigraph
from sparse_outbranch.instance_io import InstanceFile
from sparse_outbranch.iob_kernel import (
    AuxiliaryBipartite,
    CrownDecomposition,
    CrownStep,
    IobInstance,
    TwinGroup,
)
from sparse_outbranch.lob_analyzer import (
    Bag,
    BipathDecomposition,
    ContractedGraph,
    LobAnalysis,
    LobCertificate,
    WeakBipath,
)
from sparse_outbranch.lob_reducer import (
    Contract,
    DeleteArc,
    LobInstance,
    ResolveNo,
    RuleApplication,
    reduce_to_fixpoint,
    replay_trace,
)
from sparse_outbranch.oracle import SolveResult
from sparse_outbranch.outcomes import NoOutcome, ReducedOutcome, ReductionTrace, YesOutcome
from sparse_outbranch.sparsity import DegeneracyOrdering, NeighborhoodClassing
from sparse_outbranch.verify import SuiteResult

G = RootedDigraph(3, 0, [(0, 1), (1, 2)])
BAG = Bag((1, 2), 1, 2)
PATH = WeakBipath((0, 1, 2))
STEP = RuleApplication(2, (1,), Contract((0, 1)))

# each value and its repr, recorded from the dataclasses these types replace
VALUES = [
    (YesOutcome(), "YesOutcome(certificate=None)"),
    (NoOutcome("vertex 2 unreachable from root"),
     "NoOutcome(reason='vertex 2 unreachable from root')"),
    (ReducedOutcome(LobInstance(G, 1)),
     "ReducedOutcome(instance=LobInstance(graph=RootedDigraph(n=3, root=0, m=2), k=1), "
     "classing=None, origin=None)"),
    (ReducedOutcome(IobInstance(G, 1), None, (0, 2)),
     "ReducedOutcome(instance=IobInstance(graph=RootedDigraph(n=3, root=0, m=2), k=1), "
     "classing=None, origin=(0, 2))"),
    (LobInstance(G, 1), "LobInstance(graph=RootedDigraph(n=3, root=0, m=2), k=1)"),
    (IobInstance(G, 2), "IobInstance(graph=RootedDigraph(n=3, root=0, m=2), k=2)"),
    (Contract((0, 1)), "Contract(arc=(0, 1))"),
    (DeleteArc((0, 1)), "DeleteArc(arc=(0, 1))"),
    (ResolveNo("vertex 2 unreachable from root"),
     "ResolveNo(reason='vertex 2 unreachable from root')"),
    (STEP, "RuleApplication(rule_id=2, locus=(1,), action=Contract(arc=(0, 1)))"),
    (AuxiliaryBipartite(frozenset({2}), {("u", 1): {2}}, {2: {("u", 1)}}),
     "AuxiliaryBipartite(w_vertices=frozenset({2}), left_adj={('u', 1): {2}}, "
     "w_adj={2: {('u', 1)}})"),
    (CrownDecomposition(frozenset({2}), frozenset({3}), frozenset({("u", 1)}), {("u", 1): 2}),
     "CrownDecomposition(c_m=frozenset({2}), c_u=frozenset({3}), h=frozenset({('u', 1)}), "
     "matching={('u', 1): 2})"),
    (CrownStep((0, 1), (3, 4)), "CrownStep(class_key=(0, 1), removed=(3, 4))"),
    (TwinGroup(frozenset({("u", 0)}), (3, 4)),
     "TwinGroup(keys=frozenset({('u', 0)}), members=(3, 4))"),
    (BAG, "Bag(members=(1, 2), tail=1, head=2)"),
    (ContractedGraph(G, [Bag((0,), 0, 0), BAG], [0, 1, 1], G),
     "ContractedGraph(graph=RootedDigraph(n=3, root=0, m=2), bag_of=[Bag(members=(0,), "
     "tail=0, head=0), Bag(members=(1, 2), tail=1, head=2)], origin=[0, 1, 1], "
     "original=RootedDigraph(n=3, root=0, m=2))"),
    (PATH, "WeakBipath(vertices=(0, 1, 2))"),
    (BipathDecomposition(frozenset({0}), [PATH]),
     "BipathDecomposition(seed_set=frozenset({0}), paths=[WeakBipath(vertices=(0, 1, 2))])"),
    (LobCertificate(1, 2, 3, 4),
     "LobCertificate(k=1, special_count=2, isolated_count=3, slave_count=4)"),
    (LobAnalysis(None, {1}, set(), BipathDecomposition(frozenset({0}), []), [PATH], [],
                 LobCertificate(1, 0, 0, 0), {"n": 3}),
     "LobAnalysis(contracted=None, special={1}, isolated=set(), "
     "decomposition=BipathDecomposition(seed_set=frozenset({0}), paths=[]), "
     "masters=[WeakBipath(vertices=(0, 1, 2))], slaves=[], cert=LobCertificate(k=1, "
     "special_count=0, isolated_count=0, slave_count=0), report={'n': 3})"),
    (DegeneracyOrdering((2, 1, 0), 1), "DegeneracyOrdering(order=(2, 1, 0), d=1)"),
    (NeighborhoodClassing(frozenset({0}), 2, {(0,): [1, 2]}, [3], {(0,): [(1, 2)]}),
     "NeighborhoodClassing(modulator=frozenset({0}), threshold=2, classes={(0,): [1, 2]}, "
     "heavy=[3], twins={(0,): [(1, 2)]})"),
    (SolveResult(2, None, True), "SolveResult(best_value=2, witness=None, exact=True, nodes=0)"),
    (SolveResult(1, None, False, 7),
     "SolveResult(best_value=1, witness=None, exact=False, nodes=7)"),
    (InstanceFile("lob", G, 1),
     "InstanceFile(kind='lob', graph=RootedDigraph(n=3, root=0, m=2), k=1, comments=[], "
     "warnings=[])"),
    (InstanceFile("iob", G, 1, ["kernel of g"], ["line 3: dropped in-arc (2,0) of the root"]),
     "InstanceFile(kind='iob', graph=RootedDigraph(n=3, root=0, m=2), k=1, "
     "comments=['kernel of g'], warnings=['line 3: dropped in-arc (2,0) of the root'])"),
    (SuiteResult("rules", True), "SuiteResult(name='rules', passed=True, detail={})"),
    (SuiteResult("crown", False, {"firings": 3}),
     "SuiteResult(name='crown', passed=False, detail={'firings': 3})"),
]
RECORDS = [value for value, _ in VALUES]
IDS = [f"{type(value).__name__}-{i}" for i, value in enumerate(RECORDS)]


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_repr_is_the_dataclass_repr(value, text):
    assert repr(value) == text


def test_trace_repr_and_equality():
    trace = ReductionTrace([STEP])
    assert repr(trace) == ("ReductionTrace(steps=[RuleApplication(rule_id=2, locus=(1,), "
                           "action=Contract(arc=(0, 1)))])")
    assert trace == ReductionTrace([STEP]) and trace != ReductionTrace()
    assert trace != [STEP]
    with pytest.raises(AttributeError):
        trace.extra = 1


@pytest.mark.parametrize("value", RECORDS, ids=IDS)
def test_equal_only_within_its_type(value):
    fields = tuple(value)
    assert value == type(value)._make(fields)
    assert value != fields and fields != value
    assert not value == fields and not fields == value


def test_same_fields_of_another_type_differ():
    assert Contract((0, 1)) != DeleteArc((0, 1))
    assert not Contract((0, 1)) == DeleteArc((0, 1))
    assert RuleApplication(2, (1,), Contract((0, 1))) != RuleApplication(2, (1,), DeleteArc((0, 1)))
    assert LobInstance(G, 1) != IobInstance(G, 1)
    assert YesOutcome("x") != NoOutcome("x")
    assert len({Contract((0, 1)), DeleteArc((0, 1)), (0, 1), ((0, 1),)}) == 4


@pytest.mark.parametrize("value", RECORDS, ids=IDS)
def test_hash_is_the_field_tuple_hash(value):
    try:
        expected = hash(tuple(value))
    except TypeError:  # a list, set or dict field: unhashable, as the dataclass was
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected


@pytest.mark.parametrize("value", RECORDS, ids=IDS)
def test_assignment_raises(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_fields_unpack_and_class_attributes_stay():
    graph, k = LobInstance(G, 4)
    assert (graph, k) == (G, 4)
    assert [Contract.kind, DeleteArc.kind, ResolveNo.kind] == ["contract", "delete", "no"]
    assert [YesOutcome.status, NoOutcome.status, ReducedOutcome.status] == ["yes", "no", "reduced"]
    assert LobCertificate(1, 60, 0, 0).decision == "yes"
    assert CrownDecomposition(frozenset({2}), frozenset({3}), frozenset(), {}).c == {2, 3}


def test_checks_raise_their_messages():
    for cls in (LobInstance, IobInstance):
        with pytest.raises(ValueError, match="^k must be nonnegative$"):
            cls(G, -1)
    with pytest.raises(ValueError, match="^bag must hold one or two vertices$"):
        Bag((1, 2, 3), 1, 3)
    with pytest.raises(ValueError, match="^bag must hold one or two vertices$"):
        Bag((), 1, 1)


def test_list_and_dict_defaults_are_not_shared():
    a, b = InstanceFile("lob", G, 1), InstanceFile("lob", G, 1)
    a.comments.append("c")
    a.warnings.append("w")
    assert b.comments == [] and b.warnings == []
    first, second = SuiteResult("x", True), SuiteResult("x", True)
    first.detail["n"] = 1
    assert second.detail == {}


def test_a_step_with_another_action_type_fails_replay():
    # the genuine step contracts (0, 1); the same arc under DeleteArc has
    # the same fields, so only the type tells them apart
    inst = LobInstance(RootedDigraph(3, 0, [(0, 1), (1, 2)]), 1)
    assert reduce_to_fixpoint(inst)[1].steps[0] == RuleApplication(2, (1,), Contract((0, 1)))
    forged = ReductionTrace([RuleApplication(2, (1,), DeleteArc((0, 1)))])
    with pytest.raises(ValueError, match="re-match"):
        replay_trace(inst, forged)


def test_cli_import_leaves_out_dataclasses_inspect_and_csv():
    src = str(Path(sparse_outbranch.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, sparse_outbranch.cli; "
            "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
    for path in Path(src, "sparse_outbranch").glob("*.py"):
        assert "dataclass" not in path.read_text(encoding="utf-8"), path.name
