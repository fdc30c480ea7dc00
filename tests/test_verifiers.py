"""The re-verification gates reject broken witnesses.

Each test starts from a witness its verifier accepts, breaks one condition
at a time, and checks that the verifier raises with that condition's own
message, so a verifier that passed everything would fail here.
"""

import re
from dataclasses import replace
from fractions import Fraction

import pytest

from fptmix import kiob, kpath, p2pack, wsp
from fptmix.core import (Digraph, FptMixError, Graph, InstanceError, OrderedUniverse,
                         ParameterError, WeightedSetFamily)
from fptmix.matching import Matching, validate_matching

# k = 51 at 1/eps = 25, delta = 1/24, gamma = 99/1000: 13 early pieces, the
# middle piece and 11 late ones, one internal node each, k1 = k2 = 2 blue
# nodes against mid = 1, so both cumulative bounds can fail.  Piece i runs
# cut node i -> internal node 26 + i -> cut node i + 1, over arcs of weight 1.
KCWP_PIECES = tuple((i, 26 + i, i + 1) for i in range(25))


def kcwp_instance(L=(26, 27), R=(49, 50), extra_arcs=(), W=50):
    arcs = [(a, b, 1) for a, x, c in KCWP_PIECES for a, b in ((a, x), (x, c))]
    g = Digraph(51, tuple(arcs) + tuple((a, b, 1) for a, b in extra_arcs))
    return kpath.KcwpInstance(g, W, 51, 25, Fraction(1, 24), Fraction(99, 1000),
                              frozenset(L), frozenset(R), tuple(range(13)),
                              tuple(range(1, 14)), tuple(range(14, 25)), tuple(range(15, 26)),
                              13, 14)


def with_piece(idx, piece):
    return kpath.KcwpResult(True, KCWP_PIECES[:idx] + (piece,) + KCWP_PIECES[idx + 1:], 50)


KCWP_BREAKS = [
    ({}, kpath.KcwpResult(False), ParameterError, "cannot verify a reject"),
    ({}, kpath.KcwpResult(True, KCWP_PIECES[:-1], 48), FptMixError, "wrong piece count"),
    ({}, with_piece(0, (2, 26, 1)), FptMixError, "piece 0 endpoints mismatch"),
    ({}, with_piece(0, (0, 26, 27, 1)), FptMixError, "piece 0 internal count mismatch"),
    ({}, with_piece(0, (0, 0, 1)), FptMixError, "piece 0 is not a simple path"),
    ({}, with_piece(0, (0, 27, 1)), FptMixError, "piece 0 uses missing arc (0, 27)"),
    ({"extra_arcs": ((0, 14), (14, 1))}, with_piece(0, (0, 14, 1)), FptMixError,
     "internal node 14 is a piece endpoint"),
    ({"extra_arcs": ((1, 26), (26, 2))}, with_piece(1, (1, 26, 2)), FptMixError,
     "internal node 26 reused"),
    ({"L": (26, 46)}, None, FptMixError, "L node inside a late piece"),
    ({"R": (31, 50)}, None, FptMixError, "R node inside an early piece"),
    ({"L": (26,)}, None, FptMixError, "blue node budgets not met exactly"),
    ({"L": (27, 28)}, None, FptMixError, "cumulative L bound violated after early piece 1"),
    ({"R": (39, 40)}, None, FptMixError, "cumulative R bound violated after late piece 1"),
    ({"W": 49}, None, FptMixError, "witness weight mismatch"),
    ({}, kpath.KcwpResult(True, KCWP_PIECES, 51), FptMixError, "witness weight mismatch"),
]


def test_kcwp_witness_is_verified_intact():
    par = kcwp_instance().params()
    assert (par.m, par.mt, par.ek, par.k1, par.k2, par.mid) == (12, 1, 2, 2, 2, 1)
    kpath.verify_kcwp_witness(kcwp_instance(), kpath.KcwpResult(True, KCWP_PIECES, 50))


@pytest.mark.parametrize("changes, result, error, message", KCWP_BREAKS)
def test_kcwp_verifier_names_each_broken_condition(changes, result, error, message):
    result = result or kpath.KcwpResult(True, KCWP_PIECES, 50)
    with pytest.raises(error, match=re.escape(message)):
        kpath.verify_kcwp_witness(kcwp_instance(**changes), result)


# two stages of one set each: sched = [0, 0, 1], so by f(2) one non-minimum
# element must be deletable, and after f(1) the second set must lie above it
CWSP_UNIVERSE = OrderedUniverse.from_labels(str(e) for e in range(6))
CWSP_FAMILY = WeightedSetFamily(CWSP_UNIVERSE, 3, (((0, 1, 2), 1), ((3, 4, 5), 1),
                                                   ((2, 3, 4), 1)), "max")
CWSP_INSTANCE = wsp.CwspInstance(CWSP_UNIVERSE.rank, CWSP_FAMILY, 2, 2, 2, (2, 5))
CWSP_WITNESS = wsp.CwspResult(True, (0, 1), 2)

CWSP_BREAKS = [
    ({}, wsp.CwspResult(False), "cannot verify a reject"),
    ({}, wsp.CwspResult(True, (0,), 1), "witness does not have k sets"),
    ({}, wsp.CwspResult(True, (0, 2), 2), "witness sets are not disjoint"),
    ({}, wsp.CwspResult(True, (1, 0), 2), "witness sets are not ordered by smallest element"),
    ({}, wsp.CwspResult(True, (0, 1), 3), "witness weight mismatch"),
    ({"W": 3}, None, "witness weight mismatch"),
    ({"f": (0, 0)}, None, "stage 2 deletion budget unmet"),
    ({"f": (3, 5)}, None, "set after stage 1 uses a too-small element"),
]


def test_cwsp_witness_is_verified_intact():
    assert wsp.stage_schedule(2, 2) == [0, 0, 1]
    wsp.verify_cwsp_witness(CWSP_INSTANCE, CWSP_WITNESS)
    assert wsp.solve_cwsp(CWSP_INSTANCE) == CWSP_WITNESS


@pytest.mark.parametrize("changes, result, message", CWSP_BREAKS)
def test_cwsp_verifier_names_each_broken_condition(changes, result, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        wsp.verify_cwsp_witness(replace(CWSP_INSTANCE, **changes), result or CWSP_WITNESS)


# a spanning out-branching 0 -> 1 -> 2 -> 3 -> 4 with 4 internal nodes; 2 <-> 3 is a cycle
KIOB_DIGRAPH = Digraph(5, ((0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 2, 0), (3, 4, 0), (0, 4, 0)))
KIOB_BRANCHING = ((0, 1), (1, 2), (2, 3), (3, 4))

KIOB_BREAKS = [
    (0, ((0, 1), (1, 2), (2, 3), (4, 3)), 4, "branching uses non-arc (4, 3)"),
    (0, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), 3, "node 4 has two parents"),
    (0, ((0, 1), (1, 2), (2, 3)), 3, "branching is not spanning with the stated root"),
    (1, KIOB_BRANCHING, 3, "branching is not spanning with the stated root"),
    (0, ((0, 1), (2, 3), (3, 2), (0, 4)), 1, "branching contains a cycle"),
    (0, KIOB_BRANCHING, 5, "branching has fewer internal nodes than required"),
]


def test_kiob_branching_is_verified_intact():
    kiob._validate_branching(KIOB_DIGRAPH, 0, KIOB_BRANCHING, 4)


@pytest.mark.parametrize("root, arcs, k, message", KIOB_BREAKS)
def test_kiob_validator_names_each_broken_condition(root, arcs, k, message):
    with pytest.raises(FptMixError, match=re.escape(message)):
        kiob._validate_branching(KIOB_DIGRAPH, root, arcs, k)


# the path 0 - 1 - ... - 6
PATH_GRAPH = Graph(7, tuple((v, v + 1) for v in range(6)))

PACKING_BREAKS = [
    (((0, 1, 2), (3, 4, 4)), "triple (3, 4, 4) is not a 3-node path"),
    (((0, 1, 2), (3, 5, 4)), "triple (3, 5, 4) is not a 3-node path"),
    (((0, 1, 2), (3, 4, 6)), "triple (3, 4, 6) is not a 3-node path"),
    (((0, 1, 2), (2, 3, 4)), "packing paths are not node-disjoint"),
]


def test_packing_is_verified_intact():
    p2pack.validate_packing(PATH_GRAPH, p2pack.Packing(((0, 1, 2), (3, 4, 5))))


@pytest.mark.parametrize("paths, message", PACKING_BREAKS)
def test_packing_validator_names_each_broken_condition(paths, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        p2pack.validate_packing(PATH_GRAPH, p2pack.Packing(paths))


@pytest.mark.parametrize("edges", [((0, 1), (1, 2)), ((2, 2),)])
def test_matching_rejects_a_reused_node(edges):
    with pytest.raises(InstanceError, match="not a matching: node reused"):
        Matching(edges)


def test_matching_validator_names_a_non_edge():
    validate_matching(PATH_GRAPH, Matching(((1, 0), (2, 3))))
    with pytest.raises(InstanceError, match=re.escape("matching uses non-edge (0, 2)")):
        validate_matching(PATH_GRAPH, Matching(((2, 0), (3, 4))))
