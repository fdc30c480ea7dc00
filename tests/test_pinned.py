"""Exact results of the staged DPs and cut drivers on seeded instances.

A verdict can survive a change in iteration order, tie-breaking, reduction or
budget counting while the witness, the reduced family or the point at which a
run turns budget-exceeded moves.  These values catch that: each one was read
off the solvers and is compared exactly.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from fptmix import kiob, kpath, oracles, p2pack, unisets, wsp
from fptmix.core import Digraph, Graph, OrderedUniverse, WeightedSetFamily, _mask, bit_positions
from helpers import kcwp_ledger


# ------------------------------------------------------------------ kcwp

def kcwp_instance(seed, n, extra, gamma, unit):
    """A planted 27-node path plus ``extra`` random arcs, cut by the witness
    construction at 1/eps = 13.  With ``unit`` weights every path of a
    given length ties, so the witness is fixed by tie-breaking alone."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    path = perm[:27]
    arcs = {(path[i], path[i + 1]): 1 if unit else rng.randint(1, 6) for i in range(26)}
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        arcs.setdefault((a, b), 1 if unit else rng.randint(1, 9))
    g = Digraph(n, tuple((a, b, w) for (a, b), w in sorted(arcs.items())))
    return kpath.construct_kcwp_witness(g, path, 13, Fraction(1, 12), gamma)


def kcwp_case(seed, n, extra, gamma, tradeoffs=None, audit=False, W=None, unit=False):
    inst = kcwp_instance(seed, n, extra, Fraction(gamma), unit)
    if W is not None:
        inst = replace(inst, W=W)
    trace = {}
    with pytest.MonkeyPatch.context() as patch:
        if audit:
            patch.setattr(kpath, "reduce_layer", kcwp_ledger(inst))
        res = kpath.solve_kcwp(inst, tradeoffs, trace=trace)
    return res.accept, res.pieces, res.weight, res.chained, trace.get("peak_family")


KCWP_CASES = {
    "default-audit": dict(seed=3, n=30, extra=150, gamma="95/1000", audit=True),
    "c1=2,c2=1": dict(seed=3, n=30, extra=150, gamma="95/1000",
                      tradeoffs=kpath.KcwpTradeoffs(c1=2.0, c2=1.0)),
    "c1=2,c2=1 shrinking": dict(seed=1, n=29, extra=150, gamma="80/1000",
                                tradeoffs=kpath.KcwpTradeoffs(c1=2.0, c2=1.0)),
    "default": dict(seed=5, n=30, extra=80, gamma="95/1000"),
    "below-threshold": dict(seed=5, n=30, extra=80, gamma="95/1000", W=74),
    "unit-weights": dict(seed=2, n=27, extra=400, gamma="95/1000", unit=True),
    "unit-weights sparser": dict(seed=3, n=27, extra=250, gamma="95/1000", unit=True),
}

KCWP_PINNED = {
    "default-audit": (True,
                      ((26, 21, 9), (9, 14, 10), (10, 5, 1), (1, 22, 6), (6, 12, 13),
                       (13, 16, 27), (27, 25, 3), (3, 29, 8), (8, 23, 0), (0, 24, 2),
                       (20, 15, 19), (19, 11, 4), (2, 28, 20)),
                      88, True, 12),
    "c1=2,c2=1": (True,
                  ((26, 21, 9), (9, 14, 10), (10, 5, 1), (1, 22, 6), (6, 12, 13),
                   (13, 16, 27), (27, 25, 3), (3, 29, 8), (8, 23, 0), (0, 24, 2),
                   (20, 15, 19), (19, 11, 4), (2, 28, 20)),
                  88, True, 12),
    "c1=2,c2=1 shrinking": (True,
                            ((26, 16, 11), (11, 10, 23), (23, 1, 5), (7, 20, 9),
                             (9, 27, 17), (17, 13, 0), (0, 19, 22), (5, 28, 7), (22, 6, 12),
                             (12, 21, 14), (14, 15, 3), (3, 8, 2), (2, 24, 25)),
                            89, True, 4),
    "default": (True,
                ((13, 2, 10), (10, 9, 29), (29, 24, 12), (12, 17, 28), (28, 6, 15),
                 (15, 18, 21), (21, 3, 5), (4, 26, 13), (5, 1, 7), (7, 23, 0), (0, 16, 20),
                 (22, 25, 11), (20, 27, 22)),
                75, True, 2),
    "below-threshold": (False, None, None, None, 2),
    "unit-weights": (True,
                     ((3, 20, 17), (17, 15, 0), (4, 13, 14), (14, 16, 19), (19, 11, 12),
                      (12, 18, 10), (10, 7, 22), (0, 24, 4), (6, 8, 9), (9, 21, 5),
                      (5, 23, 25), (25, 2, 1), (22, 26, 6)),
                     26, True, 99),
    "unit-weights sparser": (True,
                             ((21, 23, 1), (1, 5, 12), (12, 10, 9), (9, 14, 26),
                              (26, 22, 13), (13, 3, 16), (16, 8, 20), (6, 24, 21),
                              (20, 0, 2), (15, 19, 11), (11, 4, 17), (17, 18, 7),
                              (2, 25, 15)),
                             26, True, 12),
}


def test_solve_kcwp_pinned():
    got = {name: kcwp_case(**case) for name, case in KCWP_CASES.items()}
    assert got == KCWP_PINNED


# ------------------------------------------------------------------ cwsp

# (n, sets, k, 1/eps, largest weight); 30 sets with weights 0..1 make many
# partial packings tie, so those witnesses are fixed by tie-breaking
CWSP_SHAPES = [(9, 14, 3, 1, 9), (10, 16, 3, 2, 9), (9, 14, 2, 2, 9), (10, 18, 3, 3, 9),
               (9, 30, 3, 1, 0), (9, 30, 2, 2, 1)]


def cwsp_results():
    out = []
    for seed in range(1, 8):
        for n, count, k, inv_eps, wmax in CWSP_SHAPES:
            rng = random.Random(seed)
            uni = OrderedUniverse.from_labels([f"u{i}" for i in range(n)])
            sets = tuple((tuple(sorted(rng.sample(range(n), 3))), rng.randint(0, wmax))
                         for _ in range(count))
            fam = WeightedSetFamily(uni, 3, sets, "max")
            order = uni.by_rank()
            f = tuple(order[r] for r in sorted(rng.sample(range(n), inv_eps)))
            trace = {}
            res = wsp.solve_cwsp(wsp.CwspInstance(uni.rank, fam, 0, k, inv_eps, f), 1.591,
                                 trace=trace)
            out.append((res.ordered_sets, res.weight, trace.get("peak_family")))
    return out


CWSP_PINNED = [
    ((5, 13, 8), 7, 6),
    ((4, 15, 1), 19, 6),
    (None, None, 2),
    (None, None, 12),
    ((5, 22, 1), 0, 17),
    ((10, 13), 2, 8),
    (None, None, 5),
    (None, None, 4),
    ((9, 3), 16, 4),
    (None, None, 3),
    ((7, 11, 6), 0, 11),
    ((8, 12), 2, 6),
    ((10, 1, 8), 12, 6),
    (None, None, 2),
    (None, None, 2),
    ((13, 3, 11), 21, 5),
    ((21, 16, 0), 0, 20),
    ((17, 2), 2, 13),
    ((1, 7, 3), 6, 5),
    (None, None, 3),
    ((1, 5), 6, 3),
    ((7, 8, 14), 20, 4),
    ((0, 17, 21), 0, 8),
    ((0, 23), 2, 6),
    ((10, 12, 3), 22, 8),
    ((7, 3, 0), 20, 8),
    ((6, 0), 17, 5),
    (None, None, 4),
    ((23, 9, 10), 0, 26),
    ((11, 22), 2, 14),
    (None, None, 4),
    (None, None, 3),
    ((7, 10), 14, 2),
    (None, None, 3),
    ((12, 16, 8), 0, 12),
    ((15, 23), 2, 5),
    ((9, 7, 11), 17, 6),
    (None, None, 3),
    ((5, 11), 14, 4),
    (None, None, 3),
    ((9, 6, 16), 0, 11),
    ((13, 23), 2, 4),
]


def test_solve_cwsp_pinned():
    assert cwsp_results() == CWSP_PINNED


# ------------------------------------------------------------------ p2p

def icp_results():
    out = []
    for seed in (51, 52, 53):
        rng = random.Random(seed)
        n = 9
        g = Graph(n, tuple(e for e in combinations(range(n), 2) if rng.random() < 0.45))
        packs = oracles.enumerate_packings(g, 2)
        inst = p2pack.IcpInstance(g, 3, p2pack.Packing(packs[0]))
        for p in range(3, 5):
            for q in range(-(-p // 3), min(p, 3) + 1):
                fmap = p2pack.icp_pro1(inst, p, q)
                out.append(sorted((tuple(inst.x_nodes[i] for i in bit_positions(foot)),
                                   pack.paths) for foot, pack in fmap.items()))
    return out


ICP_PINNED = [
    [],
    [((0, 1, 7), ((1, 7, 4), (5, 0, 8))), ((0, 2, 7), ((2, 7, 4), (5, 0, 8))),
     ((0, 3, 7), ((3, 7, 4), (5, 0, 8)))],
    [((0, 1, 2, 3, 6, 7), ((3, 7, 4), (2, 6, 5), (1, 0, 8)))],
    [],
    [],
    [],
    [((0, 1, 2), ((5, 1, 8), (0, 2, 7))), ((0, 1, 3), ((3, 1, 5), (0, 8, 7))),
     ((0, 1, 4), ((4, 1, 5), (0, 8, 7))), ((0, 1, 6), ((5, 1, 8), (0, 6, 7))),
     ((0, 2, 3), ((3, 2, 5), (0, 8, 7))), ((0, 2, 4), ((4, 2, 5), (0, 8, 7))),
     ((0, 2, 6), ((5, 6, 8), (0, 2, 7))), ((1, 2, 3), ((3, 2, 5), (1, 7, 8))),
     ((1, 2, 4), ((4, 2, 5), (1, 7, 8))), ((1, 2, 6), ((5, 6, 8), (1, 7, 2))),
     ((1, 3, 6), ((5, 6, 8), (3, 1, 7))), ((1, 4, 6), ((5, 6, 8), (4, 1, 7))),
     ((2, 3, 6), ((5, 6, 8), (3, 2, 7))), ((2, 4, 6), ((5, 6, 8), (4, 2, 7)))],
    [((0, 1, 2, 3, 4, 6), ((4, 2, 5), (3, 1, 7), (0, 6, 8)))],
    [],
    [],
    [],
    [],
    [],
    [],
    [],
]


def test_icp_pro1_pinned():
    assert icp_results() == ICP_PINNED


# ------------------------------------------------------------------ kiob

def tree_family_results():
    out = []
    for seed in (21, 22):
        rng = random.Random(seed)
        n = 8
        g = Digraph(n, tuple((t, h, 1) for t in range(n) for h in range(n)
                             if t != h and rng.random() < 0.45))
        for internal, leaves, slack in ((2, 2, 1), (2, 3, 0), (3, 2, 2)):
            entry = kiob.tree_families(g, 0, internal, leaves, slack)
            out.append(tuple(tuple(bit_positions(m)) for m in entry.family))
    return out


TREE_PINNED = [
    ((0, 1, 2, 5), (0, 1, 3, 4), (0, 2, 4, 5)),
    ((0, 1, 2, 4, 5),),
    ((0, 1, 2, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 3, 7), (0, 1, 2, 4, 5), (0, 1, 2, 4, 7),
     (0, 1, 2, 5, 7), (0, 1, 3, 4, 5), (0, 1, 3, 4, 7), (0, 1, 3, 5, 7), (0, 1, 4, 5, 7),
     (0, 2, 3, 4, 5), (0, 2, 3, 5, 7), (0, 2, 4, 5, 7), (0, 4, 5, 6, 7)),
    ((0, 1, 2, 5), (0, 1, 3, 5), (0, 2, 3, 4)),
    ((0, 1, 2, 3, 5),),
    ((0, 1, 2, 3, 5), (0, 1, 2, 3, 7), (0, 1, 2, 4, 5), (0, 1, 2, 4, 7), (0, 1, 2, 5, 7),
     (0, 1, 3, 4, 5), (0, 1, 3, 5, 6), (0, 1, 4, 5, 6), (0, 2, 3, 4, 5), (0, 2, 3, 4, 6),
     (0, 2, 3, 5, 7), (0, 2, 4, 5, 6), (0, 3, 4, 5, 6)),
]


def test_tree_families_pinned():
    assert tree_family_results() == TREE_PINNED


# ------------------------------------------------------------------ budgets

def wsp_case(seed, W_offset):
    rng = random.Random(seed)
    uni = OrderedUniverse.from_labels([f"u{i}" for i in range(8)])
    sets = tuple((tuple(sorted(rng.sample(range(8), 3))), rng.randint(0, 9))
                 for _ in range(10))
    fam = WeightedSetFamily(uni, 3, sets, "max")
    W = oracles.oracle_wsp(fam, 2) + W_offset
    return lambda budget: wsp.wsp_alg(uni, fam, W, 2, 2, 1.591, budget)


def pro2_case(seed):
    rng = random.Random(seed)
    m = rng.randint(7, 9)
    family = tuple(tuple(sorted(rng.sample(range(m), 3))) for _ in range(rng.randint(4, 8)))
    pool = list(combinations(range(m), 1))
    rng.shuffle(pool)
    inst = p2pack.Pro2Instance(tuple(range(m)), 3, family, 2, 1, tuple(_mask(c) for c in pool[:3]),
                               2)
    return lambda budget: p2pack.procedure2(inst, budget)


# (run, smallest budget that is not exceeded, status at that budget)
BUDGET_CASES = [
    (wsp_case(2, 0), 10, "accept"),
    (wsp_case(5, 0), 10, "accept"),
    (wsp_case(4, 1), 812, "reject"),
    (pro2_case(1), 71, "accept"),
    (pro2_case(2), 462, "reject"),
    (pro2_case(6), 299, "accept"),
]


def test_smallest_sufficient_budget_pinned():
    for run, budget, status in BUDGET_CASES:
        assert run(budget - 1).status == "budget-exceeded"
        assert run(budget).status == status


# ------------------------------------------------------------------ unisets

# sha256 of the comma-joined greedy functions: the benchmark's four separator
# shapes, and two at n = 16, where test_unisets' full-matrix greedy reference
# would need a cover matrix of about 0.5 GB
GREEDY_DIGESTS = {
    (10, 4, 2): "6bd4114aaf9bc519a82b895fe7621381c8a70d240371d604f901324652cec388",
    (11, 4, 2): "25f6c055352e74ca4b7830c3488d2b0bbeebc18d2bc821f27bec464c92a9dedd",
    (12, 4, 2): "8c1e9ea1ac3e61eb5058178451ef5bada4e9fb66f21ad3c04f9873c41fe5b5eb",
    (10, 5, 2): "bca7d811003d5b1b329f3949780b77cfab4ce3806ea340bec673caa1d5e1c43d",
    (16, 2, 1): "072db39d17e096e1907c2a03f238a19bc6fe583d1c67ce42daf3673c6e71aeac",
    (16, 4, 2): "641b37861959c6e6b4e7399259bc6b8460108e421ff59ede698404b89ea714d3",
}


def test_greedy_universal_sets_pinned():
    for shape, digest in GREEDY_DIGESTS.items():
        funcs = unisets.build_universal(*shape).functions
        assert hashlib.sha256(",".join(map(str, funcs)).encode()).hexdigest() == digest, shape
