import random

import pytest

from fptmix.core import BudgetExceededError, Digraph, Graph, OrderedUniverse, WeightedSetFamily
from fptmix import oracles
from fptmix.oracles import OracleBudget


def random_digraph(rng, n, density=0.35, wlo=1, whi=9):
    arcs = []
    for t in range(n):
        for h in range(n):
            if t != h and rng.random() < density:
                arcs.append((t, h, rng.randint(wlo, whi)))
    return Digraph(n, tuple(arcs))


def test_kpath_examples():
    g = Digraph(2, ((0, 1, 7),))
    assert oracles.oracle_kpath(g, 2) == 7
    assert oracles.oracle_kpath(g, 3) is None
    assert oracles.oracle_kpath(g, 1) == 0


def test_kiob_star():
    g = Digraph(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1)))
    assert oracles.oracle_kiob(g, 1)
    assert not oracles.oracle_kiob(g, 2)


def test_p2p_two_triangles():
    g = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    assert oracles.oracle_p2p(g, 2)
    assert not oracles.oracle_p2p(g, 3)


def test_kiob_dual_methods_agree():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 5)
        g = random_digraph(rng, n)
        for k in (1, 2, 3):
            assert oracles.oracle_kiob(g, k) == oracles.oracle_kiob_by_arc_subsets(g, k)


def test_wsp_dual_methods_agree():
    rng = random.Random(10)
    uni = OrderedUniverse.from_labels([f"u{i}" for i in range(8)])
    for _ in range(50):
        sets = tuple((tuple(sorted(rng.sample(range(8), 3))), rng.randint(0, 9))
                     for _ in range(rng.randint(1, 9)))
        fam = WeightedSetFamily(uni, 3, sets, "max")
        for k in (1, 2):
            assert oracles.oracle_wsp(fam, k) == oracles.oracle_wsp_by_combinations(fam, k)


def test_p2p_dual_methods_agree():
    rng = random.Random(11)
    from itertools import combinations

    for _ in range(50):
        n = rng.randint(3, 8)
        edges = tuple(e for e in combinations(range(n), 2) if rng.random() < 0.4)
        g = Graph(n, edges)
        for k in (1, 2):
            assert oracles.oracle_p2p(g, k) == oracles.oracle_p2p_by_combinations(g, k)


def test_budget_exceeded_is_loud():
    g = Digraph(8, tuple((i, j, 1) for i in range(8) for j in range(8) if i != j))
    with pytest.raises(BudgetExceededError):
        oracles.oracle_kpath(g, 6, OracleBudget(10))


def test_tree_node_sets_unique_path():
    g = Digraph(3, ((0, 1, 1), (1, 2, 1)))
    sets = oracles.out_tree_node_sets(g, 0, 2, 1)
    assert sets == {frozenset({0, 1, 2})}


def test_oracle_tp_basics():
    g = Digraph(3, ((0, 1, 1), (1, 2, 1)))
    assert oracles.oracle_tp(g, 0, 2, 1, 0)
    assert not oracles.oracle_tp(g, 0, 2, 1, 1)  # no room left for a path


def test_oracle_cwsp_examples():
    uni = OrderedUniverse.from_labels([f"u{i}" for i in range(12)])

    class Inst:
        rank = uni.rank
        W = 0
        k = 2
        inv_eps = 2
        f = (0, 1)
        family = WeightedSetFamily(uni, 3, (), "max")

    # empty family rejects any k >= 1
    assert not oracles.oracle_cwsp(Inst())

    # schedule demands R(2) = ceil(2 / ceil(3/1)) = 1 deletable element at or
    # below f(2); with f(2) ranked below every non-minimum element no ordered
    # pair can comply even though two disjoint sets exist
    class Tight(Inst):
        family = WeightedSetFamily(uni, 3, (((0, 10, 11), 1), ((1, 8, 9), 1)), "max")
        W = 2
        f = (0, 1)

    assert not oracles.oracle_cwsp(Tight())

    # raising the second threshold above a non-minimum element fixes it
    class Loose(Tight):
        f = (0, 9)

    assert oracles.oracle_cwsp(Loose())
