"""No solver reads a tie from the order of a reduced DP entry.

``reduce_layer`` keeps the masks of an entry it sweeps in ascending
sorted-member order, and those of an entry it keeps whole in the order they
arrived in, so each DP breaks its own equal-weight ties.  A spy that reverses
every entry of every reduced layer after the real step must then leave every
result and every trace as the unspied run gives them.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from fptmix import core, kiob, kpath, oracles, p2pack, repsets, wsp
from fptmix.core import Digraph, Graph, OrderedUniverse, WeightedSetFamily
from test_pinned import CWSP_SHAPES, kcwp_instance


def _reversing(layer, parts_of_key, *args, **kwargs):
    repsets.reduce_layer(layer, parts_of_key, *args, **kwargs)
    if parts_of_key is not None:
        for key, entry in layer.items():
            layer[key] = dict(reversed(entry.items()))


def _same_with_reversed_entries(monkeypatch, solve):
    """``solve(trace)``'s result and trace, run plainly and then with every
    reduced entry reversed, as two pairs."""
    plain_trace, spied_trace = {}, {}
    plain = solve(plain_trace)
    with monkeypatch.context() as patch:
        for module in (kpath, kiob, wsp, p2pack):
            patch.setattr(module, "reduce_layer", _reversing)
        spied = solve(spied_trace)
    return (plain, plain_trace), (spied, spied_trace)


def _family(rng, n, count, wmax):
    uni = OrderedUniverse.from_labels([f"u{i}" for i in range(n)])
    sets = tuple((tuple(sorted(rng.sample(range(n), 3))), rng.randint(0, wmax))
                 for _ in range(count))
    return uni, WeightedSetFamily(uni, 3, sets, "max")


def _cwsp_cases():
    """The instances of ``test_pinned.py``'s cwsp pins, among them seed 7's
    30 sets of weight 0..1 at k = 2, whose witness the reversal moved while
    the step sorted every entry and the DP kept the first of equal weights."""
    for seed in range(1, 8):
        for n, count, k, inv_eps, wmax in CWSP_SHAPES:
            rng = random.Random(seed)
            uni, fam = _family(rng, n, count, wmax)
            order = uni.by_rank()
            f = tuple(order[r] for r in sorted(rng.sample(range(n), inv_eps)))
            yield wsp.CwspInstance(uni.rank, fam, 0, k, inv_eps, f)


def _kcwp_case(seed, n, extra, unit):
    """``test_pinned.py``'s planted 27-node path with the nodes off the path
    added to L.  Past 16 L nodes the L separator holds every k1-subset, so
    sets that differ in L alone survive the middle piece and meet, with equal
    weights under ``unit`` weights, where L leaves the stored sets."""
    inst = kcwp_instance(seed, n, extra, Fraction(95, 1000), unit)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)  # as kcwp_instance does: the path is perm[:27]
    return replace(inst, L=inst.L | set(perm[27:]))


# a 9-node digraph of unit arcs whose k = 5 witness the reversal moved while
# the step sorted every entry and the tree DP kept a mask's first merge
KIOB_MOVED = {"arcs": [[0, 3, 1], [0, 8, 1], [2, 4, 1], [5, 0, 1], [5, 2, 1], [5, 6, 1],
                       [5, 7, 1], [6, 0, 1], [6, 5, 1], [6, 8, 1], [7, 1, 1], [7, 3, 1]],
              "nodes": 9}


def test_cwsp_ignores_reduced_entry_order(monkeypatch):
    for inst in _cwsp_cases():
        plain, spied = _same_with_reversed_entries(
            monkeypatch, lambda trace: wsp.solve_cwsp(inst, 1.591, trace=trace))
        assert spied == plain, inst


@pytest.mark.parametrize("n, count, wmax", [(9, 18, 2), (18, 30, 1)])
def test_wsp_alg_ignores_reduced_entry_order(monkeypatch, n, count, wmax):
    """Past 16 elements a stored-set separator holds every subset of its
    size, so the last layer keeps an entry whole and its final scan meets
    masks of equal weight in one key."""
    accepted = 0
    for seed in range(8):
        rng = random.Random(seed)
        k = 2 + seed % 2
        uni, fam = _family(rng, n, count, wmax)
        W = oracles.oracle_wsp(fam, k) or 0  # the best weight; None for no k-packing
        for inv_eps in (1, 2):
            plain, spied = _same_with_reversed_entries(
                monkeypatch, lambda trace: wsp.wsp_alg(uni, fam, W, k, inv_eps, trace=trace))
            assert spied == plain, (seed, inv_eps)
            accepted += plain[0].status == "accept"
    assert accepted > 8


@pytest.mark.parametrize("seed, n, extra, unit", [(2, 27, 400, True), (3, 30, 150, False),
                                                  (5, 45, 900, True), (7, 45, 900, False)])
def test_kcwp_ignores_reduced_entry_order(monkeypatch, seed, n, extra, unit):
    inst = _kcwp_case(seed, n, extra, unit)
    plain, spied = _same_with_reversed_entries(
        monkeypatch, lambda trace: kpath.solve_kcwp(inst, trace=trace))
    assert plain[0].accept and spied == plain


def test_kiob_ignores_reduced_entry_order(monkeypatch):
    moved = core.parse_instance(json.dumps(KIOB_MOVED)).value
    graphs = [(moved, 5)]
    for seed in range(20):
        rng = random.Random(seed)
        n = 7 + seed % 3
        arcs = {(rng.randrange(v), v) for v in range(1, n)}  # node 0 reaches every node
        arcs |= {tuple(rng.sample(range(n), 2)) for _ in range(n)}
        graphs.append((Digraph(n, tuple((a, b, 1) for a, b in sorted(arcs))), 2 + seed % 4))
    for g, k in graphs:
        plain, spied = _same_with_reversed_entries(
            monkeypatch, lambda trace: kiob.solve_kiob(g, k, trace=trace))
        assert spied == plain, (g, k)
        for internal, leaves in ((2, 2), (k - 1, 2)):
            plain, spied = _same_with_reversed_entries(
                monkeypatch, lambda trace: kiob.tree_families(g, 0, internal, leaves, 1, trace))
            assert spied == plain and spied[0].table == plain[0].table, (g, internal, leaves)


def test_p2packing_ignores_reduced_entry_order(monkeypatch):
    for seed in range(10):
        rng = random.Random(seed)
        n = 9 + seed % 3
        g = Graph(n, tuple(e for e in combinations(range(n), 2) if rng.random() < 0.35))
        for k in (2, 3):
            plain, spied = _same_with_reversed_entries(
                monkeypatch, lambda trace: p2pack.solve_p2packing(g, k, trace=trace))
            assert spied == plain, (seed, k)
