import random

import pytest
from hypothesis import given, settings, strategies as st

from fptmix.core import (Digraph, FptMixError, OrderedUniverse, ParameterError,
                         WeightedSetFamily, bit_positions)
from fptmix import kiob, oracles
from fptmix.repsets import PartitionPart, PartitionSpec, reduce_layer
from helpers import branching_internal_nodes, check_representation


def random_digraph(rng, n, density=0.35):
    arcs = []
    for t in range(n):
        for h in range(n):
            if t != h and rng.random() < density:
                arcs.append((t, h, 1))
    return Digraph(n, tuple(arcs))


def verify_tp_witness(inst: kiob.TpInstance, res: kiob.TpResult) -> None:
    """Structural check of an accepted tree-and-paths witness."""
    if not res.accept:
        raise FptMixError("cannot verify a reject")
    g = inst.digraph
    tree_arcs = res.tree_arcs
    nodes = res.tree_set
    arc_set = {(t, h) for t, h, _ in g.arcs}
    if len(nodes) != inst.k + inst.l:
        raise FptMixError("tree node count mismatch")
    parent = {}
    for t, h in tree_arcs:
        if (t, h) not in arc_set or t not in nodes or h not in nodes:
            raise FptMixError("tree arc invalid")
        if h in parent:
            raise FptMixError("tree node has two parents")
        parent[h] = t
    if set(parent) != set(nodes) - {inst.root}:
        raise FptMixError("tree is not spanning its node set from the root")
    if len(set(parent.values())) != inst.k:
        raise FptMixError("tree internal count mismatch")
    used = set(nodes)
    if len(res.paths) != inst.q:
        raise FptMixError("path count mismatch")
    for v, u in res.paths:
        if (v, u) not in arc_set:
            raise FptMixError("path arc missing")
        if v in used or u in used or v == u:
            raise FptMixError("paths are not disjoint from the tree and each other")
        used.update((v, u))


def test_tree_families_star():
    g = Digraph(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1)))
    entry = kiob.tree_families(g, 0, 1, 3, 0)
    assert [set(bit_positions(m)) for m in entry.family] == [{0, 1, 2, 3}]


def test_tree_families_unique_path():
    g = Digraph(3, ((0, 1, 1), (1, 2, 1)))
    entry = kiob.tree_families(g, 0, 2, 1, 0)
    assert [set(bit_positions(m)) for m in entry.family] == [{0, 1, 2}]


def test_tree_families_represent_brute_force():
    """Output is a subset of the exhaustive tree family and z-represents it."""
    rng = random.Random(21)
    for trial in range(16):
        n = rng.randint(3, 8)
        g = random_digraph(rng, n, 0.45)
        root = rng.randrange(n)
        for x in range(1, 5):
            for y in range(1, 5):
                for z in range(0, 4):
                    if x + y + z > min(6, n):
                        continue
                    brute = oracles.out_tree_node_sets(g, root, x, y)
                    entry = kiob.tree_families(g, root, x, y, z)
                    got = {frozenset(bit_positions(m)) for m in entry.family}
                    assert got <= brute
                    if not brute:
                        assert not got
                        continue
                    uni = OrderedUniverse.from_labels(str(v) for v in range(n))
                    fam = WeightedSetFamily(
                        uni, x + y, tuple((tuple(sorted(s)), 0) for s in sorted(brute, key=sorted)))
                    cand = WeightedSetFamily(
                        uni, x + y, tuple((tuple(sorted(s)), 0) for s in sorted(got, key=sorted)))
                    spec = PartitionSpec((PartitionPart(tuple(range(n)), x + y + z, x + y),))
                    assert check_representation(spec, fam, cand, "max").valid


def test_tp_alg_q0_path():
    g = Digraph(3, ((0, 1, 1), (1, 2, 1)))
    res = kiob.tp_alg(kiob.TpInstance(g, 0, 2, 1, 0))
    assert res.accept
    verify_tp_witness(kiob.TpInstance(g, 0, 2, 1, 0), res)


def test_tp_alg_single_arc_not_enough_nodes():
    g = Digraph(2, ((0, 1, 1),))
    res = kiob.tp_alg(kiob.TpInstance(g, 0, 1, 1, 1))
    assert not res.accept


def test_tp_alg_parameter_validation():
    g = Digraph(3, ((0, 1, 1), (0, 2, 1)))
    with pytest.raises(ParameterError):
        kiob.TpInstance(g, 0, 1, 2, 1)  # l > k
    with pytest.raises(ParameterError):
        kiob.TpInstance(g, 0, 2, 2, 1)  # q below 2l - k
    with pytest.raises(ParameterError):
        kiob.TpInstance(Digraph(3, ((0, 1, 1),)), 0, 1, 1, 0)  # root not spanning


def test_tp_instance_root_checks():
    """A shape that passes the (k, l, q) checks reaches the root checks."""
    g = Digraph(3, ((0, 1, 1),))
    for root in (-1, 3):
        with pytest.raises(ParameterError, match=f"root {root} out of range"):
            kiob.TpInstance(g, root, 1, 1, 1)
    with pytest.raises(ParameterError, match="root 0 does not root an out-branching"):
        kiob.TpInstance(g, 0, 1, 1, 1)
    assert kiob.TpInstance(Digraph(3, ((0, 1, 1), (0, 2, 1))), 0, 1, 1, 1).root == 0


def test_tree_families_root_and_slack_checks():
    """``tree_families`` takes, as ``TpInstance`` does, only a root among the
    nodes, and only a slack of 0 or more: root 7 on 3 nodes was a bare
    ``IndexError``, root -1 on a 3-cycle returned node 2's family, and slack
    -5 returned a family where a larger instance failed in the separator."""
    cycle = Digraph(3, ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
    for root in (7, -1):
        with pytest.raises(ParameterError, match=f"root {root} outside 0..2"):
            kiob.tree_families(cycle, root, 1, 1, 0)
    with pytest.raises(ParameterError, match="slack -5 below 0"):
        kiob.tree_families(cycle, 0, 1, 1, -5)
    assert kiob.tree_families(cycle, 2, 1, 1, 0).family == (0b101,)


def test_tp_alg_vs_oracle_random():
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 7)
        g = random_digraph(rng, n, 0.4)
        root = rng.randrange(n)
        if not g.reaches_all(root):
            continue
        k = rng.randint(1, 3)
        l = rng.randint(1, k)
        q = rng.randint(0, 2)
        checked += 1
        inst = kiob.TpInstance(g, root, k, l, q) if q >= max(0, 2 * l - k) else None
        if inst is None:
            continue
        want = oracles.oracle_tp(g, root, k, l, q)
        got = kiob.tp_alg(inst)
        assert got.accept == want, (n, g.arcs, root, k, l, q)
        if got.accept:
            verify_tp_witness(inst, got)


def test_solve_kiob_path_and_cycle():
    path = Digraph(5, tuple((i, i + 1, 1) for i in range(4)))
    res = kiob.solve_kiob(path, 4)
    assert res.accept
    assert branching_internal_nodes(res.branching) >= 4
    cycle = Digraph(3, ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
    assert not kiob.solve_kiob(cycle, 3).accept
    assert kiob.solve_kiob(cycle, 2).accept


def test_exchange_shape_from_reduction_figure():
    """The drawn exchange configuration: totals k=6, l=5, q=3, reduced tree
    (3 internal, 2 leaves) plus three 2-node paths; lifting must raise the
    internal count via leaf-leaf reattachment."""
    # tree: 0->1->2->{3,4}; paths (5,6), (7,8), (9,10); spanning glue arcs
    arcs = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1),
            (5, 6, 1), (7, 8, 1), (9, 10, 1),
            # glue: attach path nodes as leaves under the tree
            (3, 5, 1), (3, 6, 1), (4, 7, 1), (4, 8, 1), (1, 9, 1), (1, 10, 1)]
    g = Digraph(11, tuple(arcs))
    tree_arcs = ((0, 1), (1, 2), (2, 3), (2, 4))
    paths = ((5, 6), (7, 8), (9, 10))
    branching = kiob.extract_branching(g, 0, tree_arcs, paths, 6)
    assert branching_internal_nodes(branching) >= 6
    parent = {h: t for t, h in branching}
    assert len(parent) == 10 and 0 not in parent


def test_extract_branching_noop_when_already_internal_enough():
    g = Digraph(3, ((0, 1, 1), (1, 2, 1)))
    branching = kiob.extract_branching(g, 0, ((0, 1), (1, 2)), (), 2)
    assert branching == ((0, 1), (1, 2))


def test_solve_kiob_vs_oracle_random():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 6)
        g = random_digraph(rng, n, 0.4)
        for k in (1, 2, 3, 4):
            want = oracles.oracle_kiob(g, k)
            got = kiob.solve_kiob(g, k)
            assert got.accept == want, (n, g.arcs, k)
            if got.accept:
                assert branching_internal_nodes(got.branching) >= k


def test_solve_kiob_oracle_equivalence_500():
    """Module-level invariant: decision equality on 500 random instances at
    n <= 6 across k in 1..4."""
    rng = random.Random(71)
    for _ in range(500):
        n = rng.randint(1, 6)
        g = random_digraph(rng, n, rng.uniform(0.2, 0.55))
        k = rng.randint(1, 4)
        assert kiob.solve_kiob(g, k).accept == oracles.oracle_kiob(g, k)


def test_solve_kiob_exhaustive_all_three_node_digraphs():
    """Every digraph on 3 nodes, every k in 1..3: full closure at tiny size."""
    from itertools import product as iproduct

    arcs_all = [(t, h) for t in range(3) for h in range(3) if t != h]
    for mask in range(1 << 6):
        arcs = tuple((t, h, 1) for i, (t, h) in enumerate(arcs_all) if (mask >> i) & 1)
        g = Digraph(3, arcs)
        for k in (1, 2, 3):
            assert kiob.solve_kiob(g, k).accept == oracles.oracle_kiob(g, k)


def _fresh_tables_kiob(g, k):
    """``solve_kiob`` as first written: a fresh ``tree_families`` table for
    every (root, l, q) that reaches ``tp_alg``."""
    n = g.node_count
    for root in range(n):
        if n > 0 and not g.reaches_all(root):
            continue
        for l in range(1, k + 1):
            for q in range(max(0, 2 * l - k), l + 1):
                x, y = k - q, l - q
                if (y == 0 and x > 0) or x + y + 2 * q > n:
                    continue
                res = kiob.tp_alg(kiob.TpInstance(g, root, x, y, q))
                if res.accept:
                    return True, root, kiob.extract_branching(g, root, res.tree_arcs,
                                                              res.paths, k)
    return False, None, None


@st.composite
def spanned_digraphs(draw):
    """A digraph on 4-9 nodes in which some node reaches every node, with
    extra arcs that let other roots reach them too, and a k below n."""
    n = draw(st.integers(4, 9))
    label = draw(st.permutations(range(n)))
    arcs = {(label[draw(st.integers(0, v - 1))], label[v]) for v in range(1, n)}
    arcs |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda a: a[0] != a[1]), max_size=3 * n))
    return Digraph(n, tuple((t, h, 1) for t, h in sorted(arcs))), draw(st.integers(1, n - 1))


@settings(max_examples=80)
@given(spanned_digraphs())
def test_shared_tree_tables_match_fresh_tables(case):
    g, k = case
    got = kiob.solve_kiob(g, k)
    assert (got.accept, got.root, got.branching) == _fresh_tables_kiob(g, k)


@settings(max_examples=60)
@given(spanned_digraphs(), st.data())
def test_find_out_tree_reads_every_stored_tree(case, data):
    """Every mask of every state (v, x, y) of a reduced tree table leads back
    to an out-tree of the digraph rooted at v spanning exactly the mask, with
    x internal nodes and y leaves."""
    g, _ = case
    n = g.node_count
    internal = data.draw(st.integers(1, n - 1))
    leaves = data.draw(st.integers(1, n - internal))
    slack = data.draw(st.integers(0, n - internal - leaves))
    table = kiob.tree_families(g, 0, internal, leaves, slack).table
    arc_set = {(t, h) for t, h, _ in g.arcs}
    for v, states in enumerate(table):
        for (x, y), entry in states.items():
            for mask in entry:
                arcs = kiob.find_out_tree(table, v, x, y, mask)
                parent = {h: t for t, h in arcs}
                assert len(parent) == len(arcs) and set(arcs) <= arc_set
                assert {v, *parent} == set(bit_positions(mask)) and v not in parent
                for w in parent:
                    seen = set()
                    while w != v:
                        assert w not in seen
                        seen.add(w)
                        w = parent[w]
                assert len(set(parent.values())) == x and len(arcs) + 1 - x == y


def test_solve_kiob_checks_c_when_no_reduction_runs():
    single = Digraph(1, ())
    trace = {}
    assert not kiob.solve_kiob(single, 1, 1.0, trace).accept and trace == {}
    with pytest.raises(ParameterError, match="c must be at least 1"):
        kiob.solve_kiob(single, 1, 0.5)


def _all_splits_table(g, internal, leaves, slack, trace):
    """``tree_families``'s table as first written: every (v, x, y) state
    probes every (x1, y1) split, x1-ascending then y1-ascending, whether or
    not a child of v holds a tree of shape (x1 - 1, y1).  The first build of
    a mask wins, save that of two merges from one split the one whose b has
    the smaller sorted members wins."""
    n = g.node_count
    out = g.out_neighbors()
    total = internal + leaves
    table = [dict() for _ in range(n)]
    for size in range(1, total + 1):
        parts = (PartitionPart(tuple(range(n)), total + slack, size),)
        layer = {}
        for v in range(n):
            vbit = 1 << v
            for x in range(0, size + 1):
                y = size - x
                if (x == 0 and y != 1) or y == 0 or x > internal or y > leaves:
                    continue
                if size == 1:
                    table[v][(0, 1)] = {vbit: None}
                    continue

                def one_child_sets(x1, y1):
                    return [(a | vbit, (u, a)) for u in out[v]
                            for a in table[u].get((x1 - 1, y1), ()) if not a & vbit]

                found = {}
                for mask, how in one_child_sets(x, y):
                    found.setdefault(mask, how)
                for x1 in range(1, x + 1):
                    for y1 in range(0, y + 1):
                        x2, y2 = x + 1 - x1, y - y1
                        merged = table[v].get((x2, y2))
                        if merged:
                            ones = one_child_sets(x1, y1)
                            for b in merged:
                                for a, how in ones:
                                    old = found.get(a | b)
                                    if a & b == vbit and (old is None or old[2:4] == (x2, y2)
                                                          and bit_positions(b)
                                                          < bit_positions(old[4])):
                                        found[a | b] = how + (x2, y2, b)
                if found:
                    layer[(v, x, y)] = found
        reduce_layer(layer, lambda key: parts, None, trace)
        for (v, x, y), entry in layer.items():
            table[v][(x, y)] = entry
    return table


@st.composite
def digraphs_and_tree_shapes(draw):
    """A digraph on 1-8 nodes and a tree shape (internal, leaves, slack) that
    ``tree_families`` accepts on it."""
    n = draw(st.integers(1, 8))
    g = random_digraph(random.Random(draw(st.integers(0, 2**32))), n,
                       draw(st.sampled_from([0.2, 0.35, 0.5, 0.75])))
    internal = draw(st.integers(0, n - 1))
    leaves = 1 if internal == 0 else draw(st.integers(0, n - internal))
    slack = draw(st.integers(0, n - internal - leaves))
    return g, internal, leaves, slack


@settings(max_examples=300)
@given(digraphs_and_tree_shapes())
def test_tree_families_visits_splits_in_the_all_splits_order(case):
    """Skipping the splits no child can fill keeps every state, every mask,
    the masks' order and each mask's back-pointer, and the trace."""
    g, internal, leaves, slack = case
    got_trace, want_trace = {}, {}
    got = kiob.tree_families(g, 0, internal, leaves, slack, got_trace).table
    want = _all_splits_table(g, internal, leaves, slack, want_trace)
    assert [[(shape, list(entry.items())) for shape, entry in states.items()]
            for states in got] == \
        [[(shape, list(entry.items())) for shape, entry in states.items()]
         for states in want]
    assert got_trace == want_trace


@st.composite
def digraphs_at_leaf_loop_ends(draw):
    """A digraph on 2-8 nodes, often with a node that reaches every node, and
    k = n - 1 (the leaf loop runs l = 1 only) or k = n // 2 or n - n // 2
    (it runs up to l = k = n - k, or to n - k = k - 1)."""
    n = draw(st.integers(2, 8))
    arcs = set()
    if draw(st.booleans()):
        label = draw(st.permutations(range(n)))
        arcs = {(label[draw(st.integers(0, v - 1))], label[v]) for v in range(1, n)}
    arcs |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda a: a[0] != a[1]), max_size=2 * n))
    k = draw(st.sampled_from(sorted({n - 1, n // 2, n - n // 2} - {0})))
    return Digraph(n, tuple((t, h, 1) for t, h in sorted(arcs))), k


@settings(max_examples=200)
@given(digraphs_at_leaf_loop_ends())
def test_solve_kiob_matches_oracle_at_the_leaf_loop_ends(case):
    g, k = case
    got = kiob.solve_kiob(g, k)
    assert got.accept == oracles.oracle_kiob(g, k)
    if got.accept:
        assert branching_internal_nodes(got.branching) >= k


@pytest.mark.parametrize("n", range(7))
def test_solve_kiob_on_arcless_digraphs_matches_oracle(n):
    g = Digraph(n, ())
    for k in range(1, n + 2):
        assert kiob.solve_kiob(g, k).accept == oracles.oracle_kiob(g, k), k
