import random
from dataclasses import fields, replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fptmix.core import Budget, Graph, InstanceError, ParameterError, _mask, bit_positions
from fptmix import oracles, p2pack, wsp


def random_graph(rng, n, density=0.4):
    edges = tuple(e for e in combinations(range(n), 2) if rng.random() < density)
    return Graph(n, edges)


def footprint_nodes(inst, foot):
    """The nodes of X an ``icp_pro1`` footprint, an X mask, names."""
    return {inst.x_nodes[i] for i in bit_positions(foot)}


def test_triangle_and_two_triangles():
    tri = Graph(3, ((0, 1), (1, 2), (0, 2)))
    assert p2pack.solve_p2packing(tri, 1).status == "accept"
    two = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    res = p2pack.solve_p2packing(two, 2)
    assert res.status == "accept"
    p2pack.validate_packing(two, res.packing)


def test_pro2_schedule_hand_value():
    # (3q - p) = 2, k - q = 4, 1/eps = 2, floor(eps(k-q)) = 2:
    # R(1) = ceil(2 / ceil(12/2)) = 1
    values = wsp.stage_schedule(4, 2, 2)
    assert values[0] == 0 and values[1] == 1
    # without a footprint the recursion is the weighted packing schedule,
    # which starts R(0) = R(1) = 0; the oracle's copy is written that way
    for k in range(1, 30):
        for inv in range(1, 7):
            if k // inv >= 1:
                assert wsp.stage_schedule(k, inv, 0) == oracles._r_schedule_wsp(k, inv)


def test_icp_pro1_no_edges_touching_outside():
    # previous packing covers all six nodes of one triangle pair; the seventh
    # node is isolated, so no path can leave the packed set
    g = Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    prev = p2pack.Packing(((0, 1, 2), (3, 4, 5)))
    inst = p2pack.IcpInstance(g, 3, prev)
    for p in range(3, 5):
        for q in range(-(-p // 3), p + 1):
            assert p2pack.icp_pro1(inst, p, q) == {}


def test_icp_pro1_biconditional_small():
    """F nonempty with a feasible footprint iff some k-packing splits as
    (p, q); both sides brute-forced."""
    rng = random.Random(51)
    for trial in range(12):
        n = rng.randint(6, 9)
        g = random_graph(rng, n, 0.45)
        packs = oracles.enumerate_packings(g, 2)
        if not packs:
            continue
        prev = p2pack.Packing(packs[0])
        k = 3
        inst = p2pack.IcpInstance(g, k, prev)
        x = prev.nodes()
        all_k_packs = oracles.enumerate_packings(g, k)
        for p in range(3, 3 * k - 5 + 1):
            for q in range(-(-p // 3), min(p, k) + 1):
                sol_nonempty = any(
                    sum(1 for path in pack for v in path if v not in x) == p
                    and sum(1 for path in pack if any(v not in x for v in path)) == q
                    for pack in all_k_packs)
                fmap = p2pack.icp_pro1(inst, p, q)
                feasible = False
                for foot, outside in fmap.items():
                    p2pack.validate_packing(g, outside)
                    assert outside.nodes() & x == footprint_nodes(inst, foot)
                    remaining = [t for t in oracles.all_p2_paths(g)
                                 if set(t) <= (x - footprint_nodes(inst, foot))]
                    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in remaining]

                    def disjoint(chosen_count=k - q):
                        def walk(idx, used, cnt):
                            if cnt == chosen_count:
                                return True
                            for j in range(idx, len(masks)):
                                if used & masks[j] == 0 and walk(j + 1, used | masks[j], cnt + 1):
                                    return True
                            return False
                        return walk(0, 0, 0)

                    if k - q >= 0 and disjoint():
                        feasible = True
                        break
                assert feasible == sol_nonempty, (n, g.edges, p, q)


def test_procedure2_vacuous_footprint():
    inst = p2pack.Pro2Instance((), 1, (), 3, 1, (0,), 1)
    assert p2pack.procedure2(inst).status == "accept"
    empty = p2pack.Pro2Instance((), 1, (), 3, 1, (), 1)
    assert p2pack.procedure2(empty).status == "reject"


def test_procedure2_vs_exhaustive():
    rng = random.Random(53)
    for trial in range(200):
        m = rng.randint(6, 10)  # universe size
        nsets = rng.randint(1, 8)
        family = [tuple(sorted(rng.sample(range(m), 3))) for _ in range(nsets)]
        if trial % 3 == 0:
            # a triangle's three paths: one node set at three positions
            family.append(rng.choice(family))
        family = tuple(family)
        k = rng.randint(2, 3)
        q = rng.randint(1, k)
        p = rng.randint(max(1, 3 * q - m), 3 * q)  # footprint size 3q - p >= 0
        size = 3 * q - p
        if size < 0:
            continue
        cands = []
        pool = list(combinations(range(m), size))
        rng.shuffle(pool)
        for c in pool[: rng.randint(0, 3)]:
            cands.append(frozenset(c))
        inst = p2pack.Pro2Instance(tuple(range(m)), k, family, p, q, tuple(map(_mask, cands)),
                                   rng.choice([1, 2]))
        got = p2pack.procedure2(inst)
        # exhaustive: any footprint + (k - q) disjoint family sets avoiding it
        want = False
        for cand in cands:
            for combo in combinations(range(len(family)), k - q):
                used = set()
                ok = True
                for i in combo:
                    s = set(family[i])
                    if used & s or cand & s:
                        ok = False
                        break
                    used |= s
                if ok:
                    want = True
                    break
            if want:
                break
        assert (got.status == "accept") == want, (m, family, p, q, cands)
        if want:
            assert got.footprint in inst.candidates
            assert len(got.ordered_sets) == k - q
            used = set(bit_positions(got.footprint))
            for pos in got.ordered_sets:
                assert used.isdisjoint(family[pos]), (family, got)
                used.update(family[pos])


def test_solve_p2packing_vs_oracle():
    rng = random.Random(55)
    for trial in range(30):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, 0.4)
        for k in (1, 2, 3):
            want = oracles.oracle_p2p(g, k)
            for inv in (1, 2):
                got = p2pack.solve_p2packing(g, k, inv)
                assert got.status == ("accept" if want else "reject"), (g.edges, k, inv)
                if got.status == "accept":
                    p2pack.validate_packing(g, got.packing)
                    assert len(got.packing) == k


def test_chaining_invariant_rounds():
    """Each compression round receives the previous round's witness; its
    validity is asserted at instance construction."""
    g = Graph(9, ((0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)))
    res = p2pack.solve_p2packing(g, 3, 1)
    assert res.status == "accept"
    p2pack.validate_packing(g, res.packing)


def test_icp_pro1_fully_outside_path_gives_empty_footprint():
    """A path using three outside nodes shows up as the empty footprint at
    (p, q) = (3, 1); without such a path the footprint family is empty."""
    g = Graph(9, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8)))
    prev = p2pack.Packing(((0, 1, 2), (3, 4, 5)))
    inst = p2pack.IcpInstance(g, 3, prev)
    fmap = p2pack.icp_pro1(inst, 3, 1)
    assert set(fmap) == {0}
    p2pack.validate_packing(g, fmap[0])
    # drop the outside edges: nothing fully outside remains
    g2 = Graph(9, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    inst2 = p2pack.IcpInstance(g2, 3, prev)
    assert p2pack.icp_pro1(inst2, 3, 1) == {}


def test_solve_p2packing_checks_c_when_no_reduction_runs():
    path = Graph(3, ((0, 1), (1, 2)))
    trace = {}
    assert p2pack.solve_p2packing(path, 1, 2, 1.0, trace=trace).status == "accept"
    assert trace == {"entries": 1}  # icp_pro1's one path, counted and not reduced
    with pytest.raises(ParameterError, match="c must be at least 1"):
        p2pack.solve_p2packing(path, 1, 2, 0.5)


def _eighteen_edge_graph():
    """12 nodes, 18 distinct edges drawn with ``random.Random(1)``: it holds
    a 4-packing and no 5-packing."""
    rng = random.Random(1)
    edges = set()
    while len(edges) < 18:
        edges.add(tuple(sorted(rng.sample(range(12), 2))))
    return Graph(12, tuple(sorted(edges)))


def test_p2packing_budget_exits():
    """Every ``procedure2`` call of one solve charges the same cut-tuple
    budget: 12 tuples in all are the fewest that settle k = 4 and k = 5."""
    g = _eighteen_edge_graph()
    assert p2pack.solve_p2packing(g, 4, 2, 1.0, 1).status == "budget-exceeded"
    for k, status in ((4, "accept"), (5, "reject")):
        assert p2pack.solve_p2packing(g, k, 2, 1.0, 11).status == "budget-exceeded", k
        assert p2pack.solve_p2packing(g, k, 2, 1.0, 12).status == status, k


def test_procedure2_per_cut_entry_cap(monkeypatch):
    g = _eighteen_edge_graph()
    family = tuple(sorted(tuple(sorted(path)) for path in oracles.all_p2_paths(g)))
    # three disjoint paths avoiding the empty footprint
    inst = p2pack.Pro2Instance(tuple(range(12)), 4, family, 3, 1, (0,), 2)
    assert p2pack.procedure2(inst).status == "accept"
    monkeypatch.setattr(p2pack, "_CUT_ENTRY_CAP", 1)
    assert p2pack.procedure2(inst).status == "budget-exceeded"


def _random_pro2(rng):
    m = rng.randint(6, 9)
    family = tuple(tuple(sorted(rng.sample(range(m), 3))) for _ in range(rng.randint(1, 7)))
    k = rng.randint(2, 3)
    q = rng.randint(1, k - 1)  # the cut subproblem needs k - q >= 1
    p = rng.randint(max(1, 3 * q - m), 3 * q)
    pool = list(combinations(range(m), 3 * q - p))
    rng.shuffle(pool)
    cands = tuple(_mask(c) for c in pool[: rng.randint(0, 3)])
    return p2pack.Pro2Instance(tuple(range(m)), k, family, p, q, cands, rng.choice([1, 2]))


def test_solve_cpro2_accepts_under_some_cut_iff_procedure2_accepts():
    rng = random.Random(57)
    accepted = 0
    for _ in range(60):
        inst = _random_pro2(rng)
        inv_eps = inst.inv_eps if (inst.k - inst.q) // inst.inv_eps >= 1 else 1
        any_cut = False
        for rank, f in wsp.cut_universes(inst.rank, inv_eps, Budget(10**6, "cut tuples")):
            res = p2pack.solve_cpro2(replace(inst, rank=rank, inv_eps=inv_eps, f=f))
            if res.accept:
                any_cut = True
                assert res.footprint in inst.candidates
                assert len(res.ordered_sets) == inst.k - inst.q
                used = set(bit_positions(res.footprint))
                for pos in res.ordered_sets:
                    assert used.isdisjoint(inst.family[pos]), (inst, res)
                    used.update(inst.family[pos])
        assert any_cut == (p2pack.procedure2(inst).status == "accept"), inst
        accepted += any_cut
    assert 0 < accepted < 60
    with pytest.raises(ParameterError, match="stage function f"):
        p2pack.solve_cpro2(_random_pro2(rng))


def test_icp_pro1_returns_nothing_at_zero_outside_nodes():
    """(p, q) = (0, 0) names no path leaving X, so no footprint comes back,
    though the DP starts from the empty packing at (0, 0); nor does a split
    with q = 0 or p = 0 alone."""
    rng = random.Random(51)
    g = Graph(9, tuple(e for e in combinations(range(9), 2) if rng.random() < 0.45))
    inst = p2pack.IcpInstance(g, 3, p2pack.Packing(oracles.enumerate_packings(g, 2)[0]))
    assert p2pack.icp_pro1(inst, 0, 0) == {}
    assert p2pack.icp_pro1(inst, 3, 0) == {} and p2pack.icp_pro1(inst, 0, 1) == {}
    assert p2pack.icp_pro1(inst, 3, 2)  # the graph has paths that leave X


@st.composite
def compression_rounds(draw):
    """A graph on 5-9 nodes, a round t in 1..3 (lower if the graph has no
    (t - 1)-packing) and one (t - 1)-packing of it."""
    n = draw(st.integers(5, 9))
    g = random_graph(random.Random(draw(st.integers(0, 2**32))), n,
                     draw(st.sampled_from([0.3, 0.45, 0.6])))
    t = draw(st.sampled_from([3, 2, 1]))
    while not (previous := oracles.enumerate_packings(g, t - 1)):
        t -= 1
    return p2pack.IcpInstance(g, t, p2pack.Packing(draw(st.sampled_from(previous))))


@settings(max_examples=200)
@given(compression_rounds())
def test_icp_pro1_biconditional_at_its_first_and_last_splits(inst):
    """At q = 1 (the layer grown from the seed), p = q (one outside node per
    path) and p = 3q (no footprint), brute-forced: the map holds exactly the
    footprints of the q-packings whose paths all leave X with p outside nodes
    in all, each with a valid such packing, so some footprint leaves room for
    k - q paths inside X iff some k-packing splits as (p, q)."""
    g, k, x = inst.graph, inst.k, inst.previous.nodes()

    def split(pack):
        return (sum(1 for path in pack for v in path if v not in x),
                sum(1 for path in pack if not x.issuperset(path)))

    k_splits = {split(pack) for pack in oracles.enumerate_packings(g, k)}
    for q in range(1, k + 1):
        leaving = [pack for pack in oracles.enumerate_packings(g, q)
                   if all(not x.issuperset(path) for path in pack)]
        for p in sorted({q, 3 * q} | ({1, 2, 3} if q == 1 else set())):
            fmap = p2pack.icp_pro1(inst, p, q)
            assert set(fmap) == {_mask(inst.x_nodes.index(v) for path in pack for v in path
                                       if v in x)
                                 for pack in leaving if split(pack) == (p, q)}, (p, q)
            feet = [x - footprint_nodes(inst, foot) for foot in fmap]
            for foot, outside in fmap.items():
                p2pack.validate_packing(g, outside)
                assert split(outside.paths) == (p, q)
                assert outside.nodes() & x == footprint_nodes(inst, foot)
            room = any(oracles.oracle_p2p(Graph(g.node_count, tuple(
                (a, b) for a, b in g.edges if a in rest and b in rest)), k - q)
                for rest in feet)
            assert room == ((p, q) in k_splits), (p, q)


@pytest.mark.parametrize("n", range(7))
def test_solve_p2packing_on_edgeless_graphs_matches_oracle(n):
    g = Graph(n, ())
    for k in range(n + 2):
        want = oracles.oracle_p2p(g, k)
        for inv in (1, 2):
            got = p2pack.solve_p2packing(g, k, inv)
            assert got.status == ("accept" if want else "reject"), (k, inv)
            if want:
                assert got.packing == p2pack.Packing(())


@pytest.mark.parametrize("m", range(7))
def test_procedure2_with_no_sets_matches_exhaustive(m):
    """The exhaustive check of ``test_procedure2_vs_exhaustive`` with no sets:
    k - q disjoint sets avoiding the one candidate footprint exist only
    when k = q, as the empty subfamily."""
    for k in range(1, 4):
        for q in range(1, k + 2):
            for p in range(max(q, 3 * q - m), 3 * q + 1):
                cand = (1 << 3 * q - p) - 1
                for inv in (1, 2):
                    got = p2pack.procedure2(p2pack.Pro2Instance(tuple(range(m)), k, (), p, q,
                                                                (cand,), inv))
                    want = p2pack.Pro2Result("accept", cand, ()) if k == q else \
                        p2pack.Pro2Result("reject")
                    assert got == want, (k, q, p, inv)


@pytest.mark.parametrize("f", [(2,), (2, 5, 6), (9, 9), (-7, 6), (6, 7), (5, 2)])
def test_pro2_instance_checks_its_stage_function(f):
    """As ``CwspInstance`` does, the cut instance of ``solve_cpro2`` takes
    only an f that names one universe element per stage in non-decreasing
    rank; before, (2,) ran one stage against a two-stage schedule and
    accepted, and (5, 2) silently rejected."""
    inst = p2pack.Pro2Instance(tuple(range(7)), 3, ((0, 1, 2), (3, 4, 5)), 3, 1, (0,), 2)
    assert p2pack.solve_cpro2(replace(inst, f=(2, 5))).accept
    with pytest.raises(ParameterError, match="^f must"):
        replace(inst, f=f)


@pytest.mark.parametrize("family, cand, message", [
    (((0, 1, 2), (3, 4, 5)), (1 << 99,), "out of range"),  # was accepted with footprint {99}
    (((0, 1, 2), (3, 4, 5)), (-1,), "out of range"),  # a negative mask has no finite member set
    (((0, 1, 9),), (1,), "out of range"),  # was a bare IndexError
    (((0, 1),), (1 << 5,), "exactly 3 members"),  # was solved as if a 3-set
    (((0, 1, 2), (3, 4, 5)), (frozenset({0}),), "out of range"),  # a footprint is a bitmask
])
def test_pro2_instance_checks_its_family_and_candidates(family, cand, message):
    """As ``wsp_alg`` does for its family, the cut instance takes only 3-sets
    inside its order, and only candidate footprints, element bitmasks, inside
    it; ``cand`` is the candidates tuple."""
    with pytest.raises(InstanceError, match=message):
        p2pack.Pro2Instance(tuple(range(6)), 2, family, 2, 1, cand, 1)


@pytest.mark.parametrize("rank", [(0, 1, 1, 3, 4, 5), (1, 2, 3, 4, 5, 6), (5, 4, 3, 2, 1, -1),
                                  (0, 1, 2, 3, 4, 5.0)])
def test_pro2_instance_takes_only_a_permutation_as_its_order(rank):
    """The order is a rank tuple, which must be a permutation of 0..n-1,
    as ``OrderedUniverse`` required of its ranks."""
    with pytest.raises(InstanceError, match="rank must be a permutation"):
        p2pack.Pro2Instance(rank, 2, ((0, 1, 2), (3, 4, 5)), 2, 1, (1,), 1)


@pytest.mark.parametrize("graph, path", [
    (Graph(3, ((0, 1), (1, 2))), (0, 5, 1)),  # was a bare IndexError
    (Graph(4, ((0, 3), (1, 3))), (0, -1, 1)),  # was accepted: adj[-1] is node 3's list
])
def test_validate_packing_rejects_a_node_outside_the_graph(graph, path):
    with pytest.raises(ParameterError, match="outside"):
        p2pack.validate_packing(graph, p2pack.Packing((path,)))
    with pytest.raises(ParameterError, match="outside"):
        p2pack.IcpInstance(graph, 2, p2pack.Packing((path,)))


@pytest.mark.parametrize("path", [(0, 1), (0, 1, 2, 3)])
def test_validate_packing_rejects_a_path_that_is_not_three_nodes(path):
    """Such a path once escaped as a bare ``ValueError`` from unpacking."""
    graph = Graph(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(ParameterError, match="does not have three nodes"):
        p2pack.validate_packing(graph, p2pack.Packing((path,)))
    with pytest.raises(ParameterError, match="does not have three nodes"):
        p2pack.IcpInstance(graph, 2, p2pack.Packing((path,)))


def test_pro2_instance_rejects_a_member_that_is_not_an_int():
    """A float member once constructed, and ``procedure2`` then raised a
    bare ``TypeError`` in the footprint DP."""
    with pytest.raises(InstanceError, match="not an int"):
        p2pack.Pro2Instance(tuple(range(6)), 2, ((0, 1.5, 2),), 2, 1, (1,), 1)


def test_icp_pro1_builds_only_the_layers_that_grow_into_the_one_it_reads(monkeypatch):
    """The layers of one round and p are shared by every q: each (p', q')
    layer is built, with one ``reduce_layer`` call, at most once, and only
    when a read reaches it.  Reading (p, q) reaches (p, q), and a layer
    built at (p', q') reaches (p' - c, q' - 1) for each outside count c of a
    path leaving X; a layer outside 1 <= q' <= p' <= 3q' is empty and never
    built.  A shared layer gives the same footprints as a fresh round's."""
    rng = random.Random(51)
    g = Graph(9, tuple(e for e in combinations(range(9), 2) if rng.random() < 0.45))
    prev = p2pack.Packing(oracles.enumerate_packings(g, 2)[0])
    inst = p2pack.IcpInstance(g, 3, prev)
    counts = {row[2] for row in inst.leaving}
    assert len(counts) > 1, "the graph no longer has paths of several outside counts"
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = p2pack.reduce_layer
    monkeypatch.setattr(p2pack, "reduce_layer", spy)
    for p in range(10):
        built: set[tuple[int, int]] = set()
        for q in (3, 1, 4, 0, 2):
            calls.clear()
            got = p2pack.icp_pro1(inst, p, q)
            reached, todo = set(), [(p, q)] if p else []
            while todo:
                p1, q1 = todo.pop()
                if (p1, q1) not in reached and 1 <= q1 <= p1 <= 3 * q1:
                    reached.add((p1, q1))
                    todo.extend((p1 - c, q1 - 1) for c in counts)
            assert len(calls) == len(reached - built), (p, q)
            built |= reached
            assert got == p2pack.icp_pro1(p2pack.IcpInstance(g, 3, prev), p, q), (p, q)


def test_icp_instance_derives_its_round_in_one_path_scan(monkeypatch):
    """``IcpInstance`` reads the adjacency once beside ``validate_packing``'s
    read, and its derived fields hold X ascending, the 3-node paths inside X
    and the rows of the paths that leave it, sorted by smallest outside
    index, then path.  They take no part in ``==``, ``hash`` or ``repr``."""
    rng = random.Random(52)
    g = Graph(9, tuple(e for e in combinations(range(9), 2) if rng.random() < 0.45))
    prev = p2pack.Packing(oracles.enumerate_packings(g, 2)[0])
    where, seen = ["init"], []
    real_adjacency, real_validate = Graph.adjacency, p2pack.validate_packing

    def validate(*args):
        where[0] = "validate"
        real_validate(*args)
        where[0] = "init"

    monkeypatch.setattr(Graph, "adjacency", lambda self: seen.append(where[0]) or
                        real_adjacency(self))
    monkeypatch.setattr(p2pack, "validate_packing", validate)
    inst = p2pack.IcpInstance(g, 3, prev)
    assert seen == ["validate", "init"]

    x = sorted(prev.nodes())
    y = [v for v in range(9) if v not in x]
    adj = real_adjacency(g)
    paths = [(a, mid, c) for mid in range(9) for a, c in combinations(sorted(adj[mid]), 2)]
    assert inst.x_nodes == tuple(x)
    assert inst.inside == tuple(t for t in paths if set(t) <= set(x))
    rows = [(min(y.index(v) for v in t if v in y), sum(1 << y.index(v) for v in t if v in y),
             sum(v in y for v in t), sum(1 << x.index(v) for v in t if v in x), t)
            for t in paths if not set(t) <= set(x)]
    assert inst.leaving == tuple(sorted(rows, key=lambda r: (r[0], r[4])))

    assert [f.name for f in fields(inst) if f.init or f.compare or f.repr] == \
        ["graph", "k", "previous"]
    assert inst == p2pack.IcpInstance(g, 3, prev) and hash(inst) == hash((g, 3, prev))
    assert repr(inst) == f"IcpInstance(graph={g!r}, k=3, previous={prev!r})"


def test_icp_pro1_scans_no_graph_and_each_round_scans_once(monkeypatch):
    """In ``solve_p2packing`` every adjacency read outside ``validate_packing``
    is a round's one path scan, k of them at k rounds, and none comes from
    the many ``icp_pro1`` calls of a rejecting last round."""
    rng = random.Random(53)
    g = random_graph(rng, 10, 0.4)
    opt = max(t for t in range(4) if oracles.oracle_p2p(g, t))
    where, seen, pro1_calls = ["solve"], [], []
    real_adjacency, real_pro1 = Graph.adjacency, p2pack.icp_pro1

    def in_phase(name, fn):
        def run(*args):
            outer, where[0] = where[0], name
            try:
                return fn(*args)
            finally:
                where[0] = outer
        return run

    monkeypatch.setattr(Graph, "adjacency", lambda self: seen.append(where[0]) or
                        real_adjacency(self))
    def pro1(*args):
        pro1_calls.append(args)
        return real_pro1(*args)

    monkeypatch.setattr(p2pack, "validate_packing", in_phase("validate", p2pack.validate_packing))
    monkeypatch.setattr(p2pack, "icp_pro1", in_phase("icp_pro1", pro1))
    for k, status in ((opt, "accept"), (opt + 1, "reject")):
        seen.clear()
        pro1_calls.clear()
        assert p2pack.solve_p2packing(g, k).status == status
        assert "icp_pro1" not in seen and seen.count("solve") == k
    assert len(pro1_calls) > 2 * (opt + 1)  # the rejecting run tried many splits per round


def room_for_the_rest(inst) -> bool:
    """The exhaustive check of ``test_procedure2_vs_exhaustive``: some
    candidate footprint and k - q pairwise disjoint family sets avoiding it."""
    for cand in inst.candidates:
        for combo in combinations(inst.family, inst.k - inst.q):
            used = [e for members in combo for e in members]
            if len(set(used)) == len(used) and not cand & _mask(used):
                return True
    return False


@settings(max_examples=150)
@given(st.data())
def test_procedure2_at_its_footprint_offsets_matches_exhaustive(data):
    """The schedule counts a footprint's 3q - p elements from the start: the
    offset is 0 at p = 3q (all of every leaving path lies outside X) and 2q
    at p = q (one outside node per path).  At both, ``procedure2`` accepts
    exactly when the exhaustive check finds room, with a valid witness."""
    m = data.draw(st.integers(3, 12))
    k = data.draw(st.integers(2, 4))
    q = data.draw(st.integers(1, min(k - 1, m // 2)))
    p = data.draw(st.sampled_from([q, 3 * q]))
    footprint = st.frozensets(st.integers(0, m - 1), min_size=3 * q - p, max_size=3 * q - p)
    feet = data.draw(st.lists(footprint, min_size=1, max_size=3, unique=True))
    triple = st.lists(st.integers(0, m - 1), min_size=3, max_size=3, unique=True)
    family = data.draw(st.lists(triple, max_size=10))
    # half the time, plant k - q disjoint sets beside the first candidate
    free = [e for e in range(m) if e not in feet[0]]
    if len(free) >= 3 * (k - q) and data.draw(st.booleans()):
        free = data.draw(st.permutations(free))
        family += [free[3 * i:3 * i + 3] for i in range(k - q)]
    family = tuple(tuple(sorted(s)) for s in family)
    cands = tuple(map(_mask, feet))
    inst = p2pack.Pro2Instance(tuple(range(m)), k, family, p, q, cands,
                               data.draw(st.sampled_from([1, 2])))
    got = p2pack.procedure2(inst)
    assert got.status == ("accept" if room_for_the_rest(inst) else "reject")
    if got.status == "accept":
        assert got.footprint in cands and len(got.ordered_sets) == k - q
        used = [e for pos in got.ordered_sets for e in family[pos]]
        assert len(set(used)) == len(used) and not got.footprint & _mask(used)


@settings(max_examples=400)
@given(st.data())
def test_solve_cpro2_matches_its_oracle_at_each_footprint_offset(data):
    """Under a drawn order and f, ``solve_cpro2`` accepts exactly when the
    literal oracle does, at footprint offsets 3q - p of 0, q and 2q.  The
    schedule counts the offset from the start and only prunes, so a wrong
    offset shows as an accept the oracle refuses, or a reject where it
    finds room; an accepted witness is checked against the instance."""
    k = data.draw(st.integers(2, 4))
    q = data.draw(st.integers(1, k - 1))
    offset = data.draw(st.sampled_from([0, q, 2 * q]))
    m = data.draw(st.integers(max(3, offset), 11))
    inv_eps = data.draw(st.integers(1, min(3, k - q)))
    rank = tuple(data.draw(st.permutations(range(m))))
    f_ranks = sorted(data.draw(st.lists(st.integers(0, m - 1), min_size=inv_eps,
                                        max_size=inv_eps)))
    f = tuple(rank.index(r) for r in f_ranks)
    footprint = st.frozensets(st.integers(0, m - 1), min_size=offset, max_size=offset)
    feet = data.draw(st.lists(footprint, min_size=1, max_size=3, unique=True))
    triple = st.lists(st.integers(0, m - 1), min_size=3, max_size=3, unique=True)
    family = data.draw(st.lists(triple, max_size=8))
    # half the time, plant k - q disjoint sets beside the first candidate
    free = [e for e in range(m) if e not in feet[0]]
    if len(free) >= 3 * (k - q) and data.draw(st.booleans()):
        free = data.draw(st.permutations(free))
        family += [free[3 * i:3 * i + 3] for i in range(k - q)]
    family = tuple(tuple(sorted(s)) for s in family)
    cands = tuple(map(_mask, feet))
    inst = p2pack.Pro2Instance(rank, k, family, 3 * q - offset, q, cands, inv_eps, f)
    got = p2pack.solve_cpro2(inst)
    assert got.accept == oracles.oracle_cpro2(inst)
    if got.accept:
        assert got.footprint in cands and len(got.ordered_sets) == k - q
        used = [e for pos in got.ordered_sets for e in family[pos]]
        assert len(set(used)) == len(used) and not got.footprint & _mask(used)


def _tight_pro2(f):
    """k - q = 2 sets at 1/eps = 2 beside the footprint {3, 4} (offset 2),
    so R = (0, 1, 2): ``(0, 1, 2)`` holds the deletions, ``(5, 6, 7)`` lies
    above every threshold."""
    return p2pack.Pro2Instance(tuple(range(8)), 3, ((0, 1, 2), (5, 6, 7)), 1, 1,
                               (_mask((3, 4)),), 2, f)


def test_footprint_dp_rules_out_a_cut_one_element_short_of_its_counting_bound():
    """With x footprint elements among the m at or below f(l), a packing
    counts at most x + min(2 l floor(eps(k - q)), floor(2 (m - x) / 3))
    deletions at stage l.  Under f = (1, 2) stage 2 has m = 3, x = 0: the
    bound is 2 = R(2), met with equality, and the DP accepts.  Moving f(2)
    one element down leaves m = 2 and a bound of 1, so the cut is ruled out
    before any layer is built; the literal oracle rejects it too.  A bound of
    floor((m - x) / 2), or m off by one, gets one of the two wrong."""
    assert wsp.stage_schedule(2, 2, 2) == [0, 1, 2]
    for f, accept in (((1, 2), True), ((1, 1), False)):
        inst = _tight_pro2(f)
        trace: dict = {}
        found = p2pack._footprint_packer(inst, inst.inv_eps, trace)(inst.rank, inst.f)
        assert (found is not None) == accept == oracles.oracle_cpro2(inst)
        assert p2pack.solve_cpro2(inst).accept == accept
        assert trace.get("cut_skips") == (None if accept else 1), trace
        assert ("entries" in trace) == accept  # a ruled-out cut builds no layer
    assert p2pack.solve_cpro2(_tight_pro2((1, 2))).ordered_sets == (0, 1)


def test_seeded_layer_closing_a_stage_keeps_only_keys_that_meet_its_schedule(monkeypatch):
    """A seeded layer of j = i floor(eps(k - q)) sets, i <= 1/eps, closes stage
    i: later sets lie above f(i), so its deletable count is final and every
    key it keeps meets R(i).  Here ``(5, 6, 7)`` as the first set deletes
    nothing at stage 1, and such a key once lived on to fail every child."""
    seen = []
    real = wsp.reduce_layer

    def spy(layer, *args):
        seen.append([key[0] for key in layer])
        return real(layer, *args)

    monkeypatch.setattr(wsp, "reduce_layer", spy)
    rng = random.Random(11)
    checked = 0
    for inst in [_tight_pro2((1, 2))] + [_random_pro2(rng) for _ in range(40)]:
        kq, inv_eps = inst.k - inst.q, inst.inv_eps
        if kq // inv_eps < 1:
            continue
        ek, sched = kq // inv_eps, wsp.stage_schedule(kq, inv_eps, 3 * inst.q - inst.p)
        pack = p2pack._footprint_packer(inst, inv_eps)
        for rank, f in wsp.cut_universes(inst.rank, inv_eps, Budget(10**6, "cut tuples")):
            seen.clear()
            pack(rank, f)
            for j, counts in enumerate(seen, 1):  # one call per layer, j = 1 .. k - q
                if j % ek == 0 and j // ek <= inv_eps:
                    checked += len(counts)
                    assert all(c[j // ek - 1] >= sched[j // ek] for c in counts), (inst, f)
    assert checked
