import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fptmix.core import Digraph, InstanceError, ParameterError
from fptmix import kpath, oracles, unisets
from helpers import kcwp_ledger, reduction_ab

DELTA = Fraction(1, 12)
GAMMA = Fraction(95, 1000)
INV = 13


def planted_instance(rng, k=27, extra_nodes=3, noise=12, wlo=1, whi=6):
    n = k + extra_nodes
    perm = list(range(n))
    rng.shuffle(perm)
    path = perm[:k]
    arcs = {(path[i], path[i + 1]): rng.randint(wlo, whi) for i in range(k - 1)}
    for _ in range(noise):
        a, b = rng.sample(range(n), 2)
        arcs.setdefault((a, b), rng.randint(wlo, whi + 3))
    g = Digraph(n, tuple((a, b, w) for (a, b), w in arcs.items()))
    return g, path


def test_params_forced_smallest_regime():
    par = kpath.kcwp_params(27, 13, DELTA, GAMMA)
    assert (par.m, par.mt, par.ek) == (6, 1, 2)
    assert par.k1 + par.k2 + par.k3 + 13 == 26
    with pytest.raises(ParameterError):
        kpath.kcwp_params(27, 12, DELTA, GAMMA)  # (1/eps - 1) odd
    with pytest.raises(ParameterError):
        kpath.kcwp_params(27, 13, Fraction(1, 7), GAMMA)  # delta * 12 not integral
    with pytest.raises(ParameterError):
        kpath.kcwp_params(27, 13, DELTA, Fraction(1, 5))  # gamma too large


def test_validate_kcwp_conditions():
    rng = random.Random(1)
    g, path = planted_instance(rng)
    inst = kpath.construct_kcwp_witness(g, path, INV, DELTA, GAMMA)
    assert kpath.validate_kcwp(inst).valid
    # condition 1: l1 and r1 sharing an image node
    shared = replace(inst, r1=(inst.l1[0],) + inst.r1[1:])
    res = kpath.validate_kcwp(shared)
    assert not res.valid and res.condition == 1
    # condition 1: vl inside image(l1)
    bad_vl = replace(inst, vl=inst.l1[0])
    res = kpath.validate_kcwp(bad_vl)
    assert not res.valid and res.condition == 1
    # condition 2: swap one end node for a fresh node outside all images
    outside = next(v for v in range(g.node_count)
                   if v not in set(inst.l1) | set(inst.l2) | set(inst.r1) | set(inst.r2)
                   | {inst.vl, inst.vr} | inst.L | inst.R)
    bad2 = replace(inst, l2=(outside,) + inst.l2[1:])
    res = kpath.validate_kcwp(bad2)
    assert not res.valid and res.condition == 2


def test_witness_construction_not_simple_path_rejected():
    g = Digraph(3, ((0, 1, 1), (1, 2, 1)))
    with pytest.raises(ParameterError, match="simple"):
        kpath.construct_kcwp_witness(g, [0, 1, 1], INV, DELTA, GAMMA)


def test_witness_instance_accepts_and_audits(monkeypatch):
    rng = random.Random(7)
    g, path = planted_instance(rng)
    inst = kpath.construct_kcwp_witness(g, path, INV, DELTA, GAMMA)
    monkeypatch.setattr(kpath, "reduce_layer", kcwp_ledger(inst))
    res = kpath.solve_kcwp(inst)
    assert res.accept
    kpath.verify_kcwp_witness(inst, res)
    assert kpath.chain_pieces(inst, res.pieces) is not None


def test_witness_threshold_reject_below():
    rng = random.Random(9)
    g, path = planted_instance(rng)
    inst = kpath.construct_kcwp_witness(g, path, INV, DELTA, GAMMA)
    base = kpath.solve_kcwp(inst)
    low = replace(inst, W=base.weight - 1)
    assert not kpath.solve_kcwp(low).accept
    assert not oracles.oracle_kcwp(low, oracles.OracleBudget(3_000_000))


def test_missing_opening_arc_rejects():
    rng = random.Random(13)
    g, path = planted_instance(rng, noise=0)
    inst = kpath.construct_kcwp_witness(g, path, INV, DELTA, GAMMA)
    # remove every arc out of l1(1): piece 1 can never open
    head = inst.l1[0]
    arcs = tuple((t, h, w) for t, h, w in g.arcs if t != head)
    broken = replace(inst, digraph=Digraph(g.node_count, arcs))
    assert not kpath.solve_kcwp(broken).accept


def test_solver_matches_oracle_decisions():
    rng = random.Random(15)
    for trial in range(8):
        g, path = planted_instance(rng, noise=rng.randint(0, 18))
        inst = kpath.construct_kcwp_witness(g, path, INV, DELTA, GAMMA)
        got = kpath.solve_kcwp(inst)
        want = oracles.oracle_kcwp(inst, oracles.OracleBudget(4_000_000))
        assert got.accept and want
        for dw in (0, 1, -1):
            probe = replace(inst, W=got.weight + dw)
            assert kpath.solve_kcwp(probe).accept == \
                oracles.oracle_kcwp(probe, oracles.OracleBudget(4_000_000))


def test_reduction_ab_decision_stable(monkeypatch):
    """Reduction on and off agree.  With at most 15 noise arcs no entry
    holds two sets, so six denser trials follow that make the reduction
    sweep."""
    rng = random.Random(17)
    swept = 0
    for trial in range(12):
        g, path = planted_instance(rng, noise=rng.randint(0, 15) if trial < 6 else
                                   rng.randint(60, 150))
        inst = kpath.construct_kcwp_witness(g, path, INV, DELTA, GAMMA)
        on, off, sweep = reduction_ab(monkeypatch, kpath, kpath.solve_kcwp, inst)
        swept += sweep
        assert on.accept == off.accept
        if on.accept:
            assert on.weight == off.weight
    assert swept, "no trial's reduction swept, so the A/B compared nothing"


def test_path_alg_guard_small_k():
    g = Digraph(2, ((0, 1, 5),))
    assert kpath.path_alg(g, 5, 2).status == "accept"
    assert kpath.path_alg(g, 4, 2).status == "reject"
    # k = 1 shortcut: a single node weighs nothing
    assert kpath.path_alg(Digraph(1, ()), 0, 1).status == "accept"
    assert kpath.path_alg(Digraph(0, ()), 0, 1).status == "reject"


def test_path_alg_guard_matches_oracle():
    rng = random.Random(19)
    for trial in range(25):
        n = rng.randint(2, 8)
        arcs = {}
        for _ in range(rng.randint(0, 14)):
            a, b = rng.sample(range(n), 2)
            arcs.setdefault((a, b), rng.randint(-3, 9))
        g = Digraph(n, tuple((a, b, w) for (a, b), w in arcs.items()))
        for k in (2, 3, 4):
            opt = oracles.oracle_kpath(g, k)
            if opt is None:
                assert kpath.path_alg(g, 10**6, k).status == "reject"
            else:
                assert kpath.path_alg(g, opt, k).status == "accept"
                assert kpath.path_alg(g, opt - 1, k).status == "reject"


def test_path_alg_budget():
    g = Digraph(40, tuple((i, i + 1, 1) for i in range(39)))
    assert kpath.path_alg(g, 100, 30, budget=0).status == "budget-exceeded"
    assert kpath.path_alg(g, 100, 30, budget=100).status == "budget-exceeded"


def test_path_alg_charges_one_unit_per_path_extension():
    """On the path 0 -> 1 -> 2 the search for a 3-node path extends 0 to 1,
    0 1 to 2 and 1 to 2: three extensions, so a budget of 3 is enough."""
    g = Digraph(3, ((0, 1, 1), (1, 2, 1)))
    assert kpath.path_alg(g, 2, 3, budget=3) == kpath.PathAlgResult("accept", (0, 1, 2), 2)
    assert kpath.path_alg(g, 2, 3, budget=2).status == "budget-exceeded"
    assert kpath.path_alg(g, 1, 3, budget=3).status == "reject"


def test_path_alg_budget_stops_the_exhaustive_search():
    """Below the small-k guard the search on a complete 30-node digraph is
    far beyond any budget; once it ran unbounded, whatever the budget."""
    g = Digraph(30, tuple((t, h, 1) for t in range(30) for h in range(30) if t != h))
    start = time.perf_counter()
    assert kpath.path_alg(g, 0, 20, budget=1).status == "budget-exceeded"
    assert kpath.path_alg(g, 0, 20).status == "budget-exceeded"  # the default, 100,000
    assert time.perf_counter() - start < 5


def test_integer_layer_bounds_are_the_fraction_bounds():
    """solve_kcwp's count bounds in integers equal verify_kcwp_witness's
    Fraction forms, k1 - mid and k2 - mid negative included."""
    for parts in range(1, 8):
        for i in range(parts + 1):
            for k_blue in range(6):
                for mid in range(12):
                    assert kpath._least_l(i, parts, k_blue, mid) == \
                        math.ceil(Fraction(i, parts) * (k_blue - mid))
                    assert kpath._most_r(i, parts, k_blue, mid) == \
                        math.floor(Fraction(i, parts) * (k_blue - mid) + mid)


def test_kcwp_params_are_derived_once_and_again_on_replace():
    g, path = planted_instance(random.Random(3))
    inst = kpath.construct_kcwp_witness(g, path, INV, DELTA, GAMMA)
    assert inst.params() == kpath.kcwp_params(inst.k, INV, DELTA, GAMMA)
    assert inst.params() is inst.params()
    longer = replace(inst, k=inst.k + 1)
    assert longer.params() == kpath.kcwp_params(inst.k + 1, INV, DELTA, GAMMA)
    assert longer.params() != inst.params()
    with pytest.raises(ParameterError):
        replace(inst, delta=Fraction(1, 5))
    with pytest.raises(ParameterError):
        replace(inst, inv_eps=15)


def test_kcwp_params_admit_no_1_over_eps_below_13():
    """The premise of path_alg's budget-exceeded answer: past the small-k
    guard k >= 2 * 13 + 1 = 27 nodes, more than unisets builds a universal
    set on."""
    for inv_eps in range(1, 13):
        for delta in (Fraction(1, 11), Fraction(1, 12), Fraction(1, 20), Fraction(99, 1000)):
            with pytest.raises(ParameterError):
                kpath.kcwp_params(27, inv_eps, delta, GAMMA)
    kpath.kcwp_params(27, 13, DELTA, GAMMA)
    assert 2 * 13 + 1 > unisets.GREEDY_MAX_N


@pytest.mark.parametrize("n", [27, 40, 64, 65, 200])
def test_path_alg_past_the_small_k_guard_is_budget_exceeded_at_any_n(n):
    """Above 64 nodes this once raised ParameterError from unisets."""
    g = Digraph(n, tuple((i, i + 1, 1) for i in range(n - 1)))
    assert kpath.path_alg(g, 10**6, 27).status == "budget-exceeded"


def test_chain_pieces_detects_cycles():
    rng = random.Random(23)
    g, path = planted_instance(rng)
    inst = kpath.construct_kcwp_witness(g, path, INV, DELTA, GAMMA)
    res = kpath.solve_kcwp(inst)
    seq = kpath.chain_pieces(inst, res.pieces)
    assert seq is not None and len(seq) == inst.k == len(set(seq))
    # destroying one piece's endpoints breaks the chain
    broken = list(res.pieces)
    broken[0] = tuple(reversed(broken[0]))
    assert kpath.chain_pieces(inst, tuple(broken)) is None


def test_kcwp_document_roundtrip():
    rng = random.Random(29)
    g, path = planted_instance(rng)
    inst = kpath.construct_kcwp_witness(g, path, INV, DELTA, GAMMA)
    doc = kpath.kcwp_instance_to_document(inst)
    again = kpath.kcwp_instance_from_document(doc)
    assert again == inst


@pytest.mark.parametrize("doc", [b"\xff", b"\xff\xfe", "{not json"])
def test_kcwp_document_that_is_not_json_text_is_an_instance_error(doc):
    """Bytes that are not UTF-8 once raised a bare ``UnicodeDecodeError``."""
    with pytest.raises(InstanceError, match="malformed kcwp document"):
        kpath.kcwp_instance_from_document(doc)


@pytest.mark.parametrize("doc", ["[" * 200_000, b"[" * 200_000])
def test_kcwp_document_nested_too_deep_is_an_instance_error(doc):
    """200,000 open brackets once escaped as a bare ``RecursionError``."""
    with pytest.raises(InstanceError, match="kcwp document is nested too deep"):
        kpath.kcwp_instance_from_document(doc)


def test_literal_conditions_admit_unchained_configurations():
    """The endpoint-balance condition only equalizes starts and ends, so
    piece realizations can glue into a cycle plus a path.  Solver and oracle
    agree on the literal conditions; the solver flags the witness as
    unchained and the graph indeed has no k-node path."""
    piece_arcs = [(0, 14, 1), (14, 1, 1), (1, 15, 1), (15, 0, 1),  # two pieces closing a cycle
                  (2, 16, 1), (16, 3, 1), (3, 17, 1), (17, 4, 1),
                  (4, 18, 1), (18, 5, 1), (5, 19, 1), (19, 6, 1),
                  (6, 20, 1), (20, 7, 1), (7, 21, 1), (21, 8, 1),
                  (8, 22, 1), (22, 9, 1), (9, 23, 1), (23, 10, 1),
                  (10, 24, 1), (24, 11, 1), (11, 25, 1), (25, 12, 1),
                  (12, 26, 1), (26, 13, 1)]
    g = Digraph(27, tuple(piece_arcs))
    inst = kpath.KcwpInstance(g, 26, 27, 13, Fraction(1, 12), Fraction(1, 20),
                              frozenset(), frozenset(),
                              (0, 1, 2, 3, 4, 5, 6), (1, 0, 3, 4, 5, 6, 7),
                              (8, 9, 10, 11, 12), (9, 10, 11, 12, 13), 7, 8)
    assert kpath.validate_kcwp(inst).valid
    res = kpath.solve_kcwp(inst)
    assert res.accept and res.chained is False
    kpath.verify_kcwp_witness(inst, res)  # the literal conditions all hold
    assert oracles.oracle_kcwp(inst)
    assert oracles.oracle_kpath(g, 27) is None
    assert kpath.chain_pieces(inst, res.pieces) is None


def test_missing_closing_arc_rejects():
    rng = random.Random(14)
    g, path = planted_instance(rng, noise=0)
    inst = kpath.construct_kcwp_witness(g, path, INV, DELTA, GAMMA)
    # remove every arc into l2(1): piece 1 can never close
    tail = inst.l2[0]
    arcs = tuple((t, h, w) for t, h, w in g.arcs if h != tail)
    broken = replace(inst, digraph=Digraph(g.node_count, arcs))
    assert not kpath.solve_kcwp(broken).accept


def test_solver_deterministic_and_dense_threshold_agreement():
    rng = random.Random(31)
    for trial in range(6):
        k = 27
        n = 30
        perm = list(range(n))
        rng.shuffle(perm)
        path = perm[:k]
        arcs = {(path[i], path[i + 1]): rng.randint(1, 4) for i in range(k - 1)}
        for _ in range(120):  # dense noise so many alternative solutions exist
            a, b = rng.sample(range(n), 2)
            arcs.setdefault((a, b), rng.randint(1, 6))
        g = Digraph(n, tuple((a, b, w) for (a, b), w in arcs.items()))
        inst = kpath.construct_kcwp_witness(g, path, INV, DELTA, GAMMA)
        one = kpath.solve_kcwp(inst)
        two = kpath.solve_kcwp(inst)
        assert one == two
        assert one.accept
        kpath.verify_kcwp_witness(inst, one)
        try:
            probe = replace(inst, W=one.weight - 1)
            want = oracles.oracle_kcwp(probe, oracles.OracleBudget(2_000_000))
            assert kpath.solve_kcwp(probe).accept == want
        except Exception as exc:  # noqa: BLE001 - budget blowups are acceptable here
            from fptmix.core import BudgetExceededError

            assert isinstance(exc, BudgetExceededError)


# the cycle-plus-path skeleton of test_literal_conditions_admit_unchained_configurations:
# piece i runs starts[i] -> 14 + i -> ends[i], and pieces 0 and 1 close a cycle
SKELETON_MAPS = ((0, 1, 2, 3, 4, 5, 6), (1, 0, 3, 4, 5, 6, 7), (8, 9, 10, 11, 12),
                 (9, 10, 11, 12, 13), 7, 8)
SKELETON_STARTS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
SKELETON_ENDS = (1, 0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)


def skeleton_instance(n, arcs, W):
    return kpath.KcwpInstance(Digraph(n, tuple((a, b, w) for (a, b), w in arcs.items())), W,
                              27, 13, Fraction(1, 12), Fraction(1, 20), frozenset(),
                              frozenset(), *SKELETON_MAPS)


def skeleton_arcs(nodes):
    """The skeleton's arcs, each of weight 1, on the first ``nodes`` nodes."""
    arcs = {}
    for i, (start, end) in enumerate(zip(SKELETON_STARTS, SKELETON_ENDS)):
        if 14 + i < nodes:
            arcs[(start, 14 + i)] = arcs[(14 + i, end)] = 1
    return arcs


@settings(max_examples=80)
@given(st.data())
def test_unchained_answer_is_the_lightest_final_set(data):
    """Extra nodes give random pieces of the skeleton a second internal
    realization at random weights.  No final set chains, whichever the DP
    picks, so the answer is the lightest one within W: the solver accepts
    exactly when the oracle does, its witness is flagged unchained and meets
    the literal conditions, and one below its weight both reject."""
    extra = data.draw(st.integers(1, 4))
    arcs = skeleton_arcs(27)
    for x in range(27, 27 + extra):
        piece = data.draw(st.integers(0, 12))
        arcs[(SKELETON_STARTS[piece], x)] = data.draw(st.integers(-1, 3))
        arcs[(x, SKELETON_ENDS[piece])] = data.draw(st.integers(-1, 3))
    inst = skeleton_instance(27 + extra, arcs, data.draw(st.integers(22, 28)))
    res = kpath.solve_kcwp(inst)
    assert res.accept == oracles.oracle_kcwp(inst)
    if res.accept:
        assert res.chained is False and kpath.chain_pieces(inst, res.pieces) is None
        kpath.verify_kcwp_witness(inst, res)
        low = replace(inst, W=res.weight - 1)
        assert not kpath.solve_kcwp(low).accept and not oracles.oracle_kcwp(low)


def test_more_path_nodes_than_graph_nodes_rejects_before_the_dp(monkeypatch):
    """On 26 nodes no 27-node path fits, so the solver rejects without
    building a layer, as the oracle rejects."""
    inst = skeleton_instance(26, skeleton_arcs(26), 26)
    assert not oracles.oracle_kcwp(inst)

    def no_dp(*args, **kwargs):
        raise AssertionError("a reject settled by the node count ran the DP")

    monkeypatch.setattr(kpath, "reduce_layer", no_dp)
    assert kpath.solve_kcwp(inst) == kpath.KcwpResult(False)


@pytest.mark.parametrize("n", range(7))
def test_path_alg_on_arcless_digraphs_matches_oracle(n):
    g = Digraph(n, ())
    for k in range(n + 2):
        best = oracles.oracle_kpath(g, k)
        for W in (-1, 0, 1):
            want = "accept" if best is not None and best <= W else "reject"
            assert kpath.path_alg(g, W, k).status == want, (k, W)


def random_digraph(data, n, path=(), noise=12):
    """``path``'s arcs and up to ``noise`` random arcs on ``n`` nodes, all
    at drawn weights."""
    arcs = {(a, b): data.draw(st.integers(1, 6)) for a, b in zip(path, path[1:])}
    for _ in range(data.draw(st.integers(0, noise))):
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        arcs.setdefault((a, b), data.draw(st.integers(1, 9)))
    return Digraph(n, tuple((a, b, w) for (a, b), w in arcs.items()))


@pytest.mark.parametrize("n", range(24, 30))
@settings(max_examples=8)
@given(st.data())
def test_path_alg_at_the_last_exhaustive_k_matches_oracle(n, data):
    """k = 26 = 2/eps is the largest k that ``path_alg`` searches
    exhaustively: it accepts exactly the W at or above the oracle's lightest
    26-node path, and rejects below 26 nodes."""
    path = data.draw(st.permutations(range(n)))[:26] if data.draw(st.booleans()) else ()
    g = random_digraph(data, n, path)
    best = oracles.oracle_kpath(g, 26)
    if best is None:
        assert kpath.path_alg(g, 10**6, 26).status == "reject"
    else:
        assert kpath.path_alg(g, best, 26).status == "accept"
        assert kpath.path_alg(g, best - 1, 26).status == "reject"


@pytest.mark.parametrize("n", [0, 1, 2, 25, 26, 27, 28, 30])
@settings(max_examples=5)
@given(st.data())
def test_path_alg_one_past_the_last_exhaustive_k(n, data):
    """At k = 27 = 2/eps + 1 the node count is checked first: below 27 nodes
    no 27-node path exists and the answer is the oracle's reject; from 27
    nodes on it is budget-exceeded."""
    path = data.draw(st.permutations(range(n)))[:27] if n >= 27 else ()
    g = random_digraph(data, n, path) if n >= 2 else Digraph(n, ())
    status = kpath.path_alg(g, 10**6, 27).status
    if n < 27:
        assert oracles.oracle_kpath(g, 27) is None and status == "reject"
    else:
        assert status == "budget-exceeded"


@settings(max_examples=40)
@given(st.integers(27, 30), st.sampled_from([Fraction(85, 1000), GAMMA]), st.data())
def test_solve_kcwp_at_one_internal_node_per_piece_matches_oracle(n, gamma, data):
    """k = 27 at 1/eps = 13 gives ek = 2, the fewest for which every piece
    has an internal node (ek - 1 = 1).  At the planted path's lightest
    within-W weight and one below, ``solve_kcwp`` decides as the oracle."""
    path = data.draw(st.permutations(range(n)))[:27]
    g = random_digraph(data, n, path, noise=40)
    inst = kpath.construct_kcwp_witness(g, path, INV, DELTA, gamma)
    assert inst.params().ek == 2
    res = kpath.solve_kcwp(inst)
    assert res.accept and oracles.oracle_kcwp(inst)
    kpath.verify_kcwp_witness(inst, res)
    for W in (res.weight, res.weight - 1):
        probe = replace(inst, W=W)
        assert kpath.solve_kcwp(probe).accept == oracles.oracle_kcwp(probe), W
