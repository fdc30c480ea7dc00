import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from fptmix.core import (Budget, BudgetExceededError, InstanceError, OrderedUniverse,
                         ParameterError, WeightedSetFamily, WeightOverflowError,
                         block_permutation, reorder_universe)
from fptmix import oracles, wsp
from helpers import count_only, reduction_ab, stage_ledger


def universe(n):
    return OrderedUniverse.from_labels([f"u{i}" for i in range(n)])


def random_family(rng, uni, count, wlo=0, whi=9):
    n = len(uni)
    sets = tuple((tuple(sorted(rng.sample(range(n), 3))), rng.randint(wlo, whi))
                 for _ in range(count))
    return WeightedSetFamily(uni, 3, sets, "max")


def test_schedule_trivial_and_hand_values():
    assert tuple(wsp.stage_schedule(5, 1)) == (0, 0)
    # hand evaluation: R(2) = ceil(10 / ceil(15/5)) = 4
    assert tuple(wsp.stage_schedule(10, 2)) == (0, 0, 4)
    # hand evaluation: R(2) = ceil(8/6) = 2; R(3) = 2 + ceil(14/3) = 7
    assert tuple(wsp.stage_schedule(12, 3)) == (0, 0, 2, 7)


def test_schedule_monotone_and_bounded():
    for k in range(2, 30):
        for inv in range(1, 7):
            if k // inv < 1:
                continue
            values = tuple(wsp.stage_schedule(k, inv))
            ek = k // inv
            assert values[:2] == (0, 0)  # R(0) = R(1) = 0
            for j in range(1, len(values)):
                assert values[j] >= values[j - 1]
                assert values[j] <= 2 * (j - 1) * ek


def test_schedule_rejects_zero_piece():
    with pytest.raises(ParameterError):
        wsp.stage_schedule(1, 2)


def test_cwsp_trivial_pair(monkeypatch):
    uni = universe(6)
    fam = WeightedSetFamily(uni, 3, (((0, 1, 2), 1), ((3, 4, 5), 1)), "max")
    inst = wsp.CwspInstance(uni.rank, fam, 2, 2, 1, (5,))
    monkeypatch.setattr(wsp, "reduce_layer", stage_ledger(inst))
    res = wsp.solve_cwsp(inst)
    assert res.accept and res.weight == 2
    wsp.verify_cwsp_witness(inst, res)
    assert not wsp.solve_cwsp(wsp.CwspInstance(uni.rank, fam, 3, 2, 1, (5,))).accept


def test_cwsp_matches_oracle_with_enumerated_f(monkeypatch):
    rng = random.Random(31)
    for trial in range(25):
        n = rng.randint(6, 9)
        uni = universe(n)
        fam = random_family(rng, uni, rng.randint(2, 9))
        k = rng.choice([1, 2, 2, 3])
        for inv in (1, 2):
            if k // inv < 1:
                continue
            for _ in range(3):
                ranks = sorted(rng.sample(range(n), inv))
                order = uni.by_rank()
                f = tuple(order[r] for r in ranks)
                W = rng.randint(0, 3 * k * 9)
                inst = wsp.CwspInstance(uni.rank, fam, W, k, inv, f)
                want = oracles.oracle_cwsp(inst)
                monkeypatch.setattr(wsp, "reduce_layer", stage_ledger(inst))
                got = wsp.solve_cwsp(inst)
                assert got.accept == want, (fam.sets, k, inv, f, W)
                if got.accept:
                    wsp.verify_cwsp_witness(inst, got)


def test_cwsp_reduction_ab_decision_stable(monkeypatch):
    rng = random.Random(37)
    swept = 0
    for trial in range(20):
        n = rng.randint(6, 9)
        uni = universe(n)
        # an entry of at most 1 + 3(k - j) masks at layer j keeps every set
        # without a sweep, so the families are dense enough to exceed that
        fam = random_family(rng, uni, rng.randint(10, 24))
        k = rng.choice([2, 3])
        inv = rng.choice([1, 2])
        order = uni.by_rank()
        ranks = sorted(rng.sample(range(n), inv))
        f = tuple(order[r] for r in ranks)
        W = rng.randint(1, 20)
        inst = wsp.CwspInstance(uni.rank, fam, W, k, inv, f)
        on, off, sweep = reduction_ab(monkeypatch, wsp, wsp.solve_cwsp, inst)
        swept += sweep
        assert on.accept == off.accept
        if on.accept:
            assert on.weight == off.weight
    assert swept >= 2, f"only {swept} trials swept, so the A/B compared almost nothing"


def smallest_element_closure_check(family: WeightedSetFamily, prefix) -> bool:
    """Test oracle for deletion soundness: once a set enters an ordered
    partial solution, sets whose smallest element sits at or beyond the
    largest collected minimum must not touch the collected minima.

    The at-or-beyond reading is what makes the check informative: a family
    set reusing the current minimum element is exactly the boundary case the
    staged insertion has to exclude."""
    rank = family.universe.rank
    mins = {min(family.members(p), key=lambda e: rank[e]) for p in prefix}
    if not mins:
        return True
    top = max(rank[e] for e in mins)
    taken = set(prefix)
    for pos in range(len(family)):
        if pos in taken:
            continue
        members = family.members(pos)
        if min(rank[e] for e in members) >= top and mins.intersection(members):
            return False
    return True


def test_closure_check_examples():
    uni = universe(8)
    fam = WeightedSetFamily(uni, 3, (((0, 1, 2), 1), ((3, 4, 5), 1), ((1, 6, 7), 1)), "max")
    assert smallest_element_closure_check(fam, ())
    # prefix {0,1,2}: set (1,6,7) has min u1 which is NOT beyond max(S_min)=u0...
    # pick a prefix whose minima get reused by an eligible later set
    fam2 = WeightedSetFamily(uni, 3, (((0, 5, 6), 1), ((1, 2, 3), 1)), "max")
    assert smallest_element_closure_check(fam2, (0,))
    assert smallest_element_closure_check(fam2, (0, 1))


def test_closure_check_detects_intersection():
    uni = universe(8)
    # later-eligible set (min u3 > max(S_min)=u2) reusing the minimum u2
    fam = WeightedSetFamily(uni, 3, (((2, 6, 7), 1), ((3, 4, 2), 1)), "max")
    assert not smallest_element_closure_check(fam, (0,))


def test_closure_check_matches_direct_scan():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(6, 10)
        uni = universe(n)
        fam = random_family(rng, uni, rng.randint(2, 8))
        prefix = tuple(rng.sample(range(len(fam)), rng.randint(0, min(2, len(fam)))))
        rank = uni.rank
        mins = {min(fam.members(p), key=lambda e: rank[e]) for p in prefix}
        expected = True
        if mins:
            top = max(rank[e] for e in mins)
            for pos in range(len(fam)):
                if pos in prefix:
                    continue
                mem = fam.members(pos)
                if min(rank[e] for e in mem) >= top and mins & set(mem):
                    expected = False
        assert smallest_element_closure_check(fam, prefix) == expected


def test_wsp_alg_trivial_one_stage():
    uni = universe(6)
    fam = WeightedSetFamily(uni, 3, (((0, 1, 2), 4), ((3, 4, 5), 2)), "max")
    res = wsp.wsp_alg(uni, fam, 6, 2, inv_eps=1)
    assert res.status == "accept" and res.weight == 6


def test_wsp_alg_vs_oracle():
    rng = random.Random(43)
    for trial in range(25):
        n = rng.randint(5, 8)
        uni = universe(n)
        fam = random_family(rng, uni, rng.randint(1, 9), wlo=-4)
        for k in (1, 2):
            opt = oracles.oracle_wsp(fam, k)
            for inv in (1, 2):
                if opt is None:
                    assert wsp.wsp_alg(uni, fam, -999, k, inv).status == "reject"
                else:
                    hit = wsp.wsp_alg(uni, fam, opt, k, inv)
                    assert hit.status == "accept" and hit.weight == opt
                    assert wsp.wsp_alg(uni, fam, opt + 1, k, inv).status == "reject"


def test_wsp_alg_budget_exceeded():
    uni = universe(30)
    rng = random.Random(1)
    fam = random_family(rng, uni, 10)
    res = wsp.wsp_alg(uni, fam, 1, 9, inv_eps=3, budget=10_000)
    assert res.status == "budget-exceeded"


def test_wsp_alg_rejects_a_family_of_pairs():
    uni = universe(6)
    fam = WeightedSetFamily(uni, 2, (((0, 1), 4), ((2, 3), 2)), "max")
    for inv_eps in (1, 2):
        with pytest.raises(InstanceError, match="exactly 3 members"):
            wsp.wsp_alg(uni, fam, 6, 2, inv_eps)



def test_wsp_alg_rejects_a_member_outside_the_universe():
    """``wsp_alg`` uses the family as given, so a family over a larger
    universe than the one passed is refused before any cut is drawn, even
    when its weights alone would settle a reject."""
    fam = WeightedSetFamily(universe(6), 3, (((0, 1, 2), 4), ((3, 4, 5), 2)), "max")
    for W in (1, 10**6):
        for inv_eps in (1, 2):
            with pytest.raises(InstanceError, match=r"member index out of range in \(3, 4, 5\)"):
                wsp.wsp_alg(universe(5), fam, W, 2, inv_eps)

def test_wsp_alg_small_k_guard():
    # floor(eps*k) = 0 at inv_eps=2, k=1: the driver must still answer
    uni = universe(5)
    fam = WeightedSetFamily(uni, 3, (((0, 1, 2), 3),), "max")
    res = wsp.wsp_alg(uni, fam, 3, 1, inv_eps=2)
    assert res.status == "accept"


def test_wsp_alg_k0():
    uni = universe(3)
    fam = WeightedSetFamily(uni, 3, (), "max")
    assert wsp.wsp_alg(uni, fam, 0, 0).status == "accept"
    assert wsp.wsp_alg(uni, fam, 1, 0).status == "reject"


def test_singleton_first_piece_regression():
    """With floor(eps*k) = 1 the needed first piece can be one element
    (the first set's minimum is the smallest universe element); the cut
    enumeration must include singleton spans to stay complete."""
    uni = universe(6)
    fam = WeightedSetFamily(uni, 3, (((0, 2, 3), 3), ((1, 2, 4), 2), ((0, 2, 4), 4),
                                     ((1, 3, 5), 4), ((2, 4, 5), 5)), "max")
    res = wsp.wsp_alg(uni, fam, 8, 2, inv_eps=2)
    assert res.status == "accept" and res.weight == 8
    assert wsp.wsp_alg(uni, fam, 9, 2, inv_eps=2).status == "reject"


def test_one_stage_reject_draws_one_cut():
    """With one stage every cut instance is the exact ordered-packing DP, so
    a reject needs one cut tuple; the staged path still walks them all."""
    rng = random.Random(11)
    uni = universe(9)
    fam = WeightedSetFamily(uni, 3, tuple((tuple(sorted(rng.sample(range(9), 3))),
                                           rng.randint(-3, 9)) for _ in range(12)), "max")
    # (k, 1/eps): plain one stage, and the fallback when floor(eps*k) = 0
    for k, inv, opt, packing in ((2, 1, 10, (5, 10)), (1, 1, 7, (4,)), (1, 2, 7, (4,))):
        assert wsp.wsp_alg(uni, fam, opt + 1, k, inv, budget=1).status == "reject"
        assert wsp.wsp_alg(uni, fam, opt + 1, k, inv).status == "reject"
        hit = wsp.wsp_alg(uni, fam, opt, k, inv, budget=1)
        assert (hit.status, hit.packing, hit.weight) == ("accept", packing, opt)
    assert wsp.wsp_alg(uni, fam, 11, 2, 2, budget=1).status == "budget-exceeded"


def test_threshold_pruning_keeps_verdicts_and_weights(monkeypatch):
    """solve_cwsp at W against the unpruned DP (W far below every weight):
    same verdict and weight, and every witness still checks out.  A case
    with the reduction off runs with ``reduce_layer`` counting only, and
    some cases check the element ledger of every layer."""
    rng = random.Random(71)
    accepts = 0
    for case in range(2000):
        n = rng.randint(6, 9)
        uni = universe(n)
        lo, hi = rng.choice([(-9, 9), (-9, -1), (-4, 0), (1, 1), (0, 1), (0, 9)])
        fam = random_family(rng, uni, rng.randint(1, 10), lo, hi)
        k = rng.randint(1, 3)
        inv = rng.randint(1, k)
        order = uni.by_rank()
        f = tuple(order[r] for r in sorted(rng.sample(range(n), inv)))
        reduce, audit = rng.random() < 0.7, rng.random() < 0.3
        free_inst = wsp.CwspInstance(uni.rank, fam, -10**18, k, inv, f)
        step = wsp.reduce_layer if reduce else count_only
        with monkeypatch.context() as patch:
            patch.setattr(wsp, "reduce_layer", stage_ledger(free_inst, step) if audit else step)
            free = wsp.solve_cwsp(free_inst)
            base = free.weight if free.accept else rng.randint(3 * k * lo, 3 * k * hi)
            W = base + rng.choice([-1, 0, 0, 1])
            inst = wsp.CwspInstance(uni.rank, fam, W, k, inv, f)
            got = wsp.solve_cwsp(inst)
        assert got.accept == (free.accept and free.weight >= W), (case, fam.sets, k, inv, f, W)
        if got.accept:
            accepts += 1
            assert got.weight == free.weight
            wsp.verify_cwsp_witness(inst, got)
    assert accepts > 500


@settings(max_examples=100)
@given(st.integers(5, 7), st.data())
def test_wsp_alg_matches_oracle_around_optimum(n, data):
    uni = universe(n)
    triple = st.tuples(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True),
                       st.integers(-9, 9))
    sets = data.draw(st.lists(triple, max_size=6))
    fam = WeightedSetFamily(uni, 3, tuple((tuple(sorted(m)), w) for m, w in sets), "max")
    # k may exceed 1/eps (the one-stage fallback) and the number of sets
    k = data.draw(st.integers(1, 3))
    inv = data.draw(st.integers(1, 3))
    opt = oracles.oracle_wsp(fam, k)
    if opt is None:
        assert wsp.wsp_alg(uni, fam, -10**6, k, inv).status == "reject"
        return
    for W in (opt - 1, opt, opt + 1):
        res = wsp.wsp_alg(uni, fam, W, k, inv)
        if W > opt:
            assert res.status == "reject"
            continue
        # below the optimum the first accepting cut may hold a lighter packing
        assert res.status == "accept" and W <= res.weight <= opt
        members = [e for p in res.packing for e in fam.members(p)]
        assert len(res.packing) == k and len(set(members)) == 3 * k
        assert sum(fam.weight(p) for p in res.packing) == res.weight


def test_entry_points_check_c_when_no_reduction_runs():
    uni = universe(3)
    fam = WeightedSetFamily(uni, 3, (((0, 1, 2), 4),), "max")
    inst = wsp.CwspInstance(uni.rank, fam, 0, 1, 1, (2,))
    trace = {}
    assert wsp.wsp_alg(uni, fam, 0, 1, 1, 1.0, trace=trace).status == "accept"
    # one set, one entry per DP: counted, and no reduction runs
    assert wsp.solve_cwsp(inst, 1.0, trace=trace).accept and trace == {"entries": 2}
    with pytest.raises(ParameterError, match="c must be at least 1"):
        wsp.wsp_alg(uni, fam, 0, 1, 1, 0.5)
    with pytest.raises(ParameterError, match="c must be at least 1"):
        wsp.solve_cwsp(inst, 0.5)


@settings(max_examples=60)
@given(st.integers(6, 9), st.data())
def test_wsp_alg_matches_oracle_with_skewed_weights(n, data):
    """Heavy and light sets together, so that the DP skips every set lighter
    than W - (k - 1) * heaviest before it starts, and W around the weight of
    the k heaviest sets, where a reject is settled without any DP; families
    may hold fewer than k sets and negative weights.  Verdicts and weights
    must match the oracle at each W."""
    uni = universe(n)
    members = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    heavy = data.draw(st.lists(st.tuples(members, st.integers(60, 99)), max_size=4))
    light = data.draw(st.lists(st.tuples(members, st.integers(-99, 20)), min_size=1, max_size=4))
    sets = data.draw(st.permutations(heavy + light))
    fam = WeightedSetFamily(uni, 3, tuple((tuple(sorted(m)), w) for m, w in sets), "max")
    k = data.draw(st.integers(1, 3))
    opt = oracles.oracle_wsp(fam, k)
    top = sum(sorted((w for _, w in fam.sets), reverse=True)[:k])
    targets = {top - 1, top, top + 1} | ({opt, opt + 1} if opt is not None else set())
    for inv in (1, 2):
        for W in sorted(targets):
            res = wsp.wsp_alg(uni, fam, W, k, inv)
            if opt is None or W > opt:
                assert res.status == "reject", (W, opt)
                continue
            # below the optimum the first accepting cut may hold a lighter packing
            assert res.status == "accept" and W <= res.weight <= opt
            assert W < opt or res.weight == opt
            assert len(set(e for p in res.packing for e in fam.members(p))) == 3 * k
            assert sum(fam.weight(p) for p in res.packing) == res.weight


def test_reject_with_every_set_skipped_still_draws_every_cut(monkeypatch):
    """W > k * heaviest leaves no set in any cut's DP, but the driver still
    walks, and counts, every cut tuple before it rejects.  With W above the
    k heaviest sets together but not above k * heaviest, the per-set skip
    keeps the heaviest set, yet no cut can accept: the reject is settled
    without any DP and still draws every cut tuple, or one at one stage."""
    uni = universe(8)
    fam = random_family(random.Random(5), uni, 10)
    k, inv = 2, 2
    W = k * max(w for _, w in fam.sets) + 1
    cuts = sum(1 for _ in wsp.cut_tuples(uni.by_rank(), inv))
    assert wsp.wsp_alg(uni, fam, W, k, inv, budget=cuts - 1).status == "budget-exceeded"
    assert wsp.wsp_alg(uni, fam, W, k, inv, budget=cuts).status == "reject"

    fam = WeightedSetFamily(uni, 3, (((0, 1, 2), 9), ((3, 4, 5), 5), ((1, 3, 6), 5),
                                     ((2, 5, 7), 4), ((0, 6, 7), -3)), "max")
    W = 9 + 5 + 1
    assert W <= k * 9 and W - (k - 1) * 9 <= 9  # the per-set skip keeps the heaviest set

    def no_dp(*args, **kwargs):
        raise AssertionError("a reject settled by weight ran the DP")

    monkeypatch.setattr(wsp, "_pack_stages", no_dp)
    for inv in (1, 2):
        drawn = 1 if inv == 1 else sum(1 for _ in wsp.cut_tuples(uni.by_rank(), inv))
        trace = {}
        got = wsp.wsp_alg(uni, fam, W, k, inv, budget=drawn - 1, trace=trace)
        assert got.status == "budget-exceeded"
        assert wsp.wsp_alg(uni, fam, W, k, inv, budget=drawn, trace=trace).status == "reject"
        assert trace == {}
    # fewer sets than k: no packing at all, whatever W
    assert wsp.wsp_alg(uni, fam, -10**6, 6, 1, budget=1).status == "reject"


@pytest.mark.parametrize("n", range(9))
def test_weight_settled_reject_at_the_budget_boundary(n, monkeypatch):
    """A reject settled by weight, on an empty family and on two sets out of
    reach of W, counts the N cut tuples ``cut_tuples`` yields at the stage
    count ``wsp_alg`` runs (one when floor(eps*k) = 0): budget-exceeded
    exactly when the budget is below N, or below min(N, 1) at one stage,
    with no DP run and the trace left empty.  A budget below 0 charges as
    0 does."""
    uni = universe(n)
    families = [WeightedSetFamily(uni, 3, (), "max")]
    if n >= 3:
        families.append(WeightedSetFamily(uni, 3, ((tuple(range(3)), 5),
                                                   (tuple(range(n - 3, n)), 4)), "max"))

    def no_dp(*args, **kwargs):
        raise AssertionError("a reject settled by weight ran the DP")

    monkeypatch.setattr(wsp, "_pack_stages", no_dp)
    for inv in (1, 2, 3):
        for k in (1, 2, 3):
            stages = inv if k // inv >= 1 else 1
            cuts = sum(1 for _ in wsp.cut_tuples(uni.by_rank(), stages))
            charged = min(cuts, 1) if stages == 1 else cuts
            for fam in families:
                for budget in sorted({0, 1, cuts - 1, cuts, cuts + 1} - {-1}):
                    trace = {}
                    got = wsp.wsp_alg(uni, fam, 10, k, inv, budget=budget, trace=trace)
                    want = "budget-exceeded" if budget < charged else "reject"
                    assert (got.status, trace) == (want, {}), (inv, k, fam.sets, budget)
                assert wsp.wsp_alg(uni, fam, 10, k, inv, budget=-1) == \
                    wsp.wsp_alg(uni, fam, 10, k, inv, budget=0)


def test_cut_tuple_count_matches_the_enumeration():
    for m in range(11):
        for pieces in range(5):
            want = sum(1 for _ in wsp.cut_tuples(range(m), pieces))
            assert wsp.cut_tuple_count(m, pieces) == want, (m, pieces)
    assert wsp.cut_tuple_count(8, 2) == 812


def test_settled_reject_draws_no_cut_and_runs_no_dp(monkeypatch):
    """The two heaviest sets weigh 9 + 8 >= 15, but the one disjoint pair,
    {0, 1, 2} and {3, 4, 5}, weighs 9 + 5: no set has a disjoint partner
    that brings it to 15, so the reject is settled and charged in closed
    form, drawing no cut tuple and running no DP."""
    uni = universe(8)
    fam = WeightedSetFamily(uni, 3, (((0, 1, 2), 9), ((2, 3, 6), 8), ((3, 4, 5), 5),
                                     ((0, 5, 6), 8)), "max")
    assert oracles.oracle_wsp(fam, 2) == 14

    def forbidden(*args, **kwargs):
        raise AssertionError("a settled reject drew a cut tuple or ran the DP")

    monkeypatch.setattr(wsp, "cut_tuples", forbidden)
    monkeypatch.setattr(wsp, "_pack_stages", forbidden)
    for inv in (1, 2):
        charged = 1 if inv == 1 else 812
        assert wsp.wsp_alg(uni, fam, 15, 2, inv, budget=charged).status == "reject"
        got = wsp.wsp_alg(uni, fam, 15, 2, inv, budget=charged - 1)
        assert got.status == "budget-exceeded"
    # a k past any index size has no packing either
    assert wsp.wsp_alg(uni, fam, -10**6, 10**30, 1).status == "reject"


def test_disjoint_bound_settles_exactly_the_rejects_for_k_up_to_2(monkeypatch):
    """For k = 1 and k = 2 the per-set bound is the optimum itself: every
    reject at W = opt + 1 (and at any W when no k-packing exists) is settled
    without a DP, and no accept at W = opt is.  Families hold negative
    weights and may have fewer than k sets."""
    calls = []
    real = wsp._pack_stages

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(wsp, "_pack_stages", spy)
    rng = random.Random(59)
    rejects = 0
    for trial in range(400):
        n = rng.randint(5, 9)
        uni = universe(n)
        fam = random_family(rng, uni, rng.randint(0, 10), wlo=-9)
        for k in (1, 2):
            opt = oracles.oracle_wsp(fam, k)
            for inv in (1, 2):
                cases = [(rng.randint(-60, 60), "reject")] if opt is None else \
                    [(opt, "accept"), (opt + 1, "reject")]
                for W, want in cases:
                    calls.clear()
                    got = wsp.wsp_alg(uni, fam, W, k, inv)
                    assert (got.status, bool(calls)) == (want, want == "accept"), \
                        (fam.sets, k, inv, W)
                    rejects += want == "reject"
    assert rejects > 1500


def test_weight_overflow_inside_the_dp_still_raises():
    """Both sets pass the bound, so the DP runs and its checked sums leave
    the signed 64-bit range."""
    uni = universe(6)
    fam = WeightedSetFamily(uni, 3, (((0, 1, 2), 2**62 + 1), ((3, 4, 5), 2**62 + 1)), "max")
    for inv in (1, 2):
        with pytest.raises(WeightOverflowError):
            wsp.wsp_alg(uni, fam, 2**63 - 1, 2, inv)


def _reference_cut_universes(uni, pieces):
    """The cuts of ``cut_universes`` through ``block_permutation`` and
    ``reorder_universe``: (rank tuple, f) per distinct block tuple."""
    order = uni.by_rank()
    seen = set()
    for cut in wsp.cut_tuples(order, pieces):
        blocks, used = [], set()
        for lo, hi in cut:
            block = tuple(order[r] for r in range(lo, hi + 1) if r not in used)
            used.update(range(lo, hi + 1))
            if not block:
                break
            blocks.append(block)
        key = tuple(blocks)
        if len(key) < pieces or key in seen:
            continue
        seen.add(key)
        uni2 = reorder_universe(uni, block_permutation(uni, blocks))
        yield uni2.rank, tuple(max(b, key=uni2.rank.__getitem__) for b in blocks)


def test_cut_universes_match_block_permutation():
    rng = random.Random(13)
    for n in range(0, 8):
        rank = list(range(n))
        rng.shuffle(rank)
        uni = OrderedUniverse(tuple(f"u{i}" for i in range(n)), tuple(rank))
        for pieces in (1, 2, 3):
            got = list(wsp.cut_universes(uni.rank, pieces, Budget(10**6, "cut tuples")))
            assert got == list(_reference_cut_universes(uni, pieces)), (rank, pieces)
            raw = sum(1 for _ in wsp.cut_tuples(uni.by_rank(), pieces))
            if raw:
                with pytest.raises(BudgetExceededError):
                    list(wsp.cut_universes(uni.rank, pieces, Budget(raw - 1, "cut tuples")))


@pytest.mark.parametrize("n", range(7))
def test_wsp_alg_on_an_empty_family_matches_oracle(n):
    uni = universe(n)
    fam = WeightedSetFamily(uni, 3, (), "max")
    for k in range(3):
        best = oracles.oracle_wsp(fam, k)
        for W in (-1, 0, 1):
            want = "accept" if best is not None and best >= W else "reject"
            for inv in (1, 2):
                assert wsp.wsp_alg(uni, fam, W, k, inv).status == want, (k, W, inv)


@pytest.mark.parametrize("n", range(1, 7))
def test_solve_cwsp_on_an_empty_family_matches_oracle(n):
    """The staged DP itself on no sets, which ``wsp_alg`` never runs: every
    stage function f, non-decreasing in the universe order."""
    uni = universe(n)
    fam = WeightedSetFamily(uni, 3, (), "max")
    for k in range(1, 4):
        for inv in (1, 2, 3):
            if k // inv < 1:
                continue
            for f in combinations_with_replacement(uni.by_rank(), inv):
                for W in (-1, 0, 1):
                    inst = wsp.CwspInstance(uni.rank, fam, W, k, inv, f)
                    assert wsp.solve_cwsp(inst).accept == oracles.oracle_cwsp(inst), (k, f, W)


@pytest.mark.parametrize("f", [(2,), (2, 5, 6), (9, 9), (-7, 6), (6, 7), (5, 2)])
def test_cwsp_instance_checks_its_stage_function(f):
    """f names one element of the universe per stage, in non-decreasing
    rank: too few or too many, one outside 0 .. n - 1, or a decreasing pair
    is a ``ParameterError``, never an ``IndexError`` or a wrong element."""
    uni = universe(7)
    fam = WeightedSetFamily(uni, 3, (((0, 1, 2), 1), ((3, 4, 5), 1)), "max")
    assert wsp.solve_cwsp(wsp.CwspInstance(uni.rank, fam, 2, 2, 2, (2, 5))).accept
    with pytest.raises(ParameterError, match="^f must"):
        wsp.CwspInstance(uni.rank, fam, 2, 2, 2, f)


def test_cwsp_instance_rejects_a_member_outside_its_order():
    """A cut instance whose family holds an element past its order is an
    ``InstanceError``, as ``wsp_alg`` makes it; before, the set (5, 6, 7)
    over an order of four elements constructed and ``solve_cwsp`` raised a
    bare ``IndexError``."""
    fam = WeightedSetFamily(universe(8), 3, (((5, 6, 7), 1),), "max")
    with pytest.raises(InstanceError, match="out of range"):
        wsp.CwspInstance((0, 1, 2, 3), fam, 1, 2, 1, (3,))
    assert wsp.CwspInstance(tuple(range(8)), fam, 1, 2, 1, (3,)).rank == tuple(range(8))


@pytest.mark.parametrize("rank", [(0, 1, 1, 3, 4, 5), (1, 2, 3, 4, 5, 6), (5, 4, 3, 2, 1, -1),
                                  (0, 1, 2, 3, 4, True)])
def test_cwsp_instance_takes_only_a_permutation_as_its_order(rank):
    """The cut's order is a rank tuple, which must be a permutation of
    0..n-1, as ``OrderedUniverse`` required of its ranks."""
    fam = WeightedSetFamily(universe(6), 3, (((0, 1, 2), 1), ((3, 4, 5), 1)), "max")
    with pytest.raises(InstanceError, match="rank must be a permutation"):
        wsp.CwspInstance(rank, fam, 2, 2, 1, (5,))
