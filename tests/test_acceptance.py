"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, none deferred.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from fptmix import bounds, kiob, kpath, matching, oracles, p2pack, repsets, unisets, wsp
from fptmix.core import Digraph, Graph, OrderedUniverse, WeightedSetFamily
from helpers import branching_internal_nodes, check_representation, reduction_ab


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------- 1 + 2

def test_criterion_1_bound_tables():
    t0 = time.time()
    bad = []
    for c, ref in bounds.REFERENCE_TABLE1.items():
        row = bounds.alpha_beta_table([c])[0]
        if abs(row["alpha"] - ref[0]) > 1e-4 or abs(row["beta"] - ref[3]) > 1e-4:
            bad.append(f"table1 argmax c={c}")
        if row["branch1"] > ref[1] + 1e-3 or abs(row["branch2"] - ref[4]) > 1e-3:
            bad.append(f"table1 value c={c}")
    got2 = bounds.kiob_det_bound(1.497)["base"]
    if abs(got2 - 5.13863) > 1e-4:
        bad.append(f"table2 {got2}")
    got3 = bounds.kiob_rand_bound(1.765, 0.8545)["base"]
    if abs(got3 - 3.615894) > 1e-5:
        bad.append(f"table3 {got3}")
    for gamma in (0.8544, 0.8545):
        for c in (1.763, 1.764, 1.765, 1.766):
            ref = bounds.REFERENCE_TABLE3[(c, gamma)]
            if abs(bounds.kiob_rand_bound(c, gamma)["base"] - ref) > 1e-5:
                bad.append(f"table3 row {(c, gamma)}")
    got4 = bounds.kpath_bound(0.046, 0.084, 1.504, 1.398, 1.092, 1.876)
    ref4 = bounds.REFERENCE_TABLE4[(0.046, 0.084, 1.504, 1.398, 1.092, 1.876)]
    if abs(got4["base"] - ref4[0]) > 1e-6 or abs(got4["Z1"] - ref4[1]) > 1e-6 \
            or abs(got4["Z2"] - ref4[2]) > 1e-6:
        bad.append(f"table4 {got4['base']}")
    if abs(got4["argmax"]["alpha1"] - 0.908105) > 1e-3:
        bad.append("table4 Z1 argmax")
    got5 = bounds.wsp_bound(1.591)
    if abs(got5["base"] - 8.096396) > 1e-5 or abs(got5["argmax"]["i"] - 54515) > 2 \
            or abs(got5["argmax"]["T"] - 0.1476821) > 1e-6:
        bad.append(f"table5 {got5}")
    gotp = bounds.p2p_bound()
    if abs(gotp["base"] - 6.77682) > 1e-4 or abs(gotp["argmax"]["i"] - 6377) > 2 \
            or abs(gotp["argmax"]["T"] - 0.04485) > 5e-4:
        bad.append(f"p2p {gotp}")
    elapsed = time.time() - t0
    _line(1, not bad and elapsed < 60,
          f"tables 1-5 and p2p reproduced in {elapsed:.1f}s" if not bad else "; ".join(bad))


def test_criterion_2_headline_constants():
    checks = [
        ("kiob-det", bounds.kiob_det_bound(1.497)["base"], 5.139),
        ("kpath", bounds.kpath_bound(0.046, 0.084, 1.504, 1.398, 1.092, 1.876)["base"],
         2.59606),
        ("wsp", bounds.wsp_bound(1.591)["base"], 8.097),
        ("p2p", bounds.p2p_bound()["base"], 6.777),
    ]
    bad = [f"{name}={got}" for name, got, cap in checks if got > cap + 1e-3]
    detail = ", ".join(f"{name} {got:.6f} <= {cap}" for name, got, cap in checks)
    _line(2, not bad, detail if not bad else "exceeded: " + "; ".join(bad))


# ---------------------------------------------------------------- 3

def _random_digraph(rng, n, density, wlo=1, whi=9):
    arcs = {}
    for t in range(n):
        for h in range(n):
            if t != h and rng.random() < density:
                arcs[(t, h)] = rng.randint(wlo, whi)
    return Digraph(n, tuple((t, h, w) for (t, h), w in arcs.items()))


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    mism = []
    witness_fail = []

    rng = random.Random(101)
    for trial in range(200):
        n = rng.randint(2, 7)
        g = _random_digraph(rng, n, rng.uniform(0.2, 0.5))
        k = rng.randint(1, 4)
        want = oracles.oracle_kiob(g, k)
        got = kiob.solve_kiob(g, k)
        if got.accept != want:
            mism.append(f"kiob {trial}")
        if got.accept and branching_internal_nodes(got.branching) < k:
            witness_fail.append(f"kiob {trial}")

    rng = random.Random(102)
    for trial in range(200):
        n = rng.randint(5, 8)
        uni = OrderedUniverse.from_labels([f"u{i}" for i in range(n)])
        sets = tuple((tuple(sorted(rng.sample(range(n), 3))), rng.randint(0, 9))
                     for _ in range(rng.randint(1, 9)))
        fam = WeightedSetFamily(uni, 3, sets, "max")
        k = rng.randint(1, min(3, n // 3))
        inv = rng.choice([1, 2])
        opt = oracles.oracle_wsp(fam, k)
        if opt is None:
            if wsp.wsp_alg(uni, fam, -10**6, k, inv).status != "reject":
                mism.append(f"wsp-none {trial}")
        else:
            hit = wsp.wsp_alg(uni, fam, opt, k, inv)
            miss = wsp.wsp_alg(uni, fam, opt + 1, k, inv)
            if hit.status != "accept" or hit.weight != opt or miss.status != "reject":
                mism.append(f"wsp {trial}")
            elif hit.packing is not None:
                used = set()
                total = 0
                for pos in hit.packing:
                    mem = fam.members(pos)
                    if used & set(mem):
                        witness_fail.append(f"wsp {trial}")
                    used |= set(mem)
                    total += fam.weight(pos)
                if total != opt:
                    witness_fail.append(f"wsp weight {trial}")

    rng = random.Random(103)
    for trial in range(200):
        n = rng.randint(3, 9)
        edges = tuple(e for e in combinations(range(n), 2)
                      if rng.random() < rng.uniform(0.25, 0.5))
        g = Graph(n, edges)
        k = rng.randint(1, 3)
        inv = rng.choice([1, 2])
        want = oracles.oracle_p2p(g, k)
        got = p2pack.solve_p2packing(g, k, inv)
        if got.status != ("accept" if want else "reject"):
            mism.append(f"p2p {trial}")
        if got.status == "accept":
            try:
                p2pack.validate_packing(g, got.packing)
            except Exception:
                witness_fail.append(f"p2p {trial}")

    rng = random.Random(104)
    delta = Fraction(1, 12)
    for trial in range(200):
        k = rng.choice([27, 28, 29])
        n = k + rng.randint(0, 4)
        gamma = Fraction(rng.choice([80, 88, 95, 99]), 1000)
        perm = list(range(n))
        rng.shuffle(perm)
        path = perm[:k]
        arcs = {(path[i], path[i + 1]): rng.randint(1, 6) for i in range(k - 1)}
        for _ in range(rng.randint(0, 15)):
            a, b = rng.sample(range(n), 2)
            arcs.setdefault((a, b), rng.randint(1, 9))
        g = Digraph(n, tuple((a, b, w) for (a, b), w in arcs.items()))
        inst = kpath.construct_kcwp_witness(g, path, 13, delta, gamma)
        got = kpath.solve_kcwp(inst)
        if not got.accept or not oracles.oracle_kcwp(inst, oracles.OracleBudget(4_000_000)):
            mism.append(f"kcwp {trial}")
            continue
        probe = replace(inst, W=got.weight - 1)
        if kpath.solve_kcwp(probe).accept != \
                oracles.oracle_kcwp(probe, oracles.OracleBudget(4_000_000)):
            mism.append(f"kcwp-threshold {trial}")
        try:
            kpath.verify_kcwp_witness(inst, got)
        except Exception:
            witness_fail.append(f"kcwp {trial}")

    elapsed = time.time() - t0
    ok = not mism and not witness_fail and elapsed < 600
    _line(3, ok, f"4x200 seeded instances, 100% agreement, {elapsed:.1f}s"
          if ok else f"mismatches={mism[:5]} witness={witness_fail[:5]} t={elapsed:.0f}s")


# ---------------------------------------------------------------- 4

def test_criterion_4_representation_property():
    t0 = time.time()
    rng = random.Random(202)
    failures = []
    for trial in range(500):
        n = rng.randint(4, 14)
        t = rng.randint(1, 3)
        elems = list(range(n))
        rng.shuffle(elems)
        cuts = sorted(rng.sample(range(1, n), t - 1)) if t > 1 else []
        groups = []
        prev = 0
        for cut in cuts + [n]:
            groups.append(tuple(sorted(elems[prev:cut])))
            prev = cut
        parts = []
        for group in groups:
            p = rng.randint(0, min(2, len(group)))
            k = rng.randint(p, min(4, max(p, len(group))))
            parts.append(repsets.PartitionPart(group, k, p))
        spec = repsets.PartitionSpec(tuple(parts))
        size = sum(part.p for part in parts)
        universe = OrderedUniverse.from_labels([f"e{i}" for i in range(n)])
        sets = []
        for _ in range(rng.randint(1, 18)):
            members = []
            for part in parts:
                members.extend(rng.sample(list(part.elements), part.p))
            sets.append((tuple(sorted(members)), rng.randint(-9, 20)))
        if size == 0:
            sets = [((), rng.randint(0, 5))]
        fam = WeightedSetFamily(universe, size, tuple(sets),
                                rng.choice(["max", "min"]))
        objective = fam.objective
        positions, product_size = repsets.select_representative_positions(
            spec, fam, objective)
        out = repsets.gen_rep_alg(spec, fam, objective)
        if len(out) > product_size:
            failures.append(f"size {trial}")
            continue
        if not check_representation(spec, fam, out, objective).valid:
            failures.append(f"represent {trial}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300
    _line(4, ok, f"500 seeded (family, spec) pairs pass, {elapsed:.1f}s"
          if ok else f"failures={failures[:5]} t={elapsed:.0f}s")


# ---------------------------------------------------------------- 5

def test_criterion_5_universal_sets_exhaustive():
    t0 = time.time()
    bad = []
    for n in range(0, 13):
        for k in range(0, min(4, n) + 1):
            for p in range(0, k + 1):
                greedy = unisets.build_universal(n, k, p, "greedy")
                if not unisets.verify_universal(greedy).valid:
                    bad.append(f"greedy {(n, k, p)}")
                rand = unisets.build_universal(n, k, p, "rand", seed=1000 + n * 100 + k * 10 + p)
                if not unisets.verify_universal(rand).valid:
                    bad.append(f"rand {(n, k, p)}")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 120
    _line(5, ok, f"all (n<=12, k<=4, p<=k) x both modes valid, {elapsed:.1f}s"
          if ok else f"bad={bad[:5]} t={elapsed:.0f}s")


# ---------------------------------------------------------------- 6

def test_criterion_6_matching_optimality():
    t0 = time.time()
    bad = 0
    checked = 0
    for n in range(0, 7):  # truly exhaustive through n = 6
        all_edges = list(combinations(range(n), 2))
        for mask in range(1 << len(all_edges)):
            edges = tuple(e for i, e in enumerate(all_edges) if (mask >> i) & 1)
            g = Graph(n, edges)
            checked += 1
            if len(matching.max_matching(g)) != oracles.brute_matching_size(n, edges):
                bad += 1
    rng = random.Random(303)
    for _ in range(2000):  # seeded n = 7 sweep; the full 2^21 space is logged as out of envelope
        edges = tuple(e for e in combinations(range(7), 2) if rng.random() < rng.uniform(0.1, 0.9))
        checked += 1
        if len(matching.max_matching(Graph(7, edges))) != oracles.brute_matching_size(7, edges):
            bad += 1
    rng = random.Random(304)
    for _ in range(500):
        n = rng.randint(8, 16)
        edges = tuple(e for e in combinations(range(n), 2) if rng.random() < 0.18)
        checked += 1
        if len(matching.max_matching(Graph(n, edges))) != oracles.brute_matching_size(n, edges):
            bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 120
    _line(6, ok, f"{checked} graphs agree (exhaustive n<=6 + seeded 7..16), {elapsed:.1f}s"
          if ok else f"bad={bad} t={elapsed:.0f}s")


# ---------------------------------------------------------------- 7

def test_criterion_7_reduction_ab(monkeypatch):
    t0 = time.time()
    bad = []
    swept = {"cwsp": 0, "kcwp": 0}
    rng = random.Random(404)
    for trial in range(100):
        n = rng.randint(7, 10)
        uni = OrderedUniverse.from_labels([f"u{i}" for i in range(n)])
        # layer j's entries are swept only past 1 + 3(k - j) masks, so the
        # families are dense enough for a quarter of the trials to sweep
        sets = tuple((tuple(sorted(rng.sample(range(n), 3))), rng.randint(0, 9))
                     for _ in range(rng.randint(12, 30)))
        fam = WeightedSetFamily(uni, 3, sets, "max")
        k = rng.choice([2, 3])
        inv = rng.choice([1, 2])
        order = uni.by_rank()
        f = tuple(order[r] for r in sorted(rng.sample(range(n), inv)))
        inst = wsp.CwspInstance(uni.rank, fam, rng.randint(1, 25), k, inv, f)
        on, off, sweep = reduction_ab(monkeypatch, wsp, wsp.solve_cwsp, inst)
        swept["cwsp"] += sweep
        if on.accept != off.accept or (on.accept and on.weight != off.weight):
            bad.append(f"cwsp {trial}")

    rng = random.Random(405)
    delta = Fraction(1, 12)
    for trial in range(100):
        k = 27
        n = k + rng.randint(0, 3)
        gamma = Fraction(rng.choice([85, 95]), 1000)
        perm = list(range(n))
        rng.shuffle(perm)
        path = perm[:k]
        arcs = {(path[i], path[i + 1]): rng.randint(1, 5) for i in range(k - 1)}
        # four trials in five draw dense noise: with 0-12 arcs almost no DP
        # entry holds two sets, so only dense trials make the reduction sweep
        for _ in range(rng.randint(200, 400) if trial % 5 else rng.randint(0, 12)):
            a, b = rng.sample(range(n), 2)
            arcs.setdefault((a, b), rng.randint(1, 9))
        g = Digraph(n, tuple((a, b, w) for (a, b), w in arcs.items()))
        inst = kpath.construct_kcwp_witness(g, path, 13, delta, gamma)
        on, off, sweep = reduction_ab(monkeypatch, kpath, kpath.solve_kcwp, inst)
        swept["kcwp"] += sweep
        if on.accept != off.accept or (on.accept and on.weight != off.weight):
            bad.append(f"kcwp {trial}")
    for solver, floor in (("cwsp", 25), ("kcwp", 50)):
        if swept[solver] < floor:
            bad.append(f"{solver} swept in {swept[solver]} of 100 trials, fewer than {floor}")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 300
    _line(7, ok, f"100+100 A/B instances identical, sweeps {swept}, {elapsed:.1f}s"
          if ok else f"bad={bad[:5]} t={elapsed:.0f}s")


# ---------------------------------------------------------------- 8

def test_criterion_8_witness_integrity():
    t0 = time.time()
    bad = []

    rng = random.Random(505)
    accepted = 0
    while accepted < 25:
        n = rng.randint(4, 7)
        g = _random_digraph(rng, n, 0.5)
        k = rng.randint(1, 3)
        got = kiob.solve_kiob(g, k)
        if not got.accept:
            continue
        accepted += 1
        parent = {h: t for t, h in got.branching}
        arcset = {(t, h) for t, h, _ in g.arcs}
        if set(parent) != set(range(n)) - {got.root} \
                or any(a not in arcset for a in got.branching) \
                or branching_internal_nodes(got.branching) < k:
            bad.append("kiob")

    rng = random.Random(506)
    accepted = 0
    while accepted < 25:
        n = rng.randint(6, 8)
        uni = OrderedUniverse.from_labels([f"u{i}" for i in range(n)])
        sets = tuple((tuple(sorted(rng.sample(range(n), 3))), rng.randint(0, 9))
                     for _ in range(rng.randint(2, 9)))
        fam = WeightedSetFamily(uni, 3, sets, "max")
        k = rng.choice([1, 2])
        res = wsp.wsp_alg(uni, fam, rng.randint(0, 12), k, rng.choice([1, 2]))
        if res.status != "accept":
            continue
        accepted += 1
        used = set()
        total = 0
        for pos in res.packing:
            mem = set(fam.members(pos))
            if used & mem:
                bad.append("wsp-disjoint")
            used |= mem
            total += fam.weight(pos)
        if total != res.weight:
            bad.append("wsp-weight")

    rng = random.Random(507)
    accepted = 0
    while accepted < 25:
        n = rng.randint(4, 9)
        edges = tuple(e for e in combinations(range(n), 2) if rng.random() < 0.45)
        g = Graph(n, edges)
        k = rng.randint(1, 3)
        res = p2pack.solve_p2packing(g, k, rng.choice([1, 2]))
        if res.status != "accept":
            continue
        accepted += 1
        try:
            p2pack.validate_packing(g, res.packing)
        except Exception:
            bad.append("p2p")

    rng = random.Random(508)
    for trial in range(25):
        k = 27
        n = k + 3
        perm = list(range(n))
        rng.shuffle(perm)
        path = perm[:k]
        arcs = {(path[i], path[i + 1]): rng.randint(1, 5) for i in range(k - 1)}
        for _ in range(10):
            a, b = rng.sample(range(n), 2)
            arcs.setdefault((a, b), rng.randint(1, 9))
        g = Digraph(n, tuple((a, b, w) for (a, b), w in arcs.items()))
        inst = kpath.construct_kcwp_witness(g, path, 13, Fraction(1, 12),
                                            Fraction(95, 1000))
        res = kpath.solve_kcwp(inst)
        if not res.accept:
            bad.append("kcwp-reject")
            continue
        try:
            kpath.verify_kcwp_witness(inst, res)
        except Exception as exc:
            bad.append(f"kcwp {exc}")
        if kpath.chain_pieces(inst, res.pieces) is None:
            bad.append("kcwp-chain")
    elapsed = time.time() - t0
    _line(8, not bad, f"100 accepted witnesses re-verified structurally, {elapsed:.1f}s"
          if not bad else f"bad={bad[:6]}")
