import math
import random
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from fptmix import repsets
from fptmix.core import InstanceError, OrderedUniverse, WeightedSetFamily, bit_positions
from fptmix.repsets import (
    PartitionPart,
    PartitionSpec,
    build_separator,
    check_goodness,
    check_representation,
    clear_separator_cache,
    gen_rep_alg,
    query_separator,
    reduce_entry,
    select_representative_positions,
)


def uni(n):
    return OrderedUniverse.from_labels([f"e{i}" for i in range(n)])


def test_separator_singleton_part():
    sep = build_separator(uni(1), (0,), 1, 1)
    assert list(sep.family) == [1]
    assert check_goodness(sep)[0]


def test_separator_k_equals_p():
    # no Y to avoid: any family covering all p-subsets is good
    sep = build_separator(uni(4), (0, 1, 2, 3), 2, 2)
    ok, witness = check_goodness(sep)
    assert ok, witness


def test_separator_421_good():
    sep = build_separator(uni(4), (0, 1, 2, 3), 2, 1)
    ok, witness = check_goodness(sep)
    assert ok, witness


def test_query_empty_set_returns_everything():
    sep = build_separator(uni(3), (0, 1, 2), 2, 0)
    assert query_separator(sep, ()) == list(range(len(sep.family)))


def test_query_matches_linear_scan():
    rng = random.Random(7)
    sep = build_separator(uni(6), tuple(range(6)), 3, 2)
    for _ in range(50):
        s = tuple(sorted(rng.sample(range(6), 2)))
        got = query_separator(sep, s)
        want = [j for j, f in enumerate(sep.family)
                if all((f >> sep.local_position(e)) & 1 for e in s)]
        assert got == want


def test_query_element_in_no_family_set():
    sep = build_separator(uni(2), (0, 1), 1, 1)
    # family for (2,1,1) is the two singletons; query one element
    hit = query_separator(sep, (0,))
    assert all(sep.family[j] & 1 for j in hit)


def test_genrep_short_circuit_size_one():
    u = uni(3)
    fam = WeightedSetFamily(u, 1, (((0,), 5),))
    spec = PartitionSpec((PartitionPart((0, 1, 2), 2, 1),))
    out = gen_rep_alg(spec, fam, "max")
    assert out.sets == fam.sets


def test_genrep_t1_weight_dominance():
    u = uni(4)
    fam = WeightedSetFamily(u, 1, (((0,), 5), ((1,), 3)))
    spec = PartitionSpec((PartitionPart((0, 1, 2, 3), 1, 1),))
    out = gen_rep_alg(spec, fam, "max")
    assert check_representation(spec, fam, out, "max").valid


def test_check_representation_trivial_and_witness():
    u = uni(4)
    fam = WeightedSetFamily(u, 1, (((0,), 5), ((1,), 3)))
    spec = PartitionSpec((PartitionPart((0, 1, 2, 3), 1, 1),))
    assert check_representation(spec, fam, fam, "max").valid
    # dropping the heavier set with zero slack leaves X={e0} unrepresented
    cand = WeightedSetFamily(u, 1, (((1,), 3),))
    res = check_representation(spec, fam, cand, "max")
    assert not res.valid
    assert res.witness[0] == (0,)


def test_check_representation_rejects_non_subfamily():
    u = uni(3)
    fam = WeightedSetFamily(u, 1, (((0,), 5),))
    other = WeightedSetFamily(u, 1, (((1,), 5),))
    spec = PartitionSpec((PartitionPart((0, 1, 2), 1, 1),))
    with pytest.raises(InstanceError, match="subfamily"):
        check_representation(spec, fam, other, "max")


def test_membership_count_violation():
    u = uni(4)
    fam = WeightedSetFamily(u, 2, (((0, 1), 1),))
    spec = PartitionSpec((PartitionPart((0, 1), 2, 1), PartitionPart((2, 3), 1, 1)))
    with pytest.raises(InstanceError, match="members"):
        gen_rep_alg(spec, fam, "max")


def test_def2_specialization_explicit_quantifier():
    """t=1 output satisfies the plain single-universe definition, checked by
    instantiating its quantifier directly (not via check_representation)."""
    rng = random.Random(3)
    n, p, slack = 7, 2, 2
    u = uni(n)
    sets = []
    for _ in range(18):
        sets.append((tuple(sorted(rng.sample(range(n), p))), rng.randint(0, 20)))
    fam = WeightedSetFamily(u, p, tuple(sets), "max")
    spec = PartitionSpec((PartitionPart(tuple(range(n)), p + slack, p),))
    out = gen_rep_alg(spec, fam, "max")
    chosen = dict(out.sets)
    for members, weight in fam.sets:
        for y in combinations([e for e in range(n) if e not in members], slack):
            ok = any(not set(m) & set(y) and w >= weight for m, w in chosen.items())
            assert ok, (members, y)


def test_t2_random_instance_sound_and_sized():
    rng = random.Random(11)
    u = uni(6)
    parts = (PartitionPart((0, 1, 2), 2, 1), PartitionPart((3, 4, 5), 2, 1))
    spec = PartitionSpec(parts)
    sets = []
    for _ in range(20):
        a = rng.randrange(3)
        b = 3 + rng.randrange(3)
        sets.append(((a, b), rng.randint(-5, 15)))
    fam = WeightedSetFamily(u, 2, tuple(sets), "max")
    positions, product_size = select_representative_positions(spec, fam, "max")
    out = gen_rep_alg(spec, fam, "max")
    assert len(out) == len(positions) <= product_size
    assert check_representation(spec, fam, out, "max").valid
    # subfamily with identical weights
    base = dict(fam.sets)
    for members, weight in out.sets:
        assert base[members] == weight


def test_idempotence_compatible():
    rng = random.Random(5)
    u = uni(8)
    spec = PartitionSpec((PartitionPart(tuple(range(8)), 4, 2),))
    sets = tuple((tuple(sorted(rng.sample(range(8), 2))), rng.randint(0, 9))
                 for _ in range(25))
    fam = WeightedSetFamily(u, 2, sets, "min")
    first = gen_rep_alg(spec, fam, "min")
    second = gen_rep_alg(spec, first, "min")
    assert check_representation(spec, first, second, "min").valid


def test_empty_parts_are_dropped():
    u = uni(5)
    spec = PartitionSpec((PartitionPart((0, 1, 2), 2, 1), PartitionPart((3, 4), 0, 0)))
    fam = WeightedSetFamily(u, 1, (((0,), 1), ((1,), 2), ((2,), 3)))
    out = gen_rep_alg(spec, fam, "max")
    assert check_representation(spec, fam, out, "max").valid


def test_weight_tie_break_prefers_earlier_input_position():
    """Among equal weights the sweep visits the earlier-listed set first, so
    it always survives (its product slots are still fresh)."""
    u = uni(3)
    spec = PartitionSpec((PartitionPart((0, 1, 2), 1, 1),))
    fam_ab = WeightedSetFamily(u, 1, (((0,), 5), ((1,), 5)))
    fam_ba = WeightedSetFamily(u, 1, (((1,), 5), ((0,), 5)))
    assert ((0,), 5) in gen_rep_alg(spec, fam_ab, "max").sets
    assert ((1,), 5) in gen_rep_alg(spec, fam_ba, "max").sets


def test_gen_rep_alg_is_deterministic():
    rng = random.Random(77)
    u = uni(8)
    spec = PartitionSpec((PartitionPart(tuple(range(4)), 3, 1),
                          PartitionPart(tuple(range(4, 8)), 2, 1)))
    sets = tuple(((rng.randrange(4), 4 + rng.randrange(4)), rng.randint(0, 6))
                 for _ in range(30))
    fam = WeightedSetFamily(u, 2, tuple((tuple(sorted(m)), w) for m, w in sets))
    assert gen_rep_alg(spec, fam, "max").sets == gen_rep_alg(spec, fam, "max").sets


def test_separator_cache_shares_family_and_element_maps():
    clear_separator_cache()
    u = uni(12)
    first = build_separator(u, (0, 1, 2, 3, 4), 3, 1)
    assert first.stats.construction != "cached"
    for part in ((5, 6, 7, 8, 9), (7, 8, 9, 10, 11)):  # other parts, same (m, k', p')
        again = build_separator(u, part, 3, 1)
        assert again.stats.construction == "cached"
        assert again.family == first.family
        assert again.element_maps == first.element_maps
    wide = build_separator(u, (0, 1, 2), 5, 1)
    # k' = 5 > m = 3 is stored under k' = m
    assert build_separator(u, (3, 4, 5), 3, 1).stats.construction == "cached"
    for sep in (first, wide):
        for i, members_map in enumerate(sep.element_maps):
            assert members_map == sum(1 << j for j, f in enumerate(sep.family) if f >> i & 1)


def _reference_positions(spec, family, objective):
    """The sweep as first written: per-member set lookups for membership,
    chi(S) from ``query_separator`` and the used product indices as the bits
    of one integer."""
    covered = set()
    for part in spec.parts:
        covered.update(part.elements)
    for members, _ in family.sets:
        if any(e not in covered for e in members):
            raise InstanceError("outside")
        for part in spec.parts:
            if sum(1 for e in members if e in set(part.elements)) != part.p:
                raise InstanceError("count")
    if len(family) <= 1:
        return list(range(len(family))), 1
    active = [part for part in spec.parts if not (part.k == 0 and part.p == 0)]
    seps = [build_separator(family.universe, part.elements, part.k, part.p)
            for part in active]
    chi = [[query_separator(sep, [e for e in members if e in part.elements])
            for part, sep in zip(active, seps)] for members, _ in family.sets]
    sizes = [len(sep.family) for sep in seps]
    order = sorted(range(len(family)), key=family.weight, reverse=objective == "max")
    used = 0
    selected = []
    for pos in order:
        fresh = 0
        for combo in product(*chi[pos]):
            idx = 0
            for size, j in zip(sizes, combo):
                idx = idx * size + j
            if not (used >> idx) & 1:
                fresh |= 1 << idx
        if fresh:
            selected.append(pos)
            used |= fresh
    return sorted(selected), math.prod(sizes)


def _random_case(rng):
    n = rng.randint(2, 11)
    u = OrderedUniverse(tuple(f"e{i}" for i in range(n)), tuple(rng.sample(range(n), n)))
    pool = rng.sample(range(n), rng.randint(1, n))
    parts = []
    while pool and len(parts) < 3:
        m = rng.randint(1, min(5, len(pool)))
        elements, pool = tuple(pool[:m]), pool[m:]
        shape = rng.random()
        if shape < 0.15:
            k = p = 0  # inactive
        elif shape < 0.3:
            k, p = rng.randint(1, m + 1), 0
        else:
            p = rng.randint(1, m)
            k = rng.randint(p, m + 2)
        parts.append(PartitionPart(elements, k, p))
    spec = PartitionSpec(tuple(parts))
    sets = []
    for _ in range(rng.randint(0, 14)):
        members = [e for part in parts for e in rng.sample(part.elements, part.p)]
        sets.append((tuple(sorted(members)), rng.randint(0, 3)))
    if sets and rng.random() < 0.1:
        # move one member to an element of another part or of no part
        members = list(sets[-1][0])
        spare = [e for e in range(n) if e not in members]
        if members and spare:
            members[rng.randrange(len(members))] = rng.choice(spare)
            sets[-1] = (tuple(sorted(members)), sets[-1][1])
    objective = rng.choice(("max", "min"))
    size = sum(part.p for part in parts)
    return spec, WeightedSetFamily(u, size, tuple(sets), objective), objective


def test_mask_sweep_matches_query_separator_reference():
    rng = random.Random(2024)
    raised = 0
    for _ in range(2000):
        spec, fam, objective = _random_case(rng)
        try:
            want = _reference_positions(spec, fam, objective)
        except InstanceError:
            with pytest.raises(InstanceError):
                select_representative_positions(spec, fam, objective)
            raised += 1
            continue
        assert select_representative_positions(spec, fam, objective) == want
    assert raised > 50


@st.composite
def dp_entries(draw):
    """One DP entry as the solvers hand it to ``reduce_entry``: 2-12 distinct
    (mask, weight) pairs with p members in each of 1-3 parts, over a universe
    of 12 or of 80 elements in a random order.  The first part has p < m, so
    an entry can hold two sets; the others may also be inactive (k = p = 0),
    have p = 0 or have p = m."""
    n = draw(st.sampled_from([12, 80]))
    universe = OrderedUniverse(tuple(f"e{i}" for i in range(n)),
                               tuple(draw(st.permutations(range(n)))))
    pool = draw(st.permutations(range(n)))
    parts = []
    for i in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["inactive", "p=0", "p=m", "0<p<m"])) if i else "0<p<m"
        m = draw(st.integers(2 if shape == "0<p<m" else 1, min(5, n - 5 * i)))
        if shape == "inactive":
            k = p = 0
        elif shape == "p=0":
            k, p = draw(st.integers(1, m + 1)), 0
        elif shape == "p=m":
            k = p = m
        else:  # k >= m gives dense separators, k < m mostly greedy covers
            p = draw(st.integers(1, m - 1))
            k = draw(st.integers(p, m + 2))
        parts.append(PartitionPart(tuple(pool[5 * i: 5 * i + m]), k, p))
    every = [sum(1 << e for c in chosen for e in c)
             for chosen in product(*(combinations(part.elements, part.p) for part in parts))]
    count = draw(st.integers(2, min(12, len(every))))
    masks = draw(st.lists(st.sampled_from(every), unique=True, min_size=count, max_size=count))
    weights = draw(st.lists(st.integers(-2, 2), min_size=count, max_size=count))
    return universe, tuple(parts), list(zip(masks, weights)), draw(st.sampled_from(["max", "min"]))


def _reference_reduce(universe, sets, parts, objective):
    """The reduction as it ran on frozensets: sets sorted by their sorted
    members, a ``WeightedSetFamily`` built from them, then the
    ``query_separator`` sweep."""
    ordered = sorted(sets, key=lambda sw: bit_positions(sw[0]))
    fam = WeightedSetFamily(universe, sum(part.p for part in parts),
                            tuple((tuple(bit_positions(m)), w) for m, w in ordered), objective)
    keep, _ = _reference_positions(PartitionSpec(parts), fam, objective)
    return [ordered[i][0] for i in keep]


@given(dp_entries())
def test_mask_reduce_entry_matches_family_reference(entry):
    universe, parts, sets, objective = entry
    clear_separator_cache()
    trace = {}
    got = reduce_entry(universe, sets, parts, objective, trace)
    assert got == _reference_reduce(universe, sets, parts, objective)
    assert trace["peak_family"] == len(sets)
    for (m, _, p), (family, _, dense) in repsets._separator_cache.items():
        every = {sum(1 << i for i in c) for c in combinations(range(m), p)}
        assert dense == (len(family) == len(every) and set(family) == every)


def test_shape_plan_built_from_other_parts_serves_every_entry():
    """Plans are keyed on the parts' (size, k, p) only: one built from other
    elements in another universe order reduces an entry as a fresh one does."""
    rng = random.Random(7)
    for _ in range(500):
        spec, fam, objective = _random_case(rng)
        try:
            want = _reference_positions(spec, fam, objective)
        except InstanceError:
            continue
        n = len(fam.universe)
        others = tuple(PartitionPart(tuple(n - 1 - e for e in part.elements), part.k, part.p)
                       for part in spec.parts)
        clear_separator_cache()
        repsets._plan(uni(n), [part for part in others if part.k or part.p])
        assert select_representative_positions(spec, fam, objective) == want
        assert len(repsets._plans) == 1


def test_dense_flag_on_known_shapes():
    """All p-subsets, by the greedy cover or the fallback, set the flag;
    a compressed greedy cover does not."""
    u = uni(6)
    assert build_separator(u, (0, 1, 2), 3, 3).dense  # the one 3-subset
    assert build_separator(u, (0, 1, 2, 3), 4, 1).dense  # singletons separate all
    assert not build_separator(u, (0, 1, 2, 3, 4), 2, 1).dense


def test_evicted_separator_is_rebuilt_identically(monkeypatch):
    monkeypatch.setattr(repsets, "_CACHE_CAP", 2)
    clear_separator_cache()
    u = uni(8)
    first = build_separator(u, (0, 1, 2, 3, 4), 2, 1)
    assert not first.dense
    build_separator(u, (0, 1, 2), 2, 1)
    build_separator(u, (0, 1, 2, 3), 2, 2)  # evicts the first shape
    assert (5, 2, 1) not in repsets._separator_cache
    again = build_separator(u, (3, 4, 5, 6, 7), 2, 1)
    assert again.stats.construction != "cached"
    assert (again.family, again.element_maps, again.dense) == \
        (first.family, first.element_maps, first.dense)


def test_caches_stay_within_their_bound(monkeypatch):
    monkeypatch.setattr(repsets, "_CACHE_CAP", 8)
    clear_separator_cache()
    u = uni(12)
    rng = random.Random(5)
    cases = []
    for m in range(2, 12):
        for p in range(1, min(m, 3) + 1):
            masks = {sum(1 << e for e in rng.sample(range(m), p)) for _ in range(6)}
            cases.append(((PartitionPart(tuple(range(m)), p + 1, p),),
                          [(mask, rng.randint(0, 3)) for mask in sorted(masks)]))
    rounds = [[], []]
    for kept in rounds:  # the second round rebuilds what the first evicted
        for parts, sets in cases:
            kept.append(reduce_entry(u, sets, parts, "max"))
            assert len(repsets._separator_cache) <= 8 and len(repsets._plans) <= 8
    assert len(cases) > 8 and rounds[0] == rounds[1]
