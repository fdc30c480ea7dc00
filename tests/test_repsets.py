import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from fptmix import kiob, kpath, p2pack, repsets, unisets, wsp
from fptmix.core import (Digraph, Graph, InstanceError, OrderedUniverse, ParameterError,
                         WeightedSetFamily, bit_positions)
from fptmix.repsets import (
    PartitionPart,
    PartitionSpec,
    build_separator,
    clear_separator_cache,
    gen_rep_alg,
    query_separator,
    reduce_layer,
    select_representative_positions,
)
from helpers import check_representation


def uni(n):
    return OrderedUniverse.from_labels([f"e{i}" for i in range(n)])


def check_goodness(sep):
    """Exhaustive (X, Y) sweep of the goodness property; desk scale only."""
    elems = sep.part_elements
    m = len(elems)
    slack = min(sep.k_prime - sep.p_prime, m - sep.p_prime)
    for x_pos in combinations(range(m), sep.p_prime):
        x_mask = sum(1 << i for i in x_pos)
        rest = [i for i in range(m) if not (x_mask >> i) & 1]
        for y_pos in combinations(rest, slack):
            y_mask = sum(1 << i for i in y_pos)
            if not any(f & x_mask == x_mask and f & y_mask == 0 for f in sep.family):
                return False, (tuple(elems[i] for i in x_pos), tuple(elems[i] for i in y_pos))
    return True, None


def test_separator_singleton_part():
    sep = build_separator(1, 1, 1)
    assert list(sep.family) == [1]
    assert check_goodness(sep)[0]


def test_separator_k_equals_p():
    # no Y to avoid: any family covering all p-subsets is good
    sep = build_separator(4, 2, 2)
    ok, witness = check_goodness(sep)
    assert ok, witness


def test_separator_421_good():
    sep = build_separator(4, 2, 1)
    ok, witness = check_goodness(sep)
    assert ok, witness


def test_query_empty_set_returns_everything():
    sep = build_separator(3, 2, 0)
    assert query_separator(sep, ()) == list(range(len(sep.family)))


def test_query_matches_linear_scan():
    rng = random.Random(7)
    sep = build_separator(6, 3, 2)
    for _ in range(50):
        s = tuple(sorted(rng.sample(range(6), 2)))
        got = query_separator(sep, s)
        want = [j for j, f in enumerate(sep.family) if all((f >> pos) & 1 for pos in s)]
        assert got == want
    for s in ((0, 6), (-1, 2)):
        with pytest.raises(ParameterError, match="outside the part"):
            query_separator(sep, s)


def test_query_element_in_no_family_set():
    sep = build_separator(2, 1, 1)
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
    first = build_separator(5, 3, 1)
    assert first.stats.construction != "cached"
    assert first.part_elements == (0, 1, 2, 3, 4)
    for _ in range(2):  # the same (m, k', p') again
        again = build_separator(5, 3, 1)
        assert again.stats.construction == "cached"
        assert again.family == first.family
        assert again.element_maps == first.element_maps
    wide = build_separator(3, 5, 1)
    # k' = 5 > m = 3 is stored under k' = m
    assert build_separator(3, 3, 1).stats.construction == "cached"
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
    seps = [build_separator(len(part.elements), part.k, part.p) for part in active]
    # local positions follow the universe's order of each part's elements
    local = [sorted(part.elements, key=family.universe.rank.__getitem__) for part in active]
    chi = [[query_separator(sep, [ranked.index(e) for e in members if e in ranked])
            for ranked, sep in zip(local, seps)] for members, _ in family.sets]
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


def _draw_entry(draw, n, least):
    """Parts over ``n`` elements and ``least``-12 distinct (mask, weight)
    pairs with p members in each of 1-3 parts.  The first part has p < m, so
    an entry can hold two sets; the others may also be inactive (k = p = 0),
    have p = 0 or have p = m."""
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
    return tuple(parts), _draw_sets(draw, parts, least)


def _draw_sets(draw, parts, least):
    every = [sum(1 << e for c in chosen for e in c)
             for chosen in product(*(combinations(part.elements, part.p) for part in parts))]
    count = draw(st.integers(least, min(12, len(every))))
    masks = draw(st.lists(st.sampled_from(every), unique=True, min_size=count, max_size=count))
    weights = draw(st.lists(st.integers(-2, 2), min_size=count, max_size=count))
    return list(zip(masks, weights))


def _draw_universe(draw):
    n = draw(st.sampled_from([12, 80]))
    return n, OrderedUniverse(tuple(f"e{i}" for i in range(n)),
                              tuple(draw(st.permutations(range(n)))))


@st.composite
def dp_entries(draw):
    """One DP entry as the solvers hand it to ``reduce_layer``: 2-12 sets
    (see ``_draw_entry``) over a universe of 12 or of 80 elements in a random
    order."""
    n, universe = _draw_universe(draw)
    parts, sets = _draw_entry(draw, n, 2)
    return universe, parts, sets, draw(st.sampled_from(["max", "min"]))


@st.composite
def dp_layers(draw):
    """One DP layer: 1-4 keys over one universe, the first with an entry of
    2-12 sets and the others of 1-12, each with its own parts or, sometimes,
    the first key's; the objective may be None, as for an unweighted DP."""
    n, universe = _draw_universe(draw)
    entries = [_draw_entry(draw, n, 2)]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            entries.append(_draw_entry(draw, n, 1))
        else:  # the first key's parts again, so the layer resolves them once
            entries.append((entries[0][0], _draw_sets(draw, entries[0][0], 1)))
    return universe, entries, draw(st.sampled_from(["max", "min", None]))


def _ranked(universe, parts):
    """``parts`` listed in ``universe``'s order, the order in which
    ``reduce_layer`` reads each part's local positions."""
    return tuple(PartitionPart(tuple(sorted(part.elements, key=universe.rank.__getitem__)),
                               part.k, part.p) for part in parts)


def _reference_reduce(universe, sets, parts, objective):
    """The reduction as it ran on frozensets: sets sorted by their sorted
    members, a ``WeightedSetFamily`` built from them, then the
    ``query_separator`` sweep."""
    ordered = sorted(sets, key=lambda sw: bit_positions(sw[0]))
    fam = WeightedSetFamily(universe, sum(part.p for part in parts),
                            tuple((tuple(bit_positions(m)), w) for m, w in ordered), objective)
    keep, _ = _reference_positions(PartitionSpec(parts), fam, objective)
    return [ordered[i][0] for i in keep]


def _kept_whole(universe, parts, count):
    """Whether ``reduce_layer`` keeps an entry of ``count`` masks under
    ``parts`` whole, unswept: one mask, every active separator dense, or at
    most 1 + min(k_i - p_i) masks over the active parts."""
    active = [part for part in parts if part.k or part.p]
    return count <= 1 or count - 1 <= min((part.k - part.p for part in active), default=0) or \
        all(build_separator(len(part.elements), part.k, part.p).dense for part in active)


def _stored(universe, sets, parts, objective):
    """The masks ``reduce_layer`` leaves in an entry of ``sets``, in stored
    order: a swept entry holds the reference's masks, in ascending
    sorted-member order; an entry kept whole holds every mask, all of which
    the reference keeps, in the order they arrived in."""
    want = _reference_reduce(universe, sets, parts, objective)
    if not _kept_whole(universe, parts, len(sets)):
        return want
    assert want == sorted((mask for mask, _ in sets), key=bit_positions)
    return [mask for mask, _ in sets]


def _reduce_one(universe, sets, parts, objective, trace=None):
    """``reduce_layer`` on a layer of one key, its parts listed in
    ``universe``'s order; the kept masks in stored order."""
    layer = {"key": {mask: (w, None) for mask, w in sets}}
    reduce_layer(layer, lambda key: _ranked(universe, parts), objective, trace)
    return list(layer["key"])


@given(dp_entries())
def test_mask_reduce_entry_matches_family_reference(entry):
    universe, parts, sets, objective = entry
    clear_separator_cache()
    trace = {}
    got = _reduce_one(universe, sets, parts, objective, trace)
    assert got == _stored(universe, sets, parts, objective)
    assert trace["dense_skips"] + trace["small_skips"] == _kept_whole(universe, parts, len(sets))
    assert trace["peak_family"] == len(sets)
    for (m, _, p), (family, _, dense) in repsets._separator_cache.items():
        every = {sum(1 << i for i in c) for c in combinations(range(m), p)}
        assert dense == (len(family) == len(every) and set(family) == every)


@given(dp_layers())
def test_reduce_layer_matches_reference_per_key(case):
    """Every key is reduced as its own entry would be, dense or not: its
    kept masks and their values, in member order when swept and in arrival
    order when kept whole; the trace counts the entries of more than one
    set, the dense ones among them, the small ones among the rest and the
    largest."""
    universe, entries, objective = case
    layer = {key: {mask: (w, key) for mask, w in sets} for key, (_, sets) in enumerate(entries)}
    trace = {}
    reduce_layer(layer, lambda key: _ranked(universe, entries[key][0]), objective, trace)
    dense = small = 0
    for key, (parts, sets) in enumerate(entries):
        weighed = sets if objective else [(mask, 0) for mask, _ in sets]
        want = _stored(universe, weighed, parts, objective or "max")
        assert list(layer[key]) == want
        if not _kept_whole(universe, parts, len(sets)):
            assert list(layer[key]) == sorted(layer[key], key=bit_positions)
        assert all(value == (dict(sets)[mask], key) for mask, value in layer[key].items())
        if len(sets) > 1:
            active = [part for part in parts if part.k or part.p]
            if all(build_separator(len(part.elements), part.k, part.p).dense
                   for part in active):
                dense += 1
            else:
                small += len(sets) - 1 <= min(part.k - part.p for part in active)
    assert trace["peak_family"] == max(len(sets) for _, sets in entries)
    assert trace["reductions"] == sum(len(sets) > 1 for _, sets in entries)
    assert (trace["dense_skips"], trace["small_skips"]) == (dense, small)


def test_sweep_keeps_every_set_of_at_most_one_plus_slack_masks():
    """An entry of n distinct masks with n - 1 <= slack, the least k_i - p_i
    over active parts, loses no set to the sweep, over 1-3 parts of mixed
    slacks on greedy and dense separators; so ``reduce_layer`` skips such an
    entry.  One mask more can lose a set, and ``reduce_layer`` then sweeps."""
    rng = random.Random(29)
    shapes, tight = set(), 0
    for _ in range(1500):
        n = rng.randint(6, 14)
        u = OrderedUniverse(tuple(f"e{i}" for i in range(n)), tuple(rng.sample(range(n), n)))
        pool, parts = rng.sample(range(n), n), []
        for _ in range(rng.randint(1, 3)):
            m = rng.randint(1, min(5, len(pool)))
            elements, pool = tuple(pool[:m]), pool[m:]
            p = rng.randint(0, m)
            parts.append(PartitionPart(elements, rng.randint(max(p, 1), m + 1), p))
            if not pool:
                break
        parts, slack = tuple(parts), min(part.k - part.p for part in parts)
        every = [sum(1 << e for c in chosen for e in c) for chosen in
                 product(*(combinations(part.elements, part.p) for part in parts))]
        if len(every) < 2:
            continue
        spec, objective = PartitionSpec(parts), rng.choice(("max", "min"))
        dense = all(build_separator(len(part.elements), part.k, part.p).dense for part in parts)
        small = min(len(every), slack + 1)
        for count in ([rng.randint(2, small)] if small > 1 else []) + [slack + 2]:
            if count > len(every):
                continue
            # in ascending sorted-member order, as reduce_layer hands them over
            sets = sorted(((mask, rng.randint(0, 3)) for mask in rng.sample(every, count)),
                          key=lambda sw: bit_positions(sw[0]))
            keep, _ = select_representative_positions(PartitionSpec(_ranked(u, parts)), sets,
                                                      objective)
            if count <= slack + 1:
                assert keep == list(range(count)), (parts, sets)
                shapes.add(dense)
            elif len(keep) < count:
                tight += 1
                assert _reduce_one(u, sets, parts, objective) == [sets[i][0] for i in keep]
    assert shapes == {False, True} and tight > 20


def test_part_listing_an_element_twice_is_rejected():
    fam = WeightedSetFamily(uni(4), 1, tuple(((e,), w) for e, w in enumerate((5, 3, 1, 2))))
    parts = (PartitionPart((0, 0, 1, 2, 3), 2, 1),)
    with pytest.raises(InstanceError, match="lists an element twice"):
        gen_rep_alg(PartitionSpec(parts), fam, "max")


@pytest.mark.parametrize("elements", [(-1, 0), ("a", 0), (0, 1.5)])
def test_part_listing_a_non_index_element_is_an_instance_error(elements):
    """Such a part once raised the bare ``ValueError`` or ``TypeError`` of the
    bit shift that builds its mask."""
    with pytest.raises(InstanceError, match="not a non-negative int"):
        PartitionSpec((PartitionPart(elements, 2, 1),))


@pytest.mark.parametrize("warm", [False, True])
def test_part_naming_an_element_outside_the_family_is_rejected(warm):
    """Whatever the separator cache holds: with the (3, 2, 1) shape already
    cached, the rank sort of the part once raised a bare ``IndexError``."""
    clear_separator_cache()
    if warm:
        build_separator(3, 2, 1)
    fam = WeightedSetFamily(uni(3), 1, (((0,), 1), ((1,), 2)))
    spec = PartitionSpec((PartitionPart((0, 1, 9), 2, 1),))
    with pytest.raises(InstanceError, match="outside the family's universe"):
        select_representative_positions(spec, fam, "max")
    with pytest.raises(InstanceError, match="outside the family's universe"):
        gen_rep_alg(spec, fam, "max")


def test_reduce_layer_reads_each_part_in_its_listing_order():
    """A part's listing order is its local-position order: one entry reduced
    under one part listed in two orders keeps what the reference keeps under
    the universe ranked in that order (an entry kept whole keeps its arrival
    order), and some entries keep other sets under the two listings, which a
    step that re-sorted the part could not do."""
    rng = random.Random(30)
    differ = 0
    for _ in range(200):
        n = rng.randint(5, 9)
        p = rng.randint(1, 2)
        k = rng.randint(p + 1, min(p + 2, n - 1))
        every = [sum(1 << e for e in c) for c in combinations(range(n), p)]
        sets = [(mask, rng.randint(0, 2)) for mask in rng.sample(every, min(len(every), 12))]
        objective = rng.choice(("max", "min"))
        kept = []
        for listing in (tuple(rng.sample(range(n), n)) for _ in range(2)):
            rank = tuple(map(listing.index, range(n)))  # rank r for the r-th listed element
            u = OrderedUniverse(tuple(f"e{i}" for i in range(n)), rank)
            parts = (PartitionPart(listing, k, p),)
            layer = {"key": {mask: (w, None) for mask, w in sets}}
            reduce_layer(layer, lambda key: parts, objective)
            assert list(layer["key"]) == _stored(u, sets, parts, objective)
            kept.append(list(layer["key"]))
        differ += kept[0] != kept[1]
    assert differ > 10


def test_shape_plan_built_from_other_parts_serves_every_entry():
    """The separator cache is keyed on the parts' shapes only: separators
    built beforehand from those shapes alone reduce an entry as fresh ones
    do, and the sweep then builds no shape of its own."""
    rng = random.Random(7)
    for _ in range(500):
        spec, fam, objective = _random_case(rng)
        try:
            want = _reference_positions(spec, fam, objective)
        except InstanceError:
            continue
        clear_separator_cache()
        for part in spec.parts:
            if part.k or part.p:
                build_separator(len(part.elements), part.k, part.p)
        shapes = dict(repsets._separator_cache)
        assert select_representative_positions(spec, fam, objective) == want
        assert repsets._separator_cache == shapes


def test_separator_rejects_a_part_it_cannot_represent():
    """A separator is built by shape, over local positions, so a part's own
    faults are caught with the part: a repeated element would take two local
    positions, a negative one has no bit, and an element outside the
    universe has no rank to sort it by.  The build refuses a shape whose p'
    is negative or above k' or m."""
    with pytest.raises(InstanceError, match="lists an element twice"):
        PartitionSpec((PartitionPart((0, 0, 1), 2, 1),))
    with pytest.raises(InstanceError, match="not a non-negative int"):
        PartitionSpec((PartitionPart((-1, 0), 2, 1),))
    fam = WeightedSetFamily(uni(4), 1, (((0,), 1), ((1,), 2)))
    for part in ((5, 0), (0, 4)):
        with pytest.raises(InstanceError, match="outside the family's universe"):
            select_representative_positions(PartitionSpec((PartitionPart(part, 2, 1),)), fam,
                                            "max")
    for m, k, p in ((2, 3, 3), (4, 1, 2), (4, 2, -1)):
        with pytest.raises(ParameterError):
            build_separator(m, k, p)


@pytest.mark.parametrize("m, k, p, mode, size", [
    (unisets.GREEDY_MAX_N, 2, 1, "greedy", 8),  # the widest shape the cell cap admits
    (unisets.GREEDY_MAX_N, 3, 1, "dense", 16),  # past the cell cap
    (unisets.GREEDY_MAX_N + 1, 2, 1, "dense", 17),  # past the greedy candidate space
])
def test_separators_at_the_greedy_dense_gate(m, k, p, mode, size):
    clear_separator_cache()
    first = build_separator(m, k, p)
    assert (first.stats.construction, len(first.family)) == (mode, size)
    assert first.dense == (mode == "dense")
    assert unisets.verify_universal(unisets.UniversalSet(m, k, p, first.family)).valid
    again = build_separator(m, k, p)
    assert again.stats.construction == "cached"
    assert (again.family, again.element_maps) == (first.family, first.element_maps)


def test_dense_flag_on_known_shapes():
    """All p-subsets, by the greedy cover or the fallback, set the flag;
    a compressed greedy cover does not."""
    assert build_separator(3, 3, 3).dense  # the one 3-subset
    assert build_separator(4, 4, 1).dense  # singletons separate all
    assert not build_separator(5, 2, 1).dense


def test_greedy_shapes_fit_the_default_constraint_budget():
    """The premise of build_separator's gate: every shape it sends to the
    greedy cover stays within build_universal's default budget, so that
    build cannot raise BudgetExceededError."""
    for m in range(unisets.GREEDY_MAX_N + 1):
        for k in range(m + 1):
            for p in range(k + 1):
                count = unisets.constraint_count(m, k, p)
                if (1 << m) * count <= repsets._GREEDY_CELL_CAP:
                    assert count <= unisets.DEFAULT_CONSTRAINT_BUDGET, (m, k, p)


def test_evicted_separator_is_rebuilt_identically(monkeypatch):
    monkeypatch.setattr(repsets, "_CACHE_CAP", 2)
    clear_separator_cache()
    first = build_separator(5, 2, 1)
    assert not first.dense
    build_separator(3, 2, 1)
    build_separator(4, 2, 2)  # evicts the first shape
    assert (5, 2, 1) not in repsets._separator_cache
    again = build_separator(5, 2, 1)
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
            kept.append(_reduce_one(u, sets, parts, "max"))
            assert len(repsets._separator_cache) <= 8
    assert len(cases) > 8 and rounds[0] == rounds[1]


def _solver_runs():
    """Small kcwp, kiob, wsp and p2p solves, each given a trace dict."""
    rng = random.Random(3)
    path = list(range(27))
    arcs = {(v, v + 1): 1 + v % 3 for v in path[:-1]}
    while len(arcs) < 26 + 150:
        a, b = rng.sample(range(28), 2)
        arcs.setdefault((a, b), rng.randint(1, 6))
    g = Digraph(28, tuple((a, b, w) for (a, b), w in sorted(arcs.items())))
    inst = kpath.construct_kcwp_witness(g, path, 13, Fraction(1, 12), Fraction(95, 1000))
    rng = random.Random(3)
    tree_arcs = {(rng.randrange(v), v) for v in range(1, 8)}  # node 0 reaches every node
    tree_arcs |= {tuple(rng.sample(range(8), 2)) for _ in range(12)}
    dg = Digraph(8, tuple((a, b, 1) for a, b in sorted(tree_arcs)))
    u = uni(9)
    fam = WeightedSetFamily(u, 3, tuple((tuple(sorted(rng.sample(range(9), 3))),
                                         rng.randint(0, 9)) for _ in range(14)), "max")
    edges = {tuple(sorted(rng.sample(range(10), 2))) for _ in range(18)}
    graph = Graph(10, tuple(sorted(edges)))
    return [
        ("kcwp", lambda trace: kpath.solve_kcwp(inst, trace=trace)),
        ("kiob", lambda trace: kiob.solve_kiob(dg, 5, trace=trace)),
        ("wsp", lambda trace: wsp.wsp_alg(u, fam, 15, 3, 2, trace=trace)),
        ("p2p", lambda trace: p2pack.solve_p2packing(graph, 3, trace=trace)),
    ]


def test_solvers_hand_reduce_layer_only_masks_their_parts_name(monkeypatch):
    """The DPs are trusted to build every mask with exactly p members in each
    part and none outside the parts, so no solve runs the membership check.
    Every DP hands each layer it builds to the step once: k layers per cut
    DP run, the footprint DP's included, one per internal node for
    ``solve_kcwp``, one per tree size from 2 for ``tree_families``, and for
    ``icp_pro1`` one per (p', q') layer that can grow into the (p, q) layer
    it reads, less those an earlier read of the same round and p built."""
    real = repsets.reduce_layer
    seen, stepped = {}, []

    def spy(module):
        def checked(layer, parts_of_key, *args, **kwargs):
            for key, entry in layer.items() if parts_of_key else ():
                parts = parts_of_key(key)
                union = sum(1 << e for part in parts for e in part.elements)
                for mask in entry:
                    assert not mask & ~union, (module, key)
                    for part in parts:
                        inside = sum(mask >> e & 1 for e in part.elements)
                        assert inside == part.p, (module, key, part)
                seen[module] = seen.get(module, 0) + sum(map(len, layer.values()))
            stepped.append(layer)
            return real(layer, parts_of_key, *args, **kwargs)
        return checked

    for module in (kpath, kiob, wsp, p2pack):
        monkeypatch.setattr(module, "reduce_layer", spy(module.__name__))

    def steps(count, fn):
        """``fn``, checking that each call hands ``count(*args)`` layers to the step."""
        def run(*args, **kwargs):
            before = len(stepped)
            out = fn(*args, **kwargs)
            assert len(stepped) - before == count(*args), fn.__name__
            return out
        return run

    def pack_stages(n, sets, k, *args, **kwargs):
        return steps(lambda rank, f: k, real_pack_stages(n, sets, k, *args, **kwargs))

    built: dict = {}

    def live(inst, p, q, *_):
        grow = {(p1, q1) for p1 in range(1, p + 1) for q1 in range(1, q + 1)
                if q1 <= p1 <= 3 * q1 and q - q1 <= p - p1 <= 3 * (q - q1)}
        shared = built.setdefault((inst, p), set())
        new = grow - shared
        shared |= grow
        return len(new)

    def internal_nodes(inst, *_):
        par = inst.params()
        return 2 * par.m * (par.ek - 1) + par.mid

    real_pack_stages = wsp._pack_stages
    for module in (wsp, p2pack):
        monkeypatch.setattr(module, "_pack_stages", pack_stages)
    monkeypatch.setattr(kpath, "solve_kcwp", steps(internal_nodes, kpath.solve_kcwp))
    monkeypatch.setattr(kiob, "tree_families", steps(lambda g, root, internal, leaves, *_:
                                                     internal + leaves - 1, kiob.tree_families))
    monkeypatch.setattr(p2pack, "icp_pro1", steps(live, p2pack.icp_pro1))

    def unexpected(*args):
        raise AssertionError("a solver ran the membership check")

    monkeypatch.setattr(repsets, "_validate_membership", unexpected)
    for _, solve in _solver_runs():
        solve({})
    assert set(seen) == {"fptmix.kpath", "fptmix.kiob", "fptmix.wsp", "fptmix.p2pack"}
    # the seeded footprint DP, whose layers the step counts and never reduces
    rng = random.Random(0)
    family = tuple(tuple(sorted(rng.sample(range(10), 3))) for _ in range(12))
    cut = p2pack.Pro2Instance(tuple(range(10)), 3, family, 2, 1, (1 << 0, 1 << 5), 2, (4, 9))
    before = len(stepped)
    assert p2pack.solve_cpro2(cut).accept and len(stepped) == before + 2
    assert len({id(layer) for layer in stepped}) == len(stepped)


def test_reduction_counters_match_select_calls(monkeypatch):
    """``reductions`` less ``dense_skips`` and ``small_skips`` is the number
    of sweeps run."""
    real = repsets.select_representative_positions
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(repsets, "select_representative_positions", counted)
    for name, solve in _solver_runs():
        calls.clear()
        trace = {}
        solve(trace)
        skips = trace["dense_skips"] + trace["small_skips"]
        assert trace["reductions"] - skips == len(calls) > 0, name
        assert trace["peak_family"] >= max(calls)


def test_each_separator_shape_is_built_once(monkeypatch):
    """The sweep and the dense flag read a cached shape without building a
    separator, so the solves build each shape once and a second run none."""
    real = repsets.build_separator
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(repsets, "build_separator", counted)
    clear_separator_cache()
    for _, solve in _solver_runs():
        solve({})
    assert len(calls) == len(repsets._separator_cache) > 0
    calls.clear()
    for _, solve in _solver_runs():
        solve({})
    assert calls == []
