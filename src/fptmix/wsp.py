"""Weighted 3-set k-packing via unbalanced cutting.

The cut subproblem asks for an ordered packing: sets inserted in increasing
order of their smallest element, where a staged threshold function licenses
deleting every element below it from partial solutions, and a deletion
schedule R prescribes how many non-minimum elements each stage must shed.
The driver enumerates every way to cut the universe into consecutive pieces
and runs the cut solver under the order that puts the pieces first, with
the induced threshold function.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from math import comb
from operator import add, lt

from .core import (Budget, BudgetExceededError, InstanceError, OrderedUniverse,
                   ParameterError, WeightedSetFamily, _ceildiv, add_weights)
from .repsets import PartitionPart, reduce_layer


def stage_schedule(k: int, inv_eps: int, offset: int = 0) -> list[int]:
    """Exact integer evaluation of the stage-deletion recursion R(0..1/eps).

    ``offset`` counts elements every partial solution holds from the start
    (a footprint the packing must avoid); with offset 0, R(1) = 0.
    """
    if inv_eps < 1:
        raise ParameterError("1/eps must be a positive integer")
    ek = k // inv_eps
    if ek < 1:
        raise ParameterError("floor(eps * k) must be at least 1")
    values = [0]
    for j in range(1, inv_eps + 1):
        denom = _ceildiv(3 * (k - (j - 1) * ek), ek)
        values.append(values[-1] + _ceildiv(offset + 2 * (j - 1) * ek - values[-1], denom))
    return values


def _check_cut_order(inst) -> None:
    """Raise unless ``inst.rank`` is a permutation of 0..n-1 and ``inst.f``
    is None or names 1/eps elements in rank order."""
    rank = inst.rank
    if not all(type(r) is int for r in rank) or sorted(rank) != list(range(len(rank))):
        raise InstanceError("rank must be a permutation of 0..n-1")
    ranks = [rank[e] for e in inst.f or () if 0 <= e < len(rank)]
    if inst.f is not None and not len(ranks) == len(inst.f) == inst.inv_eps:
        raise ParameterError("f must assign one element of the universe per stage")
    if ranks != sorted(ranks):
        raise ParameterError("f must be non-decreasing in the universe order")


@dataclass(frozen=True)
class CwspInstance:
    rank: tuple[int, ...]  # element e's position in the cut's order; members lie below len(rank)
    family: WeightedSetFamily
    W: int
    k: int
    inv_eps: int
    f: tuple[int, ...]

    def __post_init__(self):
        if self.family.set_size != 3:
            raise ParameterError("family must consist of 3-sets")
        if self.inv_eps < 1:
            raise ParameterError("1/eps must be a positive integer")
        _check_cut_order(self)
        if any(members[-1] >= len(self.rank) for members, _ in self.family.sets):
            raise InstanceError("a member index is out of range of the cut's order")


@dataclass(frozen=True)
class CwspResult:
    accept: bool
    ordered_sets: tuple[int, ...] | None = None  # positions into family.sets
    weight: int | None = None


def solve_cwsp(inst: CwspInstance, c: float = 1.0, trace: dict | None = None) -> CwspResult:
    """Staged dynamic program over ordered packings of the whole family.

    After every entry the family is replaced by a max 3(k - j)-representative
    subfamily.  It runs the same two ``_pack_stages`` steps as ``wsp_alg``:
    the per-call set-up, then one cut, under the instance's own order and f.
    """
    if c < 1:
        raise ParameterError(f"c must be at least 1, got {c}")
    if inst.k < 1:
        raise ParameterError("k must be at least 1")
    pack = _pack_stages(len(inst.rank), inst.family.sets, inst.k,
                        stage_schedule(inst.k, inst.inv_eps), inst.W, trace=trace)
    found = pack(inst.rank, inst.f)
    if found is None:
        return CwspResult(False)
    positions, _, weight = found
    return CwspResult(True, positions, weight)


def _pack_stages(n: int, sets, k: int, sched, W: int, seeds=None,
                 trace: dict | None = None, cap: int | None = None):
    """The staged cut-packing DP shared by both unbalanced-cutting solvers.

    It runs in two steps.  This call does what no cut changes, once per
    solver call: it takes the set weights, the heaviest and lightest, each
    set's element mask, and the weight skip below.  It returns
    ``pack(rank, f)``, which runs the DP for one cut: ``rank`` is the rank
    tuple of the cut's order of the ``n`` elements and ``f`` the stage
    threshold function, one element per stage.  Per cut it builds only the
    seeds' counts, the per-set (smallest-element rank, per-stage deletable
    counts) rows and the layers.  Before the rows, a counting bound rules
    the cut out when no seed can meet the schedule: with x of the seed's
    elements among the m at or below f(l), a packing grown from it counts at
    most x + min(2 l floor(eps k), floor(2 (m - x) / 3)) deletions at stage
    l, since only the sets of stages 1..l reach below f(l), each counts at
    most 2, and a set counted there has its minimum there too, so of the
    m - x elements the sets share with nothing at most 2 in 3 count.  Such a
    cut adds 1 to ``trace["cut_skips"]`` and returns None.

    ``sets`` lists (member tuple, weight) by position, duplicates allowed,
    and ``sched`` is the stage schedule R(0..t).
    Layer (i, j) holds packings of j sets at stage i, keyed by (per-stage
    deletable counts, smallest element of the last set); stored sets are
    element bitmasks holding the seed's elements and the sets' non-minimum
    elements that lie above the previous stage threshold.
    Layer (0, 0) holds ``seeds``, the stored masks to start from: one per
    footprint that the packing must avoid, counted per stage under each cut,
    or for None the empty packing.  A set inserted at stage i deletes what it
    owes to stages 1..i - 1, and in a seeded DP the layer of j = i floor(eps k)
    sets, i <= 1/eps, closes stage i and owes R(i) too: later sets lie above
    f(i).  The unseeded DP keeps such keys, as its reductions read whole
    layers.  One ``reduce_layer`` call closes each layer: it counts the
    entries into ``trace`` and, with ``cap``, charges them to a fresh
    ``Budget`` of ``cap`` entries per cut, and reduces each
    entry of an unseeded DP to a max 3(k - j)-representative subfamily over
    the cut's order, its one part listing the elements in that order.
    Before that count and the reductions, a layer drops each stored set of j
    sets that stays below ``W`` even when k - j sets of the heaviest weight
    follow; keys left empty go too.  This leaves verdicts and weights as they
    are, while a witness can move to another packing of equal weight.  A set
    lighter than W - (k - 1) * heaviest is skipped before any cut: j sets
    holding it weigh less than W - (k - j) * heaviest, so that drop would
    remove every packing it builds, and the layers after the drop hold the
    same (key, mask, weight) triples.  Sets are scanned in order of their
    smallest element; for each child key the scan starts, by bisection, past
    every set whose minimum is not above both the key's last minimum and the
    stage floor.  ``pack`` returns the positions, the seed set and the weight
    of the first heaviest k-set packing of weight at least ``W`` that meets
    the schedule, or None; the seed comes back as its mask.  The first of
    equal weights wins, save in an unseeded DP between two child masks of one
    child key and set, or two final masks of one key: there the mask first in
    ascending sorted-member order wins.
    """
    weights = [w for _, w in sets]
    heaviest, lightest = max(weights, default=0), min(weights, default=0)
    min_useful = W - (k - 1) * heaviest
    # every partial packing holding a lighter set is pruned below
    useful = [(pos, members, sum(1 << e for e in members), w)
              for pos, (members, w) in enumerate(sets) if w >= min_useful]
    full = (1 << n) - 1

    Entry = dict  # {stored mask: (weight, payload)}

    def put(layer, key, fs, weight, payload):
        entry = layer.setdefault(key, {})
        old = entry.get(fs)
        if old is None or weight > old[0] or weight == old[0] and seeds is None and \
                old[1][1] == payload[1] and old[1][3] == payload[3] and \
                (a := payload[2]) & (d := a ^ old[1][2]) & -d:
            entry[fs] = (weight, payload)

    def pack(rank, f) -> tuple[tuple[int, ...], int, int] | None:
        t = len(f)
        ek = k // t
        f_rank = [rank[e] for e in f]
        # prefix[r]: the elements of rank r or less; below[l]: those at or
        # below the stage threshold f(l + 1)
        by_rank = tuple(sorted(range(n), key=rank.__getitem__))
        prefix = list(accumulate(1 << e for e in by_rank))
        below = [prefix[fr] for fr in f_rank]
        # the counting bound: m = f_rank + 1 elements lie at or below f(l)
        seed_counts = [(fs, tuple([(fs & b).bit_count() for b in below]))
                       for fs in ((0,) if seeds is None else seeds)]
        if not any(all(x + min(2 * l * ek, 2 * (fr + 1 - x) // 3) >= sched[l]
                       for l, (x, fr) in enumerate(zip(counts, f_rank), 1))
                   for _, counts in seed_counts):
            if trace is not None:
                trace["cut_skips"] = trace.get("cut_skips", 0) + 1
            return None
        sets_by_min: list[tuple[int, int, tuple[int, ...], int, int, int]] = []
        for pos, members, mask, w in useful:
            mn = min(members, key=rank.__getitem__)
            others = mask ^ (1 << mn)
            sets_by_min.append((rank[mn], pos, tuple([(others & b).bit_count() for b in below]),
                                others, mask, w))
        sets_by_min.sort()
        mranks = [row[0] for row in sets_by_min]
        cut_cap = None if cap is None else Budget(cap, "DP table entries")

        seed_layer: dict[tuple, Entry] = {}
        layers: dict[tuple[int, int], dict[tuple, Entry]] = {(0, 0): seed_layer}
        for fs, counts in seed_counts:
            put(seed_layer, (counts, -1), fs, 0, None)
        for i in range(1, t + 2):
            j_lo = 1 + (i - 1) * ek
            j_hi = i * ek if i <= t else k
            # every element of a set inserted at stage i must exceed f(i-1)
            floor_i = f_rank[i - 2] if i >= 2 else -1
            due = sched[1:i]  # the deletions owed by stages 1 .. i - 1
            for j in range(j_lo, min(j_hi, k) + 1):
                # a seeded layer closing stage i owes stage i too: later sets
                # lie above f(i)
                owed = sched[1:i + 1] if seeds is not None and j == j_hi and i <= t else due
                layer: dict[tuple, Entry] = {}
                # a stage's first layer extends the previous stage's last one
                child_lk = (i - 1, j - 1) if j == j_lo else (i, j - 1)
                # the elements a stored set keeps: all, or at a stage's first
                # layer only those above floor_i
                keep = full ^ below[i - 2] if j == j_lo and i >= 2 else -1
                for (s_vec, mrank_c), entry in layers[child_lk].items():
                    start = bisect_right(mranks, max(mrank_c, floor_i))
                    for mrank, pos, contrib, others, members, w in sets_by_min[start:]:
                        new_s = tuple(map(add, s_vec, contrib))
                        if any(map(lt, new_s, owed)):
                            continue
                        for fs, (cw, _) in entry.items():
                            a = fs & keep
                            # dropped minima and stage-stripped elements all
                            # sort below min(S), so this one check is full
                            # disjointness against the partial solution
                            if a & members:
                                continue
                            put(layer, (new_s, mrank), a | others,
                                add_weights(cw, w), (child_lk, (s_vec, mrank_c), fs, pos))
                # j sets below W - (k - j) * heaviest cannot reach W, nor can
                # any extension; j * lightest bounds every stored weight from below
                need = W - (k - j) * heaviest
                if need > j * lightest:
                    for key in list(layer):
                        alive = {fs: v for fs, v in layer[key].items() if v[0] >= need}
                        if alive:
                            layer[key] = alive
                        else:
                            del layer[key]
                def parts_of(key):
                    # stored sets hold 2j elements less stage i - 1's deletable count
                    size = 2 * j - (key[0][i - 2] if i >= 2 else 0)
                    return (PartitionPart(by_rank, size + 3 * (k - j), size),)
                reduce_layer(layer, parts_of if seeds is None else None, "max", trace, cut_cap)
                layers[(i, j)] = layer

        best: tuple[int, tuple, int] | None = None
        layer_key = max(layers)  # the one layer of k sets is built last
        for key, entry in layers[layer_key].items():
            if any(key[0][l] < sched[l + 1] for l in range(t)):
                continue
            for fs, (w, _) in entry.items():
                if w >= W and (best is None or w > best[0] or w == best[0] and seeds is None
                               and best[1] == key and fs & (d := fs ^ best[2]) & -d):
                    best = (w, key, fs)
        if best is None:
            return None

        weight, key, fs = best
        positions = []
        while layer_key != (0, 0):
            layer_key, key, fs, pos = layers[layer_key][key][fs][1]
            positions.append(pos)
        positions.reverse()
        return tuple(positions), fs, weight

    return pack


def verify_cwsp_witness(inst: CwspInstance, result: CwspResult) -> None:
    """Re-check an accepted ordered packing against the stated conditions."""
    if not result.accept:
        raise ParameterError("cannot verify a reject")
    fam = inst.family
    rank = inst.rank
    k, t = inst.k, inst.inv_eps
    ek = k // t
    sched = stage_schedule(k, t)
    sets = [fam.members(p) for p in result.ordered_sets]
    if len(sets) != k:
        raise ParameterError("witness does not have k sets")
    used: set[int] = set()
    for s in sets:
        if used.intersection(s):
            raise ParameterError("witness sets are not disjoint")
        used.update(s)
    mins = [min(s, key=lambda e: rank[e]) for s in sets]
    if any(rank[mins[i]] >= rank[mins[i + 1]] for i in range(k - 1)):
        raise ParameterError("witness sets are not ordered by smallest element")
    total = 0
    for p in result.ordered_sets:
        total = add_weights(total, fam.weight(p))
    if total != result.weight or total < inst.W:
        raise ParameterError("witness weight mismatch")
    for stage in range(1, t + 1):
        fr = rank[inst.f[stage - 1]]
        upto = min(stage * ek, k)
        deletable = sum(1 for idx in range(upto) for e in sets[idx]
                        if e != mins[idx] and rank[e] <= fr)
        if deletable < sched[stage]:
            raise ParameterError(f"stage {stage} deletion budget unmet")
        for idx in range(upto, k):
            if any(rank[e] <= fr for e in sets[idx]):
                raise ParameterError(f"set after stage {stage} uses a too-small element")


@dataclass(frozen=True)
class WspResult:
    status: str  # accept | reject | budget-exceeded
    packing: tuple[int, ...] | None = None
    weight: int | None = None


def cut_tuples(order: list[int], pieces: int):
    """All choices of `pieces` disjoint (l_i, r_i) rank pairs, l_i <= r_i.

    Singleton spans (l_i = r_i) are included, before the pairs: with
    floor(eps*k) = 1 the completeness construction can need a one-element
    first piece, which strictly-ordered endpoint pairs cannot express.
    """
    taken: list[tuple[int, int]] = []

    def rec(avail: tuple[int, ...]):
        if len(taken) == pieces:
            yield tuple(taken)
            return
        for span in chain(((x, x) for x in avail), combinations(avail, 2)):
            taken.append(span)
            yield from rec(tuple(x for x in avail if x not in span))
            taken.pop()

    yield from rec(tuple(range(len(order))))


def cut_tuple_count(m: int, pieces: int) -> int:
    """How many tuples ``cut_tuples`` yields over ``m`` ranks: a first span
    is one of m singletons or C(m, 2) pairs, and the rest are drawn from the
    ranks it leaves."""
    if pieces == 0:
        return 1
    if m < 1:
        return 0
    return m * cut_tuple_count(m - 1, pieces - 1) + comb(m, 2) * cut_tuple_count(m - 2, pieces - 1)


def cut_universes(rank: tuple[int, ...], pieces: int, budget: Budget):
    """Each distinct way to cut the order ``rank`` into ``pieces`` blocks, as
    the rank tuple of the order that puts the blocks first, plus the stage
    threshold function f (the last element of each block).

    Block i holds the ranks of span i not claimed by an earlier span, in
    rank order; cut tuples that leave a block empty or repeat an earlier
    block tuple are skipped.  Each cut's ranks are built in one pass: the
    blocks' elements are numbered 0, 1, ... in block order and the leftovers
    after them in rank order, the ranks of
    ``reorder_universe(universe, block_permutation(universe, blocks))`` for
    a universe of that rank.  Each raw cut tuple drawn, skipped ones
    included, is charged to ``budget``.
    """
    order = sorted(range(len(rank)), key=rank.__getitem__)
    seen: set[tuple] = set()
    for cut in cut_tuples(order, pieces):
        budget.charge()
        claimed = 0  # bit r: rank r lies in an earlier span
        placed: list[int] = []  # the blocks' ranks, in block order
        ends: list[int] = []  # len(placed) after each block
        for lo, hi in cut:
            placed.extend(r for r in range(lo, hi + 1) if not claimed >> r & 1)
            claimed |= (2 << hi) - (1 << lo)
            if len(placed) == (ends[-1] if ends else 0):
                break
            ends.append(len(placed))
        key = (tuple(placed), tuple(ends))
        if len(ends) < pieces or key in seen:
            continue
        seen.add(key)
        placed.extend(r for r in range(len(order)) if not claimed >> r & 1)
        rank = [0] * len(order)
        for new_rank, r in enumerate(placed):
            rank[order[r]] = new_rank
        yield tuple(rank), tuple(order[placed[end - 1]] for end in ends)


def wsp_alg(universe: OrderedUniverse, family: WeightedSetFamily, W: int, k: int,
            inv_eps: int = 2, c: float = 1.591, budget: int = 200_000,
            trace: dict | None = None) -> WspResult:
    """Unbalanced-cutting driver for weighted 3-set k-packing.

    Enumerates every cut tuple and accepts iff the staged DP accepts under
    some cut's order and stage threshold function.  The schedule, the
    deduplicated sets with their masks and weights and the weight skip are
    built once per call (``_pack_stages``); each distinct cut builds only its
    rank tuple (``cut_universes``) and its DP.  The enumeration count is
    budget-capped.  With one stage (1/eps = 1, or the fallback when
    floor(eps*k) = 0) nothing is stripped, so the first cut instance is the
    exact ordered-packing DP and its reject stands for every cut: a
    one-stage reject draws one cut tuple.  Some rejects are settled by
    weight alone: a set S passes when w(S) plus the k - 1 heaviest sets
    disjoint from S reach W, and fewer than k passing sets settle a reject.
    Each set of a k-packing of weight at least W passes, its k - 1 partners
    being disjoint from it, so no accept is settled and no witness moves.
    A passing set and its partners are k distinct sets, so every reject
    whose k heaviest sets weigh less than W is settled too.  A settled
    reject builds no cut order and runs no DP, so no reduction runs and
    ``trace`` is left as it is; it charges the cut tuples a reject would
    draw, counted by ``cut_tuple_count``, to the same ``budget``.
    ``family`` is used as given; each of its sets must have 3 members, all
    inside ``universe``, of which only the order is read.
    """
    if c < 1:
        raise ParameterError(f"c must be at least 1, got {c}")
    if k == 0:
        return WspResult("accept" if 0 >= W else "reject", (), 0)
    if k < 0:
        raise ParameterError("k must be non-negative")
    if inv_eps < 1 or inv_eps > 6:
        raise ParameterError("1/eps must be in 1..6")
    if k // inv_eps < 1:
        inv_eps = 1  # staged machinery needs floor(eps*k) >= 1; one stage always works
    if family.sets and family.set_size != 3:
        raise InstanceError(f"set {family.members(0)} does not have exactly 3 members")
    for members, _ in family.sets:
        if members[-1] >= len(universe):
            raise InstanceError(f"member index out of range in {members}")
    heavy = sorted(zip((w for _, w in family.sets), family.masks), reverse=True)
    head = sum(w for w, _ in heavy[:k - 1])  # bounds the k - 1 partners of any set
    passing = 0
    for w, mask in heavy:
        if w + head < W:
            break  # no lighter set passes either
        rest = [v for v, m in heavy if not m & mask][:k - 1]
        passing += len(rest) == k - 1 and w + sum(rest) >= W
        if passing == k:
            break
    cuts = Budget(budget, "cut tuples")
    try:
        if passing < k:
            # no k sets reach W under any cut; charge the cut tuples a reject draws
            drawn = cut_tuple_count(len(universe), inv_eps)
            cuts.charge(min(drawn, 1) if inv_eps == 1 else drawn)
            return WspResult("reject")
        pack = _pack_stages(len(universe), family.sets, k, stage_schedule(k, inv_eps), W,
                            trace=trace)
        for rank, f in cut_universes(universe.rank, inv_eps, cuts):
            found = pack(rank, f)
            if found is not None:
                positions, _, weight = found
                inst = CwspInstance(rank, family, W, k, inv_eps, f)
                verify_cwsp_witness(inst, CwspResult(True, positions, weight))
                return WspResult("accept", positions, weight)
            if inv_eps == 1:
                break  # one stage strips nothing, so no other cut can accept
    except BudgetExceededError:
        return WspResult("budget-exceeded")
    return WspResult("reject")
