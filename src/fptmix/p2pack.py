"""P2-packing: k node-disjoint 3-node paths, via iterative compression.

Round t receives a (t-1)-packing whose nodes form the set X.  A guaranteed
t-packing (if any exists) keeps most of its nodes inside X, so the round
splits it by (p, q): p nodes outside X spread over q paths.  One procedure
computes, per (p, q), a family of candidate X-footprints of those q paths
(a representative-family DP over the outside nodes); a second decides
whether some candidate footprint leaves room for the remaining k - q paths
inside X, running the weighted packing solver's unbalanced cutting and
staged DP with zero weights and no reduction, so entries keep explicit
partial-solution sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .core import (Budget, BudgetExceededError, Graph, InstanceError, ParameterError, _ceildiv,
                   bit_positions)
from .repsets import PartitionPart, reduce_layer
from .wsp import _check_cut_order, _pack_stages, cut_universes, stage_schedule

# the entries one cut's footprint DP may create, as explicit subsets can multiply out
_CUT_ENTRY_CAP = 5_000_000


@dataclass(frozen=True)
class Packing:
    paths: tuple[tuple[int, int, int], ...]  # (end, mid, end) with both edges present

    def __len__(self) -> int:
        return len(self.paths)

    def nodes(self) -> set[int]:
        return {v for p in self.paths for v in p}


def validate_packing(g: Graph, packing: Packing) -> None:
    adj, n = g.adjacency(), g.node_count
    used: set[int] = set()
    for path in packing.paths:
        try:
            a, b, c = path
        except (TypeError, ValueError):
            raise ParameterError(f"path {path!r} does not have three nodes") from None
        if not all(type(v) is int and 0 <= v < n for v in (a, b, c)):
            raise ParameterError(f"triple {(a, b, c)} names a node outside 0..{n - 1}")
        if len({a, b, c}) != 3 or a not in adj[b] or c not in adj[b]:
            raise ParameterError(f"triple {(a, b, c)} is not a 3-node path")
        if used.intersection((a, b, c)):
            raise ParameterError("packing paths are not node-disjoint")
        used.update((a, b, c))


@dataclass(frozen=True)
class IcpInstance:
    """One compression round over the (k-1)-packing ``previous``, whose nodes
    form X.  ``__post_init__`` derives what every (p, q) split of the round
    shares, in one scan of the graph's 3-node paths: X ascending, the paths
    inside X, and the paths that leave X as sorted (smallest outside index,
    outside mask, outside count, X mask, path) rows; bit i of an X mask is
    ``x_nodes[i]``.  Each node gets its X bit or its outside bit once, so a
    path's masks are ORs of its nodes' bits.  ``layers`` holds, per p, the
    ``icp_pro1`` layers built so far, which every q of the round shares."""
    graph: Graph
    k: int
    previous: Packing
    x_nodes: tuple[int, ...] = field(init=False, compare=False, repr=False)
    inside: tuple[tuple[int, int, int], ...] = field(init=False, compare=False, repr=False)
    leaving: tuple[tuple, ...] = field(init=False, compare=False, repr=False)
    layers: dict[int, dict] = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if len(self.previous) != self.k - 1:
            raise ParameterError("compression step needs a (k-1)-packing")
        validate_packing(self.graph, self.previous)
        n, x_nodes = self.graph.node_count, tuple(sorted(self.previous.nodes()))
        # node v's X bit and outside bit; exactly one of them is non-zero
        x_bit, y_bit = [0] * n, [0] * n
        for i, v in enumerate(x_nodes):
            x_bit[v] = 1 << i
        for i, v in enumerate(v for v in range(n) if not x_bit[v]):
            y_bit[v] = 1 << i
        inside, leaving = [], []
        for mid, near in enumerate(self.graph.adjacency()):
            for a, c in combinations(sorted(near), 2):
                ys = y_bit[a] | y_bit[mid] | y_bit[c]
                if ys:
                    leaving.append(((ys & -ys).bit_length() - 1, ys, ys.bit_count(),
                                    x_bit[a] | x_bit[mid] | x_bit[c], (a, mid, c)))
                else:
                    inside.append((a, mid, c))
        leaving.sort(key=lambda t: (t[0], t[4]))
        object.__setattr__(self, "x_nodes", x_nodes)
        object.__setattr__(self, "inside", tuple(inside))
        object.__setattr__(self, "leaving", tuple(leaving))


def icp_pro1(inst: IcpInstance, p: int, q: int,
             trace: dict | None = None) -> dict[int, Packing]:
    """Candidate X-footprints of the q paths that leave X.

    Returns a map from each surviving (3q - p)-subset of X to one q-packing
    realizing it.  DP over the outside nodes in ascending order: paths enter
    ordered by their smallest outside node, which is dropped from the stored
    set; stored sets (over outside-node indices) and footprints (X masks)
    are bitmasks, and each layer's families are (p - p')-reduced by one
    unweighted ``reduce_layer`` call, with ``trace`` passed to it.  The paths
    that leave X are read from ``inst.leaving``, derived once per round, so
    no call scans the graph.  Layer (0, 0) is the seed, the empty packing,
    which every rebuild walks back to.  A (p', q') layer depends on p but
    not on q, so ``inst`` keeps the layers per p for every q to share.  A
    layer is built when first read: by the read of (p, q), or by building a
    (p' + c, q' + 1) layer, c being the outside count of a leaving path.
    Outside 1 <= q' <= p' <= 3q' a layer is empty.
    """
    # layers[(p', q')][(m, X')] -> {stored Y-mask: payload}; (0, 0) holds the
    # empty packing, with no smallest outside node, that every packing starts from
    layers = inst.layers.setdefault(p, {(0, 0): {(-1, 0): {0: None}}})
    y_all = tuple(range(inst.graph.node_count - len(inst.x_nodes)))
    counts = {row[2] for row in inst.leaving}

    def build(p_used: int, q_used: int) -> dict:
        layer = layers.get((p_used, q_used))
        if layer is not None:
            return layer
        if not 1 <= q_used <= p_used <= 3 * q_used:
            return {}
        layer = {}
        children = {c: build(p_used - c, q_used - 1) for c in counts}
        for m, ypart, y_count, xpart, triple in inst.leaving:
            child_lk = (p_used - y_count, q_used - 1)
            stored_new = ypart ^ (1 << m)
            for (m2, x2), entry2 in children[y_count].items():
                if m2 >= m or x2 & xpart:
                    continue
                for fs2 in entry2:
                    if fs2 & ypart:
                        continue
                    entry = layer.setdefault((m, x2 | xpart), {})
                    entry.setdefault(fs2 | stored_new, (child_lk, (m2, x2), fs2, triple))
        size = p_used - q_used
        parts = (PartitionPart(y_all, size + (p - p_used), size),)
        reduce_layer(layer, lambda key: parts, None, trace)
        layers[(p_used, q_used)] = layer
        return layer

    result: dict[int, Packing] = {}
    final = build(p, q) if p else {}  # the (0, 0) seed is no result
    for (m, xpart), entry in sorted(final.items(),
                                    key=lambda kv: (kv[0][0], bit_positions(kv[0][1]))):
        if xpart in result:
            continue
        triples = []
        lk, key, cur = (p, q), (m, xpart), min(entry, key=bit_positions)
        while lk != (0, 0):
            lk, key, cur, triple = layers[lk][key][cur]
            triples.append(triple)
        result[xpart] = Packing(tuple(reversed(triples)))
    return result


@dataclass(frozen=True)
class Pro2Instance:
    rank: tuple[int, ...]  # element e's position in the order of elements 0..len(rank)-1
    k: int
    family: tuple[tuple[int, int, int], ...]  # 3-sets as sorted index triples
    p: int
    q: int
    candidates: tuple[int, ...]  # footprints as element bitmasks
    inv_eps: int
    f: tuple[int, ...] | None = None

    def __post_init__(self):
        n, want = len(self.rank), 3 * self.q - self.p
        for members in self.family:
            if len(members) != 3 or len(set(members)) != 3:
                raise InstanceError(f"set {members} does not have exactly 3 members")
            if not all(type(e) is int and 0 <= e < n for e in members):
                raise InstanceError(f"member index out of range or not an int in {members}")
        for cand in self.candidates:
            if type(cand) is not int or cand < 0 or cand >> n:
                raise InstanceError(f"candidate footprint {cand!r} out of range of 0..{n - 1}")
            if (size := cand.bit_count()) != want:
                raise ParameterError(f"candidate footprint of size {size}, expected {want}")
        _check_cut_order(self)


@dataclass(frozen=True)
class Cpro2Result:
    accept: bool
    footprint: int | None = None
    ordered_sets: tuple[int, ...] | None = None  # positions into inst.family


def solve_cpro2(inst: Pro2Instance) -> Cpro2Result:
    """Decide whether some candidate footprint leaves room for k - q
    disjoint family sets, on the weighted cut packing solver's staged DP.

    Every set weighs 0 and no representative reduction runs, so entries
    keep the exact set of still-relevant elements: the chosen footprint
    plus non-minimum set elements above the last stage threshold.  Layer
    (0, 0) holds one seed per candidate footprint, and the schedule counts
    the footprint's 3q - p elements from the start.  It runs the same two
    steps as ``procedure2``: the per-call set-up, then one cut, under the
    instance's own order and f.
    """
    if inst.f is None:
        raise ParameterError("the cut subproblem needs the stage function f")
    if inst.k - inst.q < 1:
        raise ParameterError("k - q must be at least 1 for the staged table")
    found = _footprint_packer(inst, inst.inv_eps)(inst.rank, inst.f)
    if found is None:
        return Cpro2Result(False)
    positions, footprint, _ = found
    return Cpro2Result(True, footprint, positions)


def _footprint_packer(inst: Pro2Instance, inv_eps: int, trace: dict | None = None):
    """The staged DP's per-call set-up for ``inst`` at ``inv_eps`` stages:
    the schedule with the footprint offset, the zero-weight sets and the
    candidate footprints as seed masks.  Returns its per-cut ``pack``, which
    counts its entries into ``trace`` and may create ``_CUT_ENTRY_CAP`` of
    them per cut."""
    kq = inst.k - inst.q
    sched = stage_schedule(kq, inv_eps, 3 * inst.q - inst.p)
    # raw member tuples: a triangle's three paths share one node set and
    # must keep the three positions the caller maps back through
    return _pack_stages(len(inst.rank), [(members, 0) for members in inst.family], kq,
                        sched, 0, inst.candidates, trace, _CUT_ENTRY_CAP)


@dataclass(frozen=True)
class Pro2Result:
    status: str  # accept | reject | budget-exceeded
    footprint: int | None = None
    ordered_sets: tuple[int, ...] | None = None


def procedure2(inst: Pro2Instance, budget: int | Budget = 200_000,
               trace: dict | None = None) -> Pro2Result:
    """Unbalanced-cutting driver for the footprint-avoiding packing decision.

    The schedule, the sets and the candidate footprints' masks are built
    once per call; each distinct cut builds only its rank tuple and its DP,
    which counts its entries into ``trace`` and may create
    ``_CUT_ENTRY_CAP`` of them.  Each raw cut tuple drawn is charged to
    ``budget``: a caller's ``Budget``, or a fresh one of that many tuples.
    """
    kq = inst.k - inst.q
    if kq < 0:
        return Pro2Result("reject")
    if kq == 0:
        # empty subfamily: any candidate footprint works
        if inst.candidates:
            return Pro2Result("accept", inst.candidates[0], ())
        return Pro2Result("reject")
    inv_eps = inst.inv_eps
    if kq // inv_eps < 1:
        inv_eps = 1
    if not isinstance(budget, Budget):
        budget = Budget(budget, "cut tuples")
    pack = _footprint_packer(inst, inv_eps, trace)
    try:
        for rank, f in cut_universes(inst.rank, inv_eps, budget):
            found = pack(rank, f)
            if found is not None:
                positions, footprint, _ = found
                return Pro2Result("accept", footprint, positions)
    except BudgetExceededError:
        return Pro2Result("budget-exceeded")
    return Pro2Result("reject")


@dataclass(frozen=True)
class P2Result:
    status: str  # accept | reject | budget-exceeded
    packing: Packing | None = None


def solve_p2packing(g: Graph, k: int, inv_eps: int = 2, c: float = 1.0,
                    budget: int = 200_000, trace: dict | None = None) -> P2Result:
    """Iterative compression: grow a packing one path at a time.

    Each round tries every (p, q) split sanctioned by the containment
    guarantee for packings extending the previous round's witness, combining
    the footprint family with the in-X packing decision; the reconstructed
    t-packing feeds the next round, whose ``IcpInstance`` derives X and its
    paths once, for every split to read, and validates it; the last one is
    validated before it is returned.  ``budget`` counts the cut tuples of
    the whole solve, every ``procedure2`` call charging the same ``Budget``,
    and ``trace`` counts the entries of both DPs.  A k-packing covers 3k
    distinct nodes, so a k above n/3 is rejected before any round, drawing
    no cut tuple and leaving ``trace`` as it was.
    """
    if c < 1:
        raise ParameterError(f"c must be at least 1, got {c}")
    if k < 0:
        raise ParameterError("k must be non-negative")
    if inv_eps < 1 or inv_eps > 6:
        raise ParameterError("1/eps must be in 1..6")
    if 3 * k > g.node_count:
        return P2Result("reject")
    current, cuts = Packing(()), Budget(budget, "cut tuples")
    for t in range(1, k + 1):
        inst = IcpInstance(g, t, current)
        p_cap = 3 * t - _ceildiv(5 * (t - 1), 2)
        x_rank = tuple(range(len(inst.x_nodes)))
        family = tuple(tuple(sorted(map(inst.x_nodes.index, tr))) for tr in inst.inside)
        found: Packing | None = None
        for p in range(3, p_cap + 1):
            for q in range(_ceildiv(p, 3), min(p, t) + 1):
                try:
                    fmap = icp_pro1(inst, p, q, trace)
                except BudgetExceededError:
                    return P2Result("budget-exceeded")
                if not fmap:
                    continue
                cands = tuple(sorted(fmap, key=bit_positions))
                sub = Pro2Instance(x_rank, t, family, p, q, cands, inv_eps)
                res = procedure2(sub, cuts, trace)
                if res.status == "budget-exceeded":
                    return P2Result("budget-exceeded")
                if res.status == "accept":
                    outside = fmap[res.footprint]
                    inside = tuple(inst.inside[pos] for pos in res.ordered_sets)
                    found = Packing(tuple(outside.paths) + inside)
                    break
            if found is not None:
                break
        if found is None:
            return P2Result("reject")
        current = found
    validate_packing(g, current)
    return P2Result("accept", current)
