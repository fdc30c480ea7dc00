"""Brute-force reference solvers: the ground truth for every solver suite.

Everything here is exhaustive enumeration with explicit budgets.  These
functions are written against raw instance fields and deliberately import no
solver module; where a solver and an oracle need the same derived quantity
(floors, deletion schedules), it is recomputed here so that agreement between
the two is evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .core import Budget, Digraph, Graph, WeightedSetFamily, add_weights


@dataclass(frozen=True)
class OracleBudget:
    max_states: int = 2_000_000

    def __post_init__(self):
        if self.max_states <= 0:
            raise ValueError("budget must be positive")

    def counter(self) -> Budget:
        """One oracle call's count of the states it visits."""
        return Budget(self.max_states, "oracle states")


def _ceildiv(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------- k-path

def oracle_kpath(g: Digraph, k: int, budget: OracleBudget | None = None):
    """Minimum weight of a simple directed path on exactly k nodes, or None."""
    if k <= 0:
        return None
    counter = (budget or OracleBudget()).counter()
    if k == 1:
        return 0 if g.node_count >= 1 else None
    out = g.out_neighbors()
    weights = g.arc_weights()
    best: list = [None]

    def extend(v: int, depth: int, visited: set[int], total: int):
        counter.charge()
        if depth == k:
            if best[0] is None or total < best[0]:
                best[0] = total
            return
        for u in sorted(out[v]):
            if u not in visited:
                visited.add(u)
                extend(u, depth + 1, visited, add_weights(total, weights[(v, u)]))
                visited.remove(u)

    for start in range(g.node_count):
        extend(start, 1, {start}, 0)
    return best[0]


# ---------------------------------------------------------------- k-IOB

def _arborescence_max_internal(g: Digraph, root: int, counter: Budget):
    """Max internal-node count over spanning arborescences rooted at root."""
    n = g.node_count
    if n == 1:
        return 0
    inn = g.in_neighbors()
    others = [v for v in range(n) if v != root]
    parent = {}
    best = [None]

    def assign(idx: int):
        if idx == len(others):
            counter.charge()
            # parent map is an arborescence iff every chain reaches the root
            for v in others:
                seen = set()
                while v != root:
                    if v in seen:
                        return
                    seen.add(v)
                    v = parent[v]
            internal = len(set(parent.values()))
            if best[0] is None or internal > best[0]:
                best[0] = internal
            return
        v = others[idx]
        for p in sorted(inn[v]):
            parent[v] = p
            assign(idx + 1)
        parent.pop(v, None)

    assign(0)
    return best[0]


def oracle_kiob(g: Digraph, k: int, budget: OracleBudget | None = None) -> bool:
    counter = (budget or OracleBudget()).counter()
    for root in range(g.node_count):
        if not g.reaches_all(root):
            continue
        internal = _arborescence_max_internal(g, root, counter)
        if internal is not None and internal >= k:
            return True
    return False


def oracle_kiob_by_arc_subsets(g: Digraph, k: int, budget: OracleBudget | None = None) -> bool:
    """Dual enumeration strategy: spanning arc subsets of size n-1."""
    counter = (budget or OracleBudget()).counter()
    n = g.node_count
    if n == 1:
        return k <= 0
    arcs = [(t, h) for t, h, _ in g.arcs]
    for subset in combinations(arcs, n - 1):
        counter.charge()
        indeg = [0] * n
        for _, h in subset:
            indeg[h] += 1
        roots = [v for v in range(n) if indeg[v] == 0]
        if len(roots) != 1 or any(d != 1 for v, d in enumerate(indeg) if v != roots[0]):
            continue
        parent = {h: t for t, h in subset}
        ok = True
        for v in range(n):
            seen = set()
            while v != roots[0] and ok:
                if v in seen:
                    ok = False
                seen.add(v)
                v = parent[v]
        if ok and len(set(parent.values())) >= k:
            return True
    return False


def tree_exists_on(g: Digraph, nodes, root: int, internal_count: int,
                   counter: Budget | None = None) -> bool:
    """Is some out-tree rooted at root spanning exactly ``nodes`` with the
    given internal count?"""
    nodes = sorted(nodes)
    if root not in nodes:
        return False
    if len(nodes) == 1:
        return internal_count == 0
    node_set = set(nodes)
    inn = g.in_neighbors()
    others = [v for v in nodes if v != root]
    choices = [[p for p in sorted(inn[v]) if p in node_set] for v in others]
    if any(not c for c in choices):
        return False
    for combo in product(*choices):
        if counter is not None:
            counter.charge()
        parent = dict(zip(others, combo))
        ok = True
        for v in others:
            seen = set()
            w = v
            while w != root:
                if w in seen:
                    ok = False
                    break
                seen.add(w)
                w = parent[w]
            if not ok:
                break
        if ok and len(set(parent.values())) == internal_count:
            return True
    return False


def out_tree_node_sets(g: Digraph, root: int, internal: int, leaves: int,
                       budget: OracleBudget | None = None) -> set[frozenset]:
    """All node-sets of out-trees rooted at root with the exact shape counts."""
    counter = (budget or OracleBudget()).counter()
    size = internal + leaves
    found: set[frozenset] = set()
    if size <= 0 or internal < 0 or leaves < 0 or size > g.node_count:
        return found
    rest = [v for v in range(g.node_count) if v != root]
    for extra in combinations(rest, size - 1):
        nodes = (root,) + extra
        if tree_exists_on(g, nodes, root, internal, counter):
            found.add(frozenset(nodes))
    return found


def brute_matching_size(n: int, edges, counter: Budget | None = None) -> int:
    """Exhaustive maximum matching size via DFS over a sorted edge list."""
    edges = sorted(edges)
    best = [0]

    def walk(idx: int, used: int, count: int):
        if counter is not None:
            counter.charge()
        best[0] = max(best[0], count)
        if count + (len(edges) - idx) <= best[0]:
            return
        for j in range(idx, len(edges)):
            u, v = edges[j]
            bit = (1 << u) | (1 << v)
            if used & bit == 0:
                walk(j + 1, used | bit, count + 1)

    walk(0, 0, 0)
    return best[0]


def brute_matching_size_by_vertex(n: int, edges, counter: Budget | None = None) -> int:
    """Dual method: branch on the lowest untouched vertex."""
    adj = [sorted({v for u, v in map(sorted, edges) if u == w} |
                  {u for u, v in map(sorted, edges) if v == w}) for w in range(n)]

    def walk(v: int, used: int) -> int:
        if counter is not None:
            counter.charge()
        while v < n and (used >> v) & 1:
            v += 1
        if v >= n:
            return 0
        best = walk(v + 1, used | (1 << v))  # leave v unmatched
        for u in adj[v]:
            if not (used >> u) & 1:
                best = max(best, 1 + walk(v + 1, used | (1 << v) | (1 << u)))
        return best

    return walk(0, 0)


def oracle_tp(g: Digraph, root: int, internal: int, leaves: int, q: int,
              budget: OracleBudget | None = None) -> bool:
    """Exhaustive tree-and-paths: an out-tree with the exact shape plus q
    disjoint 2-node paths avoiding it."""
    counter = (budget or OracleBudget()).counter()
    size = internal + leaves
    if size == 0:
        return False
    if size > g.node_count:
        return False
    undirected = g.underlying_graph()
    rest = [v for v in range(g.node_count) if v != root]
    for extra in combinations(rest, size - 1):
        nodes = set((root,) + extra)
        if not tree_exists_on(g, nodes, root, internal, counter):
            continue
        free_edges = [(u, v) for u, v in undirected.edges if u not in nodes and v not in nodes]
        if brute_matching_size(g.node_count, free_edges, counter) >= q:
            return True
    return False


# ---------------------------------------------------------------- (3,k)-WSP

def oracle_wsp(family: WeightedSetFamily, k: int, budget: OracleBudget | None = None):
    """Optimal total weight over k pairwise-disjoint family sets, or None."""
    counter = (budget or OracleBudget()).counter()
    masks = list(zip(family.masks, (w for _, w in family.sets)))
    best: list = [None]

    def walk(idx: int, used: int, chosen: int, total: int):
        counter.charge()
        if chosen == k:
            if best[0] is None or total > best[0]:
                best[0] = total
            return
        if len(masks) - idx < k - chosen:
            return
        for j in range(idx, len(masks)):
            mask, w = masks[j]
            if used & mask == 0:
                walk(j + 1, used | mask, chosen + 1, add_weights(total, w))

    walk(0, 0, 0, 0)
    return best[0]


def oracle_wsp_by_combinations(family: WeightedSetFamily, k: int,
                               budget: OracleBudget | None = None):
    """Dual method: filter all k-subfamilies for disjointness."""
    counter = (budget or OracleBudget()).counter()
    best = None
    for combo in combinations(range(len(family)), k):
        counter.charge()
        used = 0
        total = 0
        ok = True
        for i in combo:
            mask = family.masks[i]
            if used & mask:
                ok = False
                break
            used |= mask
            total = add_weights(total, family.weight(i))
        if ok and (best is None or total > best):
            best = total
    return best


def _r_schedule_wsp(k: int, inv_eps: int) -> list[int]:
    ek = k // inv_eps
    if ek <= 0:
        raise ValueError("floor(eps*k) must be >= 1")
    r = [0, 0]
    for j in range(2, inv_eps + 1):
        denom = _ceildiv(3 * (k - (j - 1) * ek), ek)
        r.append(r[-1] + _ceildiv(2 * (j - 1) * ek - r[-1], denom))
    return r


def oracle_cwsp(inst, budget: OracleBudget | None = None) -> bool:
    """Literal check of the cut-and-ordered packing conditions.

    ``inst`` needs: rank (element e's position in the order), family, W,
    k, inv_eps, f (tuple of element indices, one threshold per stage).
    """
    counter = (budget or OracleBudget()).counter()
    family: WeightedSetFamily = inst.family
    rank = inst.rank
    k, inv_eps = inst.k, inst.inv_eps
    if k == 0:
        return 0 >= inst.W
    ek = k // inv_eps
    if ek <= 0:
        raise ValueError("instance needs floor(eps*k) >= 1")
    sched = _r_schedule_wsp(k, inv_eps)
    f_ranks = [rank[e] for e in inst.f]
    if any(f_ranks[i] > f_ranks[i + 1] for i in range(len(f_ranks) - 1)):
        raise ValueError("f must be non-decreasing in the universe order")

    items = sorted(range(len(family)), key=lambda i: min(rank[e] for e in family.members(i)))

    def conditions_hold(chosen: list[int]) -> bool:
        ordered = sorted(chosen, key=lambda i: min(rank[e] for e in family.members(i)))
        mins = [min(rank[e] for e in family.members(i)) for i in ordered]
        if any(mins[a] >= mins[a + 1] for a in range(len(mins) - 1)):
            return False
        for stage in range(1, inv_eps + 1):
            upto = min(stage * ek, k)
            non_min = [rank[e] for i in ordered[:upto]
                       for e in family.members(i) if rank[e] != min(rank[x] for x in family.members(i))]
            if sum(1 for r in non_min if r <= f_ranks[stage - 1]) < sched[stage]:
                return False
            for i in ordered[upto:]:
                if any(rank[e] <= f_ranks[stage - 1] for e in family.members(i)):
                    return False
        return True

    def walk(idx: int, used: int, chosen: list[int], total: int) -> bool:
        counter.charge()
        if len(chosen) == k:
            return total >= inst.W and conditions_hold(chosen)
        for j in range(idx, len(items)):
            i = items[j]
            mask = family.masks[i]
            if used & mask == 0:
                chosen.append(i)
                if walk(j + 1, used | mask, chosen, add_weights(total, family.weight(i))):
                    return True
                chosen.pop()
        return False

    return walk(0, 0, [], 0)


# ---------------------------------------------------------------- P2-packing

def all_p2_paths(g: Graph) -> list[tuple[int, int, int]]:
    """Canonical (a, mid, c) triples with a < c forming 3-node paths."""
    adj = g.adjacency()
    out = []
    for mid in range(g.node_count):
        nbrs = sorted(adj[mid])
        for a, c in combinations(nbrs, 2):
            out.append((a, mid, c))
    return out


def oracle_p2p(g: Graph, k: int, budget: OracleBudget | None = None) -> bool:
    counter = (budget or OracleBudget()).counter()
    paths = all_p2_paths(g)
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in paths]

    def walk(idx: int, used: int, count: int) -> bool:
        counter.charge()
        if count == k:
            return True
        if len(paths) - idx < k - count:
            return False
        for j in range(idx, len(paths)):
            if used & masks[j] == 0 and walk(j + 1, used | masks[j], count + 1):
                return True
        return False

    return walk(0, 0, 0)


def oracle_p2p_by_combinations(g: Graph, k: int, budget: OracleBudget | None = None) -> bool:
    counter = (budget or OracleBudget()).counter()
    paths = all_p2_paths(g)
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in paths]
    for combo in combinations(range(len(paths)), k):
        counter.charge()
        used = 0
        ok = True
        for j in combo:
            if used & masks[j]:
                ok = False
                break
            used |= masks[j]
        if ok:
            return True
    return k == 0


def enumerate_packings(g: Graph, k: int, budget: OracleBudget | None = None):
    """All k-packings (as tuples of canonical triples); exhaustive."""
    counter = (budget or OracleBudget()).counter()
    paths = all_p2_paths(g)
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in paths]
    out = []

    def walk(idx: int, used: int, chosen: list[int]):
        counter.charge()
        if len(chosen) == k:
            out.append(tuple(paths[j] for j in chosen))
            return
        for j in range(idx, len(paths)):
            if used & masks[j] == 0:
                chosen.append(j)
                walk(j + 1, used | masks[j], chosen)
                chosen.pop()

    walk(0, 0, [])
    return out


def _r_schedule_cpro2(k: int, inv_eps: int, offset: int) -> list[int]:
    """R(0..1/eps) with a footprint's ``offset`` elements counted from the
    start, so R(1) = ceil(offset / ceil(3k / floor(eps k)))."""
    ek = k // inv_eps
    if ek <= 0:
        raise ValueError("floor(eps*k) must be >= 1")
    r = [0]
    for j in range(1, inv_eps + 1):
        denom = _ceildiv(3 * (k - (j - 1) * ek), ek)
        r.append(r[-1] + _ceildiv(offset + 2 * (j - 1) * ek - r[-1], denom))
    return r


def oracle_cpro2(inst, budget: OracleBudget | None = None) -> bool:
    """Literal check of the footprint-avoiding cut subproblem.

    ``inst`` needs: rank (element e's position in the order), k, family
    (3-sets as index triples), p, q, candidates (footprints of 3q - p
    elements, as element bitmasks), inv_eps and f (one threshold element
    per stage).  Accepts iff, for some candidate C, k - q
    family sets at distinct positions, pairwise disjoint and disjoint from
    C, ordered by smallest element, meet every stage s: C's elements at or
    below f(s), with the non-minimum ones of the first
    min(s * floor(eps(k - q)), k - q) sets, number at least R(s), where R
    counts C's 3q - p elements from the start, and no later set holds an
    element at or below f(s).
    """
    counter = (budget or OracleBudget()).counter()
    rank = inst.rank
    kq = inst.k - inst.q
    ek = kq // inst.inv_eps
    sched = _r_schedule_cpro2(kq, inst.inv_eps, 3 * inst.q - inst.p)
    f_ranks = [rank[e] for e in inst.f]
    if any(f_ranks[i] > f_ranks[i + 1] for i in range(len(f_ranks) - 1)):
        raise ValueError("f must be non-decreasing in the universe order")

    def stages_hold(foot: list[int], sets: list[list[int]]) -> bool:
        for stage, fr in enumerate(f_ranks, 1):
            upto = min(stage * ek, kq)
            deleted = sum(r <= fr for r in foot) + \
                sum(r <= fr for ranks in sets[:upto] for r in ranks[1:])
            if deleted < sched[stage] or any(ranks[0] <= fr for ranks in sets[upto:]):
                return False
        return True

    for cand in inst.candidates:
        foot = [rank[e] for e in range(len(rank)) if cand >> e & 1]
        for combo in combinations(inst.family, kq):
            counter.charge()
            # each set as its ascending ranks, the sets by smallest element
            sets = sorted(sorted(rank[e] for e in members) for members in combo)
            used = foot + [r for ranks in sets for r in ranks]
            if len(set(used)) == len(used) and stages_hold(foot, sets):
                return True
    return False


# ---------------------------------------------------------------- k-CWP

def _kcwp_params(k: int, inv_eps: int, delta: Fraction, gamma: Fraction) -> dict:
    kt = k - 1
    m2 = inv_eps - 1
    if m2 % 2:
        raise ValueError("(1/eps - 1) must be even")
    m = m2 // 2
    mt = delta * m2
    if mt.denominator != 1:
        raise ValueError("delta * (1/eps - 1) must be an integer")
    mt = int(mt)
    ek = kt // inv_eps
    k1 = int((Fraction(1, 2) + delta) * gamma * k)
    k2 = int((Fraction(1, 2) - delta) * gamma * k)
    mid = k - 2 * m * ek - 2
    return {"kt": kt, "m": m, "mt": mt, "ek": ek, "k1": k1, "k2": k2, "mid": mid}


def oracle_kcwp(inst, budget: OracleBudget | None = None) -> bool:
    """Literal piece-by-piece enumeration of the cut weighted path conditions.

    ``inst`` needs: digraph, W, k, inv_eps, delta, gamma, L, R, l1, l2, r1,
    r2, vl, vr (functions as tuples of node ids).
    """
    counter = (budget or OracleBudget()).counter()
    g: Digraph = inst.digraph
    par = _kcwp_params(inst.k, inst.inv_eps, inst.delta, inst.gamma)
    m, mt, ek, k1, k2, mid = par["m"], par["mt"], par["ek"], par["k1"], par["k2"], par["mid"]
    if ek - 1 < 1 or mid < 1:
        raise ValueError("piece sizes must be at least one internal node")
    out = g.out_neighbors()
    weights = g.arc_weights()
    img = set(inst.l1) | set(inst.l2) | set(inst.r1) | set(inst.r2) | {inst.vl, inst.vr}
    L, R = set(inst.L), set(inst.R)

    pieces = []
    for i in range(m + mt):
        pieces.append((inst.l1[i], inst.l2[i], ek - 1, "left", i + 1))
    pieces.append((inst.vl, inst.vr, mid, "middle", 0))
    for i in range(m - mt):
        pieces.append((inst.r1[i], inst.r2[i], ek - 1, "right", i + 1))

    def piece_paths(start, end, length, banned, used):
        """Yield (internal tuple, weight) for simple start->end paths."""
        if start == end:
            return
        path: list[int] = []

        def dfs(v, total):
            counter.charge()
            if len(path) == length:
                if end not in path and end != start and (v, end) in weights:
                    yield tuple(path), add_weights(total, weights[(v, end)])
                return
            for u in sorted(out[v]):
                if u in banned or u in used or u in path or u == start or u == end:
                    continue
                path.append(u)
                yield from dfs(u, add_weights(total, weights[(v, u)]))
                path.pop()

        yield from dfs(start, 0)

    def ok_after_left(i, l_count):
        return Fraction(l_count) >= Fraction(i, m + mt) * (k1 - mid)

    def ok_after_right(i, r_count):
        return Fraction(r_count) <= Fraction(i, m - mt) * (k2 - mid) + mid

    def walk(idx, used, l_count, r_count, total) -> bool:
        if idx == len(pieces):
            return l_count == k1 and r_count == k2 and total <= inst.W
        start, end, length, kind, pos = pieces[idx]
        if kind == "left":
            banned = R | img
        elif kind == "middle":
            banned = img
        else:
            banned = L | img
        for internal, w in piece_paths(start, end, length, banned, used):
            dl = sum(1 for v in internal if v in L)
            dr = sum(1 for v in internal if v in R)
            nl, nr = l_count + dl, r_count + dr
            if nl > k1 or nr > k2:
                continue
            if kind == "left" and not ok_after_left(pos, nl):
                continue
            if kind == "right" and not ok_after_right(pos, nr):
                continue
            if walk(idx + 1, used | set(internal), nl, nr, add_weights(total, w)):
                return True
        return False

    return walk(0, set(), 0, 0, 0)
